"""EOSVM library APIs (host imports) exposed to Wasm contracts.

These are the intrinsics the paper's §2.2 lists: permission APIs
(``require_auth``/``has_auth``/``require_auth2``), blockchain-state
APIs (``tapos_block_num``/``tapos_block_prefix``), ``eosio_assert``,
the ``db_*`` family, action I/O, inline/deferred action submission, and
the trace-printing extensions WASAI adds to Nodeos (``logi``/``logsf``/
``logdf``, §3.3.1 — here generalised to one import per operand
signature under the ``wasabi`` module namespace).

Every invocation is journalled into the apply context's ``host_calls``
list; the Scanner's detectors (§3.5) and the DBG builder read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..wasm.interpreter import HostFunc, Instance
from ..wasm.types import FuncType, I32, I64
from .errors import AssertionFailure, MissingAuthorization
from .serialize import Decoder

__all__ = ["ContextCell", "HostCall", "build_host_imports",
           "HOST_API_SIGNATURES"]

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class HostCall:
    """One library-API invocation observed during an action."""

    api: str
    args: tuple
    result: object = None


# Wasm-level signatures of the library APIs (params, results).
HOST_API_SIGNATURES: dict[str, tuple[tuple, tuple]] = {
    "require_auth": ((I64,), ()),
    "require_auth2": ((I64, I64), ()),
    "has_auth": ((I64,), (I32,)),
    "require_recipient": ((I64,), ()),
    "is_account": ((I64,), (I32,)),
    "current_receiver": ((), (I64,)),
    "eosio_assert": ((I32, I32), ()),
    "abort": ((), ()),
    "read_action_data": ((I32, I32), (I32,)),
    "action_data_size": ((), (I32,)),
    "send_inline": ((I32, I32), ()),
    "send_deferred": ((I32, I64, I32, I32), ()),
    "tapos_block_num": ((), (I32,)),
    "tapos_block_prefix": ((), (I32,)),
    "current_time": ((), (I64,)),
    "db_store_i64": ((I64, I64, I64, I64, I32, I32), (I32,)),
    "db_find_i64": ((I64, I64, I64, I64), (I32,)),
    "db_get_i64": ((I32, I32, I32), (I32,)),
    "db_update_i64": ((I32, I64, I32, I32), ()),
    "db_remove_i64": ((I32,), ()),
    "db_next_i64": ((I32, I32), (I32,)),
    "db_lowerbound_i64": ((I64, I64, I64, I64), (I32,)),
    "prints": ((I32,), ()),
    "printi": ((I64,), ()),
    "printn": ((I64,), ()),
    "memcpy": ((I32, I32, I32), (I32,)),
    "memmove": ((I32, I32, I32), (I32,)),
    "memset": ((I32, I32, I32), (I32,)),
}


class ContextCell:
    """Mutable slot holding the apply context of the action in flight.

    Building the ~30 host-import closures costs more than a typical
    apply() executes, so the chain binds the imports once per contract
    against a cell and repoints ``cell.ctx`` at the start of each
    apply.  Applies never nest (inline actions and notifications run
    after the triggering apply returns), so one slot per contract is
    enough.  Passing a plain :class:`ApplyContext` where a cell is
    expected still works — it is wrapped in a single-use cell.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx=None):
        self.ctx = ctx


def build_host_imports(chain, ctx) -> dict[tuple[str, str], HostFunc]:
    """Bind the library APIs to a chain and an apply context.

    ``ctx`` may be an apply context (bound for one action) or a
    :class:`ContextCell` the caller repoints per action.  Returns the
    host-import dict for :class:`repro.wasm.Instance`.  Tracing hooks
    (``wasabi.*``) are added separately by the chain when the contract
    is instrumented.
    """
    cell = ctx if isinstance(ctx, ContextCell) else ContextCell(ctx)
    imports: dict[tuple[str, str], HostFunc] = {}

    def register(api: str, impl) -> None:
        params, results = HOST_API_SIGNATURES[api]

        def wrapped(instance: Instance, args: list) -> list:
            result = impl(instance, *args)
            out = [] if result is None else [result]
            cell.ctx.host_calls.append(HostCall(api, tuple(args),
                                                out[0] if out else None))
            return out

        imports[("env", api)] = HostFunc(FuncType(params, results), wrapped)

    # -- permissions ------------------------------------------------------
    def require_auth(instance, account):
        if not cell.ctx.has_authorization(account):
            raise MissingAuthorization(account)

    def require_auth2(instance, account, permission):
        if not cell.ctx.has_authorization(account):
            raise MissingAuthorization(account)

    def has_auth(instance, account):
        return 1 if cell.ctx.has_authorization(account) else 0

    register("require_auth", require_auth)
    register("require_auth2", require_auth2)
    register("has_auth", has_auth)
    register("is_account",
             lambda instance, account: 1 if chain.is_account(account) else 0)

    # -- notifications / receiver ------------------------------------------
    register("require_recipient",
             lambda instance, account: cell.ctx.add_recipient(account))
    register("current_receiver", lambda instance: cell.ctx.receiver)

    # -- assertions -----------------------------------------------------------
    def eosio_assert(instance, condition, msg_ptr):
        if not condition:
            message = instance.mem_read_cstr(msg_ptr)
            raise AssertionFailure(message)

    def do_abort(instance):
        raise AssertionFailure("abort() called")

    register("eosio_assert", eosio_assert)
    register("abort", do_abort)

    # -- action data -------------------------------------------------------------
    def read_action_data(instance, ptr, length):
        data = cell.ctx.data[:length]
        instance.mem_write(ptr, data)
        return len(data)

    register("read_action_data", read_action_data)
    register("action_data_size", lambda instance: len(cell.ctx.data))

    # -- inline / deferred actions --------------------------------------------------
    def send_inline(instance, ptr, length):
        payload = instance.mem_read(ptr, length)
        cell.ctx.add_inline_action(_decode_packed_action(payload))

    def send_deferred(instance, sender_id, payer, ptr, length):
        payload = instance.mem_read(ptr, length)
        cell.ctx.add_deferred_action(_decode_packed_action(payload))

    register("send_inline", send_inline)
    register("send_deferred", send_deferred)

    # -- blockchain state --------------------------------------------------------------
    register("tapos_block_num", lambda instance: chain.tapos_block_num & MASK32)
    register("tapos_block_prefix",
             lambda instance: chain.tapos_block_prefix & MASK32)
    register("current_time", lambda instance: chain.current_time & MASK64)

    # -- database ------------------------------------------------------------------------
    def db_store(instance, scope, table, payer, key, ptr, length):
        data = instance.mem_read(ptr, length)
        return chain.db.store(cell.ctx.receiver, scope, table, payer, key,
                              data)

    def db_find(instance, code, scope, table, key):
        return chain.db.find(code, scope, table, key) & MASK32

    def db_get(instance, iterator, ptr, length):
        data = chain.db.get(iterator)
        if length:
            instance.mem_write(ptr, data[:length])
        return len(data)

    def db_update(instance, iterator, payer, ptr, length):
        data = instance.mem_read(ptr, length)
        chain.db.update(iterator, payer, data)

    def db_next(instance, iterator, key_ptr):
        next_iter, next_key = chain.db.next(iterator)
        if next_iter >= 0 and key_ptr:
            instance.mem_write(key_ptr, next_key.to_bytes(8, "little"))
        return next_iter & MASK32

    def db_lowerbound(instance, code, scope, table, key):
        iterator, _ = chain.db.lowerbound(code, scope, table, key)
        return iterator & MASK32

    register("db_store_i64", db_store)
    register("db_find_i64", db_find)
    register("db_get_i64", db_get)
    register("db_update_i64", db_update)
    register("db_remove_i64",
             lambda instance, iterator: chain.db.remove(iterator))
    register("db_next_i64", db_next)
    register("db_lowerbound_i64", db_lowerbound)

    # -- console ------------------------------------------------------------------------------
    register("prints",
             lambda instance, ptr: cell.ctx.console.append(
                 instance.mem_read_cstr(ptr)))
    register("printi",
             lambda instance, value: cell.ctx.console.append(str(value)))
    register("printn", lambda instance, value: cell.ctx.console.append(
        _render_name(value)))

    # -- libc shims ------------------------------------------------------------------------------
    def memcpy(instance, dst, src, length):
        instance.mem_write(dst, instance.mem_read(src, length))
        return dst

    def memset(instance, dst, value, length):
        instance.mem_write(dst, bytes([value & 0xFF]) * length)
        return dst

    register("memcpy", memcpy)
    register("memmove", memcpy)
    register("memset", memset)
    return imports


def _render_name(value: int) -> str:
    from .name import name_to_string
    return name_to_string(value)


def _decode_packed_action(payload: bytes):
    """Decode the packed-action wire format used by send_inline:
    account u64, name u64, auth vector of (actor, permission) u64
    pairs, then a length-prefixed data blob."""
    from .chain import Action  # local import to avoid a cycle
    decoder = Decoder(payload)
    account = decoder.uint(8)
    name = decoder.uint(8)
    auth_count = decoder.varuint32()
    authorization = []
    for _ in range(auth_count):
        actor = decoder.uint(8)
        decoder.uint(8)  # permission name, unused by the simulator
        authorization.append(actor)
    data = decoder.raw(decoder.varuint32())
    return Action(account, name, authorization, data)
