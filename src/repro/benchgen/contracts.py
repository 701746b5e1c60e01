"""Generator of realistic EOSIO-style Wasm contracts.

Mainnet binaries are unavailable offline, so the benchmark corpus is
generated: each contract is genuine Wasm bytecode following the EOSIO
CDT conventions the paper's analyses exploit —

* a ``void apply(receiver, code, action)`` dispatcher that deserialises
  the action-data byte stream and reaches the action function through
  an **indirect call** (the §3.4.2 pattern),
* an *eosponser* with the ``transfer@eosio.token`` signature (§2.1),
* the Table 2 memory layout for asset and string parameters,
* database use through ``db_*_i64`` (transaction dependency), inline/
  deferred reward actions, tapos-based randomness, and the guard code
  whose presence/absence defines the five vulnerability ground truths.

The configuration knobs correspond one-to-one to the paper's benchmark
construction (§4.2): removing guard code yields Fake EOS / Fake Notif
samples, dropping ``require_auth`` yields MissAuth samples, the tapos
PRNG yields BlockinfoDep, inline rewards yield Rollback, and an
unsatisfiable branch wrapper yields the non-vulnerable twins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..eosio.abi import Abi, TRANSFER_SIGNATURE
from ..eosio.asset import Asset
from ..eosio.chain import Action
from ..eosio.name import N
from ..eosio.serialize import Encoder
from ..wasm.builder import FunctionBuilder, ModuleBuilder
from ..wasm.module import Module

__all__ = ["ContractConfig", "GeneratedContract", "generate_contract",
           "INPUT_ADDR", "TEMPLATE_ADDR", "VULN_TYPES"]

VULN_TYPES = ("fake_eos", "fake_notif", "missauth", "blockinfodep",
              "rollback")

INPUT_ADDR = 1024        # where apply() deserialises the action data
TEMPLATE_ADDR = 512      # packed inline-action template
ERR_ADDR = 256           # NUL-terminated assert messages

# Table slots of the action functions (the indirect-call dispatch).
SLOT_TRANSFER = 0
SLOT_INIT = 1
SLOT_PAYOUT = 2


@dataclass
class ContractConfig:
    """Knobs defining one generated contract (and its ground truth)."""

    account: str = "victim"
    seed: int = 0
    # Guard code presence (True = patched / safe).
    fake_eos_guard: bool = True
    fake_notif_guard: bool = True
    auth_check: bool = True
    # Behavioural features.
    use_blockinfo: bool = False
    reward_scheme: str = "defer"       # "inline" | "defer" | "none"
    db_dependency: bool = False        # eosponser requires init first
    has_payout: bool = True            # expose the MissAuth surface
    # Dispatcher idiom: "canonical" uses the i64.eq pattern EOSAFE's
    # heuristic recognises; "variant" computes the same predicate as
    # eqz(action - N(x)) — semantically identical, but outside the
    # pattern (the §4.2 cause of EOSAFE's FNs).
    dispatcher_style: str = "canonical"
    # Input-verification maze (drives RQ1 coverage / RQ3 robustness).
    maze_depth: int = 0
    # Extra `if (field != const) unreachable` guards (RQ3 verification).
    verification_guards: tuple = ()    # e.g. (("amount", 100000), ...)
    # Reward only when the memo starts with this byte string — the
    # batdappboomx / CVE-2022-27134 pattern ('action:buy').
    memo_guard: bytes = b""
    # The eosponser only responds to payments from this account (the
    # §4.2 FN mechanism: "can only be invoked by the caller with the
    # specific address, i.e., its administrator").
    admin_gate: str = ""
    # Wrap the reward/tapos code in an unsatisfiable branch, producing
    # ground-truth non-vulnerable BlockinfoDep/Rollback samples (§4.2).
    unreachable_reward: bool = False

    def ground_truth(self) -> dict[str, bool]:
        """Which of the five vulnerabilities this contract truly has."""
        reward_reachable = (self.reward_scheme != "none"
                            and not self.unreachable_reward)
        return {
            "fake_eos": not self.fake_eos_guard,
            "fake_notif": not self.fake_notif_guard,
            "missauth": not self.auth_check,
            "blockinfodep": (self.use_blockinfo
                             and not self.unreachable_reward),
            "rollback": self.reward_scheme == "inline"
                        and not self.unreachable_reward,
        }


@dataclass
class GeneratedContract:
    """A generated contract plus its metadata."""

    config: ContractConfig
    module: Module
    abi: Abi
    ground_truth: dict[str, bool] = field(default_factory=dict)
    # The maze's threading input (None when maze_depth == 0); the RQ3
    # verification injector aligns its required quantity with it so the
    # injected guards stay satisfiable together with the maze.
    maze_witness: dict[str, int] | None = None

    @property
    def account(self) -> str:
        return self.config.account


def generate_contract(config: ContractConfig) -> GeneratedContract:
    """Emit the contract module for ``config``."""
    rng = random.Random(config.seed)
    gen = _ContractEmitter(config, rng)
    module = gen.build()
    abi = Abi.from_signatures(_abi_signatures(config))
    return GeneratedContract(config, module, abi, config.ground_truth(),
                             gen.maze_witness)


def _abi_signatures(config: ContractConfig) -> dict:
    signatures = {
        "transfer": TRANSFER_SIGNATURE,
        "init": (("owner", "name"),),
    }
    if config.has_payout:
        signatures["payout"] = (("to", "name"), ("quantity", "asset"))
    return signatures


class _ContractEmitter:
    """Builds the Wasm module for one configuration."""

    def __init__(self, config: ContractConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.builder = ModuleBuilder()
        self.imports: dict[str, int] = {}
        self._err_cursor = ERR_ADDR
        self._data: list[tuple[int, bytes]] = []
        self.maze_witness: dict[str, int] | None = None

    # -- import helpers -----------------------------------------------------
    def imp(self, api: str) -> int:
        from ..eosio.host import HOST_API_SIGNATURES
        if api not in self.imports:
            params, results = HOST_API_SIGNATURES[api]
            self.imports[api] = self.builder.import_function(
                "env", api,
                params=[t.name for t in params],
                results=[r.name for r in results])
        return self.imports[api]

    def err_msg(self, text: str) -> int:
        """Embed a NUL-terminated message; returns its address."""
        addr = self._err_cursor
        data = text.encode() + b"\x00"
        self._data.append((addr, data))
        self._err_cursor += len(data)
        return addr

    # -- top level ------------------------------------------------------------
    def build(self) -> Module:
        b = self.builder
        b.add_memory(1)
        # Pre-declare every import the bodies may use so indices are
        # stable before function emission begins.
        for api in ("read_action_data", "action_data_size", "eosio_assert",
                    "require_auth", "require_recipient", "send_inline",
                    "send_deferred", "tapos_block_num", "tapos_block_prefix",
                    "db_store_i64", "db_find_i64", "db_update_i64",
                    "db_get_i64", "current_receiver"):
            self.imp(api)
        transfer = self._emit_transfer_impl()
        init = self._emit_init_impl()
        payout = self._emit_payout_impl() if self.config.has_payout else None
        extras = self._emit_extra_actions()
        self._emit_apply(transfer, init, payout, extras)
        b.add_table_entry(SLOT_TRANSFER, transfer)
        b.add_table_entry(SLOT_INIT, init)
        if payout is not None:
            b.add_table_entry(SLOT_PAYOUT, payout)
        for _name, slot, func, _dispatch in extras:
            b.add_table_entry(slot, func)
        # Inline-action template for rewards/payouts.
        template = self._reward_template()
        self._data.append((TEMPLATE_ADDR, template))
        for addr, data in self._data:
            b.add_data(addr, data)
        return b.build()

    def _emit_extra_actions(self) -> list:
        """Hook for subclass emitters (e.g. the semantic corpus) to add
        actions beyond transfer/init/payout.  Returns a list of
        ``(action_name, table_slot, function, dispatch)`` tuples where
        ``dispatch(f)`` pushes the arguments and the indirect call."""
        return []

    # -- the dispatcher (§2.2) ---------------------------------------------------
    def _emit_apply(self, transfer: FunctionBuilder, init: FunctionBuilder,
                    payout: FunctionBuilder | None,
                    extras: list = ()) -> None:
        b = self.builder
        f = b.function("apply", params=["i64", "i64", "i64"])
        size = f.add_local("i32")
        # Deserialise up-front (matches the CDT's generated dispatcher).
        f.emit("call", self.imp("action_data_size"))
        f.local_set(size)
        f.i32_const(INPUT_ADDR).local_get(size)
        f.emit("call", self.imp("read_action_data"))
        f.emit("drop")
        # --- transfer dispatch -------------------------------------------
        self._emit_action_compare(f, N("transfer"))
        f.emit("if", None)
        if self.config.fake_eos_guard:
            # Listing 1's patch: assert(code == N(eosio.token)).
            f.local_get(1)
            f.i64_const(N("eosio.token"))
            f.emit("i64.eq")
            f.i32_const(self.err_msg("onerror:fake eos"))
            f.emit("call", self.imp("eosio_assert"))
        self._dispatch_transfer(f)
        f.emit("else")
        # --- other actions: only when code == receiver (Listing 1) --------
        f.local_get(1)
        f.local_get(0)
        f.emit("i64.eq")
        f.emit("if", None)
        self._emit_action_compare(f, N("init"))
        f.emit("if", None)
        self._dispatch_init(f)
        f.emit("end")
        if payout is not None:
            self._emit_action_compare(f, N("payout"))
            f.emit("if", None)
            self._dispatch_payout(f)
            f.emit("end")
        for name, _slot, _func, dispatch in extras:
            self._emit_action_compare(f, N(name))
            f.emit("if", None)
            dispatch(f)
            f.emit("end")
        f.emit("end")
        f.emit("end")
        b.export_function("apply", f)
        self._fix_indirect_types(f)

    def _emit_action_compare(self, f: FunctionBuilder, name_value: int) -> None:
        """Push ``action == name_value`` as an i32 truth value, using
        the configured dispatcher idiom."""
        if self.config.dispatcher_style == "canonical":
            f.local_get(2)
            f.i64_const(name_value)
            f.emit("i64.eq")
        else:
            # eqz(action - N(x)): the same predicate, different shape.
            f.local_get(2)
            f.i64_const(name_value)
            f.emit("i64.sub")
            f.emit("i64.eqz")

    def _dispatch_transfer(self, f: FunctionBuilder) -> None:
        """Push the eosponser arguments per the Table 2 layout and
        dispatch through the indirect-call table."""
        f.local_get(0)                       # self (receiver)
        f.i32_const(INPUT_ADDR)
        f.emit("i64.load", 3, 0)             # from
        f.i32_const(INPUT_ADDR)
        f.emit("i64.load", 3, 8)             # to
        f.i32_const(INPUT_ADDR + 16)         # quantity ptr (amount+symbol)
        f.i32_const(INPUT_ADDR + 32)         # memo ptr (len byte + content)
        f.i32_const(SLOT_TRANSFER)
        f.emit("call_indirect", _TYPE_TRANSFER)

    def _dispatch_init(self, f: FunctionBuilder) -> None:
        f.local_get(0)
        f.i32_const(INPUT_ADDR)
        f.emit("i64.load", 3, 0)             # owner
        f.i32_const(SLOT_INIT)
        f.emit("call_indirect", _TYPE_INIT)

    def _dispatch_payout(self, f: FunctionBuilder) -> None:
        f.local_get(0)
        f.i32_const(INPUT_ADDR)
        f.emit("i64.load", 3, 0)             # to
        f.i32_const(INPUT_ADDR + 8)          # quantity ptr
        f.i32_const(SLOT_PAYOUT)
        f.emit("call_indirect", _TYPE_PAYOUT)

    def _fix_indirect_types(self, f: FunctionBuilder) -> None:
        """Replace the symbolic type markers with real type indices."""
        from ..wasm.opcodes import Instr
        marker_types = {
            _TYPE_TRANSFER: (("i64", "i64", "i64", "i32", "i32"), ()),
            _TYPE_INIT: (("i64", "i64"), ()),
            _TYPE_PAYOUT: (("i64", "i64", "i32"), ()),
        }
        self._pending_indirect = marker_types  # consumed in build() fixup
        # The builder interns types at build(); patch via a post-build
        # hook: store marker -> params on the builder for later.
        original_build = self.builder.build

        def build_with_fixup():
            module = original_build()
            from ..wasm.types import FuncType, ValType
            for func in module.functions:
                for i, instr in enumerate(func.body):
                    if instr.op == "call_indirect" and instr.args[0] < 0:
                        params, results = marker_types[instr.args[0]]
                        func_type = FuncType(
                            tuple(ValType.from_name(p) for p in params),
                            tuple(ValType.from_name(r) for r in results))
                        type_index = module.add_type(func_type)
                        func.body[i] = Instr("call_indirect", type_index)
            return module

        self.builder.build = build_with_fixup

    # -- the eosponser ---------------------------------------------------------------
    def _emit_transfer_impl(self) -> FunctionBuilder:
        cfg = self.config
        f = self.builder.function(
            "transfer_impl",
            params=["i64", "i64", "i64", "i32", "i32"])
        # locals: 0=self 1=from 2=to 3=quantity_ptr 4=memo_ptr
        if cfg.fake_notif_guard:
            # Listing 2's patch: if (to != _self) return.
            f.local_get(2)
            f.local_get(0)
            f.emit("i64.ne")
            f.emit("if", None)
            f.emit("return")
            f.emit("end")
        # Ignore our own outgoing transfers (from == _self).
        f.local_get(1)
        f.local_get(0)
        f.emit("i64.eq")
        f.emit("if", None)
        f.emit("return")
        f.emit("end")
        if cfg.admin_gate:
            # Only the administrator's payments are served.
            f.local_get(1)
            f.i64_const(N(cfg.admin_gate))
            f.emit("i64.ne")
            f.emit("if", None)
            f.emit("return")
            f.emit("end")
        for guard in cfg.verification_guards:
            self._emit_verification_guard(f, guard)
        if cfg.memo_guard:
            self._emit_memo_guard(f, cfg.memo_guard)
        if cfg.db_dependency:
            self._emit_db_dependency_check(f)
        body = lambda: self._emit_reward_body(f)
        if cfg.maze_depth > 0:
            # The witness input that threads the whole maze; drawing it
            # up front keeps the vulnerable leaf reachable (the paper's
            # ground-truth construction requires the injected template
            # to be triggerable by an elaborate input).
            witness = {"amount": self.rng.randrange(20_000, 1_000_000_000),
                       "memo0": self.rng.randrange(1, 256)}
            self.maze_witness = witness
            self._emit_maze(f, cfg.maze_depth, body, witness)
        else:
            body()
        return f

    def _emit_verification_guard(self, f: FunctionBuilder, guard) -> None:
        """RQ3 complicated verification: mismatch => unreachable."""
        field_name, constant = guard
        self._push_field(f, field_name)
        f.i64_const(constant) if field_name != "memo0" else f.i32_const(
            constant)
        op = "i64.ne" if field_name != "memo0" else "i32.ne"
        f.emit(op)
        f.emit("if", None)
        f.emit("unreachable")
        f.emit("end")

    def _push_field(self, f: FunctionBuilder, field_name: str) -> None:
        """Push one eosponser input field onto the stack."""
        if field_name == "from":
            f.local_get(1)
        elif field_name == "to":
            f.local_get(2)
        elif field_name == "amount":
            f.local_get(3)
            f.emit("i64.load", 3, 0)
        elif field_name == "symbol":
            f.local_get(3)
            f.emit("i64.load", 3, 8)
        elif field_name == "memo0":
            f.local_get(4)
            f.emit("i32.load8_u", 0, 1)  # first content byte
        else:
            raise ValueError(f"unknown field {field_name!r}")

    def _emit_memo_guard(self, f: FunctionBuilder, prefix: bytes) -> None:
        """Return early unless the memo starts with ``prefix`` — the
        CVE-2022-27134 trigger shape (memo == "action:buy")."""
        for i, byte in enumerate(prefix):
            f.local_get(4)
            f.emit("i32.load8_u", 0, 1 + i)  # memo content byte i
            f.i32_const(byte)
            f.emit("i32.ne")
            f.emit("if", None)
            f.emit("return")
            f.emit("end")

    def _emit_db_dependency_check(self, f: FunctionBuilder) -> None:
        """eosio_assert(db_find(config) != -1): transaction dependency."""
        f.emit("call", self.imp("current_receiver"))
        f.emit("call", self.imp("current_receiver"))
        f.i64_const(N("config"))
        f.i64_const(0)
        f.emit("call", self.imp("db_find_i64"))
        f.i32_const(-1)
        f.emit("i32.ne")
        f.i32_const(self.err_msg("contract not initialized"))
        f.emit("call", self.imp("eosio_assert"))

    def _emit_maze(self, f: FunctionBuilder, depth: int, leaf,
                   witness: dict[str, int], on_true_path: bool = True) -> None:
        """A binary tree of input comparisons; the all-true leaf holds
        the interesting code, every other leaf is filler.

        Along the true path every node's predicate is satisfied by
        ``witness``, so that leaf is reachable by construction — while
        the random 64-bit constants keep blind fuzzing out of the deep
        levels (the Figure 3 coverage differential).  Else-subtrees get
        fresh constants: realistic dead weight that a feedback fuzzer
        can still chew through.  Only attacker-controllable fields
        (amount, memo) participate, so the leaf stays reachable through
        a legitimate payment.
        """
        rng = self.rng
        field_name = rng.choice(["amount", "amount", "memo0"])
        w = witness[field_name]
        if field_name == "memo0":
            choices = [("i32.eq", w)]
            if w < 255:
                choices.append(("i32.lt_u", rng.randrange(w + 1, 256)))
            op, constant = rng.choice(choices)
            self._push_field(f, field_name)
            f.i32_const(constant)
            f.emit(op)
        else:
            choices = [("i64.eq", w), ("i64.eq", w),
                       ("i64.lt_u", w + rng.randrange(1, 1 << 20)),
                       ("i64.gt_u", rng.randrange(0, w))]
            op, constant = rng.choice(choices)
            self._push_field(f, field_name)
            f.i64_const(constant)
            f.emit(op)
        f.emit("if", None)
        if depth <= 1:
            if on_true_path:
                leaf()
            else:
                self._emit_filler(f)
        else:
            self._emit_maze(f, depth - 1, leaf, witness, on_true_path)
        f.emit("else")
        if depth <= 1:
            self._emit_filler(f)
        else:
            sibling = {"amount": rng.randrange(20_000, 1_000_000_000),
                       "memo0": rng.randrange(1, 256)}
            self._emit_maze(f, depth - 1, leaf, sibling,
                            on_true_path=False)
        f.emit("end")

    def _emit_filler(self, f: FunctionBuilder) -> None:
        """A harmless leaf: write a stats row."""
        f.i32_const(0)
        f.local_get(1)
        f.emit("i64.store", 3, 64)  # stash 'from' in scratch memory
        f.emit("nop")

    def _emit_reward_body(self, f: FunctionBuilder) -> None:
        """The profitable path: pay the player back (Listing 4)."""
        cfg = self.config
        emit_reward = lambda: self._emit_send_reward(f)
        wrapped = emit_reward
        if cfg.use_blockinfo:
            wrapped = lambda: self._emit_blockinfo_gate(f, emit_reward)
        if cfg.unreachable_reward:
            # Ground-truth-safe twin: the gate can never be satisfied
            # (amount must equal two different constants).
            c1 = self.rng.randrange(1, 1 << 32)
            c2 = c1 + 1 + self.rng.randrange(1 << 16)
            self._push_field(f, "amount")
            f.i64_const(c1)
            f.emit("i64.eq")
            f.emit("if", None)
            self._push_field(f, "amount")
            f.i64_const(c2)
            f.emit("i64.eq")
            f.emit("if", None)
            wrapped()
            f.emit("end")
            f.emit("end")
        else:
            # Minimum stake check (realistic eosponser behaviour).
            self._push_field(f, "amount")
            f.i64_const(10_000)  # 1.0000 EOS
            f.emit("i64.ge_s")
            f.emit("if", None)
            wrapped()
            f.emit("end")

    def _emit_blockinfo_gate(self, f: FunctionBuilder, inner) -> None:
        """Listing 4's tapos PRNG: reward only when the dice land."""
        a = f.add_local("i32")
        b = f.add_local("i32")
        f.emit("call", self.imp("tapos_block_prefix"))
        f.emit("call", self.imp("tapos_block_num"))
        f.emit("i32.mul")
        f.local_set(a)
        f.emit("call", self.imp("tapos_block_prefix"))
        f.emit("call", self.imp("tapos_block_num"))
        f.emit("i32.add")
        f.local_set(b)
        f.local_get(b)
        f.emit("i32.eqz")
        f.emit("if", None)
        f.emit("return")
        f.emit("end")
        f.local_get(a)
        f.local_get(b)
        f.emit("i32.rem_u")
        f.emit("if", None)
        inner()
        f.emit("end")

    def _emit_send_reward(self, f: FunctionBuilder) -> None:
        """Patch the packed template (recipient, amount) and send it."""
        cfg = self.config
        if cfg.reward_scheme == "none":
            self._emit_filler(f)
            return
        offsets = self._template_offsets()
        # recipient = from
        f.i32_const(TEMPLATE_ADDR + offsets["to"])
        f.local_get(1)
        f.emit("i64.store", 3, 0)
        # reward amount = the stake (echo it back).
        f.i32_const(TEMPLATE_ADDR + offsets["amount"])
        f.local_get(3)
        f.emit("i64.load", 3, 0)
        f.emit("i64.store", 3, 0)
        if cfg.reward_scheme == "inline":
            f.i32_const(TEMPLATE_ADDR)
            f.i32_const(len(self._reward_template()))
            f.emit("call", self.imp("send_inline"))
        else:
            # send_deferred(sender_id, payer, ptr, len)
            f.i32_const(0)
            f.i64_const(N(self.config.account))
            f.i32_const(TEMPLATE_ADDR)
            f.i32_const(len(self._reward_template()))
            f.emit("call", self.imp("send_deferred"))

    def _template_offsets(self) -> dict[str, int]:
        """Byte offsets of the patchable fields inside the template."""
        # account(8) name(8) authcount(1) actor(8) perm(8) datalen(1)
        data_start = 8 + 8 + 1 + 16 + 1
        return {"from": data_start, "to": data_start + 8,
                "amount": data_start + 16, "symbol": data_start + 24}

    def _reward_template(self) -> bytes:
        data = (Encoder().name(self.config.account).name(self.config.account)
                .asset(Asset.from_string("0.0001 EOS")).string("r").bytes())
        action = Action("eosio.token", "transfer",
                        [self.config.account], data)
        return action.pack()

    # -- init ------------------------------------------------------------------------
    def _emit_init_impl(self) -> FunctionBuilder:
        f = self.builder.function("init_impl", params=["i64", "i64"])
        # locals: 0=self 1=owner
        if self.config.auth_check:
            f.local_get(1)
            f.emit("call", self.imp("require_auth"))
        # Store the owner into the config table (if absent).
        f.emit("call", self.imp("current_receiver"))
        f.emit("call", self.imp("current_receiver"))
        f.i64_const(N("config"))
        f.i64_const(0)
        f.emit("call", self.imp("db_find_i64"))
        f.i32_const(-1)
        f.emit("i32.eq")
        f.emit("if", None)
        f.i32_const(0)
        f.local_get(1)
        f.emit("i64.store", 3, 128)
        f.emit("call", self.imp("current_receiver"))
        f.i64_const(N("config"))
        f.local_get(0)
        f.i64_const(0)
        f.i32_const(128)
        f.i32_const(8)
        f.emit("call", self.imp("db_store_i64"))
        f.emit("drop")
        f.emit("end")
        return f

    # -- payout (the MissAuth surface, §2.3.3) ---------------------------------------------
    def _emit_payout_impl(self) -> FunctionBuilder:
        f = self.builder.function("payout_impl",
                                  params=["i64", "i64", "i32"])
        # locals: 0=self 1=to 2=quantity_ptr
        if self.config.auth_check:
            f.local_get(1)
            f.emit("call", self.imp("require_auth"))
        offsets = self._template_offsets()
        f.i32_const(TEMPLATE_ADDR + offsets["to"])
        f.local_get(1)
        f.emit("i64.store", 3, 0)
        f.i32_const(TEMPLATE_ADDR + offsets["amount"])
        f.local_get(2)
        f.emit("i64.load", 3, 0)
        f.emit("i64.store", 3, 0)
        f.i32_const(TEMPLATE_ADDR)
        f.i32_const(len(self._reward_template()))
        f.emit("call", self.imp("send_inline"))
        return f


# Negative sentinels for call_indirect type indices, fixed at build().
_TYPE_TRANSFER = -1
_TYPE_INIT = -2
_TYPE_PAYOUT = -3
