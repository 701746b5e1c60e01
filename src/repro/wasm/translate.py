"""Direct-threaded translation of Wasm functions to closure chains.

The generic interpreter (:meth:`repro.wasm.interpreter.Instance._execute`)
pays a per-step decode cost for every executed instruction: fetch the
:class:`~repro.wasm.opcodes.Instr`, read ``instr.op``, walk a chain of
string comparisons for the control ops, then a dict lookup plus operand
unpacking for everything else.  None of that work depends on runtime
state — the opcode, its immediates, the jump targets of structured
control and the callee of a direct ``call`` are all fixed once the
function body exists.

:func:`translated_function` therefore compiles a function body ONCE into
a list of per-instruction closures ("direct-threaded" dispatch): each
closure has its operands, jump targets, local slots, memory offsets and
masks pre-bound, executes its instruction against ``(instance, stack,
control, locals)`` and returns the next program counter.  The driver
loop in :class:`TranslatedFunction` then only meters fuel (and the
optional wall-clock deadline) and threads the pc — everything else was
resolved at translation time.

Semantics are bit-for-bit those of the generic interpreter: the control
stack, branch unwinding, trap types and messages, fuel accounting and
the deadline check cadence are all mirrored exactly, and the
differential suite (``tests/wasm/test_translate_differential.py``)
holds both engines to identical traces, traps and verdicts over the
benchmark and hostile corpora.  Rarely executed opcodes (float math,
conversions, ``memory.grow`` ...) reuse the generic handler table with
the instruction pre-bound, so there is exactly one implementation of
their semantics.

Translations are memoised per :class:`~repro.wasm.module.Function` in a
process-wide LRU (the memo keeps the function object alive, so ``id``
reuse cannot alias entries).  A function the translator cannot handle
falls back to the generic interpreter — translation can change speed,
never behaviour.
"""

from __future__ import annotations

import struct
import time as _time
from collections import OrderedDict

from .interpreter import (MASK32, MASK64, _SIMPLE_OPS, _ControlEntry,
                          _build_jump_table, _f32, _signed, TrapDeadline,
                          TrapIndirectCall, TrapOutOfFuel,
                          TrapUnreachable)
from .module import Function, Module
from .opcodes import memory_access_size

__all__ = ["TranslatedFunction", "translated_function",
           "clear_translation_cache", "translation_cache_info"]

# The sentinel pc the generic interpreter uses for a branch that exits
# the function body; any value >= the body length ends the driver loop.
_RETURN_PC = 1 << 30

# Process-wide translation memo: id(func) -> (func, TranslatedFunction
# | None).  The function reference keeps the object alive so a reused
# id can never resolve to a stale translation; None records a function
# the translator punted on, so the fallback decision is also memoised.
_MAX_TRANSLATIONS = 4096
_TRANSLATIONS: "OrderedDict[int, tuple[Function, TranslatedFunction | None]]" \
    = OrderedDict()


def translated_function(module: Module,
                        func: Function) -> "TranslatedFunction | None":
    """The memoised translation of ``func`` (None: use the generic
    interpreter).  Modules are immutable once they execute, so the
    translation is valid for the function's lifetime."""
    key = id(func)
    hit = _TRANSLATIONS.get(key)
    if hit is not None and hit[0] is func:
        _TRANSLATIONS.move_to_end(key)
        return hit[1]
    try:
        code = _translate(module, func)
    except Exception:
        code = None  # untranslatable: the generic loop is the answer
    _TRANSLATIONS[key] = (func, code)
    while len(_TRANSLATIONS) > _MAX_TRANSLATIONS:
        _TRANSLATIONS.popitem(last=False)
    return code


def clear_translation_cache() -> None:
    _TRANSLATIONS.clear()


def translation_cache_info() -> dict[str, int]:
    entries = len(_TRANSLATIONS)
    translated = sum(1 for _, code in _TRANSLATIONS.values()
                     if code is not None)
    return {"entries": entries, "translated": translated,
            "fallbacks": entries - translated}


class TranslatedFunction:
    """A compiled function body: one closure per instruction plus the
    metering driver loop."""

    __slots__ = ("steps", "size")

    def __init__(self, steps: list):
        self.steps = steps
        self.size = len(steps)

    def run(self, inst, locals_list: list) -> list:
        """Execute the closure chain; mirrors ``Instance._execute``.

        Fuel is checked then decremented before every instruction, and
        the wall-clock deadline is probed on the same ``fuel & 2047``
        cadence as the generic loop, so metering traps fire at exactly
        the same instruction in both engines.
        """
        steps = self.steps
        size = self.size
        stack: list = []
        control: list = []
        pc = 0
        deadline = inst._deadline
        if deadline is None:
            while pc < size:
                fuel = inst.fuel
                if fuel <= 0:
                    raise TrapOutOfFuel("instruction budget exhausted")
                inst.fuel = fuel - 1
                pc = steps[pc](inst, stack, control, locals_list)
        else:
            while pc < size:
                fuel = inst.fuel
                if fuel <= 0:
                    raise TrapOutOfFuel("instruction budget exhausted")
                fuel -= 1
                inst.fuel = fuel
                if (fuel & 2047) == 0 and _time.monotonic() > deadline:
                    raise TrapDeadline(
                        f"wall-clock deadline of {inst.limits.deadline_s}s "
                        "expired")
                pc = steps[pc](inst, stack, control, locals_list)
        return stack


# ---------------------------------------------------------------------------
# Per-instruction closure factories.  Every factory pre-binds the
# instruction's immediates and the next pc; the returned closures all
# share the (inst, stack, control, locals_list) -> next_pc signature.
# ---------------------------------------------------------------------------

def _const(value, next_pc):
    def step(inst, stack, control, locals_list):
        stack.append(value)
        return next_pc
    return step


def _local_get(index, next_pc):
    def step(inst, stack, control, locals_list):
        stack.append(locals_list[index])
        return next_pc
    return step


def _local_set(index, next_pc):
    def step(inst, stack, control, locals_list):
        locals_list[index] = stack.pop()
        return next_pc
    return step


def _local_tee(index, next_pc):
    def step(inst, stack, control, locals_list):
        locals_list[index] = stack[-1]
        return next_pc
    return step


def _global_get(index, next_pc):
    def step(inst, stack, control, locals_list):
        stack.append(inst.globals[index])
        return next_pc
    return step


def _global_set(index, next_pc):
    def step(inst, stack, control, locals_list):
        inst.globals[index] = stack.pop()
        return next_pc
    return step


def _drop(next_pc):
    def step(inst, stack, control, locals_list):
        stack.pop()
        return next_pc
    return step


def _select(next_pc):
    def step(inst, stack, control, locals_list):
        cond = stack.pop()
        second = stack.pop()
        first = stack.pop()
        stack.append(first if cond else second)
        return next_pc
    return step


def _binop(fn, m, next_pc):
    def step(inst, stack, control, locals_list):
        rhs = stack.pop()
        lhs = stack.pop()
        stack.append(fn(lhs, rhs) & m)
        return next_pc
    return step


def _relop(fn, next_pc):
    def step(inst, stack, control, locals_list):
        rhs = stack.pop()
        lhs = stack.pop()
        stack.append(1 if fn(lhs, rhs) else 0)
        return next_pc
    return step


def _eqz(next_pc):
    def step(inst, stack, control, locals_list):
        stack.append(1 if stack.pop() == 0 else 0)
        return next_pc
    return step


def _load_int(offset, size, bits, signed, m, op_name, next_pc):
    from .interpreter import TrapMemoryOutOfBounds

    def step(inst, stack, control, locals_list):
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        value = int.from_bytes(memory[addr:addr + size], "little")
        if signed:
            value = _signed(value, bits) & m
        stack.append(value)
        return next_pc
    return step


def _load_float(offset, size, fmt, op_name, next_pc):
    from .interpreter import TrapMemoryOutOfBounds
    unpack = struct.Struct(fmt).unpack

    def step(inst, stack, control, locals_list):
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        stack.append(unpack(bytes(memory[addr:addr + size]))[0])
        return next_pc
    return step


def _store_int(offset, size, vmask, op_name, next_pc):
    from .interpreter import TrapMemoryOutOfBounds

    def step(inst, stack, control, locals_list):
        value = stack.pop()
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        memory[addr:addr + size] = (value & vmask).to_bytes(size, "little")
        return next_pc
    return step


def _store_float(offset, size, fmt, op_name, next_pc):
    from .interpreter import TrapMemoryOutOfBounds
    pack = struct.Struct(fmt).pack

    def step(inst, stack, control, locals_list):
        value = stack.pop()
        addr = stack.pop() + offset
        memory = inst.memory
        if addr + size > len(memory) or addr < 0:
            raise TrapMemoryOutOfBounds(f"{op_name} at {addr}")
        memory[addr:addr + size] = pack(_f32(value) if size == 4 else value)
        return next_pc
    return step


def _via_handler(handler, instr, next_pc):
    """Fallback for rare opcodes: the generic handler with the
    instruction pre-bound — one shared implementation of the
    semantics, minus the per-step dispatch."""
    def step(inst, stack, control, locals_list):
        handler(inst, instr, stack, locals_list)
        return next_pc
    return step


# -- control flow ----------------------------------------------------------

def _block(end_pc, arity, next_pc):
    def step(inst, stack, control, locals_list):
        control.append(_ControlEntry("block", end_pc, arity, len(stack)))
        return next_pc
    return step


def _loop(head_pc, arity, next_pc):
    def step(inst, stack, control, locals_list):
        control.append(_ControlEntry("loop", head_pc, arity, len(stack)))
        return next_pc
    return step


def _if(end_pc, else_pc, arity, next_pc):
    end_next = end_pc + 1
    else_next = None if else_pc is None else else_pc + 1

    def step(inst, stack, control, locals_list):
        if stack.pop():
            control.append(_ControlEntry("if", end_pc, arity, len(stack)))
            return next_pc
        if else_next is not None:
            control.append(_ControlEntry("if", end_pc, arity, len(stack)))
            return else_next
        return end_next
    return step


def _else(next_pc):
    # Reached after the then-arm: pop the label, jump past the end.
    def step(inst, stack, control, locals_list):
        entry = control.pop()
        return entry.target + 1
    return step


def _end(next_pc):
    def step(inst, stack, control, locals_list):
        if control:
            control.pop()
        return next_pc
    return step


def _unwind(stack, control, depth):
    """Branch unwinding, byte-identical to ``Instance._branch``."""
    if depth >= len(control):
        return _RETURN_PC
    entry = control[len(control) - 1 - depth]
    carried = ()
    if entry.kind != "loop" and entry.arity:
        carried = stack[-entry.arity:]
    del stack[entry.stack_height:]
    stack.extend(carried)
    for _ in range(depth):
        control.pop()
    if entry.kind == "loop":
        return entry.target + 1
    control.pop()
    return entry.target + 1


def _br(depth, next_pc):
    def step(inst, stack, control, locals_list):
        return _unwind(stack, control, depth)
    return step


def _br_if(depth, next_pc):
    def step(inst, stack, control, locals_list):
        if stack.pop():
            return _unwind(stack, control, depth)
        return next_pc
    return step


def _br_table(labels, default, next_pc):
    count = len(labels)

    def step(inst, stack, control, locals_list):
        index = stack.pop()
        depth = labels[index] if index < count else default
        return _unwind(stack, control, depth)
    return step


def _return(next_pc):
    def step(inst, stack, control, locals_list):
        return _RETURN_PC
    return step


def _unreachable(next_pc):
    def step(inst, stack, control, locals_list):
        raise TrapUnreachable("unreachable executed")
    return step


def _nop(next_pc):
    def step(inst, stack, control, locals_list):
        return next_pc
    return step


def _raise_keyerror(pc):
    # An unmatched block/loop/if: the generic interpreter raises
    # KeyError from its jump-table lookup only if the instruction is
    # actually reached, so the translated body must do the same.
    def step(inst, stack, control, locals_list):
        raise KeyError(pc)
    return step


# -- calls -----------------------------------------------------------------

def _call_host(func_index, count, next_pc):
    def step(inst, stack, control, locals_list):
        if count:
            args = stack[-count:]
            del stack[-count:]
        else:
            args = []
        results = inst._imported[func_index].impl(inst, args)
        if results:
            stack.extend(results)
        return next_pc
    return step


def _call_local_fn(func, count, next_pc):
    def step(inst, stack, control, locals_list):
        if count:
            args = stack[-count:]
            del stack[-count:]
        else:
            args = []
        stack.extend(inst._call_local(func, args))
        return next_pc
    return step


def _call_dynamic(func_index, next_pc):
    # The callee index did not resolve at translation time; defer to
    # the runtime lookup so the failure (and its exception) happens at
    # execution, exactly as the generic interpreter would.
    def step(inst, stack, control, locals_list):
        results = inst.invoke_index(func_index,
                                    inst._pop_args(stack, func_index))
        stack.extend(results)
        return next_pc
    return step


def _call_indirect(expected, next_pc):
    def step(inst, stack, control, locals_list):
        table_slot = stack.pop()
        table = inst.table
        if table_slot >= len(table) or table[table_slot] is None:
            raise TrapIndirectCall(f"bad table slot {table_slot}")
        func_index = table[table_slot]
        actual = inst.module.function_type(func_index)
        if actual != expected:
            raise TrapIndirectCall("indirect call type mismatch")
        results = inst.invoke_index(func_index,
                                    inst._pop_args(stack, func_index))
        stack.extend(results)
        return next_pc
    return step


# ---------------------------------------------------------------------------
# Pure operator tables for the hand-specialised hot integer opcodes.
# Trapping ops (div/rem), rotations and bit counts stay on the shared
# generic handlers via _via_handler.
# ---------------------------------------------------------------------------

def _int_tables(bits: int):
    binops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "shl": lambda a, b: a << (b % bits),
        "shr_u": lambda a, b: a >> (b % bits),
        "shr_s": lambda a, b: _signed(a, bits) >> (b % bits),
    }
    relops = {
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt_u": lambda a, b: a < b,
        "gt_u": lambda a, b: a > b,
        "le_u": lambda a, b: a <= b,
        "ge_u": lambda a, b: a >= b,
        "lt_s": lambda a, b: _signed(a, bits) < _signed(b, bits),
        "gt_s": lambda a, b: _signed(a, bits) > _signed(b, bits),
        "le_s": lambda a, b: _signed(a, bits) <= _signed(b, bits),
        "ge_s": lambda a, b: _signed(a, bits) >= _signed(b, bits),
    }
    return binops, relops


_I32_BINOPS, _I32_RELOPS = _int_tables(32)
_I64_BINOPS, _I64_RELOPS = _int_tables(64)


# ---------------------------------------------------------------------------
# The translator proper.
# ---------------------------------------------------------------------------

def _translate(module: Module, func: Function) -> TranslatedFunction:
    body = func.body
    jumps = _build_jump_table(body)
    steps: list = []
    for pc, instr in enumerate(body):
        steps.append(_translate_instr(module, jumps, pc, instr))
    return TranslatedFunction(steps)


def _translate_instr(module: Module, jumps, pc: int, instr):
    op = instr.op
    next_pc = pc + 1

    # -- control -----------------------------------------------------------
    if op in ("block", "loop", "if"):
        if pc not in jumps:
            return _raise_keyerror(pc)
        arity = 0 if instr.args[0] is None else 1
        end_pc, else_pc = jumps[pc]
        if op == "block":
            return _block(end_pc, arity, next_pc)
        if op == "loop":
            return _loop(pc, arity, next_pc)
        return _if(end_pc, else_pc, arity, next_pc)
    if op == "else":
        return _else(next_pc)
    if op == "end":
        return _end(next_pc)
    if op == "br":
        return _br(instr.args[0], next_pc)
    if op == "br_if":
        return _br_if(instr.args[0], next_pc)
    if op == "br_table":
        labels, default = instr.args
        return _br_table(tuple(labels), default, next_pc)
    if op == "return":
        return _return(next_pc)
    if op == "unreachable":
        return _unreachable(next_pc)
    if op == "nop":
        return _nop(next_pc)
    if op == "call":
        func_index = instr.args[0]
        try:
            count = len(module.function_type(func_index).params)
            if module.is_imported_function(func_index):
                return _call_host(func_index, count, next_pc)
            return _call_local_fn(module.local_function(func_index),
                                  count, next_pc)
        except Exception:
            return _call_dynamic(func_index, next_pc)
    if op == "call_indirect":
        type_index = instr.args[0]
        try:
            expected = module.types[type_index]
        except Exception:
            expected = None  # mismatch at runtime, like the generic path
        return _call_indirect(expected, next_pc)

    # -- hand-specialised hot opcodes -------------------------------------
    if op == "i32.const":
        return _const(instr.args[0] & MASK32, next_pc)
    if op == "i64.const":
        return _const(instr.args[0] & MASK64, next_pc)
    if op == "f32.const":
        return _const(_f32(instr.args[0]), next_pc)
    if op == "f64.const":
        return _const(float(instr.args[0]), next_pc)
    if op == "local.get":
        return _local_get(instr.args[0], next_pc)
    if op == "local.set":
        return _local_set(instr.args[0], next_pc)
    if op == "local.tee":
        return _local_tee(instr.args[0], next_pc)
    if op == "global.get":
        return _global_get(instr.args[0], next_pc)
    if op == "global.set":
        return _global_set(instr.args[0], next_pc)
    if op == "drop":
        return _drop(next_pc)
    if op == "select":
        return _select(next_pc)
    if op in ("i32.eqz", "i64.eqz"):
        return _eqz(next_pc)
    if op == "i32.wrap_i64":
        return _binop_unary_mask(MASK32, next_pc)
    if op == "i64.extend_i32_u":
        return _binop_unary_mask(MASK32, next_pc)
    if op == "i64.extend_i32_s":
        return _extend_s(next_pc)

    prefix, _, name = op.partition(".")
    if prefix == "i32":
        fn = _I32_BINOPS.get(name)
        if fn is not None:
            return _binop(fn, MASK32, next_pc)
        fn = _I32_RELOPS.get(name)
        if fn is not None:
            return _relop(fn, next_pc)
    elif prefix == "i64":
        fn = _I64_BINOPS.get(name)
        if fn is not None:
            return _binop(fn, MASK64, next_pc)
        fn = _I64_RELOPS.get(name)
        if fn is not None:
            return _relop(fn, next_pc)

    if ".load" in op or ".store" in op:
        translated = _translate_memory(op, instr, next_pc)
        if translated is not None:
            return translated

    # -- everything else: the shared generic handler ----------------------
    handler = _SIMPLE_OPS.get(op)
    if handler is not None:
        return _via_handler(handler, instr, next_pc)

    def step(inst, stack, control, locals_list):  # pragma: no cover
        raise NotImplementedError(f"opcode {op} not implemented")
    return step


def _binop_unary_mask(m, next_pc):
    def step(inst, stack, control, locals_list):
        stack.append(stack.pop() & m)
        return next_pc
    return step


def _extend_s(next_pc):
    def step(inst, stack, control, locals_list):
        stack.append(_signed(stack.pop(), 32) & MASK64)
        return next_pc
    return step


def _translate_memory(op: str, instr, next_pc):
    try:
        size = memory_access_size(op)
    except ValueError:
        return None
    align, offset = instr.args
    is_float = op.startswith("f")
    if ".load" in op:
        if is_float:
            return _load_float(offset, size, "<f" if size == 4 else "<d",
                               op, next_pc)
        signed = op.endswith("_s")
        bits = size * 8
        target = MASK64 if op.startswith("i64") else MASK32
        return _load_int(offset, size, bits, signed, target, op, next_pc)
    if is_float:
        return _store_float(offset, size, "<f" if size == 4 else "<d",
                            op, next_pc)
    return _store_int(offset, size, (1 << (size * 8)) - 1, op, next_pc)
