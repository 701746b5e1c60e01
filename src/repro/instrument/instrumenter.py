"""Contract-level bytecode instrumentation (challenge C1, §3.3.1).

``instrument_module`` rewrites a Wasm module so that every reachable
instruction is preceded by a hook call that duplicates its runtime
operands (spilled through fresh scratch locals), and function bodies
are bracketed with ``begin_function``/``end_function`` labels.  Calls
additionally get a ``post`` hook capturing their return values — the
five invocation hooks of the paper's Table 1.

The rewrite is purely contract-level: the virtual machine is left
untouched, which is exactly the property the paper claims makes WASAI
portable across Wasm blockchains.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..wasm.module import Function, Import, Module
from ..wasm.opcodes import Instr
from ..wasm.types import ValType
from ..wasm.validation import InstructionTyping, type_function
from .hooks import (BEGIN_FUNCTION, END_FUNCTION, HOOK_MODULE,
                    hook_func_type, post_hook_name, trace_hook_name)

__all__ = ["Site", "SiteTable", "instrument_module"]


@dataclass(frozen=True)
class Site:
    """One instrumentation site in the *original* module.

    ``func_index`` is the original function index (import space) and
    ``pc`` the instruction offset inside that function's body.
    ``kind`` is "instr" or "post".
    """

    kind: str
    func_index: int
    pc: int
    instr: Instr


class SiteTable:
    """Maps hook site ids back to original-module instructions."""

    def __init__(self) -> None:
        self.sites: list[Site] = []

    def add(self, site: Site) -> int:
        self.sites.append(site)
        return len(self.sites) - 1

    def __getitem__(self, site_id: int) -> Site:
        return self.sites[site_id]

    def __len__(self) -> int:
        return len(self.sites)


class _HookCall(Instr):
    """Placeholder call to a hook import, resolved in the fix-up pass."""

    __slots__ = ("hook_name",)

    def __init__(self, hook_name: str):
        super().__init__("call", 0)
        self.hook_name = hook_name


def instrument_module(module: Module) -> tuple[Module, SiteTable]:
    """Return an instrumented copy of ``module`` plus its site table.

    The input module is not mutated.  Hook imports are appended after
    the existing imports; all function references are shifted
    accordingly.
    """
    site_table = SiteTable()
    hook_names: list[str] = []
    hook_order: dict[str, int] = {}

    def hook_index_of(name: str) -> None:
        if name not in hook_order:
            hook_order[name] = len(hook_names)
            hook_names.append(name)

    import_count = module.num_imported_functions
    new_functions: list[Function] = []
    for local_index, func in enumerate(module.functions):
        func_index = import_count + local_index
        typings = type_function(module, func)
        new_functions.append(
            _instrument_function(module, func, func_index, typings,
                                 site_table, hook_index_of))

    # Assemble the new module: old imports + hook imports + functions.
    out = Module()
    out.types = list(module.types)
    out.imports = list(module.imports)
    hook_base = import_count
    for name in hook_names:
        type_index = out.add_type(hook_func_type(name))
        out.imports.append(Import(HOOK_MODULE, name, "func", type_index))
    shift = len(hook_names)

    def remap(func_index: int) -> int:
        return func_index + shift if func_index >= import_count else func_index

    for func in new_functions:
        body = []
        for instr in func.body:
            if isinstance(instr, _HookCall):
                body.append(Instr("call", hook_base + hook_order[instr.hook_name]))
            elif instr.op == "call":
                body.append(Instr("call", remap(instr.args[0])))
            else:
                body.append(instr)
        out.functions.append(Function(func.type_index, func.locals, body))
    out.tables = list(module.tables)
    out.memories = list(module.memories)
    out.globals = list(module.globals)
    from ..wasm.module import DataSegment, Element, Export
    out.exports = [Export(e.name, e.kind,
                          remap(e.index) if e.kind == "func" else e.index)
                   for e in module.exports]
    out.start = remap(module.start) if module.start is not None else None
    out.elements = [Element(e.table_index, list(e.offset),
                            [remap(i) for i in e.func_indices])
                    for e in module.elements]
    out.data_segments = [DataSegment(d.memory_index, list(d.offset), d.data)
                         for d in module.data_segments]
    return out, site_table


def _instrument_function(module: Module, func: Function, func_index: int,
                         typings: list[InstructionTyping],
                         site_table: SiteTable, declare_hook) -> Function:
    func_type = module.types[func.type_index]
    param_count = len(func_type.params)
    new_locals = list(func.locals)
    scratch: dict[str, list[int]] = {}

    def scratch_locals(types: list[ValType]) -> list[int]:
        """Get per-type scratch local indices for a spill of ``types``."""
        used: dict[str, int] = {}
        indices = []
        for valtype in types:
            pool = scratch.setdefault(valtype.name, [])
            position = used.get(valtype.name, 0)
            while len(pool) <= position:
                pool.append(param_count + len(new_locals))
                new_locals.append(valtype)
            indices.append(pool[position])
            used[valtype.name] = position + 1
        return indices

    body: list[Instr] = []
    declare_hook(BEGIN_FUNCTION)
    declare_hook(END_FUNCTION)

    def emit_label(which: str) -> None:
        body.append(Instr("i32.const", _as_s32(func_index)))
        body.append(_HookCall(which))

    emit_label(BEGIN_FUNCTION)
    for pc, (instr, typing) in enumerate(zip(func.body, typings)):
        if not typing.reachable or instr.op in ("end", "else"):
            # Dead code never fires hooks; end/else are pure markers.
            body.append(instr)
            continue
        if instr.op == "return":
            emit_label(END_FUNCTION)
            body.append(instr)
            continue
        pops = [t for t in typing.pops]
        if any(not isinstance(t, ValType) for t in pops):
            body.append(instr)  # polymorphic in dead code; skip hook
            continue
        site_id = site_table.add(Site("instr", func_index, pc, instr))
        hook_name = trace_hook_name(pops)
        declare_hook(hook_name)
        if pops:
            indices = scratch_locals(pops)
            # Spill: stack top is pops[-1], so set in reverse order.
            for local_index in reversed(indices):
                body.append(Instr("local.set", local_index))
            body.append(Instr("i32.const", _as_s32(site_id)))
            for local_index in indices:
                body.append(Instr("local.get", local_index))
            body.append(_HookCall(hook_name))
            for local_index in indices:
                body.append(Instr("local.get", local_index))
        else:
            body.append(Instr("i32.const", _as_s32(site_id)))
            body.append(_HookCall(hook_name))
        body.append(instr)
        # Post hook after calls: duplicate the returned values.
        if instr.op in ("call", "call_indirect"):
            results = [t for t in typing.pushes]
            post_site = site_table.add(Site("post", func_index, pc, instr))
            post_name = post_hook_name(results)
            declare_hook(post_name)
            if results:
                indices = scratch_locals(results)
                for local_index in reversed(indices):
                    body.append(Instr("local.set", local_index))
                body.append(Instr("i32.const", _as_s32(post_site)))
                for local_index in indices:
                    body.append(Instr("local.get", local_index))
                body.append(_HookCall(post_name))
                for local_index in indices:
                    body.append(Instr("local.get", local_index))
            else:
                body.append(Instr("i32.const", _as_s32(post_site)))
                body.append(_HookCall(post_name))
    emit_label(END_FUNCTION)
    return Function(func.type_index, new_locals, body)


def _as_s32(value: int) -> int:
    """Encode an unsigned id as the signed immediate i32.const wants."""
    return value - (1 << 32) if value >= 1 << 31 else value
