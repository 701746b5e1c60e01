"""Encode a :class:`~repro.wasm.module.Module` into binary ``.wasm``."""

from __future__ import annotations

import struct

from .leb128 import encode_signed, encode_unsigned
from .module import Module
from .opcodes import OPCODES, Instr
from .types import FuncType, GlobalType, Limits, MemoryType, TableType, ValType

__all__ = ["encode_module", "encode_instruction", "encode_expr"]

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"


def encode_module(module: Module) -> bytes:
    """Serialise ``module`` to the Wasm binary format."""
    out = bytearray(MAGIC + VERSION)
    _section(out, 1, _encode_types(module))
    _section(out, 2, _encode_imports(module))
    _section(out, 3, _encode_function_decls(module))
    _section(out, 4, _encode_tables(module))
    _section(out, 5, _encode_memories(module))
    _section(out, 6, _encode_globals(module))
    _section(out, 7, _encode_exports(module))
    if module.start is not None:
        _section(out, 8, encode_unsigned(module.start))
    _section(out, 9, _encode_elements(module))
    _section(out, 10, _encode_code(module))
    _section(out, 11, _encode_data(module))
    return bytes(out)


def _section(out: bytearray, section_id: int, payload: bytes) -> None:
    if not payload:
        return
    out.append(section_id)
    out.extend(encode_unsigned(len(payload)))
    out.extend(payload)


def _vec(items: list[bytes]) -> bytes:
    out = bytearray(encode_unsigned(len(items)))
    for item in items:
        out.extend(item)
    return bytes(out)


def _name(text: str) -> bytes:
    data = text.encode("utf-8")
    return encode_unsigned(len(data)) + data


def _limits(limits: Limits) -> bytes:
    if limits.maximum is None:
        return b"\x00" + encode_unsigned(limits.minimum)
    return (b"\x01" + encode_unsigned(limits.minimum)
            + encode_unsigned(limits.maximum))


def _functype(func_type: FuncType) -> bytes:
    out = bytearray(b"\x60")
    out.extend(encode_unsigned(len(func_type.params)))
    out.extend(p.code for p in func_type.params)
    out.extend(encode_unsigned(len(func_type.results)))
    out.extend(r.code for r in func_type.results)
    return bytes(out)


def _globaltype(global_type: GlobalType) -> bytes:
    return bytes([global_type.valtype.code, 1 if global_type.mutable else 0])


def _encode_types(module: Module) -> bytes:
    if not module.types:
        return b""
    return _vec([_functype(t) for t in module.types])


def _encode_imports(module: Module) -> bytes:
    if not module.imports:
        return b""
    entries = []
    for imp in module.imports:
        head = _name(imp.module) + _name(imp.name)
        if imp.kind == "func":
            entries.append(head + b"\x00" + encode_unsigned(imp.desc))
        elif imp.kind == "table":
            table: TableType = imp.desc
            entries.append(head + b"\x01" + bytes([table.elem_kind])
                           + _limits(table.limits))
        elif imp.kind == "memory":
            memory: MemoryType = imp.desc
            entries.append(head + b"\x02" + _limits(memory.limits))
        elif imp.kind == "global":
            entries.append(head + b"\x03" + _globaltype(imp.desc))
        else:
            raise ValueError(f"unknown import kind {imp.kind!r}")
    return _vec(entries)


def _encode_function_decls(module: Module) -> bytes:
    if not module.functions:
        return b""
    return _vec([encode_unsigned(f.type_index) for f in module.functions])


def _encode_tables(module: Module) -> bytes:
    if not module.tables:
        return b""
    return _vec([bytes([t.elem_kind]) + _limits(t.limits)
                 for t in module.tables])


def _encode_memories(module: Module) -> bytes:
    if not module.memories:
        return b""
    return _vec([_limits(m.limits) for m in module.memories])


def _encode_globals(module: Module) -> bytes:
    if not module.globals:
        return b""
    return _vec([_globaltype(g.type) + encode_expr(g.init)
                 for g in module.globals])


def _encode_exports(module: Module) -> bytes:
    if not module.exports:
        return b""
    kinds = {"func": 0, "table": 1, "memory": 2, "global": 3}
    return _vec([_name(e.name) + bytes([kinds[e.kind]])
                 + encode_unsigned(e.index) for e in module.exports])


def _encode_elements(module: Module) -> bytes:
    if not module.elements:
        return b""
    entries = []
    for elem in module.elements:
        entry = (encode_unsigned(elem.table_index) + encode_expr(elem.offset)
                 + _vec([encode_unsigned(i) for i in elem.func_indices]))
        entries.append(entry)
    return _vec(entries)


def _encode_code(module: Module) -> bytes:
    if not module.functions:
        return b""
    bodies = []
    for func in module.functions:
        body = bytearray()
        # Compress locals into (count, type) runs.
        runs: list[tuple[int, ValType]] = []
        for local in func.locals:
            if runs and runs[-1][1] is local:
                runs[-1] = (runs[-1][0] + 1, local)
            else:
                runs.append((1, local))
        body.extend(encode_unsigned(len(runs)))
        for count, valtype in runs:
            body.extend(encode_unsigned(count))
            body.append(valtype.code)
        for instr in func.body:
            body.extend(encode_instruction(instr))
        body.extend(encode_instruction(Instr("end")))
        bodies.append(encode_unsigned(len(body)) + bytes(body))
    return _vec(bodies)


def _encode_data(module: Module) -> bytes:
    if not module.data_segments:
        return b""
    entries = []
    for segment in module.data_segments:
        entries.append(encode_unsigned(segment.memory_index)
                       + encode_expr(segment.offset)
                       + encode_unsigned(len(segment.data)) + segment.data)
    return _vec(entries)


def encode_expr(instructions: list[Instr]) -> bytes:
    """Encode an init/constant expression with its terminating end."""
    out = bytearray()
    for instr in instructions:
        out.extend(encode_instruction(instr))
    out.extend(encode_instruction(Instr("end")))
    return bytes(out)


def encode_instruction(instr: Instr) -> bytes:
    code, kind = OPCODES[instr.op]
    out = bytearray([code])
    if kind == "none":
        return bytes(out)
    if kind == "block":
        blocktype = instr.args[0]
        if blocktype is None:
            out.append(0x40)
        else:
            out.append(ValType.from_name(blocktype).code)
        return bytes(out)
    if kind == "u32":
        out.extend(encode_unsigned(instr.args[0]))
        return bytes(out)
    if kind == "br_table":
        labels, default = instr.args
        out.extend(encode_unsigned(len(labels)))
        for label in labels:
            out.extend(encode_unsigned(label))
        out.extend(encode_unsigned(default))
        return bytes(out)
    if kind == "call_ind":
        out.extend(encode_unsigned(instr.args[0]))
        out.append(0x00)  # reserved table index
        return bytes(out)
    if kind == "memarg":
        align, offset = instr.args
        out.extend(encode_unsigned(align))
        out.extend(encode_unsigned(offset))
        return bytes(out)
    if kind == "i32":
        out.extend(encode_signed(instr.args[0]))
        return bytes(out)
    if kind == "i64":
        out.extend(encode_signed(instr.args[0]))
        return bytes(out)
    if kind == "f32":
        out.extend(struct.pack("<f", instr.args[0]))
        return bytes(out)
    if kind == "f64":
        out.extend(struct.pack("<d", instr.args[0]))
        return bytes(out)
    if kind == "memidx":
        out.append(0x00)
        return bytes(out)
    raise ValueError(f"unknown immediate kind {kind!r}")
