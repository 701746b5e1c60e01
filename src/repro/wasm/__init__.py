"""repro.wasm — a self-contained WebAssembly toolchain.

Binary codec (:mod:`parser` / :mod:`encoder`), module model
(:mod:`module`), programmatic assembler (:mod:`builder`), validating
type-checker (:mod:`validation`) and a concrete interpreter
(:mod:`interpreter`).  Together these replace the EOSVM + CDT toolchain
the paper's artifact depends on.
"""

from .builder import FunctionBuilder, ModuleBuilder
from .encoder import encode_module
from .hardening import (DEFAULT_BUDGET, IngestBudget,
                        load_untrusted_module)
from .interpreter import (ExecutionLimits, HostFunc, Instance,
                          InstanceTemplate, Trap, TrapDeadline,
                          TrapIndirectCall, TrapIntegerDivide,
                          TrapIntegerOverflow, TrapMemoryOutOfBounds,
                          TrapOutOfFuel, TrapResourceLimit,
                          TrapStackOverflow, TrapUnreachable)
from .module import (DataSegment, Element, Export, Function, Global, Import,
                     Module, PAGE_SIZE)
from .opcodes import (Instr, MEMORY_INSTRUCTIONS, is_load, is_store,
                      memory_access_size)
from .parser import ParseError, parse_module
from .types import (F32, F64, FuncType, GlobalType, I32, I64, Limits,
                    MemoryType, TableType, ValType)
from .validation import (InstructionTyping, ValidationError, type_function,
                         validate_module)

__all__ = [
    "FunctionBuilder", "ModuleBuilder", "encode_module", "ExecutionLimits",
    "HostFunc", "DEFAULT_BUDGET", "IngestBudget", "Instance",
    "InstanceTemplate",
    "load_untrusted_module",
    "Trap", "TrapDeadline", "TrapIndirectCall", "TrapIntegerDivide",
    "TrapIntegerOverflow", "TrapMemoryOutOfBounds", "TrapOutOfFuel",
    "TrapResourceLimit", "TrapStackOverflow", "TrapUnreachable",
    "DataSegment", "Element",
    "Export", "Function", "Global", "Import", "Module", "PAGE_SIZE", "Instr",
    "MEMORY_INSTRUCTIONS", "is_load", "is_store", "memory_access_size",
    "ParseError", "parse_module", "F32", "F64", "FuncType", "GlobalType",
    "I32", "I64", "Limits", "MemoryType", "TableType", "ValType",
    "InstructionTyping", "ValidationError", "type_function",
    "validate_module",
]
