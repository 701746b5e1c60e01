"""The structured campaign error taxonomy.

Every failure inside an evaluation campaign is represented as a
:class:`CampaignError`: a typed exception carrying the pipeline
*stage* it arose in, the *sample* it belongs to, whether a retry can
plausibly help, and the captured traceback of the original exception.
The harness, the parallel executor, the solver and Symback all raise
(or wrap into) these instead of ad-hoc exceptions, so containment
policy decisions — retry, degrade to black-box fuzzing, quarantine —
can be made on structure rather than on string matching.

Stages mirror the pipeline: ``instrument`` -> ``deploy`` -> ``fuzz``
(-> ``symback`` -> ``solve`` per iteration) -> ``scan``; ``task`` is
the executor-level envelope (worker crash / wall-clock timeout).
"""

from __future__ import annotations

import traceback as _tb

__all__ = [
    "CampaignError", "MalformedModule", "InstrumentError", "DeployError",
    "FuzzError", "TrapStorm", "SymbackError", "SolverError",
    "DivergenceError", "ScanError", "TraceCorruption", "TaskTimeout",
    "WorkerCrash", "DeadlineExceeded", "STAGES", "DEGRADABLE_STAGES",
    "task_result_error",
]

# Pipeline stages, in execution order, plus the executor envelope.
# ``ingest`` precedes instrumentation: it is where untrusted bytes are
# parsed and validated under budget.  ``divergence`` is raised out of
# symbolic replay but is policed separately from ``symback`` because it
# must never be degraded away (a diverged replay means the *oracles*
# would lie, not that replay is merely unavailable).  ``trace`` is the
# durable trace IR layer: decoding a stored/offline trace back into
# events, which can fail independently of the run that produced it.
STAGES = ("ingest", "instrument", "deploy", "fuzz", "symback", "solve",
          "divergence", "trace", "scan", "deadline", "task")

# Stages whose failure leaves the black-box mutation loop intact: a
# campaign that cannot replay or solve can still fuzz (ConFuzzius-style
# graceful degradation; EOSFuzzer *is* that loop).
DEGRADABLE_STAGES = frozenset({"symback", "solve"})


class CampaignError(Exception):
    """Base of the taxonomy; subclasses pin ``stage`` / ``retryable``."""

    stage: str = "campaign"
    retryable: bool = False

    def __init__(self, message: str = "", *, stage: str | None = None,
                 sample_id: str | None = None,
                 retryable: bool | None = None,
                 traceback_str: str | None = None):
        super().__init__(message)
        if stage is not None:
            self.stage = stage
        if retryable is not None:
            self.retryable = retryable
        self.sample_id = sample_id
        self.traceback_str = traceback_str

    @classmethod
    def wrap(cls, exc: BaseException, *, sample_id: str | None = None,
             retryable: bool | None = None) -> "CampaignError":
        """Lift an in-flight exception into the taxonomy.

        An exception that already is a :class:`CampaignError` passes
        through unchanged (its stage is more precise than the
        wrapper's); anything else is captured together with its
        formatted traceback.  Call only from an ``except`` block.
        """
        if isinstance(exc, CampaignError):
            if sample_id is not None and exc.sample_id is None:
                exc.sample_id = sample_id
            return exc
        return cls(f"{type(exc).__name__}: {exc}", sample_id=sample_id,
                   retryable=retryable, traceback_str=_tb.format_exc())

    # -- serialization (journal / cross-process reporting) -----------------
    def to_doc(self) -> dict:
        return {
            "type": type(self).__name__,
            "stage": self.stage,
            "message": str(self),
            "sample_id": self.sample_id,
            "retryable": self.retryable,
            "traceback": self.traceback_str,
        }

    @staticmethod
    def from_doc(doc: dict) -> "CampaignError":
        cls = _REGISTRY.get(doc.get("type", ""), CampaignError)
        error = cls(doc.get("message", ""), stage=doc.get("stage"),
                    sample_id=doc.get("sample_id"),
                    retryable=doc.get("retryable"),
                    traceback_str=doc.get("traceback"))
        # Subclass payload fields (offset/section, pc/opcode, ...)
        # round-trip without each subclass writing its own from_doc.
        for extra in ("offset", "section", "func_index", "pc", "opcode",
                      "shadow", "traced", "elapsed_s", "exitcode",
                      "path", "deadline_epoch_s"):
            if extra in doc and hasattr(error, extra):
                setattr(error, extra, doc[extra])
        return error

    def __str__(self) -> str:
        base = super().__str__()
        where = f"[{self.stage}"
        if self.sample_id:
            where += f" {self.sample_id}"
        return f"{where}] {base}"


class MalformedModule(CampaignError):
    """Untrusted bytes were rejected during sandboxed ingestion.

    Raised by :func:`repro.wasm.hardening.load_untrusted_module` for
    every way a hostile binary can fail to become a budgeted, validated
    :class:`~repro.wasm.module.Module`: parse errors, budget
    violations, validation failures, and any raw Python exception
    (``IndexError``, ``RecursionError``, ``MemoryError``, ...) escaping
    those layers.  Never retryable — the bytes will not improve.
    ``offset`` is the absolute byte offset of the defect when known;
    ``section`` names the section being decoded.
    """

    stage = "ingest"
    retryable = False

    def __init__(self, message: str = "", *, offset: int | None = None,
                 section: str | None = None, **kwargs):
        super().__init__(message, **kwargs)
        self.offset = offset
        self.section = section

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["offset"] = self.offset
        doc["section"] = self.section
        return doc

    def __str__(self) -> str:
        base = super().__str__()
        context = []
        if self.section is not None:
            context.append(f"section={self.section}")
        if self.offset is not None:
            context.append(f"byte={self.offset}")
        return f"{base} ({', '.join(context)})" if context else base


class InstrumentError(CampaignError):
    """The bin -> bin' rewrite failed for this module."""

    stage = "instrument"


class DeployError(CampaignError):
    """Chain setup or contract deployment failed."""

    stage = "deploy"


class FuzzError(CampaignError):
    """The fuzzing loop itself failed (not one contained iteration)."""

    stage = "fuzz"


class TrapStorm(FuzzError):
    """A victim execution trapped in a way the loop must contain."""


class SymbackError(CampaignError):
    """Symbolic trace replay failed; black-box fuzzing still works."""

    stage = "symback"


class SolverError(CampaignError):
    """The constraint solver failed; black-box fuzzing still works."""

    stage = "solve"


class DivergenceError(CampaignError):
    """Symbolic replay's concrete shadow disagreed with the trace.

    The divergence sentinel cross-checks fully-concrete symbolic
    values against the recorded concrete operands at branch, memory-op
    and host-call checkpoints.  A mismatch means the symbolic machine
    is no longer simulating the execution the interpreter actually
    ran, so every oracle verdict derived from that trace would be
    unsound.  The trace is quarantined, never degraded to black-box
    (``divergence`` is deliberately absent from
    :data:`DEGRADABLE_STAGES`) and never retried.  ``func_index`` /
    ``pc`` / ``opcode`` locate the first diverging checkpoint;
    ``shadow`` / ``traced`` are the disagreeing concrete values.
    """

    stage = "divergence"
    retryable = False

    def __init__(self, message: str = "", *, func_index: int | None = None,
                 pc: int | None = None, opcode: str | None = None,
                 shadow: int | None = None, traced: int | None = None,
                 **kwargs):
        super().__init__(message, **kwargs)
        self.func_index = func_index
        self.pc = pc
        self.opcode = opcode
        self.shadow = shadow
        self.traced = traced

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["func_index"] = self.func_index
        doc["pc"] = self.pc
        doc["opcode"] = self.opcode
        doc["shadow"] = self.shadow
        doc["traced"] = self.traced
        return doc

    def __str__(self) -> str:
        base = super().__str__()
        if self.opcode is not None:
            base += (f" at func {self.func_index} pc {self.pc} "
                     f"({self.opcode})")
        return base


class ScanError(CampaignError):
    """The vulnerability scan over the observation log failed."""

    stage = "scan"


class TraceCorruption(CampaignError):
    """A stored trace failed to decode losslessly back into events.

    Raised by the trace IR codec (:mod:`repro.traceir`) and the
    offline trace-file loader for every way a durable trace can rot:
    truncation, a flipped bit caught by a section CRC, an unknown
    ``TRACEIR_VERSION``, framing that runs past the blob.  Never
    retryable — the bytes on disk will not improve — and never
    degradable: a trace that cannot be decoded must be quarantined and
    its module re-scanned, because *any* events recovered from it
    could make the oracles lie.  ``path`` names the offline trace
    file; ``section`` / ``offset`` locate the defect inside an IR
    blob.
    """

    stage = "trace"
    retryable = False

    def __init__(self, message: str = "", *, path: str | None = None,
                 section: str | None = None, offset: int | None = None,
                 **kwargs):
        super().__init__(message, **kwargs)
        self.path = path
        self.section = section
        self.offset = offset

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["path"] = self.path
        doc["section"] = self.section
        doc["offset"] = self.offset
        return doc

    def __str__(self) -> str:
        base = super().__str__()
        context = []
        if self.path is not None:
            context.append(f"path={self.path}")
        if self.section is not None:
            context.append(f"section={self.section}")
        if self.offset is not None:
            context.append(f"byte={self.offset}")
        return f"{base} ({', '.join(context)})" if context else base


class TaskTimeout(CampaignError):
    """The executor killed an overrunning worker (real wall-clock)."""

    stage = "task"
    retryable = True

    def __init__(self, message: str = "", *, elapsed_s: float = 0.0,
                 **kwargs):
        super().__init__(message, **kwargs)
        self.elapsed_s = elapsed_s

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["elapsed_s"] = self.elapsed_s
        return doc


class DeadlineExceeded(CampaignError):
    """The caller's wall-clock deadline passed before the work finished.

    Unlike :class:`TaskTimeout` (the service's own per-task watchdog,
    which retries because the *next* attempt may fit the budget), a
    caller deadline is absolute: once it has passed nobody is waiting
    for the answer, so the job must terminate with a typed
    ``deadline_exceeded`` doc and never consume a fresh campaign
    budget.  Never retryable, never degradable, and ``deadline`` is
    deliberately absent from the circuit-breaker stages — an impatient
    caller is not a pipeline fault.  ``deadline_epoch_s`` is the
    absolute wall-clock deadline; ``elapsed_s`` is how much work (if
    any) was burned before the cut-off was noticed.
    """

    stage = "deadline"
    retryable = False

    def __init__(self, message: str = "", *,
                 deadline_epoch_s: float | None = None,
                 elapsed_s: float = 0.0, **kwargs):
        super().__init__(message, **kwargs)
        self.deadline_epoch_s = deadline_epoch_s
        self.elapsed_s = elapsed_s

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["deadline_epoch_s"] = self.deadline_epoch_s
        doc["elapsed_s"] = self.elapsed_s
        return doc


class WorkerCrash(CampaignError):
    """A worker process died (segfault, ``os._exit``, OOM kill)."""

    stage = "task"
    retryable = True

    def __init__(self, message: str = "", *, exitcode: int | None = None,
                 **kwargs):
        super().__init__(message, **kwargs)
        self.exitcode = exitcode

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["exitcode"] = self.exitcode
        return doc


_REGISTRY = {cls.__name__: cls for cls in (
    CampaignError, MalformedModule, InstrumentError, DeployError,
    FuzzError, TrapStorm, SymbackError, SolverError, DivergenceError,
    ScanError, TraceCorruption, TaskTimeout, WorkerCrash,
    DeadlineExceeded)}


def task_result_error(result) -> CampaignError | None:
    """Materialise the typed error of a failed ``TaskResult``.

    The executor stays layer-agnostic (it reports ``error_type`` as a
    string); this is where those strings come back to the taxonomy.
    Returns None for a successful result.
    """
    if result.ok:
        return None
    kind = result.error_type or ""
    message = result.error or "task failed"
    if kind == "TaskTimeout":
        return TaskTimeout(message, elapsed_s=result.elapsed_s,
                           traceback_str=result.traceback)
    if kind == "WorkerCrash":
        return WorkerCrash(message, traceback_str=result.traceback)
    cls = _REGISTRY.get(kind, CampaignError)
    return cls(message, traceback_str=result.traceback)
