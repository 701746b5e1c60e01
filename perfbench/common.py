"""Shared plumbing: metric catalogue, provenance, verdict digests,
cold caches and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = BENCH_DIR / ".state"
WORK_DIR = BENCH_DIR / ".work"

# The virtual fuzzing budget of every campaign in every workload.
# Fixed on purpose: at 60 000 ms the maze workload's SMT share halves,
# so a larger budget would hide the layer that workload exists for.
BUDGET_MS = 20_000.0


def catalogue() -> dict:
    """BENCHMARK.json, the single list of metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(trace: bool) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in catalogue()[key]}


def reset_caches() -> None:
    """Fresh, empty in-process instrumentation and solver caches."""
    from repro.engine.deploy import configure_instrumentation_cache
    from repro.smt.solver import configure_solver_cache
    configure_instrumentation_cache(True)
    configure_solver_cache(True)


def cache_counters() -> tuple[int, int, int, int]:
    """(instr hits, instr misses, solver hits, solver misses)."""
    from repro.engine.deploy import instrumentation_cache
    from repro.smt.solver import solver_cache
    instr, solver = instrumentation_cache(), solver_cache()
    return instr.hits, instr.misses, solver.hits, solver.misses


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def detected_types(scan) -> list[str]:
    return sorted(t for t, f in scan.findings.items() if f.detected)


def digest(verdicts: list) -> str:
    """Order-sensitive digest of per-sample verdicts."""
    blob = json.dumps(verdicts, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def check_verdicts(workload: str, seed: int,
                   verdicts: dict[str, object]) -> "str | None":
    """Compare per-sample verdicts with those earlier runs of the same
    workload and seed left in this checkout, on the samples both saw,
    and keep the union.  Returns an error message on a mismatch."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{workload}-{seed}.json"
    earlier = (json.loads(path.read_text(encoding="utf-8"))
               if path.exists() else {})
    changed = sorted(key for key in verdicts.keys() & earlier.keys()
                     if verdicts[key] != earlier[key])
    path.write_text(json.dumps({**verdicts, **earlier}, sort_keys=True),
                    encoding="utf-8")
    if changed:
        return (f"verdicts of samples {changed[:5]} differ from an "
                "earlier run of the same seed")
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(
                encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """Hash of every source file, identifying the code measured when
    the checkout is not a git repository."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               corpus_size: int, **extra) -> dict:
    why = next(w["why"] for w in catalogue()["workloads"]
               if w["name"] == workload)
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "virtual_budget_ms": BUDGET_MS,
        "corpus_size": corpus_size,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "compare": "only against results with the same cpu_count on "
                   "the same host",
        **extra,
    }


def emit(prov: dict, checks: list[str], attempted: int, failed: int,
         metrics: dict[str, float], trace: bool) -> int:
    """Print the provenance line and the result line; return the exit
    code (non-zero when an output check failed)."""
    units = metric_units(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        checks.append(f"benchmark did not measure {missing}")
    correct = not checks and failed == 0
    print(json.dumps({"provenance": prov, "checks_failed": checks,
                      "failed_frac": ratio(failed, attempted)}))
    for message in checks:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1
