"""Detection metrics: confusion counts, precision / recall / F1.

Used by the Table 4-6 benches to print the same rows the paper
reports.  Also home to :class:`ThroughputStats`, the timing and
cache-efficiency ledger the corpus-scale evaluation fills in so the
perf trajectory (campaigns/sec, cache hit rates, per-stage wall-clock)
is tracked across PRs via ``BENCH_throughput.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Confusion", "MetricsTable", "ThroughputStats", "percentile",
           "latency_summary"]


def percentile(samples: "list[float]", q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples`` by linear
    interpolation between closest ranks; 0.0 for an empty list."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def latency_summary(samples: dict[str, Sequence[float]]
                    ) -> dict[str, dict[str, float]]:
    """p50/p95/max (plus sample count ``n``) per stage of ``samples``;
    stages without samples are left out."""
    out: dict[str, dict[str, float]] = {}
    for stage, values in samples.items():
        if not values:
            continue
        out[stage] = {
            "n": len(values),
            "p50_s": percentile(values, 50),
            "p95_s": percentile(values, 95),
            "max_s": max(values),
        }
    return out


@dataclass
class Confusion:
    """A binary confusion matrix with the paper's P/R/F1 definitions."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def record(self, label: bool, predicted: bool) -> None:
        if label and predicted:
            self.tp += 1
        elif label and not predicted:
            self.fn += 1
        elif not label and predicted:
            self.fp += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float:
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def merged(self, other: "Confusion") -> "Confusion":
        return Confusion(self.tp + other.tp, self.fp + other.fp,
                         self.tn + other.tn, self.fn + other.fn)

    def row(self) -> str:
        return (f"P={self.precision:6.1%} R={self.recall:6.1%} "
                f"F1={self.f1:6.1%}")

    def counts_row(self) -> str:
        return f"TP={self.tp:<4} FP={self.fp:<4} FN={self.fn:<4}"


@dataclass
class ThroughputStats:
    """Wall-clock accounting for one corpus-scale evaluation.

    ``campaigns`` counts completed tool runs (one fuzzing campaign or
    static scan per sample per tool); ``failures`` counts tasks whose
    worker crashed or timed out.  ``stage_seconds`` sums the per-stage
    wall-clock reported by the campaign workers ("setup" = chain +
    instrumented deploy, "fuzz", "scan").  Cache counters are the
    summed per-task deltas, so they stay correct when workers run in
    separate processes with private caches.
    """

    jobs: int = 1
    campaigns: int = 0
    failures: int = 0
    retries: int = 0
    quarantined: int = 0
    wall_s: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    instr_cache_hits: int = 0
    instr_cache_misses: int = 0
    solver_cache_hits: int = 0
    solver_cache_misses: int = 0
    # Shared on-disk cache tier (repro.sharedcache): summed per-task
    # deltas, zero when no cache dir is configured.
    instr_disk_hits: int = 0
    instr_disk_misses: int = 0
    solver_disk_hits: int = 0
    solver_disk_misses: int = 0
    # Per-worker cache efficiency, keyed by worker process id.  One
    # cold worker in an otherwise warm pool is invisible in the summed
    # counters but obvious here.
    per_worker: dict[int, dict[str, int]] = field(default_factory=dict)
    # Per-task wall-clock samples, keyed by stage ("task" = whole
    # campaign task; "setup"/"fuzz"/"scan" = pipeline stages).  Samples
    # feed the p50/p95/max percentiles in ``wasai bench`` output.
    latency_samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def campaigns_per_sec(self) -> float:
        return self.campaigns / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def instr_cache_hit_rate(self) -> float:
        total = self.instr_cache_hits + self.instr_cache_misses
        return self.instr_cache_hits / total if total else 0.0

    @property
    def solver_cache_hit_rate(self) -> float:
        total = self.solver_cache_hits + self.solver_cache_misses
        return self.solver_cache_hits / total if total else 0.0

    # -- aggregation (driven by the harness) ------------------------------
    def add_stage_seconds(self, stage_seconds: dict[str, float]) -> None:
        for stage, seconds in stage_seconds.items():
            self.stage_seconds[stage] = \
                self.stage_seconds.get(stage, 0.0) + seconds

    def add_cache_deltas(self, instr_hits: int = 0, instr_misses: int = 0,
                         solver_hits: int = 0,
                         solver_misses: int = 0,
                         instr_disk_hits: int = 0,
                         instr_disk_misses: int = 0,
                         solver_disk_hits: int = 0,
                         solver_disk_misses: int = 0,
                         worker_id: int | None = None) -> None:
        self.instr_cache_hits += instr_hits
        self.instr_cache_misses += instr_misses
        self.solver_cache_hits += solver_hits
        self.solver_cache_misses += solver_misses
        self.instr_disk_hits += instr_disk_hits
        self.instr_disk_misses += instr_disk_misses
        self.solver_disk_hits += solver_disk_hits
        self.solver_disk_misses += solver_disk_misses
        if worker_id is not None:
            per = self.per_worker.setdefault(worker_id, {
                "tasks": 0, "instr_hits": 0, "instr_misses": 0,
                "solver_hits": 0, "solver_misses": 0})
            per["tasks"] += 1
            per["instr_hits"] += instr_hits
            per["instr_misses"] += instr_misses
            per["solver_hits"] += solver_hits
            per["solver_misses"] += solver_misses

    def per_worker_hit_rates(self) -> dict[int, dict[str, float]]:
        """Combined (instr + solver) cache hit rate per worker."""
        out: dict[int, dict[str, float]] = {}
        for worker_id, per in self.per_worker.items():
            hits = per["instr_hits"] + per["solver_hits"]
            total = hits + per["instr_misses"] + per["solver_misses"]
            out[worker_id] = {
                "tasks": per["tasks"],
                "hit_rate": hits / total if total else 0.0,
            }
        return out

    def record_latency(self, stage: str, seconds: float) -> None:
        """Add one per-task wall-clock sample for ``stage``."""
        self.latency_samples.setdefault(stage, []).append(seconds)

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """p50/p95/max (plus sample count) per recorded stage."""
        return latency_summary(self.latency_samples)

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "campaigns": self.campaigns,
            "failures": self.failures,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "wall_s": self.wall_s,
            "campaigns_per_sec": self.campaigns_per_sec,
            "stage_seconds": dict(self.stage_seconds),
            "instr_cache": {
                "hits": self.instr_cache_hits,
                "misses": self.instr_cache_misses,
                "hit_rate": self.instr_cache_hit_rate,
            },
            "solver_cache": {
                "hits": self.solver_cache_hits,
                "misses": self.solver_cache_misses,
                "hit_rate": self.solver_cache_hit_rate,
            },
            "shared_disk_cache": {
                "instr_hits": self.instr_disk_hits,
                "instr_misses": self.instr_disk_misses,
                "solver_hits": self.solver_disk_hits,
                "solver_misses": self.solver_disk_misses,
            },
            "per_worker": {
                str(worker_id): stats for worker_id, stats
                in sorted(self.per_worker_hit_rates().items())
            },
            "latency": self.latency_percentiles(),
        }

    def format(self) -> str:
        extras = "".join(
            f", {count} {label}" for count, label in
            ((self.failures, "failed"), (self.retries, "retried"),
             (self.quarantined, "quarantined")) if count)
        lines = [
            f"--- throughput (jobs={self.jobs}) ---",
            f"  campaigns     {self.campaigns} "
            f"({self.campaigns_per_sec:.2f}/s over {self.wall_s:.2f}s"
            f"{extras})",
            f"  instr cache   {self.instr_cache_hits} hits / "
            f"{self.instr_cache_misses} misses "
            f"({self.instr_cache_hit_rate:.1%})",
            f"  solver cache  {self.solver_cache_hits} hits / "
            f"{self.solver_cache_misses} misses "
            f"({self.solver_cache_hit_rate:.1%})",
        ]
        disk_total = (self.instr_disk_hits + self.instr_disk_misses
                      + self.solver_disk_hits + self.solver_disk_misses)
        if disk_total:
            lines.append(
                f"  disk cache    instr {self.instr_disk_hits}/"
                f"{self.instr_disk_hits + self.instr_disk_misses} hits, "
                f"solver {self.solver_disk_hits}/"
                f"{self.solver_disk_hits + self.solver_disk_misses} hits")
        for worker_id, stats in sorted(self.per_worker_hit_rates().items()):
            lines.append(
                f"  worker {worker_id:<7} {stats['tasks']} tasks, "
                f"cache hit rate {stats['hit_rate']:.1%}")
        for stage in sorted(self.stage_seconds):
            lines.append(f"  stage {stage:<8} "
                         f"{self.stage_seconds[stage]:8.2f}s")
        for stage, stats in sorted(self.latency_percentiles().items()):
            lines.append(
                f"  latency {stage:<8} p50={stats['p50_s']:.3f}s "
                f"p95={stats['p95_s']:.3f}s max={stats['max_s']:.3f}s "
                f"(n={stats['n']})")
        return "\n".join(lines)


class MetricsTable:
    """Per-type confusion matrices for one tool, Table 4 style.

    Samples with no usable result (worker crash, timeout, quarantine)
    are *skipped*: excluded from the confusion counts — folding them
    in as "nothing detected" would silently skew recall — but listed
    in the formatted table with their failure reason, so a lossy run
    is visibly lossy.

    Samples whose campaign tripped the concolic divergence sentinel
    are *divergent*: also excluded from the confusion counts (the
    observation log is untrustworthy, so neither the positive nor the
    negative verdict can be credited), but reported as their own row
    class because the failure mode — trace/replay disagreement — is
    a different kind of loss than a crashed worker.
    """

    def __init__(self, tool: str, vuln_types: tuple[str, ...]):
        self.tool = tool
        self.per_type: dict[str, Confusion] = {t: Confusion()
                                               for t in vuln_types}
        self.skipped: dict[str, list[str]] = {}
        self.divergent: dict[str, list[str]] = {}

    def record(self, vuln_type: str, label: bool, predicted: bool) -> None:
        self.per_type[vuln_type].record(label, predicted)

    def skip(self, vuln_type: str, reason: str) -> None:
        """Report one sample excluded from the confusion counts."""
        self.skipped.setdefault(vuln_type, []).append(reason)

    def skipped_count(self) -> int:
        return sum(len(reasons) for reasons in self.skipped.values())

    def mark_divergent(self, vuln_type: str, reason: str) -> None:
        """Report one sample whose campaign tripped the sentinel."""
        self.divergent.setdefault(vuln_type, []).append(reason)

    def divergent_count(self) -> int:
        return sum(len(reasons) for reasons in self.divergent.values())

    def total(self) -> Confusion:
        out = Confusion()
        for confusion in self.per_type.values():
            out = out.merged(confusion)
        return out

    def false_positives(self, vuln_types=None) -> dict[str, int]:
        """Per-type false-positive counts, non-zero entries only.

        ``vuln_types`` restricts the query (e.g. to the enabled
        semantic oracle families); None means every recorded type.
        Backs the ``--fail-on-family-fp`` bench gate: any non-empty
        result is a family flagging a clean variant.
        """
        if vuln_types is None:
            selected = self.per_type.items()
        else:
            wanted = set(vuln_types)
            selected = ((t, c) for t, c in self.per_type.items()
                        if t in wanted)
        return {t: c.fp for t, c in selected if c.fp}

    def format(self) -> str:
        lines = [f"--- {self.tool} ---"]
        for vuln_type, confusion in self.per_type.items():
            lines.append(f"  {vuln_type:<13} n={confusion.total:<5} "
                         f"{confusion.counts_row()} {confusion.row()}")
        total = self.total()
        lines.append(f"  {'Total':<13} n={total.total:<5} "
                     f"{total.counts_row()} {total.row()}")
        if self.skipped:
            lines.append(f"  skipped       {self.skipped_count()} "
                         "(excluded from the counts above)")
            for vuln_type in sorted(self.skipped):
                for reason in self.skipped[vuln_type]:
                    lines.append(f"    {reason}")
        if self.divergent:
            lines.append(f"  divergent     {self.divergent_count()} "
                         "(sentinel tripped; excluded from the counts "
                         "above)")
            for vuln_type in sorted(self.divergent):
                for reason in self.divergent[vuln_type]:
                    lines.append(f"    {reason}")
        return "\n".join(lines)
