"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer's public function, timed from the
benchmark's side: ``(id, name, start, end, parent, request)``.  The
wrappers are installed on the names the callers actually look up
(``repro.engine.fuzzer.replay_action``, not ``repro.symbolic``'s), so
patching a defining module alone would time nothing.  Spans stay in a
list until the run ends; ``summarize`` turns them into the per-layer
metrics and ``dump`` writes them out as JSON lines.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import Counter

__all__ = ["Tracer", "install_campaign_layers", "install_service_layers",
           "summarize", "quantile"]


def quantile(values, q: float) -> float:
    """The ``q`` quantile by ``statistics.quantiles`` (inclusive of
    the sample extremes), 0.0 for an empty sample."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 0.5:
        return float(statistics.median(values))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


class Tracer:
    """Records spans around wrapped callables; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # -- context -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: "str | None") -> None:
        """Tag the spans this thread records from now on."""
        self._local.request = request

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def count_max(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None,
             on_enter=None) -> None:
        """Replace ``owner.attr`` with a timed twin.

        ``on_enter(args, kwargs)`` may return a request id for the
        span; ``on_result(args, kwargs, result, span)`` runs after a
        successful call (``span`` is mutable: index 5 is the request).
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            request = getattr(tracer._local, "request", None)
            if on_enter is not None:
                request = on_enter(args, kwargs) or request
            stack.append(span_id)
            span = [span_id, name, 0.0, 0.0, parent, request]
            span[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if on_result is not None:
                on_result(args, kwargs, result, span)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output --------------------------------------------------------
    def resolved(self) -> list[list]:
        """Spans with each missing request id inherited from the
        nearest ancestor that has one."""
        by_id = {span[0]: span for span in self.spans}
        for span in self.spans:
            if span[5] is not None:
                continue
            parent = by_id.get(span[4])
            while parent is not None and parent[5] is None:
                parent = by_id.get(parent[4])
            if parent is not None:
                span[5] = parent[5]
        return self.spans

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.resolved():
                handle.write(json.dumps(
                    {"id": span[0], "name": span[1], "start": span[2],
                     "end": span[3], "parent": span[4],
                     "request": span[5]}) + "\n")


# -- the layers ----------------------------------------------------------

def install_campaign_layers(tracer: Tracer) -> None:
    """Wrap the analysis core, as seen from its callers."""
    import repro.engine.fuzzer as fuzzer
    import repro.harness as harness
    import repro.traceir as traceir
    from repro.eosio.chain import Chain
    from repro.smt.solver import Solver

    def on_wasai(args, kwargs, run, span):
        tracer.count("wasai.solver_checks", run.report.solver_stats.checks)

    def on_decode(args, kwargs, events, span):
        tracer.count("instrument.decode.events", len(events))

    def on_flip(args, kwargs, queries, span):
        if queries:
            tracer.count("symbolic.replay.useful")

    def on_solve(args, kwargs, seeds, span):
        tracer.count("smt.solve.queries", len(args[0]))
        tracer.count("smt.solve.seeds", len(seeds))

    def on_check(args, kwargs, status, span):
        if status == "unknown":
            tracer.count("smt.unknowns")

    def on_encode(args, kwargs, blob, span):
        tracer.count("traceir.encode.bytes", len(blob))

    tracer.wrap(harness, "run_wasai", "engine.run_wasai", on_wasai)
    tracer.wrap(harness, "setup_chain", "harness.setup_chain")
    tracer.wrap(harness, "deploy_target", "deploy")
    tracer.wrap(harness, "scan_report", "scanner.scan")
    tracer.wrap(fuzzer, "decode_raw_trace", "instrument.decode", on_decode)
    tracer.wrap(fuzzer, "replay_action", "symbolic.replay")
    tracer.wrap(fuzzer, "flip_queries", "symbolic.flip", on_flip)
    tracer.wrap(fuzzer, "solve_flips", "smt.solve", on_solve)
    tracer.wrap(fuzzer, "branch_coverage_ids", "symbolic.cover")
    tracer.wrap(Chain, "push_transaction", "chain.push")
    tracer.wrap(Solver, "check", "smt.check", on_check)
    tracer.wrap(traceir, "encode_pack", "traceir.encode", on_encode)


STORE_READS = ("get_verdict", "has_verdict", "verdict_record")
STORE_WRITES = ("put_verdict", "put_trace", "put_module", "put_coverage")


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the scan service's admission, queue, dispatch and store.

    Campaign spans are tagged with the job id: admission maps each
    queued task to its job, and the dispatch wrapper looks it up.
    """
    import repro.service.scheduler as scheduler
    from repro.service.queue import JobQueue
    from repro.service.scheduler import ScanService
    from repro.service.store import ArtifactStore

    task_jobs: dict[int, str] = {}
    queued_at: dict[str, float] = {}

    def on_admit(args, kwargs, submission, span):
        span[5] = submission.job.job_id
        tracer.count(f"service.admit.{submission.outcome}")
        if submission.job.task is not None:
            task_jobs[id(submission.job.task)] = submission.job.job_id

    def on_campaign_enter(args, kwargs):
        request = task_jobs.get(id(args[0]))
        tracer.set_request(request)
        return request

    def on_put(args, kwargs, result, span):
        queue, job = args[0], args[1]
        span[5] = job.job_id
        queued_at.setdefault(job.job_id, span[2])
        tracer.count_max("service.queue.depth_max", queue.depth)

    def on_get(args, kwargs, job, span):
        if job is None:
            return
        span[5] = job.job_id
        put_at = queued_at.pop(job.job_id, None)
        if put_at is not None:
            tracer.spans.append([next(tracer._ids), "service.queue_wait",
                                 put_at, span[3], None, job.job_id])

    tracer.wrap(ScanService, "submit_bytes", "service.admit", on_admit)
    tracer.wrap(scheduler, "run_campaign_task", "service.campaign",
                on_enter=on_campaign_enter)
    tracer.wrap(JobQueue, "put", "service.queue.put", on_put)
    tracer.wrap(JobQueue, "get", "service.queue.get", on_get)
    for method in STORE_READS:
        tracer.wrap(ArtifactStore, method, "store.read")
    for method in STORE_WRITES:
        tracer.wrap(ArtifactStore, method, f"store.write.{method}")


# -- span -> per-layer metrics -------------------------------------------

def _self_seconds(spans: list[list], name: str) -> float:
    """Summed duration of ``name`` spans minus their direct children."""
    owners = {span[0]: span for span in spans if span[1] == name}
    total = sum(span[3] - span[2] for span in owners.values())
    children = sum(span[3] - span[2] for span in spans
                   if span[4] in owners)
    return total - children


def summarize(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics (name -> value) from spans and counters."""
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span[1], []).append(span[3] - span[2])
    for name in list(durations):
        if name.startswith("store.write."):
            durations.setdefault("store.write", []).extend(durations[name])

    def calls(name):
        return len(durations.get(name, ()))

    def busy(name):
        return float(sum(durations.get(name, ())))

    replays = calls("symbolic.replay")
    queries = counts["smt.solve.queries"]
    decode_busy = busy("instrument.decode")
    push_calls = calls("chain.push")
    out = {
        "deploy.calls": calls("deploy"),
        "deploy.busy_s": busy("deploy"),
        "chain.push.calls": push_calls,
        "chain.push.busy_s": busy("chain.push"),
        "chain.push.mean_us": (busy("chain.push") / push_calls * 1e6
                               if push_calls else 0.0),
        "instrument.decode.calls": calls("instrument.decode"),
        "instrument.decode.busy_s": decode_busy,
        "instrument.decode.events": counts["instrument.decode.events"],
        "instrument.decode.events_per_s": (
            counts["instrument.decode.events"] / decode_busy
            if decode_busy else 0.0),
        "symbolic.replay.calls": replays,
        "symbolic.replay.busy_s": busy("symbolic.replay"),
        "symbolic.replay.useful": counts["symbolic.replay.useful"],
        "symbolic.replay.useful_ratio": (
            counts["symbolic.replay.useful"] / replays if replays else 0.0),
        "symbolic.cover.busy_s": busy("symbolic.cover"),
        "smt.solve.calls": calls("smt.solve"),
        "smt.solve.busy_s": busy("smt.solve"),
        "smt.solve.queries": queries,
        "smt.solve.seeds_per_query": (counts["smt.solve.seeds"] / queries
                                      if queries else 0.0),
        "smt.check.calls": calls("smt.check"),
        "smt.check.busy_s": busy("smt.check"),
        "smt.check.p90_s": quantile(durations.get("smt.check", ()), 0.9),
        "smt.unknowns": counts["smt.unknowns"],
        "engine.fuzzer.self_s": _self_seconds(spans, "engine.run_wasai"),
        "scanner.scan.calls": calls("scanner.scan"),
        "scanner.scan.busy_s": busy("scanner.scan"),
        "service.admit.calls": calls("service.admit"),
        "service.admit.busy_s": busy("service.admit"),
        "service.admit.p90_s": quantile(durations.get("service.admit", ()),
                                        0.9),
        "service.queue_wait.p50_s": quantile(
            durations.get("service.queue_wait", ()), 0.5),
        "service.queue_wait.p90_s": quantile(
            durations.get("service.queue_wait", ()), 0.9),
        "service.queue.depth_max": counts["service.queue.depth_max"],
        "service.campaign.calls": calls("service.campaign"),
        "service.campaign.p50_s": quantile(
            durations.get("service.campaign", ()), 0.5),
        "service.campaign.p90_s": quantile(
            durations.get("service.campaign", ()), 0.9),
        "traceir.encode.calls": calls("traceir.encode"),
        "traceir.encode.busy_s": busy("traceir.encode"),
        "traceir.encode.bytes": counts["traceir.encode.bytes"],
        "store.read.calls": calls("store.read"),
        "store.read.busy_s": busy("store.read"),
        "store.write.calls": calls("store.write"),
        "store.write.busy_s": busy("store.write"),
        "store.write.put_verdict.calls": calls("store.write.put_verdict"),
    }
    return out
