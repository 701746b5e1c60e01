"""The two batch workloads: ``table4_batch`` and ``maze_batch``.

Both run WASAI serially, in this process, over seed-generated
contracts at a fixed virtual budget.  A run goes through its corpus in
chunks of a few contracts until ``--seconds`` have been measured;
``table4_batch`` also finishes its first full pass, so its F1 covers
the whole corpus, and then cycles.  The maze corpus is larger than a
run covers: its campaigns vary widely in cost, and more distinct
contracts per run keep the figures from depending on the seed.
Every pass starts with cold instrumentation and solver caches and
must reproduce the first pass's verdicts exactly.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from common import (BUDGET_MS, WORK_DIR, cache_counters, check_verdicts,
                    detected_types, digest, peak_rss_mb, provenance, ratio,
                    reset_caches)
from spans import Tracer, install_campaign_layers, quantile, summarize

TABLE4_SCALE = 0.02        # 68 contracts across the five Table 4 types
MAZE_COUNT = 120           # Figure 3 population, maze depth 5-7
CHUNK = 3                  # contracts per call; the run stops between
SETUP_REPEATS = 3
RSS_CAMPAIGNS = 60         # peak RSS is read after this much work


def _roundtrip(module, abi):
    """The module and ABI as the program would receive them: parsed
    back from their encoded bytes, with no generator state attached."""
    from repro.eosio.abi import Abi
    from repro.wasm import encode_module, parse_module
    return parse_module(encode_module(module)), Abi.from_json(abi.to_json())


def _build_table4(seed: int):
    from repro import build_table4_corpus
    from repro.benchgen.corpus import BenchmarkSample
    started = time.perf_counter()
    corpus = build_table4_corpus(scale=TABLE4_SCALE, seed=seed)
    built = time.perf_counter() - started
    samples = []
    for sample in corpus:
        module, abi = _roundtrip(sample.module, sample.contract.abi)
        contract = replace(sample.contract, module=module, abi=abi)
        samples.append(BenchmarkSample(sample.vuln_type, sample.label,
                                       contract))
    return samples, built, time.perf_counter() - started


def _build_maze(seed: int):
    """(module, abi, {vuln type: label}) per Figure 3 contract."""
    from repro import build_rq1_contracts
    started = time.perf_counter()
    contracts = build_rq1_contracts(count=MAZE_COUNT, seed=seed)
    built = time.perf_counter() - started
    inputs = [(*_roundtrip(c.module, c.abi), dict(c.ground_truth))
              for c in contracts]
    return inputs, built, time.perf_counter() - started


def _setup(build, seed: int):
    """Build the inputs several times; (inputs, setup_s, build_s) as
    medians so one slow repetition does not move set-up time."""
    builds, totals = [], []
    for _ in range(SETUP_REPEATS):
        inputs, built, total = build(seed)
        builds.append(built)
        totals.append(total)
    return inputs, statistics.median(totals), statistics.median(builds)


class CampaignLog:
    """Times and keeps every campaign the run makes, in order."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.records: list = []     # (task, result, seconds)

    def wrap(self, worker):
        def timed(task):
            if self.tracer is not None:
                self.tracer.set_request(
                    f"{len(self.records)}:{task.sample_key}")
            started = time.perf_counter()
            result = worker(task)
            self.records.append((task, result,
                                 time.perf_counter() - started))
            return result
        return timed


def _outcome(result) -> "tuple[list[str] | None, str | None]":
    """(detected types, failure reason) of one WASAI campaign."""
    if isinstance(result, str):
        return None, result
    scan = result.scans.get("wasai")
    if scan is None:
        error = result.errors.get("wasai", {})
        return None, f"failed: {error.get('message', 'no scan')}"
    if result.degraded:
        return None, "degraded to black-box"
    if scan.divergences:
        return None, f"divergent: {scan.divergences[0]}"
    return detected_types(scan), None


def _run_table4(samples, lo: int, hi: int, seed: int, log: CampaignLog):
    """``evaluate_corpus`` on samples ``lo:hi`` with the per-sample RNG
    seeds a whole-corpus call would give them.  Returns (wall, per
    sample results, the program's own confusion matrix, checks)."""
    import repro.harness as harness
    samples = samples[lo:hi]
    original = harness.run_campaign_task
    harness.run_campaign_task = log.wrap(original)
    try:
        started = time.perf_counter()
        tables = harness.evaluate_corpus(samples, tools=("wasai",),
                                         timeout_ms=BUDGET_MS,
                                         rng_seed=seed + lo, jobs=1)
        wall = time.perf_counter() - started
    finally:
        harness.run_campaign_task = original
    table = tables["wasai"]
    checks = []
    if table.skipped_count() or table.divergent_count():
        checks.append(f"evaluate_corpus skipped {table.skipped_count()} "
                      f"and marked {table.divergent_count()} divergent")
    results = [result for _, result, _ in log.records[-len(samples):]]
    return wall, results, table.total(), checks


def _run_maze(inputs, lo: int, hi: int, seed: int, log: CampaignLog):
    """Serial WASAI campaigns on contracts ``lo:hi``."""
    from repro.parallel import CampaignTask, run_campaign_task
    from repro.resilience import run_resilient_tasks
    tasks = [CampaignTask(module, abi, ("wasai",), BUDGET_MS, seed + index,
                          sample_key=f"maze[{index}]")
             for index, (module, abi, _) in enumerate(inputs[lo:hi], lo)]
    started = time.perf_counter()
    run = run_resilient_tasks(log.wrap(run_campaign_task), tasks, jobs=1)
    wall = time.perf_counter() - started
    results = [result.value if result.ok else f"failed: {result.error}"
               for result in run.results]
    checks = [f"{run.retries} maze campaigns were retried"] \
        if run.retries else []
    return wall, results, None, checks


def _score(sample, found: list[str], confusion) -> None:
    """Score one verdict against the generator's ground truth."""
    if isinstance(sample, tuple):           # maze: every type labelled
        for vuln_type, label in sample[2].items():
            confusion.record(label, vuln_type in found)
    else:                                   # Table 4: one type per sample
        confusion.record(sample.label, sample.vuln_type in found)


def run_batch(workload: str, seed: int, seconds: float, trace: bool):
    """Run one batch workload; returns (provenance, checks, attempted,
    failed, metrics)."""
    from repro.metrics import Confusion
    if workload == "table4_batch":
        inputs, setup_s, build_s = _setup(_build_table4, seed)
        run_chunk = _run_table4
    else:
        inputs, setup_s, build_s = _setup(_build_maze, seed)
        run_chunk = _run_maze
    size = len(inputs)
    tracer = Tracer() if trace else None
    log = CampaignLog(tracer)
    checks: list[str] = []
    failures: list[str] = []
    first: list = [None] * size             # pass-0 verdicts
    ours, program = Confusion(), Confusion()
    walls = {True: 0.0, False: 0.0}         # traced? -> seconds
    contracts = {True: 0, False: 0}
    cache = [0, 0, 0, 0]
    rss_mb = 0.0
    full_pass = workload == "table4_batch"
    position = chunks = 0
    measured = 0.0
    while (full_pass and position < size) or measured < seconds:
        lo = position % size
        hi = min(lo + CHUNK, size)
        if lo == 0:
            reset_caches()
        # Traced runs alternate traced and untraced chunks, pricing the
        # tracing overhead on interleaved, like-for-like work.
        traced = trace and chunks % 2 == 0
        if traced:
            install_campaign_layers(tracer)
        before = cache_counters()
        try:
            wall, results, confusion, chunk_checks = run_chunk(
                inputs, lo, hi, seed, log)
        finally:
            if traced:
                tracer.uninstall()
        for index, value in enumerate(cache_counters()):
            cache[index] += value - before[index]
        measured += wall
        walls[traced] += wall
        contracts[traced] += hi - lo
        checks.extend(chunk_checks)
        for index, result in enumerate(results, lo):
            found, failure = _outcome(result)
            verdict = found if failure is None else failure
            if failure is not None:
                failures.append(f"sample {index}: {failure}")
            if position < size:
                first[index] = verdict
                if failure is None:
                    _score(inputs[index], found, ours)
            elif verdict != first[index]:
                checks.append(f"sample {index}: verdict {verdict} differs "
                              f"from the first pass's {first[index]}")
        if confusion is not None and position < size:
            program = program.merged(confusion)
        position += hi - lo
        chunks += 1
        if not rss_mb and len(log.records) >= RSS_CAMPAIGNS:
            # After a fixed amount of work, so that host speed (how
            # many campaigns fit in the run) does not move it.
            rss_mb = peak_rss_mb()
    if workload == "table4_batch" and program != ours:
        checks.append(f"verdicts scored {ours} but evaluate_corpus's "
                      f"tables total {program}")
    first = [verdict for verdict in first if verdict is not None]
    mismatch = check_verdicts(workload, seed,
                              {str(i): v for i, v in enumerate(first)})
    if mismatch:
        checks.append(mismatch)
    attempted = len(log.records)
    instr_ratio = ratio(cache[0], cache[0] + cache[1])
    smt_ratio = ratio(cache[2], cache[2] + cache[3])
    prov = provenance(workload, seed, seconds, trace, size,
                      passes=round(position / size, 2),
                      verdict_digest=digest(first),
                      instrument_cache_hit_ratio=instr_ratio,
                      smt_cache_hit_ratio=smt_ratio)
    if trace:
        metrics = summarize(tracer.resolved(), tracer.counts)
        metrics.update(_batch_layer_checks(tracer, metrics, contracts[True],
                                           checks))
        traced_cps = ratio(contracts[True], walls[True])
        plain_cps = ratio(contracts[False], walls[False])
        metrics.update({
            "benchgen.build_s": build_s,
            "instrument.cache_hit_ratio": instr_ratio,
            "smt.cache_hit_ratio": smt_ratio,
            "overhead.traced_contracts_per_s": traced_cps,
            "overhead.untraced_contracts_per_s": plain_cps,
            # A batch job is one contract campaign.
            "overhead.traced_jobs_per_s": traced_cps,
            "overhead.untraced_jobs_per_s": plain_cps,
            "overhead.ratio": ratio(plain_cps, traced_cps),
            # No HTTP client in a batch run.
            "client.submit.p50_s": 0.0,
            "client.dedup.p50_s": 0.0,
            "client.dedup.p90_s": 0.0,
            "client.polls_per_job": 0.0,
        })
        WORK_DIR.mkdir(exist_ok=True)
        tracer.dump(WORK_DIR / f"spans-{workload}-{seed}.jsonl")
        return prov, checks + failures, attempted, len(failures), metrics
    campaign_s = [elapsed for _, _, elapsed in log.records]
    p50, p90 = quantile(campaign_s, 0.5), quantile(campaign_s, 0.9)
    metrics = {
        "setup_s": setup_s,
        "contracts_per_s": ratio(contracts[False], measured),
        "contract_p50_s": p50,
        "contract_p90_s": p90,
        # A batch job is one contract, and every batch contract is
        # first-time: its verdict latency is its campaign.
        "jobs_per_s": ratio(contracts[False], measured),
        "fresh_p50_s": p50,
        "fresh_p90_s": p90,
        "verdict_f1": ours.f1,
        "peak_rss_mb": rss_mb or peak_rss_mb(),
    }
    prov["samples"] = {"campaigns": len(campaign_s)}
    return prov, checks + failures, attempted, len(failures), metrics


def _batch_layer_checks(tracer, metrics, campaigns: int,
                        checks: list[str]) -> dict:
    """Cross-check traced counts against the program's own counters."""
    if metrics["deploy.calls"] != campaigns:
        checks.append(f"deploy.calls {metrics['deploy.calls']} != "
                      f"{campaigns} contracts attempted")
    solver_checks = tracer.counts["wasai.solver_checks"]
    if metrics["smt.solve.queries"] != solver_checks:
        checks.append(f"smt.solve.queries {metrics['smt.solve.queries']} "
                      f"!= campaigns' solver_stats checks {solver_checks}")
    return {"smt.stats.checks": solver_checks}
