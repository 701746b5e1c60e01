"""The ``service_mixed`` workload: a real ``wasai serve`` daemon.

The daemon runs as a subprocess (``--port 0 --workers 2
--capture-traces``) and is driven over sockets by closed-loop client
threads in this process, no more of them than CPUs.  Each client
submits a first-time Table 4 module, polls until its verdict is
terminal (as ``wasai submit --wait`` does), then resubmits one of its
own earlier modules, chosen by its seeded RNG; that resubmission must
be served ``cached`` from the store.  Each client owns its modules, so
whether a submission is fresh or a dedup hit never depends on timing.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from common import (BENCH_DIR, BUDGET_MS, SRC, WORK_DIR, check_verdicts,
                    digest, provenance, ratio)
from spans import quantile, summarize

SERVICE_SCALE = 0.07       # 234 distinct modules; a run uses ~150
CLIENTS = max(1, min(2, os.cpu_count() or 1))
WORKERS = 2
POLL_S = 0.02              # small against a ~0.4 s campaign
BOOTS = 3                  # set-up repetitions; the median is reported
TERMINAL = ("done", "failed", "quarantined", "expired",
            "deadline_exceeded", "rejected", "stolen")


def _corpus(seed: int):
    """Seed-shuffled Table 4 modules as bytes: (wasm, abi json, vuln
    type, label), plus the generation time alone."""
    from repro import build_table4_corpus
    from repro.wasm import encode_module
    started = time.perf_counter()
    corpus = build_table4_corpus(scale=SERVICE_SCALE, seed=seed)
    built = time.perf_counter() - started
    random.Random(seed).shuffle(corpus)
    items = [(encode_module(s.module), s.contract.abi.to_json(),
              s.vuln_type, s.label) for s in corpus]
    return items, built


class Daemon:
    """One ``wasai serve`` subprocess with its own store directory."""

    def __init__(self, name: str, traced: bool):
        self.dir = WORK_DIR / f"{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.traced = traced
        self.log_path = self.dir / "daemon.log"
        self.url = ""
        self.proc: "subprocess.Popen | None" = None

    def start(self, timeout_s: float = 60.0) -> None:
        """Boot and wait until ``/healthz`` reports ok."""
        from repro.service import ServiceClient
        serve = ["serve", "--port", "0", "--workers", str(WORKERS),
                 "--capture-traces", "--store", str(self.dir / "store.db"),
                 "--timeout-ms", f"{BUDGET_MS:g}"]
        if self.traced:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                       str(self.dir), *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        env["PYTHONPATH"] = str(SRC)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(command, stdout=log,
                                         stderr=subprocess.STDOUT, env=env,
                                         cwd=self.dir)
        deadline = time.monotonic() + timeout_s
        while not self.url:
            match = re.search(rb"on (http://[\d.]+:\d+)",
                              self.log_path.read_bytes())
            if match:
                self.url = match.group(1).decode()
            elif self.proc.poll() is not None or \
                    time.monotonic() > deadline:
                raise RuntimeError("daemon did not start: "
                                   + self.log_path.read_text(errors="replace"))
            else:
                time.sleep(0.01)
        client = ServiceClient(self.url, timeout_s=5.0, max_retries=0)
        while True:
            try:
                if client.health().get("status") == "ok":
                    return
            except Exception:  # noqa: BLE001 - not listening yet
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(kib.group(1)) / 1024.0 if kib else 0.0

    def stop(self, timeout_s: float = 90.0) -> int:
        """SIGTERM, wait for the drain; the exit code (-9 if killed)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9

    def cleanup(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


def _verdict_types(doc: dict) -> "list[str] | None":
    verdict = doc.get("verdict")
    if verdict is None:
        return None
    return sorted(t for t, f in verdict["findings"].items() if f["detected"])


def _tainted(doc: dict) -> "str | None":
    """Why a terminal job doc is not a full-pipeline verdict."""
    if doc.get("state") != "done":
        return f"state {doc.get('state')}: {doc.get('error')}"
    result = doc.get("result") or {}
    if doc.get("brownout") or "pressure" in (result.get("provenance") or {}):
        return "verdict produced under pressure (brownout)"
    if result.get("degraded"):
        return f"degraded: {result['degraded']}"
    if doc.get("verdict") is None:
        return "no verdict"
    return None


class Load:
    """What the clients saw during one load phase."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.fresh_s: list[float] = []
        self.dedup_s: list[float] = []
        self.campaign_s: list[float] = []
        self.submit_s: list[float] = []
        self.polls = 0
        self.outcomes: Counter = Counter()
        self.failures: list[str] = []
        self.verdicts: dict[int, list[str]] = {}   # module index -> types
        self.window_s = 0.0

    def fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)


def _client(cid: int, items, seed: int, url: str, stop_at: float,
            load: Load) -> None:
    """One closed-loop client; any error it meets is a failed run."""
    try:
        _client_loop(cid, items, seed, url, stop_at, load)
    except Exception as exc:  # noqa: BLE001 - reported, never lost
        load.fail(f"client {cid}: {type(exc).__name__}: {exc}")


def _client_loop(cid: int, items, seed: int, url: str, stop_at: float,
                 load: Load) -> None:
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(url, timeout_s=60.0, max_retries=0)
    rng = random.Random(f"{seed}:client{cid}")
    mine: list[int] = []

    def submit(index: int, expected: str):
        wasm, abi, _, _ = items[index]
        started = time.perf_counter()
        try:
            doc = client.submit(wasm, abi, config={"rng_seed": seed + index},
                                client=f"bench{cid}")
        except ServiceError as exc:
            load.fail(f"module {index}: refused {exc.status} {exc.error}")
            with load.lock:
                load.outcomes["refused"] += 1
            return None, 0.0
        submitted = time.perf_counter() - started
        polls = 0
        while doc.get("state") not in TERMINAL:
            time.sleep(POLL_S)
            doc = client.status(doc["id"])
            polls += 1
        latency = time.perf_counter() - started
        with load.lock:
            load.outcomes[doc["outcome"]] += 1
            load.submit_s.append(submitted)
            load.polls += polls
        if doc["outcome"] != expected:
            load.fail(f"module {index}: outcome {doc['outcome']}, "
                      f"expected {expected}")
            return None, latency
        reason = _tainted(doc)
        if reason is not None:
            load.fail(f"module {index}: {reason}")
            return None, latency
        return doc, latency

    for index in range(cid, len(items), CLIENTS):
        if time.perf_counter() >= stop_at:
            break
        doc, latency = submit(index, "queued")
        if doc is None:
            continue
        with load.lock:
            load.fresh_s.append(latency)
            load.campaign_s.append(doc["latency_s"])
            load.verdicts[index] = _verdict_types(doc)
        mine.append(index)
        again = rng.choice(mine)
        doc, latency = submit(again, "cached")
        if doc is None:
            continue
        with load.lock:
            load.dedup_s.append(latency)
            if _verdict_types(doc) != load.verdicts[again]:
                load.failures.append(f"module {again}: cached verdict "
                                     "differs from the fresh one")


def _drive(daemon: Daemon, items, seed: int, seconds: float) -> Load:
    """Run the closed loop for ``seconds`` and wait for stragglers."""
    load = Load()
    started = time.perf_counter()
    threads = [threading.Thread(target=_client,
                                args=(cid, items, seed, daemon.url,
                                      started + seconds, load))
               for cid in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load.window_s = time.perf_counter() - started
    return load


def _stats_checks(daemon: Daemon, load: Load) -> list[str]:
    from repro.service import ServiceClient
    stats = ServiceClient(daemon.url, max_retries=0).stats()
    checks = []
    hits = stats["dedup"]["cache_hits"]
    if hits != load.outcomes["cached"]:
        checks.append(f"/stats cache_hits {hits} != "
                      f"{load.outcomes['cached']} dedup submissions "
                      "served cached")
    if stats["pressure"] != "normal" or stats["shed"]:
        checks.append(f"daemon under pressure {stats['pressure']!r}, "
                      f"shed {stats['shed']}")
    return checks


class Phase:
    """One daemon's life: set-up, load, drain."""

    def __init__(self, name: str, traced: bool, seed: int, seconds: float):
        started = time.perf_counter()
        self.items, self.build_s = _corpus(seed)
        daemon = Daemon(name, traced)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.cache = [0, 0, 0, 0]
        try:
            daemon.start()
            self.setup_s = time.perf_counter() - started
            self.load = _drive(daemon, self.items, seed, seconds)
            self.checks = _stats_checks(daemon, self.load)
            self.rss_mb = daemon.peak_rss_mb()
            code = daemon.stop()
            if code != 0:
                self.checks.append(f"daemon exited {code} on its SIGTERM "
                                   "drain")
            if traced:
                self._read_trace(daemon.dir, seed)
        finally:
            daemon.cleanup()

    def _read_trace(self, directory: Path, seed: int) -> None:
        spans_path = WORK_DIR / f"spans-service_mixed-{seed}.jsonl"
        shutil.move(directory / "spans.jsonl", spans_path)
        with open(spans_path, encoding="utf-8") as handle:
            for line in handle:
                s = json.loads(line)
                self.spans.append([s["id"], s["name"], s["start"], s["end"],
                                   s["parent"], s["request"]])
        doc = json.loads((directory / "counts.json").read_text(
            encoding="utf-8"))
        self.counts = Counter(doc["counts"])
        self.cache = doc["cache"]


def _fresh_f1(items, load: Load) -> float:
    from repro.metrics import Confusion
    confusion = Confusion()
    for index, found in load.verdicts.items():
        _, _, vuln_type, label = items[index]
        confusion.record(label, vuln_type in found)
    return confusion.f1


def run_service(seed: int, seconds: float, trace: bool):
    """Run the workload; returns (provenance, checks, attempted,
    failed, metrics)."""
    if trace:
        # Half the time untraced, half traced, on the same inputs, to
        # price the tracing overhead; per-layer figures come from the
        # traced half.
        plain = Phase("plain", False, seed, seconds / 2)
        phase = Phase("traced", True, seed, seconds / 2)
        phases = [plain, phase]
        checks = plain.checks + phase.checks
        shared = sorted(set(plain.load.verdicts) & set(phase.load.verdicts))
        if any(plain.load.verdicts[i] != phase.load.verdicts[i]
               for i in shared):
            checks.append("traced daemon verdicts differ from untraced")
        load = phase.load
        metrics = summarize(phase.spans, phase.counts)
        metrics.update(_service_layer_checks(metrics, phase.counts, load,
                                             checks))
        instr_hits, instr_misses, smt_hits, smt_misses = phase.cache
        metrics.update({
            "benchgen.build_s": phase.build_s,
            "instrument.cache_hit_ratio": ratio(instr_hits,
                                                instr_hits + instr_misses),
            "smt.cache_hit_ratio": ratio(smt_hits, smt_hits + smt_misses),
            "client.submit.p50_s": quantile(load.submit_s, 0.5),
            "client.dedup.p50_s": quantile(load.dedup_s, 0.5),
            "client.dedup.p90_s": quantile(load.dedup_s, 0.9),
            "client.polls_per_job": ratio(load.polls, len(load.fresh_s)),
            "overhead.traced_jobs_per_s": _jobs_per_s(load),
            "overhead.untraced_jobs_per_s": _jobs_per_s(plain.load),
            "overhead.traced_contracts_per_s": _contracts_per_s(load),
            "overhead.untraced_contracts_per_s":
                _contracts_per_s(plain.load),
            "overhead.ratio": ratio(_jobs_per_s(plain.load),
                                    _jobs_per_s(load)),
        })
    else:
        # Idle boots first: set-up time is the median over BOOTS.
        phases = [Phase("boot", False, seed, 0.0)
                  for _ in range(BOOTS - 1)]
        phase = Phase("serve", False, seed, seconds)
        phases.append(phase)
        checks = [c for p in phases for c in p.checks]
        load = phase.load
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in phases),
            "contracts_per_s": _contracts_per_s(load),
            "contract_p50_s": quantile(load.campaign_s, 0.5),
            "contract_p90_s": quantile(load.campaign_s, 0.9),
            "jobs_per_s": _jobs_per_s(load),
            "fresh_p50_s": quantile(load.fresh_s, 0.5),
            "fresh_p90_s": quantile(load.fresh_s, 0.9),
            "verdict_f1": _fresh_f1(phase.items, load),
            "peak_rss_mb": phase.rss_mb,
        }
    verdicts = [[i, load.verdicts[i]] for i in sorted(load.verdicts)]
    mismatch = check_verdicts("service_mixed", seed,
                              {str(i): v for i, v in verdicts})
    if mismatch:
        checks.append(mismatch)
    loads = [p.load for p in phases]
    failures = [f for load_ in loads for f in load_.failures]
    attempted = sum(sum(load_.outcomes.values()) for load_ in loads)
    outcomes = sum((load_.outcomes for load_ in loads), Counter())
    prov = provenance("service_mixed", seed, seconds, trace,
                      len(phase.items), clients=CLIENTS,
                      workers=WORKERS, poll_s=POLL_S,
                      verdict_digest=digest(verdicts),
                      outcomes=dict(outcomes),
                      samples={"fresh": len(load.fresh_s),
                               "dedup": len(load.dedup_s)})
    return prov, checks + failures, max(attempted, 1), len(failures), metrics


def _contracts_per_s(load: Load) -> float:
    return ratio(len(load.fresh_s), load.window_s)


def _jobs_per_s(load: Load) -> float:
    return ratio(len(load.fresh_s) + len(load.dedup_s), load.window_s)


def _service_layer_checks(metrics, counts, load: Load,
                          checks: list[str]) -> dict:
    """Cross-check the traced daemon's counts against its behaviour."""
    fresh = len(load.fresh_s)
    if metrics["store.write.put_verdict.calls"] != fresh:
        checks.append(f"put_verdict calls "
                      f"{metrics['store.write.put_verdict.calls']} != "
                      f"{fresh} fresh jobs done")
    if metrics["deploy.calls"] != fresh:
        checks.append(f"deploy.calls {metrics['deploy.calls']} != "
                      f"{fresh} fresh campaigns")
    if metrics["smt.solve.queries"] != counts["wasai.solver_checks"]:
        checks.append(f"smt.solve.queries {metrics['smt.solve.queries']} "
                      f"!= campaigns' solver_stats checks "
                      f"{counts['wasai.solver_checks']}")
    return {"smt.stats.checks": counts["wasai.solver_checks"]}
