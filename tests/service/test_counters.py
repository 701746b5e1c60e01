"""The ``/stats`` books match what happened.

Every counter is written under the service lock, so concurrent HTTP
threads lose no count.  The keys that show one event twice (or sum
another object's counts) agree after a run through the healing paths:
store corruption, worker death, a breaker trip and every admission
shed kind.
"""

import base64
import json
import sys
import threading
import time
from types import SimpleNamespace

from repro.resilience import Fault, clear_fault_plan, install_fault_plan
from repro.service import (ScanService, ScanServiceConfig, ServiceApi,
                           TenantBook)
from repro.service.scheduler import LATENCY_WINDOW

from .conftest import FAST_TIMEOUT_MS, contract_bytes

THREADS = 8
REFUSALS_PER_THREAD = 200


def _yield_after_builtin_calls(frame, event, arg) -> None:
    """Profile hook: hand the GIL over after every builtin call, so a
    read-modify-write that spans one (``d[k] = d.get(k, 0) + 1``) is
    interleaved often instead of once in tens of thousands of runs."""
    if event == "c_return":
        time.sleep(0)


def test_concurrent_quota_sheds_are_all_counted():
    book = TenantBook(require_key=True)
    book.register("team", "team-key", max_submissions=0)
    api = ServiceApi(ScanService(config=ScanServiceConfig(workers=1)),
                     tenants=book)
    # The quota gate runs before any module parsing, so the refusal
    # path is short and the threads contend on the shed count itself.
    body = json.dumps({"module_b64": "", "abi": "{}"}).encode("utf-8")
    headers = {"X-Api-Key": "team-key"}
    statuses: list[int] = []
    start = threading.Barrier(THREADS)

    def refuse() -> None:
        start.wait(timeout=60)
        sys.setprofile(_yield_after_builtin_calls)
        try:
            seen = [api.handle("POST", "/scans", body, headers)[0]
                    for _ in range(REFUSALS_PER_THREAD)]
        finally:
            sys.setprofile(None)
        statuses.extend(seen)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=refuse)
                   for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = THREADS * REFUSALS_PER_THREAD
    assert statuses == [429] * total
    stats = api.handle("GET", "/stats")[1]
    assert stats["shed_by_kind"] == {"quota": total}
    # Quota refusals are not admission sheds.
    assert stats["shed"] == 0


def test_latency_samples_stay_within_the_window():
    service = ScanService(config=ScanServiceConfig(workers=1))
    job = SimpleNamespace(started_s=None, finished_s=None)
    for index in range(LATENCY_WINDOW + 500):
        job.started_s, job.finished_s = 100.0, 100.0 + index
        with service._lock:
            service._record_latency(
                job, SimpleNamespace(stage_seconds={"fuzz": 0.5}))
    latency = service.stats()["latency"]
    assert latency["job"]["n"] == LATENCY_WINDOW
    assert latency["fuzz"]["n"] == LATENCY_WINDOW
    assert all(len(window) == LATENCY_WINDOW
               for window in service._latency.values())
    # The window keeps the most recent samples.
    assert latency["job"]["max_s"] == LATENCY_WINDOW + 499


def _wait(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


def _body(seed: int) -> bytes:
    data, abi = contract_bytes(seed=seed)
    return json.dumps({"module_b64": base64.b64encode(data).decode(),
                       "abi": abi,
                       "config": {"timeout_ms": FAST_TIMEOUT_MS}}
                      ).encode("utf-8")


def test_counter_identities_hold_after_healing_and_every_shed(tmp_path):
    service = ScanService(
        str(tmp_path / "store.db"),
        config=ScanServiceConfig(workers=1, max_depth=2, max_inflight=3,
                                 poll_s=0.02, watchdog_poll_s=0.02,
                                 restart_backoff_s=0.0,
                                 breaker_threshold=1,
                                 breaker_cooldown_s=0.05,
                                 housekeeping_s=None),
        journal=str(tmp_path / "journal.jsonl"))
    api = ServiceApi(service)

    def submit(seed: int, **headers) -> tuple[int, dict]:
        return api.handle("POST", "/scans", _body(seed), headers)

    def kind(seed: int) -> str:
        status, doc = submit(seed)
        assert status == 429
        return doc["kind"]

    try:
        # Every admission shed kind, and a deadline cut, while no
        # worker runs: two queued jobs fill the queue.
        assert submit(0)[0] == 202 and submit(1)[0] == 202
        assert kind(2) == "queue"
        service.overload.base_inflight = 2
        assert kind(3) == "inflight"
        service.overload.base_inflight = 3
        service.overload.pressure = "shedding"
        assert kind(4) == "brownout"
        service.overload.pressure = "normal"
        service.store.max_bytes = 1
        assert kind(5) == "disk"
        service.store.max_bytes = None
        past_ms = str(int((time.time() - 1.0) * 1000))
        status, doc = submit(6, **{"X-Deadline-Ms": past_ms})
        assert doc["state"] == "deadline_exceeded"

        # The first claim kills its worker; a dead solver trips its
        # breaker (threshold 1) on the queued jobs.
        install_fault_plan(Fault(stage="worker", kind="kill", times=1),
                           Fault(stage="solve", kind="error"))
        service.start()
        _wait(lambda: all(job.terminal
                          for job in list(service._jobs.values())))
        # A healthy probe after the cooldown closes the breaker.
        clear_fault_plan()
        time.sleep(0.1)
        status, doc = submit(7)
        assert status == 202
        _wait(lambda: service.job(doc["id"]).terminal)

        # A corrupt row: the sweep quarantines and rebuilds the store.
        install_fault_plan(Fault(stage="store", kind="corrupt", times=1))
        service.store.put_verdict("key-1", "hash-1", {"tool": "wasai"},
                                  {"scans": {}})
        assert service.integrity_sweep()["repaired"] is True

        stats = api.handle("GET", "/stats")[1]
    finally:
        clear_fault_plan()
        service.stop(wait_s=5)
    by_kind = stats["shed_by_kind"]
    resilience = stats["resilience"]
    reaps = stats["supervisor"]["reaps"]
    breakers = stats["breakers"].values()
    assert resilience["integrity_repairs"] \
        == resilience["store_recoveries"] == 1
    assert resilience["worker_restarts"] \
        == reaps["died"] + reaps["hung"] == 1
    assert resilience["breaker_trips"] \
        == sum(breaker["trips"] for breaker in breakers) >= 1
    assert resilience["breaker_recoveries"] \
        == sum(breaker["recoveries"] for breaker in breakers) >= 1
    assert stats["shed"] == sum(by_kind[kind] for kind in
                                ("queue", "inflight", "brownout", "disk"))
    assert by_kind == {"queue": 1, "inflight": 1, "brownout": 1,
                       "disk": 1, "deadline": 1}
    assert by_kind["deadline"] == stats["deadline_exceeded"]
