"""The job lifecycle as data: one transition table, one function that
applies it, and one dispatch-time degradation decision.

The table tests run against an unstarted service (no campaign ever
runs); the regression tests drive real tiny campaigns.
"""

import ast
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service
from repro.service import (JOB_STATES, SETTLED, TERMINAL, TRANSITIONS,
                           BreakerBoard, IllegalTransition, Job, JobState,
                           QueueFull, ScanService, ScanServiceConfig)

from .conftest import FAST_TIMEOUT_MS


def _service() -> ScanService:
    return ScanService(
        store=":memory:",
        config=ScanServiceConfig(workers=1, poll_s=0.02,
                                 default_timeout_ms=FAST_TIMEOUT_MS,
                                 housekeeping_s=None))


def _job(state: JobState) -> Job:
    return Job(job_id="j", client="c", scan_key="k", module_hash="",
               config={}, state=state)


def _wait_terminal(service: ScanService, job_id: str,
                   timeout_s: float = 60.0) -> Job:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = service.job(job_id)
        if job is not None and job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never became terminal")


# -- the table ----------------------------------------------------------------

def test_terminal_and_settled_sets():
    assert TERMINAL == {"done", "failed", "quarantined", "expired",
                        "deadline_exceeded", "stolen"}
    assert SETTLED == TERMINAL - {"stolen"}
    assert set(JOB_STATES) == set(JobState)
    assert "rejected" not in JOB_STATES


@pytest.mark.parametrize("source", list(JobState))
def test_only_table_edges_apply(source):
    service = _service()
    for target in JobState:
        job = _job(source)
        if target in TRANSITIONS.get(source, ()):
            assert service.transition(job, target)
            assert job.state is target
            assert job.terminal == (target in TERMINAL)
        else:
            with pytest.raises(IllegalTransition):
                service.transition(job, target)
            assert job.state is source


def test_terminal_states_have_no_way_out():
    service = _service()
    for source in TERMINAL:
        for target in JobState:
            with pytest.raises(IllegalTransition):
                service.transition(_job(source), target)
    # A stolen job resolves at its thief; the donor never fails it.
    with pytest.raises(IllegalTransition):
        service.transition(_job(JobState.STOLEN), "failed")


def test_revoked_claim_is_a_no_op():
    service = _service()
    job = _job(JobState.QUEUED)
    assert service.transition(job, JobState.RUNNING, claim="w#1")
    assert job.claim == "w#1"
    assert not service.transition(job, JobState.DONE, token="w#0")
    assert job.state is JobState.RUNNING
    assert service.transition(job, JobState.DONE, token="w#1")
    assert job.claim is None and job.finished_s is not None
    assert service.stats()["completed"] == 1


def test_racing_completions_settle_each_job_once():
    """Many threads race to complete the same claimed jobs: the claim
    check and the edge are applied under one lock, so every job is
    completed exactly once and the counters agree."""
    service = _service()
    jobs = []
    for index in range(64):
        job = Job(job_id=f"j{index}", client="c", scan_key=f"k{index}",
                  module_hash="", config={}, state=JobState.QUEUED)
        assert service.transition(job, JobState.RUNNING, claim="w#1")
        jobs.append(job)
    wins: list[str] = []

    def racer() -> None:
        for job in jobs:
            if service.transition(job, JobState.DONE, token="w#1"):
                wins.append(job.job_id)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert sorted(wins) == sorted(job.job_id for job in jobs)
    stats = service.stats()
    assert stats["completed"] == len(jobs) and stats["running"] == 0


def test_only_the_transition_function_writes_state():
    """Source scan: no ``.state`` / ``.outcome`` assignment anywhere in
    the service package except inside ``ScanService.transition``."""
    package = Path(repro.service.__file__).parent
    writers: dict[tuple[str, str], int] = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, ast.Call) \
                        and getattr(node.func, "id", None) == "setattr" \
                        and len(node.args) >= 2 \
                        and getattr(node.args[1], "value", None) in (
                            "state", "outcome"):
                    targets = [node]
                else:
                    continue
                hits = [sub for target in targets
                        for sub in ast.walk(target)
                        if isinstance(sub, ast.Attribute)
                        and sub.attr in ("state", "outcome")]
                if hits or isinstance(node, ast.Call):
                    key = (path.name, func.name)
                    writers[key] = writers.get(key, 0) + 1
    assert set(writers) == {("scheduler.py", "transition")}, writers


# -- one degradation decision -------------------------------------------------

def test_brownout_never_takes_the_half_open_probe(sample_contract):
    """A job dispatched at ``saturated`` runs black-box without asking
    the breakers, so the half-open probe is still there for the next
    full-pipeline job — which closes the breaker and is cached."""
    data, abi = sample_contract
    now = [0.0]
    service = _service()
    service.breakers = BreakerBoard(threshold=1, cooldown_s=10.0,
                                    clock=lambda: now[0])
    service.breakers.record_failure("symback")
    now[0] += 11.0                        # past the cooldown: half-open
    symback = service.breakers.breakers["symback"]
    assert symback.state == "half_open"
    service.start()
    try:
        service.overload.pressure = "saturated"
        first = service.submit_bytes(data, abi)
        job1 = _wait_terminal(service, first.job.job_id)
        assert job1.state == "done" and job1.task.blackbox is True
        assert service.store.get_verdict(job1.scan_key) is None

        service.overload.pressure = "normal"
        second = service.submit_bytes(data, abi)
        assert second.outcome == "queued"
        job2 = _wait_terminal(service, second.job.job_id)
        assert job2.state == "done"
        assert job2.task.blackbox is False
        assert service.store.get_verdict(job2.scan_key) is not None
        assert symback.state == "closed"
        # Only jobs the breaker itself forced are counted.
        assert service.stats()["resilience"]["forced_blackbox"] == 0
    finally:
        service.stop(wait_s=5)


# -- re-verdict jobs: pinned to their node, same admission gate --------------

def test_reverdict_job_is_never_stolen():
    service = _service()
    try:
        submission = service.submit_reverdict()
        assert service.steal_unclaimed(4) == []
        job = service.job(submission.job.job_id)
        assert job.state == "queued"
        stats = service.stats()
        assert stats["failed"] == 0
        assert stats["fleet"]["stolen_away"] == 0
        service.start()
        assert _wait_terminal(service, job.job_id).state == "done"
    finally:
        service.stop(wait_s=5)


def test_reverdict_refused_while_draining_is_a_counted_shed():
    service = _service()
    service.drain(wait_s=1)
    with pytest.raises(QueueFull) as refused:
        service.submit_reverdict()
    assert refused.value.kind == "draining"
    assert refused.value.retry_after_s >= 30.0
    assert service.stats()["shed_by_kind"].get("draining") == 1
    service.stop(wait_s=1)
