"""JobQueue: bounds, typed shed, priority, per-client fairness,
anti-starvation promotion and per-job TTL expiry."""

import pytest

from repro.service import Job, JobQueue, QueueFull


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _job(client: str = "a", priority: int = 0, n: int = 0,
         ttl_s: float | None = None) -> Job:
    return Job(job_id=f"{client}{priority}{n}", client=client,
               scan_key=f"k{client}{priority}{n}", module_hash="h",
               config={}, priority=priority, ttl_s=ttl_s)


def test_fifo_within_one_client():
    queue = JobQueue(max_depth=8)
    first, second = _job(n=1), _job(n=2)
    queue.put(first)
    queue.put(second)
    assert queue.get(timeout=0) is first
    assert queue.get(timeout=0) is second
    assert queue.get(timeout=0) is None


def test_bounded_depth_sheds_with_typed_rejection():
    queue = JobQueue(max_depth=2)
    queue.put(_job(n=1))
    queue.put(_job(n=2))
    with pytest.raises(QueueFull) as excinfo:
        queue.put(_job(n=3))
    assert excinfo.value.kind == "queue"
    assert excinfo.value.depth == 2
    assert excinfo.value.limit == 2
    # Containment re-queues bypass the bound — retries are never shed.
    queue.put(_job(n=4), force=True)
    assert len(queue) == 3


def test_higher_priority_runs_first():
    queue = JobQueue(max_depth=8)
    low, high = _job(priority=0), _job(priority=5)
    queue.put(low)
    queue.put(high)
    assert queue.get(timeout=0) is high
    assert queue.get(timeout=0) is low


def test_round_robin_across_clients():
    queue = JobQueue(max_depth=16)
    # Client "a" floods; client "b" arrives later with one job.
    flood = [_job("a", n=n) for n in range(4)]
    for job in flood:
        queue.put(job)
    lone = _job("b")
    queue.put(lone)
    order = [queue.get(timeout=0) for _ in range(5)]
    # "b" is served second, not after the whole flood.
    assert order[0] is flood[0]
    assert order[1] is lone
    assert order[2:] == flood[1:]


def test_aged_job_is_promoted_over_higher_priority():
    clock = FakeClock()
    queue = JobQueue(max_depth=16, promote_after_s=5.0, clock=clock)
    parked = _job("slow", priority=0)
    queue.put(parked)
    clock.advance(5.0)                  # parked crosses the age bar
    fresh = [_job("hot", priority=9, n=n) for n in range(3)]
    for job in fresh:
        queue.put(job)
    # Without promotion the priority-9 flood would run first; the aged
    # job jumps every band instead.
    assert queue.get(timeout=0) is parked
    assert queue.promoted == 1
    assert queue.get(timeout=0) is fresh[0]


def test_promotion_serves_oldest_starved_job_first():
    clock = FakeClock()
    queue = JobQueue(max_depth=16, promote_after_s=1.0, clock=clock)
    older = _job("x", n=1)
    queue.put(older)
    clock.advance(0.5)
    newer = _job("y", n=2)
    queue.put(newer)
    clock.advance(1.0)                  # both now starved
    assert queue.get(timeout=0) is older
    assert queue.get(timeout=0) is newer
    assert queue.promoted == 2


def test_ttl_expires_stale_jobs_via_callback():
    clock = FakeClock()
    expired = []
    queue = JobQueue(max_depth=16, on_expired=expired.append,
                     clock=clock)
    stale = _job("a", n=1, ttl_s=2.0)
    durable = _job("a", n=2)            # no TTL: waits forever
    queue.put(stale)
    queue.put(durable)
    clock.advance(2.0)
    # The sweep runs on get: the stale job is finalized through the
    # callback and never handed to a worker.
    assert queue.get(timeout=0) is durable
    assert expired == [stale]
    assert len(queue) == 0


def test_requeue_keeps_original_age_for_ttl_and_promotion():
    clock = FakeClock()
    expired = []
    queue = JobQueue(max_depth=16, on_expired=expired.append,
                     clock=clock)
    job = _job("a", ttl_s=3.0)
    queue.put(job)
    clock.advance(2.0)
    assert queue.get(timeout=0) is job  # claimed by a worker...
    queue.put(job, force=True)          # ...then requeued by the reaper
    clock.advance(1.0)                  # total queue age: 3s
    assert queue.get(timeout=0) is None
    assert expired == [job]             # TTL measured from first enqueue


def test_drain_returns_everything_in_priority_order():
    queue = JobQueue(max_depth=8)
    jobs = [_job("a", priority=0), _job("b", priority=3),
            _job("a", priority=3, n=1)]
    for job in jobs:
        queue.put(job)
    drained = queue.drain()
    assert len(drained) == 3
    assert len(queue) == 0
    assert [j.priority for j in drained] == [3, 3, 0]
    assert queue.get(timeout=0) is None
