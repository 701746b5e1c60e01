"""Bounded priority job queue with fair scheduling, anti-starvation
promotion and per-job TTLs.

The queue is the service's only buffer, and it is *bounded by
construction*: :meth:`JobQueue.put` raises the typed
:class:`QueueFull` once the depth limit is hit — callers shed load
with an explicit rejection the client can see (HTTP 429) instead of
buffering unboundedly until the process dies.  Re-queued retries use
``force=True`` so containment can never be starved by admission
control.

Scheduling is two-level: strict priority first (higher number runs
sooner), round-robin across clients within a priority band — one
client flooding the queue cannot starve another client's single job,
because each ``get`` takes the head job of the *next* client in
rotation.  Two aging rules temper strict priority:

* **anti-starvation promotion** — a job whose queue age exceeds
  ``promote_after_s`` is served ahead of every band, oldest first, so
  a hot high-priority client can delay low-priority work but never
  park it forever;
* **per-job TTL** — a job still queued after its ``ttl_s`` is expired
  with the typed terminal state ``"expired"`` (reported through the
  ``on_expired`` callback) instead of being scanned arbitrarily late;
  a stale answer the submitter stopped waiting for is a wasted
  campaign.

Two clocks govern staleness.  TTLs age on the queue's *monotonic*
clock (relative budgets must not jump with NTP); caller deadlines
(``Job.deadline_epoch_s``) are absolute *wall-clock* instants set by
the client, compared against the injectable ``wall_clock``.  Both are
policed by the same sweep, which runs on every ``get`` **and** via the
public :meth:`JobQueue.sweep_expired` so an idle queue — no worker
polling, daemon quiescent — still expires jobs promptly instead of
discovering staleness only when demand returns.

Job lifecycle is data: :class:`JobState` names the states,
:data:`TRANSITIONS` the allowed edges (the scan service applies them;
the queue never changes a state).  A ``stolen`` job lives on at its
thief, so fleet waiters stop on :data:`SETTLED`, not :data:`TERMINAL`.
The :class:`Job` record is what ``GET /scans/{id}`` renders.
"""

from __future__ import annotations

import base64
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

__all__ = ["Job", "JobQueue", "QueueFull", "JobState", "JOB_STATES",
           "TRANSITIONS", "TERMINAL", "SETTLED", "IllegalTransition",
           "job_recipe", "resubmit", "recipe_to_wire", "recipe_from_wire"]


class JobState(str, Enum):
    """A job's lifecycle state.  ``str``-valued, so JSON docs and
    comparisons against plain strings are unchanged."""

    NEW = "new"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"
    EXPIRED = "expired"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    STOLEN = "stolen"

    # str() and f-strings render the bare value on every Python
    # version (3.12 changed the mixed-in Enum default).
    def __str__(self) -> str:
        return self.value

    __format__ = str.__format__


JOB_STATES = tuple(JobState)

TRANSITIONS: "dict[JobState, frozenset[JobState]]" = {
    JobState(source): frozenset(map(JobState, targets.split()))
    for source, targets in {
        "new": "queued done deadline_exceeded",
        "queued": "running expired deadline_exceeded stolen failed",
        "running": "done queued failed quarantined deadline_exceeded",
    }.items()}

TERMINAL = frozenset(state for state in JobState
                     if state not in TRANSITIONS)
# A stolen job is terminal here but resolves at its thief.
SETTLED = TERMINAL - {JobState.STOLEN}


class IllegalTransition(ValueError):
    """An edge outside :data:`TRANSITIONS` was attempted."""


class QueueFull(Exception):
    """Typed backpressure rejection: the queue (or the service's
    in-flight budget, the store's disk budget, or a tenant's quota) is
    saturated; the submission was shed.  ``retry_after_s`` is the
    server's hint for when a retry is worth attempting (emitted as
    ``Retry-After``).  Every 429 the service emits carries the same
    schema: ``kind`` names the saturated bound so clients and fleet
    peers can dispatch without string-matching the message."""

    def __init__(self, message: str, *, depth: int, limit: int,
                 kind: str = "queue", retry_after_s: float = 1.0):
        super().__init__(message)
        self.depth = depth
        self.limit = limit
        # "queue" | "inflight" | "draining" | "disk" | "quota"
        # | "brownout" (pressure ladder refused it: level topped out
        # or the campaign is too expensive for its priority)
        self.kind = kind
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One admitted scan request and everything about its lifetime."""

    job_id: str
    client: str
    scan_key: str
    module_hash: str
    config: dict
    task: Any = None          # CampaignTask; None once terminal
    priority: int = 0
    state: JobState = JobState.NEW
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    attempts: int = 0
    result_doc: dict | None = None
    error: str | None = None
    outcome: str = "queued"   # queued | cached | coalesced
    waiters: int = 0          # coalesced submissions sharing this job
    queued_s: float = 0.0     # queue clock at first enqueue (for aging)
    ttl_s: float | None = None  # max queue age before "expired"
    deadline_epoch_s: float | None = None  # caller wall-clock deadline
    brownout: str | None = None  # pressure level the run degraded under
    claim: str | None = None  # worker token currently owning the run
    requeues: int = 0         # watchdog reap re-queues (exactly-once)
    stolen_by: str | None = None  # fleet thief token once work-stolen

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    @property
    def reverdict(self) -> bool:
        """A queued re-verdict sweep: it replays this node's own
        store, so it is never work-stolen."""
        return self.config.get("kind") == "reverdict"

    def deadline_remaining_s(self,
                             now_epoch_s: float | None = None) -> float:
        """Wall-clock budget left before the caller's deadline; +inf
        without one (so comparisons read naturally)."""
        if self.deadline_epoch_s is None:
            return float("inf")
        now = time.time() if now_epoch_s is None else now_epoch_s
        return self.deadline_epoch_s - now

    def to_doc(self) -> dict:
        doc = {
            "id": self.job_id,
            "client": self.client,
            "state": str(self.state),
            "outcome": self.outcome,
            "scan_key": self.scan_key,
            "module_hash": self.module_hash,
            "config": dict(self.config),
            "priority": self.priority,
            "attempts": self.attempts,
            "coalesced_waiters": self.waiters,
        }
        if self.requeues:
            doc["requeues"] = self.requeues
        if self.stolen_by is not None:
            doc["stolen_by"] = self.stolen_by
        if self.deadline_epoch_s is not None:
            doc["deadline_epoch_s"] = self.deadline_epoch_s
        if self.brownout is not None:
            doc["brownout"] = self.brownout
        if self.started_s and self.finished_s:
            doc["latency_s"] = self.finished_s - self.started_s
        if self.error is not None:
            doc["error"] = self.error
        return doc


def job_recipe(job: Job, module: bytes | None = None) -> dict:
    """A queued job's portable form: everything :func:`resubmit` needs
    to admit it again elsewhere (a drain checkpoint, a fleet peer).
    The module bytes ride along only when given; a checkpoint names
    them by ``module_hash`` because the store already holds them."""
    recipe = {
        "job_id": job.job_id,
        "scan_key": job.scan_key,
        "module_hash": job.module_hash,
        "abi": job.task.abi.to_json() if job.task is not None else "",
        "config": dict(job.config),
        "client": job.client,
        "priority": job.priority,
        "ttl_s": job.ttl_s,
    }
    if job.deadline_epoch_s is not None:
        # Absolute wall-clock survives a restart or a hand-off
        # unchanged, so the receiver re-checks the caller's deadline.
        recipe["deadline_epoch_s"] = job.deadline_epoch_s
    if module is not None:
        recipe["module"] = module
    return recipe


def resubmit(submit: Callable, recipe: dict,
             module: bytes | None = None):
    """Admit ``recipe`` again through ``submit`` — any callable with
    the ``ScanService.submit_bytes`` signature, such as a fleet
    backend's ``submit`` — and return what it returns."""
    ttl_s = recipe.get("ttl_s")
    deadline = recipe.get("deadline_epoch_s")
    return submit(
        recipe["module"] if module is None else module,
        recipe.get("abi", "{}"),
        config=recipe.get("config") or None,
        client=recipe.get("client", "anon"),
        priority=int(recipe.get("priority", 0)),
        ttl_s=float(ttl_s) if ttl_s is not None else None,
        deadline_epoch_s=(float(deadline) if deadline is not None
                          else None))


def recipe_to_wire(recipe: dict) -> dict:
    """A recipe as JSON: the module bytes travel as ``module_b64``."""
    wire = dict(recipe)
    wire["module_b64"] = base64.b64encode(
        wire.pop("module", b"")).decode("ascii")
    return wire


def recipe_from_wire(wire: dict) -> dict:
    """The inverse of :func:`recipe_to_wire`."""
    recipe = dict(wire)
    recipe["module"] = base64.b64decode(recipe.pop("module_b64", ""))
    return recipe


class JobQueue:
    """Thread-safe bounded queue: priority bands, fair within a band,
    age-promoted across bands, TTL-expired when stale."""

    def __init__(self, max_depth: int = 64, *,
                 promote_after_s: float | None = None,
                 on_expired: "Callable[[Job], None] | None" = None,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time):
        self.max_depth = max_depth
        self.promote_after_s = promote_after_s
        self.on_expired = on_expired
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        # priority -> client -> FIFO of jobs; clients rotate per get.
        self._bands: dict[int, "OrderedDict[str, deque[Job]]"] = {}
        self._depth = 0
        self.promoted = 0

    def __len__(self) -> int:
        with self._lock:
            return self._depth

    @property
    def depth(self) -> int:
        return len(self)

    def put(self, job: Job, force: bool = False) -> None:
        """Enqueue ``job``; raises :class:`QueueFull` at the depth
        bound unless ``force`` (used for containment re-queues, which
        must never be shed)."""
        with self._lock:
            if not force and self._depth >= self.max_depth:
                raise QueueFull(
                    f"queue depth {self._depth} at limit "
                    f"{self.max_depth}", depth=self._depth,
                    limit=self.max_depth)
            if job.queued_s == 0.0:
                # First enqueue only: containment/watchdog re-queues
                # keep their original age so aging rules still apply.
                job.queued_s = self._clock()
            band = self._bands.setdefault(job.priority, OrderedDict())
            band.setdefault(job.client, deque()).append(job)
            self._depth += 1
            self._ready.notify()

    def get(self, timeout: float | None = None) -> Job | None:
        """The next job by (age promotion, priority, client rotation);
        None on timeout.  TTL-expired jobs found on the way are
        finalized through ``on_expired`` and never returned."""
        job: Job | None = None
        expired: list[Job] = []
        with self._lock:
            while True:
                self._sweep_expired_locked(expired)
                if self._depth > 0:
                    job = self._pick_locked()
                    break
                if not self._ready.wait(timeout=timeout):
                    break
        self._report_stale(expired)
        return job

    def sweep_expired(self) -> int:
        """Expire stale queued jobs *now*, without waiting for a
        ``get``: the scheduler's housekeeping tick calls this so an
        idle queue (workers busy or daemon quiescent) still emits
        ``expired`` / ``deadline_exceeded`` terminal docs promptly.
        Returns the number of jobs expired by this call."""
        expired: list[Job] = []
        with self._lock:
            self._sweep_expired_locked(expired)
        self._report_stale(expired)
        return len(expired)

    def _report_stale(self, expired: list[Job]) -> None:
        # Callbacks run outside the queue lock: the service finalizes
        # expired jobs under its own lock, and lock order everywhere
        # else is service -> queue.
        if self.on_expired is not None:
            for stale in expired:
                self.on_expired(stale)

    # -- internals (lock held) ---------------------------------------------
    def _sweep_expired_locked(self, out: list[Job]) -> None:
        now = self._clock()
        wall_now = self._wall_clock()
        for priority in list(self._bands):
            band = self._bands[priority]
            for client in list(band):
                jobs = band[client]
                keep: deque[Job] = deque()
                stale: list[Job] = []
                for job in jobs:
                    if job.deadline_remaining_s(wall_now) <= 0.0 \
                            or (job.ttl_s is not None
                                and now - job.queued_s >= job.ttl_s):
                        stale.append(job)
                    else:
                        keep.append(job)
                if stale:
                    out.extend(stale)
                    self._depth -= len(stale)
                    if keep:
                        band[client] = keep
                    else:
                        del band[client]
            if not band:
                del self._bands[priority]

    def _pick_locked(self) -> Job:
        promoted = self._promotable_locked()
        if promoted is not None:
            priority, client = promoted
            self.promoted += 1
        else:
            priority = max(p for p, band in self._bands.items()
                           if band)
            client = next(iter(self._bands[priority]))
        band = self._bands[priority]
        jobs = band[client]
        job = jobs.popleft()
        # Rotate: the client goes to the back of its band (or out of
        # it entirely once drained) so siblings get the next slot.
        del band[client]
        if jobs:
            band[client] = jobs
        if not band:
            del self._bands[priority]
        self._depth -= 1
        return job

    def _promotable_locked(self) -> "tuple[int, str] | None":
        """(priority, client) of the oldest head job whose queue age
        crossed ``promote_after_s``, or None."""
        if self.promote_after_s is None:
            return None
        now = self._clock()
        oldest: "tuple[float, int, str] | None" = None
        for priority, band in self._bands.items():
            for client, jobs in band.items():
                head = jobs[0]
                age = now - head.queued_s
                if age < self.promote_after_s:
                    continue
                if oldest is None or head.queued_s < oldest[0]:
                    oldest = (head.queued_s, priority, client)
        if oldest is None:
            return None
        return oldest[1], oldest[2]

    def steal(self, max_jobs: int, *,
              min_headroom_s: float = 0.0) -> list[Job]:
        """Remove and return up to ``max_jobs`` queued entries for a
        fleet peer to run instead (work stealing).

        Only *unclaimed* queue entries can ever be here — a claimed
        job left the queue at ``get``, so stealing can never touch an
        in-flight claim by construction.  Stealing takes the youngest
        jobs of the lowest priority band first: those would have run
        last locally, so the donor's latency profile is disturbed the
        least while the thief gets real backlog off this node.

        ``min_headroom_s`` makes stealing deadline-aware: a job whose
        remaining wall-clock deadline budget is below the headroom is
        skipped — shipping it across the fleet just to have it expire
        on the thief wastes the transfer and a campaign slot.  Jobs
        without a deadline are always eligible."""
        out: list[Job] = []
        with self._lock:
            wall_now = self._wall_clock()
            for priority in sorted(self._bands):
                band = self._bands[priority]
                for client in list(reversed(band)):
                    jobs = band[client]
                    remaining: deque[Job] = deque()
                    for job in reversed(jobs):
                        if len(out) < max_jobs and not job.reverdict \
                                and job.deadline_remaining_s(wall_now) \
                                >= min_headroom_s:
                            out.append(job)
                        else:
                            remaining.appendleft(job)
                    if remaining:
                        band[client] = remaining
                    else:
                        del band[client]
                    if len(out) >= max_jobs:
                        break
                if not band and priority in self._bands:
                    del self._bands[priority]
                if len(out) >= max_jobs:
                    break
            self._depth -= len(out)
        return out

    def drain(self) -> list[Job]:
        """Remove and return every queued job (checkpoint path)."""
        out: list[Job] = []
        with self._lock:
            for priority in sorted(self._bands, reverse=True):
                band = self._bands[priority]
                while band:
                    client, jobs = next(iter(band.items()))
                    out.extend(jobs)
                    del band[client]
            self._bands.clear()
            self._depth = 0
        return out
