"""The scan service core: admission, dedup, supervised workers,
circuit breakers and storage self-healing.

:class:`ScanService` glues the persistent :class:`ArtifactStore`, the
bounded :class:`JobQueue` and a supervised pool of worker threads into
the long-lived analyzer the HTTP daemon fronts.  One submission
travels::

    bytes -> ingest (sandboxed, typed reject) -> scan_key
          -> store hit?        -> cached verdict, no job runs
          -> in-flight twin?   -> coalesce onto the running job
          -> admission bounds  -> typed QueueFull shed
          -> queued -> running -> done | failed | quarantined, or
             expired | deadline_exceeded | stolen while queued

Every state change is one edge of ``queue.TRANSITIONS``, applied by
:meth:`ScanService.transition`.

Dedup levels:

* **store hit** — an identical module+config was already scanned
  (possibly in a previous process): the stored verdict is returned
  immediately and byte-identically, no worker involved;
* **single-flight coalescing** — an identical submission is already
  queued or running: the new submission attaches to that job instead
  of enqueuing a twin, so N concurrent identical uploads cost exactly
  one fuzzing campaign.

Self-healing has four pillars:

* **worker supervision** — workers run under a
  :class:`~repro.service.supervisor.WorkerSupervisor` watchdog.  Every
  job carries a *claim token* (``worker-name#generation``) stamped
  under the service lock; every completion path re-checks the claim,
  so when the watchdog reaps a dead or hung worker and requeues its
  job, whatever the zombie eventually produces is a no-op — the job is
  requeued *exactly once*.  A restart storm (too many replacements per
  window) degrades the service to draining instead of crash-looping.
* **circuit breakers** — a :class:`~repro.service.health.BreakerBoard`
  counts consecutive per-stage failures across jobs.  While a breaker
  on a degradable stage (symbolic replay, solver) is open, new jobs
  are forced into black-box-only scanning; one probe job per half-open
  window runs the full pipeline to test recovery (pressure is weighed
  first, so the probe never goes to a browned-out black-box run).
  Forced-black-box verdicts are *not* persisted: the store must never
  serve a weaker verdict for a scan key that promises the full
  pipeline.
* **storage integrity** — every store access routes through a healing
  wrapper: a typed :class:`StoreCorruption` (checksum mismatch or a
  malformed SQLite image) quarantines the corrupt database file aside
  and rebuilds a fresh store from the journal's verdict records.
  Budget exhaustion surfaces as typed disk backpressure
  (``QueueFull(kind="disk")``), never a crash.
* **chaos-ready chokepoints** — the worker loop, the store's disk
  guard and the journal writes all pass deterministic fault-injection
  chokepoints, so ``wasai chaos`` can rehearse every healing path
  against a live daemon.

Failure containment reuses the resilience policy end to end:
``run_campaign_task`` retries/degrades *inside* the job, and the
service retries whole failed jobs up to ``policy.max_retries`` before
benching the scan key after ``policy.quarantine_after`` failures.

Graceful drain checkpoints still-queued jobs into the JSONL journal;
:meth:`resume_from_journal` replays them exactly once (claim
tombstones make double replay impossible) and then compacts the
journal so it cannot grow without bound across daemon generations.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from ..eosio.abi import Abi
from ..metrics import latency_summary
from ..parallel.campaigns import CampaignTask, run_campaign_task
from ..resilience import (CampaignJournal, MalformedModule, Quarantine,
                          ResiliencePolicy, WorkerKill,
                          campaign_task_key)
from ..resilience.faultinject import inject
from ..wasm.hardening import load_untrusted_module
from .health import (BLACKBOX_GATED_STAGES, BREAKER_STAGES,
                     BreakerBoard)
from .integrity import StoreBudgetExceeded, StoreCorruption
from .overload import OverloadController
from .queue import (TERMINAL, TRANSITIONS, IllegalTransition, Job,
                    JobQueue, JobState, QueueFull, job_recipe, resubmit)
from .store import ArtifactStore
from .supervisor import WorkerRecord, WorkerSupervisor

__all__ = ["ScanService", "ScanServiceConfig", "Submission",
           "NodePartitioned", "DEFAULT_SCAN_CONFIG", "LATENCY_WINDOW"]

# Most recent latency samples kept per stage for ``/stats``: the
# percentiles describe recent traffic, and a long-lived daemon's
# memory and ``stats()`` sort stay bounded.
LATENCY_WINDOW = 1024

# The 429 kinds that admission itself raises; ``/stats`` ``shed`` is
# their sum.  Quota (tenant book), draining and deadline cuts are
# counted per kind only.
ADMISSION_SHEDS = ("queue", "inflight", "brownout", "disk")


class NodePartitioned(Exception):
    """This node believes it is on the minority side of a network
    partition: it refuses writes (new submissions) so a split brain
    can never produce two authoritative verdict histories, and serves
    reads marked ``stale`` until the partition heals and the journal
    replay catches it back up."""

    def __init__(self, message: str, *, retry_after_s: float = 5.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s

DEFAULT_SCAN_CONFIG = {
    "tool": "wasai",
    "timeout_ms": 30_000.0,
    "rng_seed": 1,
    "address_pool": False,
    "divergence_check": True,
    # Enabled oracle families (any repro.semoracle.resolve_oracles
    # spec).  None = the paper's five; keeps scan keys byte-compatible
    # with pre-semantic stores.
    "oracles": None,
}


@dataclass(frozen=True)
class ScanServiceConfig:
    """Operator knobs for one daemon instance."""

    workers: int = 2
    max_depth: int = 64          # queued-job bound (backpressure)
    max_inflight: int | None = None  # queued+running bound; None = auto
    poll_s: float = 0.2          # worker queue poll interval
    default_timeout_ms: float = 30_000.0
    # -- self-healing knobs ------------------------------------------------
    job_ttl_s: float | None = None       # default per-job queue TTL
    promote_after_s: float | None = None  # anti-starvation promotion age
    task_deadline_s: float = 300.0       # claim age before "hung"
    watchdog_poll_s: float = 0.25
    max_restarts: int = 8                # per restart_window_s, then storm
    restart_window_s: float = 60.0
    restart_backoff_s: float = 0.05
    breaker_threshold: int = 3           # consecutive failures to trip
    breaker_cooldown_s: float = 30.0     # base open->half_open cooldown
    store_max_bytes: int | None = None   # disk budget (typed shed)
    # -- trace IR / re-verdict knobs ---------------------------------------
    capture_traces: bool = False         # persist trace-IR packs
    drift_audit_s: float | None = None   # drift auditor cadence; None = off
    drift_audit_sample: int = 4          # traces replayed per audit round
    # -- semantic oracle knobs ---------------------------------------------
    oracles: "tuple | str | None" = None  # default family set for jobs
    # -- overload / brownout knobs -----------------------------------------
    # Job-latency SLO the AIMD controller defends; None = 30 s.  While
    # the observed p95 breaches it the effective inflight budget and
    # queue depth shrink (and recover additively once it is met again).
    target_p95_s: float | None = None
    # Housekeeping cadence: drives the idle-queue TTL/deadline sweep
    # and the controller's AIMD tick.  None disables the thread (tests
    # call housekeeping_once() by hand).
    housekeeping_s: float | None = 0.25
    overload_window_s: float = 60.0      # latency-sample horizon
    adjust_interval_s: float = 1.0       # min spacing of AIMD steps

    def inflight_budget(self) -> int:
        if self.max_inflight is not None:
            return self.max_inflight
        return self.max_depth + self.workers


class Degradation(NamedTuple):
    """How one dispatch runs its campaign, decided once at dispatch."""

    timeout_scale: float   # fuzz-budget multiplier
    blackbox: bool         # skip the symbolic side
    cacheable: bool        # full pipeline at full budget: may be stored


@dataclass
class Submission:
    """What admission hands back: the job plus how it was satisfied."""

    job: Job
    # "queued" | "cached" | "coalesced" | "replayed" (brownout
    # replay-serve from a stored trace pack) | "deadline_exceeded"
    # (the caller's deadline had already passed at admission)
    outcome: str


class ScanService:
    """A long-lived scan scheduler over the store + queue + workers."""

    def __init__(self, store: "ArtifactStore | str" = ":memory:",
                 config: ScanServiceConfig | None = None,
                 policy: ResiliencePolicy | None = None,
                 journal: "CampaignJournal | str | None" = None,
                 ingest_budget=None):
        self.config = config or ScanServiceConfig()
        self.store = (store if isinstance(store, ArtifactStore)
                      else ArtifactStore(
                          store, max_bytes=self.config.store_max_bytes))
        self.policy = policy or ResiliencePolicy()
        if isinstance(journal, CampaignJournal) or journal is None:
            self.journal = journal
        else:
            self.journal = CampaignJournal(journal)
        self.ingest_budget = ingest_budget
        self.queue = JobQueue(max_depth=self.config.max_depth,
                              promote_after_s=self.config.promote_after_s,
                              on_expired=self._on_stale)
        self.quarantine = Quarantine(self.policy.quarantine_after)
        self.breakers = BreakerBoard(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s)
        self.supervisor: WorkerSupervisor | None = None
        self.overload = OverloadController(
            self.config.inflight_budget(), self.config.max_depth,
            target_p95_s=(self.config.target_p95_s
                          if self.config.target_p95_s is not None
                          else 30.0),
            latency_window_s=self.config.overload_window_s,
            adjust_interval_s=self.config.adjust_interval_s)
        self.started_s = time.time()

        self._lock = threading.RLock()
        self._heal_lock = threading.Lock()     # store recovery critical section
        self._journal_lock = threading.Lock()  # append/compact exclusion
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}   # scan_key -> live job
        self._running_jobs: set[str] = set()  # job ids claimed by workers
        # Every /stats event count, written only by _count (service
        # lock held): lifecycle edges keyed (from, to), admission sheds
        # keyed ("shed", kind), everything else by event name.
        self._ledger: Counter = Counter()
        self._latency: dict[str, deque] = {}  # stage -> recent seconds
        self._storm = False
        self._accepting = True
        self._draining = False
        self._dead = False            # chaos kill(): node is gone
        self._partitioned = False
        self._partition_reason: str | None = None
        # -- housekeeping (sweeps + AIMD tick) ---------------------------
        self._housekeeper: threading.Thread | None = None
        self._housekeeper_stop = threading.Event()
        # -- trace IR / re-verdict state --------------------------------
        self._auditor: threading.Thread | None = None
        self._auditor_stop = threading.Event()
        self._audit_cursor = 0
        self._drift_incidents: list[dict] = []  # bounded, newest-last

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self.supervisor is not None:
            return
        cfg = self.config
        self.supervisor = WorkerSupervisor(
            self._worker_main, cfg.workers,
            task_deadline_s=cfg.task_deadline_s,
            watchdog_poll_s=cfg.watchdog_poll_s,
            max_restarts=cfg.max_restarts,
            restart_window_s=cfg.restart_window_s,
            restart_backoff_s=cfg.restart_backoff_s,
            on_reap=self._on_reap,
            on_storm=self._on_storm)
        self.supervisor.start()
        if cfg.drift_audit_s is not None and self._auditor is None:
            self._auditor_stop.clear()
            self._auditor = threading.Thread(
                target=self._auditor_main, name="drift-auditor",
                daemon=True)
            self._auditor.start()
        if cfg.housekeeping_s is not None and self._housekeeper is None:
            self._housekeeper_stop.clear()
            self._housekeeper = threading.Thread(
                target=self._housekeeper_main, name="housekeeper",
                daemon=True)
            self._housekeeper.start()

    def drain(self, wait_s: float = 30.0) -> int:
        """Graceful shutdown: refuse new work, finish running jobs,
        checkpoint whatever is still queued.  Returns the number of
        jobs checkpointed to the journal."""
        with self._lock:
            self._accepting = False
            self._draining = True
        self._auditor_stop.set()
        self._housekeeper_stop.set()
        if self._auditor is not None:
            self._auditor.join(wait_s)
            self._auditor = None
        if self._housekeeper is not None:
            self._housekeeper.join(wait_s)
            self._housekeeper = None
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor.join(wait_s)
        checkpointed = 0
        now = time.time()
        for job in self.queue.drain():
            if job.deadline_remaining_s(now) <= 0.0:
                # Checkpointing this job would resurrect work whose
                # caller deadline already passed: finalize the typed
                # terminal doc instead, so resume cannot re-run it.
                self.transition(
                    job, JobState.DEADLINE_EXCEEDED,
                    error="caller deadline passed during drain")
                continue
            if self._checkpoint(job):
                checkpointed += 1
        return checkpointed

    def stop(self, wait_s: float = 30.0) -> int:
        checkpointed = self.drain(wait_s)
        self.store.close()
        return checkpointed

    def kill(self) -> None:
        """Abrupt chaos-style death: no drain, no checkpoint, no
        store close.  Worker loops exit at their next poll; a worker
        mid-campaign becomes a zombie whose result is never consulted
        because the node is dead to its fleet.  The in-proc backend
        uses this to rehearse node-kill without a real process."""
        with self._lock:
            self._accepting = False
            self._draining = True
            self._dead = True
        if self.supervisor is not None:
            self.supervisor.abandon_all()

    @property
    def dead(self) -> bool:
        return self._dead

    # -- partition tolerance -----------------------------------------------
    def set_partitioned(self, partitioned: bool,
                        reason: str | None = None) -> None:
        """Enter/leave minority-partition mode.  While set, new
        submissions are refused with the typed
        :class:`NodePartitioned` and every health/stats read carries
        ``stale: true`` — the node keeps serving what it already
        knows, clearly labelled, but never diverges the write
        history.  Healing is the fleet's journal replay, not a local
        state change, so leaving the mode is just clearing the flag."""
        with self._lock:
            self._partitioned = partitioned
            self._partition_reason = reason if partitioned else None

    @property
    def partitioned(self) -> bool:
        with self._lock:
            return self._partitioned

    # -- storage self-healing ----------------------------------------------
    def _healed(self, op, default=None):
        """Run one store operation; on typed corruption, quarantine and
        rebuild the store, then retry once.  ``op`` must re-resolve
        ``self.store`` itself (the recovery swaps the instance)."""
        try:
            return op()
        except StoreCorruption as exc:
            self._recover_store(str(exc))
            try:
                return op()
            except StoreCorruption:
                return default

    def _recover_store(self, reason: str) -> int:
        """Quarantine the corrupt database file aside and rebuild a
        fresh store from the journal's verdict records.  Returns how
        many verdicts were restored."""
        # Lock order: the service lock may already be held by this
        # thread (recovery can fire from inside admission); the heal
        # lock must therefore never wrap an acquisition of self._lock.
        self._count("store_recoveries")
        with self._heal_lock:
            old = self.store
            path = old.path
            try:
                old.close()
            except Exception:  # noqa: BLE001 - conn may be unusable
                pass
            if path != ":memory:":
                target = None
                for index in range(1000):
                    candidate = Path(f"{path}.corrupt-{index}")
                    if not candidate.exists():
                        target = candidate
                        break
                try:
                    if target is not None:
                        os.replace(path, target)
                except OSError:
                    pass
                for suffix in ("-wal", "-shm"):
                    # Sidecar files would resurrect the corrupt pages.
                    try:
                        os.remove(path + suffix)
                    except OSError:
                        pass
            self.store = ArtifactStore(path, max_bytes=old.max_bytes)
            return self._rebuild_store_from_journal()

    def _rebuild_store_from_journal(self) -> int:
        """Replay every journaled verdict into the (fresh) store."""
        if self.journal is None:
            return 0
        try:
            entries = self.journal.load()
        except OSError:
            return 0
        restored = 0
        for key, doc in entries.items():
            inner = doc.get("result")
            if not isinstance(inner, dict):
                continue
            verdict = inner.get("verdict")
            if not isinstance(verdict, dict):
                continue
            try:
                self.store.put_verdict(
                    key, verdict.get("module_hash", ""),
                    verdict.get("config", {}),
                    verdict.get("result", {}))
                restored += 1
            except (StoreBudgetExceeded, StoreCorruption):
                break
        return restored

    def integrity_sweep(self, repair: bool = True) -> dict:
        """Recompute every stored row's checksum; with ``repair`` the
        store is quarantined-and-rebuilt when anything is corrupt."""
        try:
            tables = self.store.verify_integrity()
        except StoreCorruption as exc:
            if not repair:
                raise
            self._recover_store(f"integrity sweep: {exc}")
            return {"tables": self.store.verify_integrity(),
                    "corrupt_rows": 0, "repaired": True}
        corrupt = sum(len(entry["corrupt"])
                      for entry in tables.values())
        repaired = False
        if corrupt and repair:
            self._recover_store(
                f"integrity sweep found {corrupt} corrupt rows")
            tables = self.store.verify_integrity()
            corrupt = sum(len(entry["corrupt"])
                          for entry in tables.values())
            repaired = True
        return {"tables": tables, "corrupt_rows": corrupt,
                "repaired": repaired}

    def _journal_record(self, key: str, doc: dict) -> bool:
        if self.journal is None:
            return False
        with self._journal_lock:
            self.journal.record(key, doc)
        return True

    def compact_journal(self) -> int:
        """Drop journal lines superseded by later writes (safe to run
        on a live service; appends are excluded while compacting)."""
        if self.journal is None:
            return 0
        with self._journal_lock:
            removed = self.journal.compact()
        self._count("journal_compactions")
        return removed

    # -- admission ---------------------------------------------------------
    def submit_bytes(self, data: bytes, abi_json: "str | dict",
                     config: dict | None = None, client: str = "anon",
                     priority: int = 0,
                     ttl_s: float | None = None,
                     deadline_epoch_s: float | None = None) -> Submission:
        """Admit one scan request from raw (untrusted) contract bytes.

        Raises :class:`~repro.resilience.MalformedModule` when the
        bytes fail sandboxed ingestion (the hostile upload never
        reaches a worker) and :class:`QueueFull` when the queue depth,
        the in-flight budget, the store's disk budget or the brownout
        ladder refuses it.  ``deadline_epoch_s`` is the caller's
        absolute wall-clock deadline: an already-expired one returns a
        terminal ``deadline_exceeded`` job immediately (cache hits are
        still served — they cost nothing), and a live one rides the
        job end-to-end so every later hand-off re-checks it.
        """
        self._admission_gate()
        # Sandboxed ingestion *before* admission: a hostile module is
        # rejected here with a typed MalformedModule diagnostic.
        try:
            module = load_untrusted_module(data,
                                           budget=self.ingest_budget)
        except MalformedModule:
            self._count("admission_rejected")
            raise
        if isinstance(abi_json, dict):
            import json as _json
            abi_json = _json.dumps(abi_json)
        abi = Abi.from_json(abi_json)
        merged = dict(DEFAULT_SCAN_CONFIG,
                      timeout_ms=self.config.default_timeout_ms,
                      oracles=self.config.oracles)
        merged.update(config or {})
        from ..engine.deploy import module_content_hash
        module_hash = module_content_hash(module)
        task = CampaignTask(
            module, abi, tools=(merged["tool"],),
            timeout_ms=float(merged["timeout_ms"]),
            rng_seed=int(merged["rng_seed"]),
            address_pool=bool(merged["address_pool"]),
            policy=self.policy,
            sample_key=f"{client}:{module_hash[:12]}",
            divergence_check=bool(merged["divergence_check"]),
            capture_traces=self.config.capture_traces,
            oracles=merged["oracles"],
            deadline_epoch_s=deadline_epoch_s)
        scan_key = campaign_task_key(task)
        stored_config = {key: merged[key] for key in DEFAULT_SCAN_CONFIG}
        if stored_config["oracles"] is not None:
            from ..semoracle.registry import resolve_oracles
            stored_config["oracles"] = list(
                resolve_oracles(stored_config["oracles"]))
        # Persist the upload before admission decisions: the journal's
        # drain checkpoints reference modules by hash, so the bytes
        # must already be durable by the time a job can be queued.  A
        # blown disk budget is typed backpressure, not a crash.
        try:
            self._healed(lambda: self.store.put_module(module_hash,
                                                       data))
        except StoreBudgetExceeded as exc:
            with self._lock:
                raise self._shed("disk",
                                 f"store disk budget exhausted: {exc}",
                                 limit=self.config.max_depth,
                                 floor=5.0) from exc

        def new_job(**fields) -> Job:
            return Job(job_id=uuid.uuid4().hex[:12], client=client,
                       scan_key=scan_key, module_hash=module_hash,
                       config=stored_config, priority=priority,
                       submitted_s=time.time(), **fields)

        with self._lock:
            self._count("submissions")
            # Level 1: persistent store hit — serve the verdict now.
            result_doc = self._healed(
                lambda: self.store.get_verdict(scan_key))
            if result_doc is not None:
                self._count("cache_hits")
                return self._admit(new_job(), JobState.DONE, "cached",
                                   result_doc=result_doc)
            # Level 2: single-flight — attach to the live twin.
            twin = self._inflight.get(scan_key)
            if twin is not None and not twin.terminal:
                self._count("coalesce_hits")
                twin.waiters += 1
                return Submission(twin, "coalesced")
            # Caller deadline already passed: a fresh campaign budget
            # must never be spent on an answer nobody is waiting for.
            # Terminal typed doc, not a 429 — there is nothing to
            # retry, the caller's own clock ran out.
            if deadline_epoch_s is not None \
                    and time.time() >= deadline_epoch_s:
                return self._admit(
                    new_job(deadline_epoch_s=deadline_epoch_s),
                    JobState.DEADLINE_EXCEEDED, "deadline_exceeded",
                    error="caller deadline passed before admission")
            # Brownout ladder: under saturation, a stored trace pack
            # can answer by pure oracle replay — zero fuzzing — before
            # we consider refusing outright.
            level = self.overload.pressure
            if level in ("saturated", "shedding"):
                replay_doc = self._serve_from_replay_locked(scan_key)
                if replay_doc is not None:
                    self._count("replay_served")
                    return self._admit(
                        new_job(deadline_epoch_s=deadline_epoch_s),
                        JobState.DONE, "replayed", result_doc=replay_doc)
            if level == "shedding":
                raise self._shed(
                    "brownout", "brownout: pressure level 'shedding' — "
                    "new campaigns refused until the backlog drains",
                    limit=self.overload.effective_depth())
            cost = OverloadController.admission_cost(
                len(data), len(stored_config["oracles"] or ()) or 5)
            if self.overload.should_shed_cost(cost, priority):
                raise self._shed(
                    "brownout",
                    f"brownout: campaign cost {cost:.1f} exceeds the "
                    f"priority-{priority} allowance at pressure level "
                    f"'{level}'", limit=self.overload.effective_depth())
            # Admission control: adaptive in-flight budget + adaptive
            # queue depth (both AIMD-sized; never above the static
            # bounds, which remain the hard backstop).
            inflight = self.queue.depth + len(self._running_jobs)
            budget = self.overload.effective_inflight()
            if inflight >= budget:
                raise self._shed(
                    "inflight", f"in-flight budget {budget} exhausted "
                    f"({inflight} admitted)", depth=inflight, limit=budget)
            depth_bound = self.overload.effective_depth()
            if self.queue.depth >= depth_bound:
                raise self._shed(
                    "queue", f"queue depth {self.queue.depth} at "
                    f"effective bound {depth_bound} (pressure '{level}')",
                    limit=depth_bound)
            return self._admit(
                new_job(task=task,
                        ttl_s=(ttl_s if ttl_s is not None
                               else self.config.job_ttl_s),
                        deadline_epoch_s=deadline_epoch_s),
                JobState.QUEUED, "queued")

    def _admission_gate(self) -> None:
        """Refuse every write (scan or re-verdict) while partitioned
        or draining."""
        with self._lock:
            if self._partitioned:
                raise NodePartitioned(
                    "node is on the minority side of a network "
                    f"partition ({self._partition_reason or 'unknown'});"
                    " writes refused until the partition heals")
            if not self._accepting:
                self.record_shed("draining")
                raise QueueFull("service is draining",
                                depth=self.queue.depth,
                                limit=self.config.max_depth,
                                kind="draining",
                                retry_after_s=self._retry_after(
                                    floor=30.0))

    def _shed(self, kind: str, message: str, *, limit: int,
              depth: "int | None" = None,
              floor: float = 0.0) -> QueueFull:
        """Count one typed admission shed and build its 429 (service
        lock held)."""
        self.record_shed(kind)
        return QueueFull(message,
                         depth=self.queue.depth if depth is None else depth,
                         limit=limit, kind=kind,
                         retry_after_s=self._retry_after(floor))

    def _admit(self, job: Job, to: JobState, outcome: str,
               **effects) -> Submission:
        """Register a new job and take its first edge (service lock
        held).  A queued job enters the queue first, so a typed
        :class:`QueueFull` leaves nothing behind."""
        if to is JobState.QUEUED:
            try:
                self.queue.put(job)
            except QueueFull:
                self.record_shed("queue")
                raise
        self.transition(job, to, outcome=outcome, **effects)
        self._jobs[job.job_id] = job
        if to is JobState.QUEUED:
            self._inflight[job.scan_key] = job
        return Submission(job, outcome)

    def _serve_from_replay_locked(self, scan_key: str) -> "dict | None":
        """Brownout replay-serve: when a stored trace pack exists for
        this scan key (but no cached verdict — that was checked
        first), re-derive the verdict by pure oracle replay.  Costs
        milliseconds, no fuzzing, and carries honest ``replay``
        provenance stamped with the pressure level that triggered it.
        Never persisted — the store only holds verdicts produced by
        the path the scan key promises."""
        row = self._healed(lambda: self.store.get_trace(scan_key))
        if row is None:
            return None
        from ..resilience.errors import TraceCorruption
        from ..resilience.journal import _scan_to_doc
        from ..scanner.oracles import ORACLE_VERSION
        from ..semoracle.registry import (InsufficientSurface,
                                          resolve_oracles)
        from ..traceir.pack import decode_pack, replay_scan
        try:
            pack = decode_pack(row["blob"])
            scan = replay_scan(pack, oracles=self.config.oracles)
        except (TraceCorruption, InsufficientSurface):
            return None     # the reverdict sweep owns cleanup
        return {
            "scans": {row["tool"]: _scan_to_doc(scan)},
            "provenance": {
                "oracle_version": ORACLE_VERSION,
                "traceir_version": row["traceir_version"],
                "oracles": list(resolve_oracles(self.config.oracles)),
                "source": "replay",
                "pressure": self.overload.pressure,
            },
        }

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def submit_reverdict(self, oracle_version: int | None = None,
                         client: str = "reverdict",
                         priority: int = 0,
                         oracles=None) -> Submission:
        """Queue a fleet-wide re-verdict sweep as a first-class job.

        The sweep replays the scanner oracles over every stored
        trace-IR pack (see :mod:`repro.service.reverdict`) — zero
        re-fuzzing — and rewrites the affected verdicts with
        ``source: "replay"`` provenance.  Runs under the same worker
        supervision, claim protocol and admission gates as scan jobs.
        """
        self._admission_gate()
        with self._lock:
            self._count("submissions")
            job_id = uuid.uuid4().hex[:12]
            job = Job(job_id=job_id, client=client,
                      scan_key=f"reverdict:{job_id}", module_hash="",
                      config={"kind": "reverdict", "tool": "wasai",
                              "oracle_version": oracle_version,
                              "oracles": (oracles if oracles is not None
                                          else self.config.oracles)},
                      priority=priority, submitted_s=time.time())
            return self._admit(job, JobState.QUEUED, "queued")

    # -- workers -----------------------------------------------------------
    def _worker_main(self, record: WorkerRecord) -> None:
        """One supervised worker's loop (``record`` is its identity).

        The claim protocol: the job's ``claim`` field is stamped with
        this worker's token under the service lock *before* the
        campaign runs, and every completion path re-checks it.  When
        the watchdog revokes the claim (worker declared hung) the
        zombie's eventual result fails the check and is discarded —
        the requeued job is the only one that can complete.
        """
        while True:
            if self._draining or record.abandoned:
                return
            record.beat()
            job = self.queue.get(timeout=self.config.poll_s)
            if job is None:
                continue
            with self._lock:
                if self._draining or record.abandoned:
                    self.queue.put(job, force=True)  # back for drain
                    return
                if job.deadline_remaining_s() <= 0.0:
                    # Expired while queued (the sweep may not have
                    # seen it yet): terminal typed doc, no claim, no
                    # campaign budget spent.
                    self._on_stale(job)
                    continue
                record.claim_job(job)
                self.transition(job, JobState.RUNNING,
                                claim=record.token)
                degrade = None if job.reverdict else self._degrade(job)
            # The chaos chokepoint sits AFTER the claim on purpose: an
            # injected kill/hang leaves a claimed job behind, which is
            # exactly the mess the watchdog must be able to heal.
            inject("worker")
            if job.reverdict:
                self._run_reverdict_job(job, record.token)
            else:
                self._run_job(job, record.token, degrade)
            record.release_job()

    def _degrade(self, job: Job) -> Degradation:
        """The one degradation decision for a scan job, made at
        dispatch (service lock held) and applied to its task.

        Pressure comes first.  ``elevated`` shrinks the fuzz budget;
        ``saturated``+ also runs black-box-only and never consults the
        breakers, so a half-open probe slot is only ever handed to a
        job that will run the full pipeline.  Below that, an open
        ``symback``/``solve`` breaker forces black-box (one probe per
        half-open window is let through).  Only a full-pipeline run at
        full budget is cacheable."""
        level = self.overload.pressure
        job.brownout = None if level == "normal" else level
        if job.brownout is not None:
            self._count("browned_out")
        scale = self.overload.timeout_scale()
        if level in ("saturated", "shedding"):
            degrade = Degradation(scale, blackbox=True, cacheable=False)
        else:
            forced = self.breakers.force_blackbox()
            self._count("forced_blackbox", int(forced))
            degrade = Degradation(
                scale, blackbox=forced,
                cacheable=not forced and job.brownout is None)
        # The base budget comes from the stored config each dispatch,
        # so a re-queue under recovered pressure runs at full size.
        job.task.blackbox = degrade.blackbox
        job.task.timeout_ms = float(job.config.get(
            "timeout_ms", job.task.timeout_ms)) * degrade.timeout_scale
        return degrade

    def _run_job(self, job: Job, token: str,
                 degrade: Degradation) -> None:
        tool = job.config["tool"]
        try:
            result = run_campaign_task(job.task)
        except WorkerKill:
            raise  # real worker death: the watchdog heals it
        except BaseException as exc:  # noqa: BLE001 - thread must survive
            self._fail(job, f"{type(exc).__name__}: {exc}", token)
            return
        with self._lock:
            self._record_stage_outcomes(
                result, completed=tool in result.scans,
                blackbox=degrade.blackbox)
        doc_error = result.errors.get(tool)
        if tool not in result.scans:
            if (doc_error or {}).get("stage") == "deadline":
                # The caller's wall-clock budget ran out mid-campaign
                # (or before the tool started): terminal typed doc,
                # never the retry/quarantine path — there is nothing
                # to heal and nobody left waiting.
                self.transition(
                    job, JobState.DEADLINE_EXCEEDED, token=token,
                    error=(doc_error or {}).get(
                        "message", "caller deadline passed"))
                return
            message = (doc_error or {}).get("message", "campaign failed")
            self._fail(job, message, token)
            return
        from ..resilience.journal import campaign_result_to_doc
        result_doc = campaign_result_to_doc(result)
        # Trace-IR packs travel separately: the store's content-
        # addressed ``traces`` table holds the blob; the verdict doc
        # (and the journal line) must not carry a base64 twin of it.
        result_doc.pop("traces", None)
        if job.brownout is not None:
            # Honest provenance: a verdict produced under brownout
            # says so.  At pressure "normal" the key is absent, so
            # unpressured verdicts stay byte-identical to the seed's.
            provenance = dict(result_doc.get("provenance") or {})
            provenance["pressure"] = job.brownout
            result_doc["provenance"] = provenance
        with self._lock:
            if not self._owns(job, token):
                return  # claim revoked: the requeued twin owns the job
        # Persist (and journal, for store rebuilds) only full-pipeline,
        # full-budget verdicts: a breaker-forced or browned-out result
        # answers this caller but must never become the cached verdict
        # for the key.
        if degrade.cacheable:
            try:
                self._healed(lambda: self.store.put_verdict(
                    job.scan_key, job.module_hash, job.config,
                    result_doc))
                if result.coverage:
                    self._healed(lambda: self.store.put_coverage(
                        job.scan_key, result.coverage))
                if self.config.capture_traces and result.traces:
                    for trace_tool, blob in result.traces.items():
                        self._healed(
                            lambda t=trace_tool, b=blob:
                            self.store.put_trace(job.scan_key,
                                                 job.module_hash, t, b))
                        self._count("traces_stored")
            except StoreBudgetExceeded:
                pass  # verdict still served from memory this once
            try:
                self._journal_record(job.scan_key, {"verdict": {
                    "module_hash": job.module_hash,
                    "config": dict(job.config),
                    "result": result_doc,
                }})
            except OSError:
                pass  # journal write failed; store still has it
        with self._lock:
            if not self.transition(job, JobState.DONE, token=token,
                                   result_doc=result_doc):
                return
            self._record_latency(job, result)

    def _run_reverdict_job(self, job: Job, token: str) -> None:
        """Worker-side execution of one queued re-verdict sweep."""
        try:
            report = self.reverdict(
                oracle_version=job.config.get("oracle_version"),
                oracles=job.config.get("oracles"))
        except WorkerKill:
            raise  # real worker death: the watchdog heals it
        except BaseException as exc:  # noqa: BLE001 - thread must survive
            self._fail(job, f"{type(exc).__name__}: {exc}", token)
            return
        self.transition(job, JobState.DONE, token=token,
                        result_doc=report.to_doc())

    # -- trace IR: re-verdict + drift audit ---------------------------------
    def reverdict(self, oracle_version: int | None = None,
                  extra_detectors=(), oracles=None):
        """Replay the oracles over every stored trace and rewrite the
        verdicts (synchronous; :meth:`submit_reverdict` queues it).

        ``oracles`` selects the enabled families; None falls back to
        the service's configured default set.  A stored pack that
        cannot satisfy an enabled family's surface is counted
        ``insufficient`` and re-queued for a fresh scan, never
        reported as drift.
        """
        from .reverdict import ReverdictReport, reverdict_store
        if oracles is None:
            oracles = self.config.oracles
        report = self._healed(
            lambda: reverdict_store(self.store,
                                    oracle_version=oracle_version,
                                    extra_detectors=extra_detectors,
                                    oracles=oracles))
        if report is None:       # store unrecoverable: empty sweep
            from ..scanner.oracles import ORACLE_VERSION
            report = ReverdictReport(
                oracle_version=(ORACLE_VERSION if oracle_version is None
                                else oracle_version))
        self._absorb_reverdict(report)
        return report

    def audit_drift(self, sample: int | None = None):
        """One drift-audit round: replay a rotating sample of stored
        traces and compare against their verdicts without rewriting."""
        from .reverdict import ReverdictReport, audit_traces
        if sample is None:
            sample = self.config.drift_audit_sample
        out = self._healed(
            lambda: audit_traces(self.store, sample=sample,
                                 cursor=self._audit_cursor,
                                 oracles=self.config.oracles))
        if out is None:          # store unrecoverable: empty round
            from ..scanner.oracles import ORACLE_VERSION
            report = ReverdictReport(oracle_version=ORACLE_VERSION)
        else:
            report, self._audit_cursor = out
        self._absorb_reverdict(report, audit=True)
        return report

    def _absorb_reverdict(self, report, *, audit: bool = False) -> None:
        """Fold one sweep's outcome into counters + incident ledger."""
        with self._lock:
            self._count("drift_audits", int(audit))
            self._count("reverdicts", report.replayed)
            self._count("trace_corruptions", report.corrupt)
            self._count("verdict_drift", report.drift)
            self._count("insufficient_surface", report.insufficient)
            self._drift_incidents.extend(report.incidents)
            del self._drift_incidents[:-32]   # bounded, newest kept
        for incident in report.incidents:
            detail = incident.get("detail") or incident.get("tool", "")
            self.quarantine.record_failure(
                incident["scan_key"], f"{incident['kind']}: {detail}")

    def _auditor_main(self) -> None:
        """Background drift auditor: one sampled round per cadence."""
        cadence = self.config.drift_audit_s or 1.0
        while not self._auditor_stop.wait(cadence):
            try:
                self.audit_drift()
            except Exception:  # noqa: BLE001 - auditor outlives bad rounds
                continue

    # -- housekeeping: sweeps + adaptive admission --------------------------
    def housekeeping_once(self) -> dict:
        """One housekeeping tick: expire stale queued jobs even while
        no worker is polling (the TTL sweep used to run only inside
        ``get``), then feed current load to the overload controller's
        AIMD step and publish the refreshed pressure level."""
        swept = self.queue.sweep_expired()
        with self._lock:
            level = self.overload.update(self.queue.depth,
                                         len(self._running_jobs))
        return {"swept": swept, "pressure": level}

    def _housekeeper_main(self) -> None:
        cadence = self.config.housekeeping_s or 0.25
        while not self._housekeeper_stop.wait(cadence):
            try:
                self.housekeeping_once()
            except Exception:  # noqa: BLE001 - must outlive bad ticks
                continue

    def _retry_after(self, floor: float = 0.0) -> float:
        """Measured Retry-After hint for a shed at current backlog."""
        return max(floor, self.overload.retry_after_s(self.queue.depth))

    def transition(self, job: Job, to: "JobState | str", *,
                   token: "str | None" = None,
                   claim: "str | None" = None,
                   outcome: "str | None" = None,
                   error: "str | None" = None,
                   result_doc: "dict | None" = None) -> bool:
        """Apply one lifecycle edge: the only place a job's state
        changes.  With ``token`` the edge is claim-checked, and a
        revoked claim (a zombie worker's late result) is a no-op that
        returns False.  An edge outside ``TRANSITIONS`` raises
        :class:`IllegalTransition`.  ``claim`` is the new owner (worker
        on ``running``, thief on ``stolen``); other edges clear it."""
        to = JobState(to)
        with self._lock:
            if token is not None and not self._owns(job, token):
                return False
            source = job.state
            if to not in TRANSITIONS.get(source, ()):
                raise IllegalTransition(
                    f"job {job.job_id}: {source} -> {to} is not a "
                    "lifecycle edge")
            now = time.time()
            job.state = to
            job.claim = claim
            if to in (JobState.DEADLINE_EXCEEDED, JobState.STOLEN):
                outcome = to.value
            if outcome is not None:
                job.outcome = outcome
            if error is not None:
                job.error = error
            if result_doc is not None:
                job.result_doc = result_doc
            if to is JobState.RUNNING:
                job.started_s = now
                self._running_jobs.add(job.job_id)
            else:
                self._running_jobs.discard(job.job_id)
            if to in TERMINAL:
                job.finished_s = now
                if self._inflight.get(job.scan_key) is job:
                    del self._inflight[job.scan_key]
                if source is not JobState.NEW:  # was backlog
                    self.overload.observe_completion()
            self._count((source, to))
            return True

    def _fail(self, job: Job, message: str,
              token: "str | None" = None) -> None:
        """Retry-or-quarantine one failed running attempt.  Deadline
        cuts never come here: they are the *caller's* clock, not the
        sample, so they take the typed terminal edge directly."""
        with self._lock:
            if token is not None and not self._owns(job, token):
                return  # claim revoked: failure already handled
            job.attempts += 1
            job.error = message
            self.quarantine.record_failure(job.scan_key, message)
            if self.quarantine.is_quarantined(job.scan_key):
                self.transition(job, JobState.QUARANTINED)
                try:
                    self._healed(lambda: self.store.put_quarantine(
                        job.scan_key, job.module_hash,
                        self.quarantine.quarantined().get(job.scan_key,
                                                          [])))
                except StoreBudgetExceeded:
                    pass
            elif job.attempts <= self.policy.max_retries \
                    and not self._draining:
                self.transition(job, JobState.QUEUED)
                self.queue.put(job, force=True)  # containment re-queue
            else:
                self.transition(job, JobState.FAILED)

    @staticmethod
    def _owns(job: Job, token: str) -> bool:
        """``token`` still holds the job's claim (not revoked, not
        settled)."""
        return job.claim == token and not job.terminal

    # -- supervision callbacks ---------------------------------------------
    def _on_reap(self, record: WorkerRecord, reason: str) -> None:
        """The watchdog reaped ``record`` (died / hung): revoke its
        claim and requeue-or-quarantine the orphaned job exactly once."""
        job = record.job
        record.release_job()
        if job is None:
            return
        with self._lock:
            if self._owns(job, record.token):
                job.requeues += 1
                self._fail(job, f"worker {record.token} {reason} "
                                f"mid-campaign; job requeued",
                           record.token)

    def _on_storm(self) -> None:
        """Too many worker restarts per window: something is
        systemically wrong — degrade to draining mode (stop accepting)
        instead of burning CPU in a crash loop."""
        with self._lock:
            self._storm = True
            self._accepting = False

    def _on_stale(self, job: Job) -> None:
        """Queue staleness callback (invoked outside the queue lock):
        either the caller's wall-clock deadline passed or the job's
        monotonic queue TTL ran out — the queue sweep polices both."""
        with self._lock:
            if job.deadline_remaining_s() <= 0.0:
                self.transition(
                    job, JobState.DEADLINE_EXCEEDED,
                    error="caller deadline passed while queued")
            else:
                self.transition(
                    job, JobState.EXPIRED,
                    error=(f"job exceeded its {job.ttl_s:g}s queue TTL "
                           "before a worker was free"))

    def _record_stage_outcomes(self, result, *, completed: bool,
                               blackbox: bool) -> None:
        """Feed per-stage outcomes of one campaign to the breaker
        board (service lock held).  A stage named in an error doc is a
        failure.  A *completed* campaign is a success for every other
        stage it exercised — with one carve-out: the black-box-gated
        stages (symbolic replay, solver) only count as successes when
        the campaign actually ran the full pipeline, i.e. dispatch did
        not send it black-box and it did not degrade internally, so a
        degraded run can never close the very breaker that is
        protecting it."""
        failed_stages = set()
        for doc in result.errors.values():
            stage = doc.get("stage")
            if stage:
                failed_stages.add(stage)
        for stage in failed_stages:
            self.breakers.record_failure(stage)
        if not completed:
            return
        ran_full = not blackbox and not result.degraded
        for stage in BREAKER_STAGES:
            if stage in failed_stages:
                continue
            if stage in BLACKBOX_GATED_STAGES and not ran_full:
                continue
            self.breakers.record_success(stage)

    def _record_latency(self, job: Job, result) -> None:
        """Keep one finished job's latencies in the per-stage windows
        (service lock held)."""
        samples = dict(result.stage_seconds)
        if job.started_s and job.finished_s:
            samples["job"] = job.finished_s - job.started_s
            self.overload.observe_latency(samples["job"])
        for stage, seconds in samples.items():
            self._latency.setdefault(
                stage, deque(maxlen=LATENCY_WINDOW)).append(seconds)

    def _count(self, event, n: int = 1) -> None:
        """Add ``n`` to one ledger entry; the only ledger write."""
        with self._lock:
            self._ledger[event] += n

    def record_shed(self, kind: str) -> None:
        """Count one refused submission of the given 429 ``kind``."""
        self._count(("shed", kind))

    # -- checkpoint / resume ----------------------------------------------
    def _checkpoint(self, job: Job) -> bool:
        """Journal one still-queued job so ``--resume`` can replay it.
        The module bytes live in the store; the journal records the
        job's recipe, which names them by hash."""
        if self.journal is None:
            return False
        self._journal_record(job.scan_key, {"pending": job_recipe(job)})
        return True

    def resume_from_journal(self) -> int:
        """Resubmit every unclaimed pending job exactly once; returns
        how many were replayed.  A replayed key is immediately claimed
        with a tombstone line — the journal is append-only and
        last-wins, so a second resume (or a crash between replays)
        can never run the same checkpoint twice.  The journal is
        compacted afterwards so claim/verdict churn from previous
        daemon generations is dropped."""
        if self.journal is None:
            return 0
        replayed = 0
        for key, doc in self.journal.load().items():
            inner = doc.get("result")
            if not isinstance(inner, dict):
                continue
            pending = inner.get("pending")
            if not isinstance(pending, dict):
                continue  # claim tombstone / verdict / campaign result
            data = self._healed(lambda: self.store.get_module(
                pending.get("module_hash", "")))
            if data is None:
                self._journal_record(key, {"claimed": "module lost"})
                continue
            deadline = pending.get("deadline_epoch_s")
            if deadline is not None \
                    and time.time() >= float(deadline):
                # The caller's deadline passed while the daemon was
                # down: resurrecting the job would spend a campaign on
                # an answer nobody is waiting for.  Tombstone it.
                self._journal_record(key,
                                     {"claimed": "deadline_exceeded"})
                continue
            try:
                submission = resubmit(self.submit_bytes, pending, data)
            except QueueFull:
                continue  # stays pending for the next resume
            except MalformedModule:
                self._journal_record(key, {"claimed": "rejected"})
                continue
            self._journal_record(key,
                                 {"claimed": submission.job.job_id})
            replayed += 1
        try:
            self.compact_journal()
        except OSError:
            pass  # compaction is best-effort; the journal still works
        return replayed

    # -- fleet seam: work stealing -----------------------------------------
    def steal_unclaimed(self, max_jobs: int,
                        thief: str = "fleet") -> list[dict]:
        """Donate up to ``max_jobs`` *unclaimed* queue entries to a
        fleet peer; returns self-contained recipes the thief can
        resubmit (:func:`~repro.service.queue.job_recipe` with the
        module bytes).

        Only queued, unclaimed jobs are eligible — a claimed job left
        the queue when its worker took it, so stealing can never race
        an in-flight campaign.  Each stolen job is stamped with a
        thief claim token in the same ``owner#generation`` shape
        workers use: if the job ever reappears here (a zombie worker
        from an earlier hang-requeue cycle waking up late), the claim
        check discards its result exactly like any other revoked
        claim, so a stolen job resolves exactly once fleet-wide.

        Stealing is deadline-aware: jobs whose remaining wall-clock
        budget is below the controller's expected per-job latency are
        left with the donor — shipping them to a peer just to expire
        there wastes the transfer."""
        with self._lock:
            jobs = self.queue.steal(
                max_jobs,
                min_headroom_s=self.overload.expected_job_s())
            recipes: list[dict] = []
            for job in jobs:
                self._count("steals")
                data = self._healed(
                    lambda h=job.module_hash: self.store.get_module(h))
                if data is None:
                    # Module bytes lost (store rebuild raced the
                    # steal): fail the job locally instead of handing
                    # the thief an unrunnable recipe.
                    self.transition(job, JobState.FAILED,
                                    error="module bytes lost before steal")
                    continue
                token = f"{thief}#{self._ledger['steals']}"
                self.transition(job, JobState.STOLEN, claim=token,
                                outcome="stolen")
                job.stolen_by = token
                recipes.append(job_recipe(job, data))
        return recipes

    # -- fleet seam: journal shipping / read replicas ----------------------
    def ship_journal(self, cursor: int = 0) -> tuple[list[dict], int]:
        """Read journal entries appended since byte offset ``cursor``;
        returns ``(entries, new_cursor)``.

        The cursor is monotonic over one journal generation: it only
        ever advances past *complete* lines, so a torn tail is re-read
        next time.  If the file shrank below the cursor (compaction,
        or a truncating crash), the cursor resets to zero and the
        whole journal is re-shipped — replica application is
        idempotent (verdicts are deterministic in their scan key), so
        replay-from-zero is the catch-up path, not an error."""
        if self.journal is None:
            return [], cursor
        path = Path(self.journal.path)
        try:
            size = path.stat().st_size
        except OSError:
            return [], 0
        if cursor > size:
            cursor = 0              # truncated/compacted: replay all
        try:
            with open(path, "rb") as handle:
                handle.seek(cursor)
                blob = handle.read()
        except OSError:
            return [], cursor
        end = blob.rfind(b"\n") + 1
        entries: list[dict] = []
        for line in blob[:end].splitlines():
            try:
                doc = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue            # malformed line: skip, keep cursor
            if isinstance(doc, dict):
                entries.append(doc)
        return entries, cursor + end

    def apply_replica_verdicts(self, entries: list[dict]) -> int:
        """Apply a peer's shipped journal entries to this node's store
        (read-replica ingestion).  Only verdict records are applied —
        pending checkpoints and claim tombstones are the primary's
        business.  Idempotent: a scan key this store already holds is
        skipped, so replay-from-zero after a cursor reset costs reads,
        never wrong writes."""
        applied = 0
        for doc in entries:
            key = doc.get("key")
            inner = doc.get("result")
            if not isinstance(key, str) or not isinstance(inner, dict):
                continue
            verdict = inner.get("verdict")
            if not isinstance(verdict, dict):
                continue
            if self._healed(lambda k=key: self.store.has_verdict(k),
                            default=False):
                continue
            try:
                self._healed(lambda k=key, v=verdict:
                             self.store.put_verdict(
                                 k, v.get("module_hash", ""),
                                 v.get("config", {}),
                                 v.get("result", {})))
            except StoreBudgetExceeded:
                break
            applied += 1
        self._count("replica_applied", applied)
        return applied

    # -- health / stats ----------------------------------------------------
    def health(self) -> dict:
        """The liveness/readiness doc behind ``GET /healthz``.

        ``ok`` — accepting, all breakers closed; ``degraded`` — serving
        but some breaker is open/half-open (affected jobs run
        black-box-only); ``draining`` — not accepting (graceful drain
        or a restart storm)."""
        with self._lock:
            return {
                "status": self._status_locked(),
                "accepting": self._accepting and not self._partitioned,
                "stale": self._partitioned,
                "storm": self._storm,
                "pressure": self.overload.pressure,
                "breakers": {"open": self.breakers.open_stages()},
                "workers": (self.supervisor.stats()
                            if self.supervisor is not None
                            else {"alive": 0,
                                  "configured": self.config.workers,
                                  "restarts": 0,
                                  "reaps": {"died": 0, "hung": 0},
                                  "storm": False}),
            }

    def _status_locked(self) -> str:
        # Partition-mode reads are served but explicitly stale: the
        # node cannot know what the majority decided since.
        return ("partitioned" if self._partitioned else
                "draining" if not self._accepting else
                "degraded" if self.breakers.open_stages() else "ok")

    def stats(self) -> dict:
        """The ``GET /stats`` doc.  Every count is read from one
        source: the ledger, the breakers or the supervisor; keys that
        show the same event read the same entry."""
        with self._lock:
            ledger = self._ledger
            states = Counter(job.state.value
                             for job in self._jobs.values())
            entered: Counter = Counter()
            shed_by_kind: dict[str, int] = {}
            for key, count in ledger.items():
                if isinstance(key, tuple) and count:
                    if key[0] == "shed":
                        shed_by_kind[key[1]] = count
                    else:
                        entered[key[1]] += count
            deadline_cuts = entered[JobState.DEADLINE_EXCEEDED]
            if deadline_cuts:
                shed_by_kind["deadline"] = deadline_cuts
            submissions = ledger["submissions"]
            deduped = ledger["cache_hits"] + ledger["coalesce_hits"]
            breakers = self.breakers.snapshot()
            supervisor = (self.supervisor.stats()
                          if self.supervisor is not None else None)
            reaps = supervisor["reaps"] if supervisor else {}
            return {
                "uptime_s": time.time() - self.started_s,
                "queue_depth": self.queue.depth,
                "running": len(self._running_jobs),
                "inflight_budget": self.config.inflight_budget(),
                "workers": self.config.workers,
                "accepting": self._accepting and not self._partitioned,
                "stale": self._partitioned,
                "health": self._status_locked(),
                "submissions": submissions,
                "jobs": dict(states),
                # Cache and replay hits (new -> done) are not runs.
                "completed": ledger[JobState.RUNNING, JobState.DONE],
                "failed": entered[JobState.FAILED],
                "quarantined": entered[JobState.QUARANTINED],
                "expired": entered[JobState.EXPIRED],
                "deadline_exceeded": deadline_cuts,
                "promoted": self.queue.promoted,
                "admission_rejected": ledger["admission_rejected"],
                "shed": sum(shed_by_kind.get(kind, 0)
                            for kind in ADMISSION_SHEDS),
                "shed_by_kind": shed_by_kind,
                "pressure": self.overload.pressure,
                "overload": self.overload.snapshot(),
                "replay_served": ledger["replay_served"],
                "browned_out": ledger["browned_out"],
                "fleet": {
                    "stolen_away": ledger["steals"],
                    "replica_applied": ledger["replica_applied"],
                },
                "dedup": {
                    "cache_hits": ledger["cache_hits"],
                    "coalesce_hits": ledger["coalesce_hits"],
                    "hit_rate": (deduped / submissions
                                 if submissions else 0.0),
                },
                "breakers": breakers,
                "supervisor": supervisor,
                "resilience": {
                    "worker_restarts": sum(reaps.values()),
                    "breaker_trips": sum(breaker["trips"] for breaker
                                         in breakers.values()),
                    "breaker_recoveries": sum(
                        breaker["recoveries"]
                        for breaker in breakers.values()),
                    # One event, the quarantine-and-rebuild of the
                    # store, shown under both of its historical names.
                    "integrity_repairs": ledger["store_recoveries"],
                    "journal_compactions": ledger["journal_compactions"],
                    "store_recoveries": ledger["store_recoveries"],
                    "forced_blackbox": ledger["forced_blackbox"],
                },
                "traceir": {
                    "traces_stored": ledger["traces_stored"],
                    "reverdicts": ledger["reverdicts"],
                    "trace_corruptions": ledger["trace_corruptions"],
                    "verdict_drift": ledger["verdict_drift"],
                    "insufficient_surface":
                        ledger["insufficient_surface"],
                    "drift_audits": ledger["drift_audits"],
                    "drift_incidents":
                        list(self._drift_incidents[-8:]),
                },
                "latency": latency_summary(self._latency),
                "store": self.store.counts(),
            }
