"""Transport-free HTTP API: (method, path, body) -> (status, doc).

The routing and response-shaping logic lives here, decoupled from the
socket layer in :mod:`repro.service.server`, so the full request
surface is unit-testable without binding a port.

Endpoints
---------

``POST /scans``
    JSON body ``{"module_b64": ..., "abi": ..., "config": {...},
    "client": ..., "priority": ...}``.  Responses:

    * ``200`` — dedup hit: an identical module+config was already
      scanned; the cached verdict is returned immediately
      (``outcome: "cached"``);
    * ``202`` — admitted: ``outcome`` is ``"queued"`` (a new job) or
      ``"coalesced"`` (attached single-flight to an in-flight twin);
    * ``400`` — the upload failed sandboxed ingestion
      (``error: "malformed_module"``) or the request itself is bad;
    * ``429`` — typed backpressure shed (``error: "queue_full"``,
      with the saturated bound in ``kind``/``limit`` and a
      ``retry_after_s`` hint the HTTP layer mirrors as a
      ``Retry-After`` header).

    Optional body field ``ttl_s`` bounds how long the job may wait in
    the queue before expiring with the terminal state ``expired``.

    An ``X-Deadline-Ms`` header (or body field ``deadline_epoch_ms``)
    carries the caller's absolute wall-clock deadline in epoch
    milliseconds.  It propagates end-to-end: checked at admission, at
    dequeue, at claim and once per fuzzing round, so an expired
    request is cut short with the typed terminal state
    ``deadline_exceeded`` instead of burning a full campaign budget.
    An already-expired deadline answers ``200`` with that terminal doc
    immediately (never a 429 — there is nothing to retry).  Under
    brownout pressure a submission may also come back ``200`` with
    ``outcome: "replayed"``: the verdict was re-derived from a stored
    trace pack by pure oracle replay, with honest ``source: "replay"``
    provenance.

``GET /scans/{id}``
    Job lifecycle doc: ``state`` is one of ``queued | running | done
    | failed | quarantined | expired | deadline_exceeded | stolen``
    (:class:`~repro.service.queue.JobState`; ``stolen`` means a fleet
    peer took the job, see ``stolen_by``); terminal jobs include the
    verdict / error.

``GET /healthz``
    Readiness + health: ``status`` is ``ok`` (accepting, breakers
    closed), ``degraded`` (serving, but some pipeline-stage breaker is
    open — affected scans run black-box-only) or ``draining`` (not
    accepting: graceful drain or a worker restart storm), plus the
    supervisor's worker counts and the open breaker list.

``GET /stats``
    Queue depth, in-flight, dedup hit rates, shed counts, p50/p95 job
    latency, per-stage breaker snapshots and the self-healing counters
    (worker restarts, breaker trips, integrity repairs, journal
    compactions).

``GET /integrity``
    On-demand storage integrity sweep: recomputes every stored row's
    checksum and reports (and by default repairs) corruption.

``POST /reverdict``
    Queue a fleet-wide oracle replay over the stored trace-IR packs
    (zero re-fuzzing).  JSON body ``{"oracle_version": N}`` (optional);
    replies ``202`` with a job whose ``result`` is the sweep report —
    replayed / rewritten / matched / drift / corrupt counts plus the
    itemised ``verdict_drift`` / ``trace_corruption`` incidents.

Fleet surface
-------------

When the daemon is part of a fleet, four more endpoints carry the
coordinator verbs on the wire — ``POST /fleet/steal`` (donate
unclaimed queue entries as base64 recipes), ``GET
/fleet/journal?cursor=N`` (ship verdict-journal entries past a byte
cursor), ``POST /fleet/replicate`` (apply shipped verdicts
idempotently) and ``POST /fleet/partition`` (chaos/topology control).
Submissions gain three admission outcomes: ``401 unauthorized`` (a
required/unknown API key when a :class:`~repro.service.tenants.
TenantBook` is installed), ``429`` with ``kind: "quota"`` (a known
tenant over its rate limit or absolute quota), and ``307
wrong_shard`` with a ``Location`` header when a shard router says a
different node owns this module's hash arc.  A partitioned minority
node answers every write ``503 partitioned`` with ``stale: true``
while reads keep flowing (stale-marked).
"""

from __future__ import annotations

import base64
import binascii
import json
from urllib.parse import parse_qs

from ..resilience import MalformedModule
from ..resilience.journal import campaign_result_from_doc
from ..scanner.report import report_to_json
from .queue import QueueFull, recipe_to_wire
from .scheduler import NodePartitioned, ScanService
from .tenants import QuotaExceeded, TenantBook, UnknownApiKey

__all__ = ["ServiceApi", "job_doc"]

# The typed admission refusals; :func:`_refusal` renders each one.
_REFUSALS = (QueueFull, NodePartitioned, MalformedModule, UnknownApiKey)


def _refusal(exc: Exception) -> tuple[int, dict]:
    """The ``(status, doc)`` reply for one typed admission refusal."""
    if isinstance(exc, QueueFull):
        doc = {"error": "queue_full", "detail": str(exc),
               "kind": exc.kind, "depth": exc.depth, "limit": exc.limit,
               "retry_after_s": exc.retry_after_s}
        if isinstance(exc, QuotaExceeded):
            doc["tenant"] = exc.tenant
        return 429, doc
    if isinstance(exc, NodePartitioned):
        return 503, {"error": "partitioned", "stale": True,
                     "detail": str(exc),
                     "retry_after_s": exc.retry_after_s}
    if isinstance(exc, MalformedModule):
        # Hostile upload rejected at admission — it never reached a
        # worker; the diagnostic names the offending byte range.
        return 400, {"error": "malformed_module", "detail": str(exc),
                     "stage": "ingest"}
    return 401, {"error": "unauthorized", "detail": str(exc)}  # UnknownApiKey


def job_doc(job, outcome: str | None = None) -> dict:
    """The lifecycle doc of one job, as ``GET /scans/{id}`` renders
    it: a done scan carries its result doc and decoded ``verdict``, a
    re-verdict job its sweep report.  ``outcome``, when given, is how
    one submission was satisfied — a coalesced duplicate shares a job
    whose own outcome is ``queued``."""
    doc = job.to_doc()
    if outcome is not None:
        doc["outcome"] = outcome
    if job.reverdict:
        # Re-verdict jobs carry a sweep report, not a campaign
        # result doc; there is no per-tool verdict to decode.
        if job.result_doc is not None:
            doc["result"] = job.result_doc
        return doc
    if job.state == "done" and job.result_doc is not None:
        result = campaign_result_from_doc(job.result_doc)
        scan = result.scans.get(job.config["tool"])
        doc["result"] = job.result_doc
        if scan is not None:
            doc["verdict"] = json.loads(report_to_json(scan))
    return doc


class _BadRequest(Exception):
    """A request the API cannot parse: 400 ``bad_request``."""


def _json_object(body: bytes) -> dict:
    """A POST body as a JSON object; an empty body is ``{}``."""
    try:
        doc = json.loads(body.decode("utf-8") or "{}")
    except (ValueError, UnicodeDecodeError) as exc:
        raise _BadRequest(f"body is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _BadRequest("body must be a JSON object")
    return doc


class ServiceApi:
    """Route one parsed request against a :class:`ScanService`.

    ``tenants`` (optional) gates submissions behind API keys and
    quotas; ``router`` (optional) is a callable mapping a module
    content hash to the owning node's base URL, or ``None`` when this
    node owns the shard — non-``None`` turns the submission into a
    307 redirect.
    """

    def __init__(self, service: ScanService,
                 tenants: TenantBook | None = None,
                 router=None):
        self.service = service
        self.tenants = tenants
        self.router = router

    def handle(self, method: str, path: str, body: bytes = b"",
               headers: dict | None = None) -> tuple[int, dict]:
        raw_path = path
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            return 200, self.service.health()
        if method == "GET" and path == "/stats":
            return 200, self.service.stats()
        if method == "GET" and path == "/integrity":
            return 200, self.service.integrity_sweep()
        if method == "GET" and path.startswith("/scans/"):
            return self._status(path[len("/scans/"):])
        if method == "GET" and path == "/fleet/journal":
            return self._fleet_journal(raw_path)
        posts = {"/scans": self._submit, "/reverdict": self._reverdict,
                 "/fleet/steal": self._fleet_steal,
                 "/fleet/replicate": self._fleet_replicate,
                 "/fleet/partition": self._fleet_partition}
        if method == "POST" and path in posts:
            try:
                return posts[path](_json_object(body), headers or {})
            except _BadRequest as exc:
                return 400, {"error": "bad_request", "detail": str(exc)}
        return 404, {"error": "not_found", "path": path}

    # -- POST /scans -------------------------------------------------------
    @staticmethod
    def _api_key(doc: dict, headers: dict) -> str | None:
        for name, value in headers.items():
            if name.lower() == "x-api-key":
                return str(value)
        key = doc.get("api_key")
        return str(key) if key is not None else None

    @staticmethod
    def _deadline_epoch_s(doc: dict, headers: dict) -> float | None:
        """The caller's absolute deadline in epoch *seconds*, from the
        ``X-Deadline-Ms`` header (epoch milliseconds on the wire —
        integral, proxy-safe) or the ``deadline_epoch_ms`` body field.
        Raises ValueError when present but unparseable."""
        raw = None
        for name, value in headers.items():
            if name.lower() == "x-deadline-ms":
                raw = value
                break
        if raw is None:
            raw = doc.get("deadline_epoch_ms")
        if raw is None:
            return None
        return float(raw) / 1000.0

    def _submit(self, doc: dict, headers: dict) -> tuple[int, dict]:
        if "module_b64" not in doc or "abi" not in doc:
            raise _BadRequest("need module_b64 and abi fields")
        try:
            data = base64.b64decode(doc["module_b64"], validate=True)
        except (binascii.Error, ValueError) as exc:
            raise _BadRequest(f"module_b64 is not base64: {exc}") from exc
        try:
            return self._admit(data, doc, headers)
        except _REFUSALS as exc:
            return _refusal(exc)

    def _admit(self, data: bytes, doc: dict,
               headers: dict) -> tuple[int, dict]:
        if self.service.partitioned:
            # A minority-side node refuses every write before it costs
            # anyone quota or parsing; reads keep flowing stale-marked.
            raise NodePartitioned("node is on the minority side of a "
                                  "network partition")
        tenant = None
        api_key = self._api_key(doc, headers)
        if self.tenants is not None:
            # Identity gate BEFORE any module parsing: an unknown key
            # costs the node nothing but this lookup.  The quota is
            # charged only after routing, so a wrong-shard redirect
            # never double-bills the tenant.
            self.tenants.validate(api_key)
        if self.router is not None:
            from .backend import module_hash_of
            location = self.router(module_hash_of(data))
            if location is not None:
                # Wrong shard: this node does not own the module's
                # hash arc.  The server layer mirrors ``location``
                # into a Location header for the 307.
                return 307, {"error": "wrong_shard",
                             "location": location.rstrip("/")
                             + "/scans"}
        if self.tenants is not None:
            try:
                tenant = self.tenants.admit(api_key)
            except QuotaExceeded:
                self.service.record_shed("quota")
                raise
        ttl_s = doc.get("ttl_s")
        try:
            deadline_epoch_s = self._deadline_epoch_s(doc, headers)
        except (TypeError, ValueError):
            raise _BadRequest("X-Deadline-Ms / deadline_epoch_ms must "
                              "be epoch milliseconds") from None
        submission = self.service.submit_bytes(
            data, doc["abi"], config=doc.get("config"),
            client=str(doc.get("client", "anon")),
            priority=int(doc.get("priority", 0)),
            ttl_s=float(ttl_s) if ttl_s is not None else None,
            deadline_epoch_s=deadline_epoch_s)
        reply = job_doc(submission.job, submission.outcome)
        if tenant is not None:
            reply["tenant"] = tenant
        if submission.outcome not in ("queued", "coalesced"):
            # Terminal at admission: a dedup hit or brownout replay
            # already carries the verdict; an expired deadline carries
            # its typed terminal doc — nothing is pending either way.
            return 200, reply
        return 202, reply

    # -- POST /reverdict ---------------------------------------------------
    def _reverdict(self, doc: dict, headers: dict) -> tuple[int, dict]:
        """Queue a fleet-wide oracle replay over the stored traces.

        JSON body (all fields optional): ``{"oracle_version": N,
        "oracles": "token_arith,..." | [...], "client": ...,
        "priority": ...}``.  Replies ``202`` with the job doc; the
        sweep report (replayed / rewritten / drift / corrupt /
        insufficient counts plus itemised incidents) lands in the
        job's ``result`` once it completes.
        """
        oracle_version = doc.get("oracle_version")
        oracles = doc.get("oracles")
        if oracles is not None:
            from ..semoracle import UnknownOracleFamily, resolve_oracles
            try:
                oracles = list(resolve_oracles(oracles))
            except UnknownOracleFamily as exc:
                return 400, {"error": "unknown_oracle",
                             "detail": str(exc)}
        try:
            submission = self.service.submit_reverdict(
                oracle_version=(int(oracle_version)
                                if oracle_version is not None else None),
                client=str(doc.get("client", "reverdict")),
                priority=int(doc.get("priority", 0)),
                oracles=oracles)
        except _REFUSALS as exc:
            return _refusal(exc)
        return 202, job_doc(submission.job, submission.outcome)

    # -- fleet verbs -------------------------------------------------------
    def _fleet_steal(self, doc: dict, headers: dict) -> tuple[int, dict]:
        recipes = self.service.steal_unclaimed(
            max(0, int(doc.get("max_jobs", 1))),
            thief=str(doc.get("thief", "fleet")))
        wire = [recipe_to_wire(recipe) for recipe in recipes]
        return 200, {"recipes": wire, "stolen": len(wire)}

    def _fleet_journal(self, raw_path: str) -> tuple[int, dict]:
        query = parse_qs(raw_path.partition("?")[2])
        try:
            cursor = int(query.get("cursor", ["0"])[0])
        except ValueError:
            return 400, {"error": "bad_request",
                         "detail": "cursor must be an integer"}
        entries, new_cursor = self.service.ship_journal(cursor)
        return 200, {"entries": entries, "cursor": new_cursor}

    def _fleet_replicate(self, doc: dict,
                         headers: dict) -> tuple[int, dict]:
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise _BadRequest("need an entries list")
        applied = self.service.apply_replica_verdicts(entries)
        return 200, {"applied": applied}

    def _fleet_partition(self, doc: dict,
                         headers: dict) -> tuple[int, dict]:
        partitioned = bool(doc.get("partitioned", True))
        reason = doc.get("reason")
        self.service.set_partitioned(
            partitioned, str(reason) if reason is not None else None)
        return 200, {"ok": True, "partitioned": partitioned}

    # -- GET /scans/{id} ---------------------------------------------------
    def _status(self, job_id: str) -> tuple[int, dict]:
        job = self.service.job(job_id)
        if job is None:
            return 404, {"error": "unknown_job", "id": job_id}
        return 200, job_doc(job)
