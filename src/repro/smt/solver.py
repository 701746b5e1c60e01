"""The layered constraint solver (the repo's Z3 substitute).

:class:`Solver` exposes the z3py-flavoured ``add`` / ``check`` /
``model`` interface the symbolic engine expects.  Internally it runs
three layers, cheapest first:

1. **Rewriting** — constraints are built through the simplifying
   constructors in :mod:`repro.smt.terms`, so trivially true/false
   branches never reach a search.
2. **Propagation** — single-variable comparisons against constants are
   decided in the unsigned interval domain
   (:mod:`repro.smt.interval`), which covers most constraints WASAI
   flips during fuzzing.
3. **Bit-blasting + CDCL** — the complete fallback
   (:mod:`repro.smt.bitblast` + :mod:`repro.smt.sat`), budgeted by a
   conflict limit that plays the role of the paper's 3,000 ms cap.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from ..resilience import faultinject
from ..resilience.errors import CampaignError, SolverError
from ..sharedcache import SharedDiskCache
from .bitblast import BitBlaster
from .interval import Interval, propagate_comparison
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .terms import FALSE, TRUE, Term, evaluate, free_variables

__all__ = ["Solver", "Model", "SolverStats", "SolverCache", "solver_cache",
           "configure_solver_cache", "constraint_digest",
           "SAT", "UNSAT", "UNKNOWN"]


class Model:
    """A satisfying assignment: variable name -> unsigned int value."""

    def __init__(self, values: dict[str, int]):
        self._values = dict(values)

    def __getitem__(self, key: "Term | str") -> int:
        name = key if isinstance(key, str) else key.payload[0]
        return self._values.get(name, 0)

    def __contains__(self, key: "Term | str") -> bool:
        name = key if isinstance(key, str) else key.payload[0]
        return name in self._values

    def as_dict(self) -> dict[str, int]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Model({inner})"


class SolverStats:
    """Counters for the ablation benchmarks."""

    def __init__(self) -> None:
        self.checks = 0
        self.fast_path_hits = 0
        self.sat_calls = 0
        self.sat_conflicts = 0
        self.unknowns = 0
        self.cache_hits = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "checks": self.checks,
            "fast_path_hits": self.fast_path_hits,
            "sat_calls": self.sat_calls,
            "sat_conflicts": self.sat_conflicts,
            "unknowns": self.unknowns,
            "cache_hits": self.cache_hits,
        }


# Per-term structural digests.  Terms are interned and the intern
# table is never pruned, so ids are stable for the process lifetime
# and the memo can be keyed on them; the digest itself is computed
# from structure only (op, payload, sort, child digests), so it is
# identical across processes — that is what makes it usable as the
# shared on-disk cache key.
_DIGEST_MEMO: dict[int, str] = {}


def _term_digest(root: Term) -> str:
    memo = _DIGEST_MEMO
    found = memo.get(id(root))
    if found is not None:
        return found
    # Iterative post-order: symbolic expressions from long traces can
    # nest past the recursion limit.
    stack = [root]
    while stack:
        term = stack[-1]
        if id(term) in memo:
            stack.pop()
            continue
        pending = [c for c in term.args if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        width = getattr(term.sort, "width", None)
        sort_tag = "b" if width is None else f"v{width}"
        body = "\x1f".join((term.op, repr(term.payload), sort_tag,
                            *(memo[id(c)] for c in term.args)))
        memo[id(term)] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return memo[id(root)]


def constraint_digest(constraints: "list[Term]",
                      max_conflicts: int) -> str:
    """A process-independent content key for a solver query.

    The in-memory cache keys on interned term identity, which only
    means something inside one process; the shared disk tier needs a
    key two workers derive identically, so this walks the constraint
    DAG and hashes structure.  Order-preserving, like the in-memory
    key: a hit returns exactly what a fresh solve would have."""
    parts = [str(max_conflicts)]
    parts.extend(_term_digest(c) for c in constraints)
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


class SolverCache:
    """A bounded memo of solved conjunctions.

    The fuzzer re-poses near-identical flip queries across iterations
    (same path prefix, same flipped branch); because terms are interned,
    a repeated conjunction is the *same* tuple of term objects, so the
    canonical key is simply the constraint tuple plus the conflict
    budget.  Only decided results (sat with its model, unsat) are
    cached — "unknown" depends on the budget and is always re-solved.
    The key preserves constraint order, so a hit returns byte-for-byte
    the model a fresh solve would have produced: caching can never
    change a campaign's behaviour, only its speed.
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, tuple[str, dict | None]]" \
            = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Shared on-disk tier (repro.sharedcache), consulted only when
        # a query is headed for the expensive bit-blasting layer — the
        # fast paths are cheaper than a disk read.
        self.disk = SharedDiskCache("solver", serializer="json")

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> "tuple[str, dict | None] | None":
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return found

    def store(self, key: tuple, status: str,
              model_values: dict | None) -> None:
        self._entries[key] = (status, model_values)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_dict(self) -> dict[str, "int | float"]:
        stats = {"hits": self.hits, "misses": self.misses,
                 "evictions": self.evictions, "entries": len(self._entries),
                 "hit_rate": self.hit_rate}
        stats.update(self.disk.stats_dict())
        return stats


# One cache per process; worker processes each grow their own.
_SOLVER_CACHE: SolverCache | None = SolverCache()


def solver_cache() -> SolverCache | None:
    """The process-wide solver result cache (None when disabled)."""
    return _SOLVER_CACHE


def configure_solver_cache(enabled: bool = True,
                           max_entries: int = 4096) -> SolverCache | None:
    """Replace the process-wide cache (or disable it); returns the new
    cache.  Used by the determinism tests and the ablation benches."""
    global _SOLVER_CACHE
    _SOLVER_CACHE = SolverCache(max_entries) if enabled else None
    return _SOLVER_CACHE


class Solver:
    """Check satisfiability of a conjunction of boolean terms."""

    def __init__(self, max_conflicts: int = 20_000,
                 stats: SolverStats | None = None,
                 use_cache: bool = True):
        self._constraints: list[Term] = []
        self._stack: list[int] = []
        self.max_conflicts = max_conflicts
        self._model: Model | None = None
        self.stats = stats or SolverStats()
        self.use_cache = use_cache

    # -- z3py-flavoured interface ------------------------------------------
    def add(self, *constraints: Term) -> None:
        for c in constraints:
            if not c.is_bool():
                raise TypeError("constraints must be boolean terms")
            self._constraints.append(c)

    def push(self) -> None:
        self._stack.append(len(self._constraints))

    def pop(self) -> None:
        if not self._stack:
            raise RuntimeError(
                "Solver.pop() called with no matching push(): the "
                "assertion scope stack is empty")
        size = self._stack.pop()
        del self._constraints[size:]

    def assertions(self) -> list[Term]:
        return list(self._constraints)

    def check(self, *extra: Term) -> str:
        """Return "sat", "unsat" or "unknown".

        An internal failure of the search layers is raised as a typed
        :class:`~repro.resilience.SolverError` (never a bare
        exception), so campaign containment can degrade to black-box
        fuzzing instead of aborting.
        """
        self.stats.checks += 1
        faultinject.inject("solve")
        constraints = self._constraints + list(extra)
        self._model = None
        if any(c is FALSE for c in constraints):
            return UNSAT
        constraints = [c for c in constraints if c is not TRUE]
        if not constraints:
            self._model = Model({})
            return SAT
        cache = _SOLVER_CACHE if self.use_cache else None
        key = (tuple(constraints), self.max_conflicts)
        if cache is not None:
            cached = cache.lookup(key)
            if cached is not None:
                status, values = cached
                self.stats.cache_hits += 1
                if status == SAT:
                    self._model = Model(values)
                return status
        digest: str | None = None
        from_disk = False
        try:
            result = self._try_fast_path(constraints)
            if result is not None:
                self.stats.fast_path_hits += 1
            else:
                # The query is headed for bit-blasting; that is the
                # point where a sibling worker's result (shared disk
                # tier) is worth a file read.
                if cache is not None and cache.disk.enabled:
                    digest = constraint_digest(constraints,
                                               self.max_conflicts)
                    result = self._lookup_disk(cache.disk, digest)
                    from_disk = result is not None
                if result is None:
                    result = self._check_sat(constraints)
        except CampaignError:
            raise
        except Exception as exc:
            raise SolverError.wrap(exc)
        if cache is not None and result in (SAT, UNSAT):
            values = self._model.as_dict() if result == SAT else None
            cache.store(key, result, values)
            if digest is not None and not from_disk:
                cache.disk.put(digest, {"status": result, "model": values})
        return result

    def _lookup_disk(self, disk, digest: str) -> str | None:
        """A decided verdict from the shared disk tier, or None.

        Anything malformed degrades to a miss — the solve just runs."""
        entry = disk.get(digest)
        if not isinstance(entry, dict):
            return None
        status = entry.get("status")
        if status == UNSAT:
            return UNSAT
        if status == SAT:
            values = entry.get("model")
            if not isinstance(values, dict):
                return None
            self._model = Model({str(k): int(v) for k, v in values.items()})
            return SAT
        return None

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() called without a sat check()")
        return self._model

    # -- layer 2: interval propagation ----------------------------------------
    def _try_fast_path(self, constraints: list[Term]) -> str | None:
        """Decide conjunctions of single-variable compares-to-constant.

        Returns None when any constraint falls outside the supported
        shape, punting to the SAT layer.
        """
        intervals: dict[str, Interval] = {}
        widths: dict[str, int] = {}
        for constraint in constraints:
            parsed = _parse_atom(constraint)
            if parsed is None:
                return None
            op, var, constant, var_on_left = parsed
            name = var.payload[0]
            widths[name] = var.width
            interval = intervals.get(name, Interval(var.width))
            refined = propagate_comparison(op, interval, constant, var_on_left)
            if refined is None:
                return None
            intervals[name] = refined
        values: dict[str, int] = {}
        for name, interval in intervals.items():
            if interval.is_empty():
                return UNSAT
            witness = interval.pick()
            if witness is None:
                return UNSAT
            values[name] = witness
        # Double-check the witness (holes interact with bounds).
        assignment = dict(values)
        for constraint in constraints:
            if not evaluate(constraint, assignment):
                return None  # fall through to SAT rather than mis-answer
        self._model = Model(values)
        return SAT

    # -- layer 3: bit-blasting -----------------------------------------------
    def _check_sat(self, constraints: list[Term]) -> str:
        self.stats.sat_calls += 1
        sat_solver = SatSolver()
        blaster = BitBlaster(sat_solver)
        # Pre-declare free variables so the model covers all of them.
        for constraint in constraints:
            for var in free_variables(constraint):
                blaster.blast_bv(var)
        try:
            for constraint in constraints:
                blaster.assert_term(constraint)
        except ValueError:
            self.stats.unknowns += 1
            return UNKNOWN
        result = sat_solver.solve(max_conflicts=self.max_conflicts)
        self.stats.sat_conflicts += result.conflicts
        if result.status == SAT:
            self._model = Model(blaster.decode(result.model))
            return SAT
        if result.status == UNSAT:
            return UNSAT
        self.stats.unknowns += 1
        return UNKNOWN


def _parse_atom(term: Term) -> tuple[str, Term, int, bool] | None:
    """Recognise ``var <op> const`` atoms (and negations / mirrored
    forms).  Returns (op, var, constant, var_on_left) or None."""
    negated = False
    if term.op == "not":
        negated = True
        term = term.args[0]
    op = term.op
    if op not in ("eq", "bvult", "bvule", "bvslt", "bvsle"):
        return None
    lhs, rhs = term.args
    if lhs.is_bool() or rhs.is_bool():
        return None
    if lhs.op == "bvvar" and rhs.is_const():
        var, constant, var_on_left = lhs, rhs.const_value(), True
    elif rhs.op == "bvvar" and lhs.is_const():
        var, constant, var_on_left = rhs, lhs.const_value(), False
    else:
        return None
    if negated:
        if op == "eq":
            return ("ne", var, constant, var_on_left)
        flipped = {"bvult": "bvule", "bvule": "bvult",
                   "bvslt": "bvsle", "bvsle": "bvslt"}[op]
        # not (a < b)  ==  b <= a : mirror sides.
        return (flipped, var, constant, not var_on_left)
    if op == "eq":
        return ("eq", var, constant, var_on_left)
    return (op, var, constant, var_on_left)
