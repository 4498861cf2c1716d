"""A CDCL SAT solver.

The implementation follows the MiniSat architecture:

* two-literal watching for unit propagation,
* first-UIP conflict analysis with clause minimization,
* VSIDS variable activities with exponential decay,
* Luby-sequence restarts,
* activity-based learned-clause database reduction,
* solving under assumptions.

Resource limits (wall-clock deadline, conflict budget, learned-literal
budget as a memory proxy) make every call terminate with a definitive
``SAT``/``UNSAT`` or an explicit ``UNKNOWN`` — the property the bounded
translation validator relies on to report timeouts and out-of-memory
conditions instead of hanging.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sat.proof import ProofLog
from repro.sat.types import Lit

_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1

# ---------------------------------------------------------------------------
# Unsound-solver fault injection (harness.faults kind="unsound")
# ---------------------------------------------------------------------------
# When armed, the next learned clause anywhere in this process is replaced
# by the empty clause: the solver immediately claims UNSAT, exactly the
# failure mode of a buggy solver silently blessing a miscompilation.  The
# proof checker rejects the bogus empty lemma, which is how the harness
# demonstrates that --certify catches a genuinely unsound solver.

_UNSOUND_PENDING = 0


def arm_unsound(count: int = 1) -> None:
    global _UNSOUND_PENDING
    _UNSOUND_PENDING = count


def reset_unsound() -> None:
    global _UNSOUND_PENDING
    _UNSOUND_PENDING = 0


def _consume_unsound() -> bool:
    global _UNSOUND_PENDING
    if _UNSOUND_PENDING > 0:
        _UNSOUND_PENDING -= 1
        return True
    return False


class SatResult(Enum):
    """Outcome of a :meth:`SatSolver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters exposed for benchmarks and tests."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    unknown_reason: str = ""


@dataclass
class Budget:
    """Resource limits for a single solve call.

    ``deadline`` is an absolute :func:`time.monotonic` timestamp.
    ``max_learned_lits`` caps the total number of literals in the learned
    clause database and acts as the out-of-memory proxy.
    """

    deadline: Optional[float] = None
    max_conflicts: Optional[int] = None
    max_learned_lits: Optional[int] = None


def _luby(i: int) -> int:
    """Return the i-th element (0-based) of the Luby restart sequence."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i %= size
    return 1 << seq


class _ClauseRef:
    """A clause plus its bookkeeping (activity, learned flag)."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class SatSolver:
    """CDCL solver over DIMACS-style literals.

    Usage::

        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve() is SatResult.SAT
        assert s.model_value(b) is True
    """

    def __init__(
        self,
        polarity_seed: Optional[int] = None,
        proof: Optional[ProofLog] = None,
    ) -> None:
        """``polarity_seed`` randomizes initial branching polarity; useful
        for model diversity in enumeration loops (CEGAR).  ``proof``
        receives a DRAT-style event stream (inputs, learned lemmas,
        deletions) that :mod:`repro.sat.checker` can certify."""
        self._rng = random.Random(polarity_seed) if polarity_seed is not None else None
        self.proof = proof
        self._num_vars = 0
        # Indexed by coded literal (2*v for +v, 2*v+1 for -v).
        self._watches: List[List[_ClauseRef]] = [[], []]
        self._value: List[int] = [_UNASSIGNED, _UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[_ClauseRef]] = [None]
        self._activity: List[float] = [0.0]
        self._polarity: List[bool] = [False]
        self._trail: List[int] = []  # coded literals, in assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._clauses: List[_ClauseRef] = []
        self._learned: List[_ClauseRef] = []
        self._learned_lits = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._ok = True
        # VSIDS order: a lazy heap of (-activity, var).  An entry is live
        # while its key equals the variable's activity; ``_in_heap[v]``
        # marks that v has its (single) live entry in the heap.  Every
        # unassigned variable has one, so the top live unassigned entry is
        # the highest-activity unassigned variable, lowest index on ties.
        self._order_heap: List[tuple] = []
        self._in_heap: List[bool] = [False]
        self._seen: List[int] = [0]
        self.stats = SolverStats()
        self._model: Dict[int, bool] = {}
        self._conflict_assumptions: List[Lit] = []

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        v = self._num_vars
        self._watches.append([])
        self._watches.append([])
        self._value.append(_UNASSIGNED)
        self._value.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(
            self._rng.random() < 0.5 if self._rng is not None else False
        )
        self._seen.append(0)
        heapq.heappush(self._order_heap, (0.0, v))
        self._in_heap.append(True)
        return v

    def randomize_polarity(self) -> None:
        """Re-randomize saved phases (model diversification for CEGAR)."""
        if self._rng is None:
            self._rng = random.Random(0)
        for v in range(1, self._num_vars + 1):
            self._polarity[v] = self._rng.random() < 0.5

    def ensure_vars(self, n: int) -> None:
        """Grow the variable space so variables ``1..n`` exist."""
        while self._num_vars < n:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Input clauses kept in the clause database (units, tautologies
        and clauses already satisfied at level 0 are not stored)."""
        return len(self._clauses)

    @staticmethod
    def _code(lit: Lit) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    @staticmethod
    def _decode(code: int) -> Lit:
        v = code >> 1
        return v if (code & 1) == 0 else -v

    def add_clause(self, lits: Iterable[Lit]) -> bool:
        """Add a clause; returns False if the formula is now trivially unsat.

        The clause is simplified: duplicate literals are merged and clauses
        containing complementary literals are dropped as tautologies.
        """
        if not self._ok:
            return False
        lits = list(lits)
        if self.proof is not None:
            # Log the clause as given, before simplification: dropped
            # literals are justified by level-0 units the checker re-derives.
            self.proof.log_input(lits)
        seen: Dict[int, int] = {}
        out: List[int] = []
        for lit in lits:
            if lit > 0:
                v = lit
                code = lit << 1
            else:
                v = -lit
                code = (v << 1) | 1
            if v > self._num_vars:
                self.ensure_vars(v)
            prev = seen.get(v)
            if prev is None:
                seen[v] = code
                out.append(code)
            elif prev != code:
                return True  # tautology: x or not-x
        # Drop literals already false at level 0; satisfy check for true ones.
        value = self._value
        level = self._level
        filtered: List[int] = []
        for code in out:
            val = value[code]
            if val != _UNASSIGNED and level[code >> 1] == 0:
                if val == _TRUE:
                    return True
                continue
            filtered.append(code)
        if not filtered:
            self._ok = False
            self._log_lemma([])
            return False
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], None):
                self._ok = False
                self._log_lemma([])
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                self._log_lemma([])
                return False
            return True
        ref = _ClauseRef(filtered, learned=False)
        self._attach(ref)
        self._clauses.append(ref)
        return True

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _attach(self, ref: _ClauseRef) -> None:
        self._watches[ref.lits[0] ^ 1].append(ref)
        self._watches[ref.lits[1] ^ 1].append(ref)

    def _enqueue(self, code: int, reason: Optional[_ClauseRef]) -> bool:
        val = self._value[code]
        if val != _UNASSIGNED:
            return val == _TRUE
        v = code >> 1
        self._value[code] = _TRUE
        self._value[code ^ 1] = _FALSE
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._polarity[v] = (code & 1) == 0
        self._trail.append(code)
        return True

    def _propagate(self) -> Optional[_ClauseRef]:
        """Unit-propagate the trail from ``_qhead``; returns a conflicting
        clause or None.  Hot loop: ``_enqueue`` is inlined and every
        attribute is read once into a local."""
        trail = self._trail
        watches = self._watches
        value = self._value
        level = self._level
        reason = self._reason
        polarity = self._polarity
        cur_level = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            code = trail[qhead]
            qhead += 1
            false_code = code ^ 1
            watchers = watches[code]
            kept: List[_ClauseRef] = []
            watches[code] = kept
            i = 0
            n = len(watchers)
            while i < n:
                ref = watchers[i]
                i += 1
                lits = ref.lits
                # Ensure the false literal is at position 1.
                if lits[0] == false_code:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                first_val = value[first]
                if first_val == _TRUE:
                    kept.append(ref)
                    continue
                # Look for a new watch.
                for k in range(2, len(lits)):
                    other = lits[k]
                    if value[other] != _FALSE:
                        lits[1], lits[k] = other, lits[1]
                        watches[other ^ 1].append(ref)
                        break
                else:
                    # Clause is unit or conflicting.
                    kept.append(ref)
                    if first_val == _FALSE:
                        # Conflict: restore remaining watchers and report.
                        kept.extend(watchers[i:])
                        self.stats.propagations += qhead - start
                        self._qhead = len(trail)
                        return ref
                    v = first >> 1
                    value[first] = _TRUE
                    value[first ^ 1] = _FALSE
                    level[v] = cur_level
                    reason[v] = ref
                    polarity[v] = (first & 1) == 0
                    trail.append(first)
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _bump_var(self, v: int) -> None:
        activity = self._activity
        act = activity[v] + self._var_inc
        activity[v] = act
        if act > 1e100:
            for i in range(1, self._num_vars + 1):
                activity[i] *= 1e-100
            self._var_inc *= 1e-100
            # Every stored key is stale after rescaling.
            self._rebuild_heap()
            return
        # The new key supersedes v's old entry, which is now stale.
        heapq.heappush(self._order_heap, (-act, v))
        self._in_heap[v] = True

    def _rebuild_heap(self) -> None:
        """One live entry per unassigned variable, no stale entries."""
        value = self._value
        activity = self._activity
        in_heap = self._in_heap
        heap = []
        for v in range(1, self._num_vars + 1):
            unassigned = value[v << 1] == _UNASSIGNED
            in_heap[v] = unassigned
            if unassigned:
                heap.append((-activity[v], v))
        heapq.heapify(heap)
        self._order_heap = heap

    def _bump_clause(self, ref: _ClauseRef) -> None:
        ref.activity += self._cla_inc
        if ref.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: _ClauseRef) -> tuple[List[int], int]:
        """First-UIP analysis; returns (learned clause codes, backtrack level)."""
        seen = self._seen
        level = self._level
        reasons = self._reason
        trail = self._trail
        bump = self._bump_var
        learnt: List[int] = [0]  # placeholder for the asserting literal
        path = 0
        p = -1
        index = len(trail) - 1
        reason: Optional[_ClauseRef] = conflict
        cur_level = len(self._trail_lim)
        while True:
            assert reason is not None
            if reason.learned:
                self._bump_clause(reason)
            start = 0 if p == -1 else 1
            for code in reason.lits[start:]:
                v = code >> 1
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = 1
                bump(v)
                if level[v] == cur_level:
                    path += 1
                else:
                    learnt.append(code)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            seen[v] = 0
            reason = reasons[v]
            path -= 1
            if path == 0:
                break
        learnt[0] = p ^ 1
        # Clause minimization: drop literals implied by the rest.
        marks = [code >> 1 for code in learnt]
        kept = [learnt[0]]
        for code in learnt[1:]:
            r = reasons[code >> 1]
            if r is None:
                kept.append(code)
                continue
            redundant = True
            for other in r.lits:
                ov = other >> 1
                if ov != (code >> 1) and not seen[ov] and level[ov] > 0:
                    redundant = False
                    break
            if not redundant:
                kept.append(code)
        for v in marks:
            seen[v] = 0
        learnt = kept
        if len(learnt) == 1:
            return learnt, 0
        # Find backtrack level: max level among learnt[1:].
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _log_lemma(self, codes: List[int]) -> None:
        if self.proof is not None:
            self.proof.log_lemma([self._decode(c) for c in codes])

    def _final_core_from_conflict(self, conflict: _ClauseRef) -> List[int]:
        """Assumption core for a conflict at level <= #assumptions.

        MiniSat's ``analyzeFinal``: walk the trail top-down from the
        conflict clause, expanding propagation reasons; the pseudo-decision
        literals reached (reason None, level > 0) are exactly the
        assumptions the contradiction depends on.  Must run before
        ``_backtrack(0)`` destroys the trail.
        """
        seen = self._seen
        core: List[int] = []
        for code in conflict.lits:
            v = code >> 1
            if self._level[v] > 0:
                seen[v] = 1
        for i in range(len(self._trail) - 1, -1, -1):
            code = self._trail[i]
            v = code >> 1
            if not seen[v]:
                continue
            seen[v] = 0
            reason = self._reason[v]
            if reason is None:
                core.append(code)
            else:
                for other in reason.lits:
                    ov = other >> 1
                    if ov != v and self._level[ov] > 0:
                        seen[ov] = 1
        return core

    def _final_core_from_failed(self, failed_code: int) -> List[int]:
        """Assumption core when an assumption is already FALSE on the trail:
        the failed assumption itself plus the assumptions that propagated
        its negation."""
        core = [failed_code]
        v = failed_code >> 1
        if self._level[v] == 0:
            return core
        seen = self._seen
        seen[v] = 1
        for i in range(len(self._trail) - 1, -1, -1):
            code = self._trail[i]
            w = code >> 1
            if not seen[w]:
                continue
            seen[w] = 0
            reason = self._reason[w]
            if reason is None:
                core.append(code)
            else:
                for other in reason.lits:
                    ov = other >> 1
                    if ov != w and self._level[ov] > 0:
                        seen[ov] = 1
        return core

    def _finish_assumption_unsat(self, core_codes: List[int]) -> None:
        """Record the core and log the terminal lemma ``¬core``."""
        self._conflict_assumptions = [self._decode(c) for c in core_codes]
        self._log_lemma([c ^ 1 for c in core_codes])
        self._backtrack(0)

    def unsat_core(self) -> List[Lit]:
        """Assumption literals the last UNSAT answer depended on (may be a
        strict subset of what was passed; empty for a root-level UNSAT)."""
        return list(self._conflict_assumptions)

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        value = self._value
        reason = self._reason
        activity = self._activity
        in_heap = self._in_heap
        heap = self._order_heap
        for code in reversed(self._trail[bound:]):
            v = code >> 1
            value[code] = _UNASSIGNED
            value[code ^ 1] = _UNASSIGNED
            reason[v] = None
            if not in_heap[v]:
                heapq.heappush(heap, (-activity[v], v))
                in_heap[v] = True
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)
        # Stale entries (superseded by a bump) pile up between pops; cap
        # them so the heap stays O(num_vars) over long incremental runs.
        if len(heap) > 2 * self._num_vars + 64:
            self._rebuild_heap()

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int:
        """Highest-activity unassigned variable (lowest index on ties), or
        0 when every variable is assigned."""
        heap = self._order_heap
        value = self._value
        activity = self._activity
        while heap:
            neg_act, v = heap[0]
            if -neg_act != activity[v]:
                heapq.heappop(heap)  # stale: v's live entry is elsewhere
                continue
            if value[v << 1] != _UNASSIGNED:
                heapq.heappop(heap)  # v's live entry; re-pushed on unassign
                self._in_heap[v] = False
                continue
            return v
        return 0

    def _reduce_db(self) -> None:
        self._learned.sort(key=lambda c: c.activity)
        keep: List[_ClauseRef] = []
        target = len(self._learned) // 2
        removed = set()
        for i, ref in enumerate(self._learned):
            locked = any(self._reason[code >> 1] is ref for code in ref.lits[:1])
            if i < target and len(ref.lits) > 2 and not locked:
                removed.add(id(ref))
                self._learned_lits -= len(ref.lits)
                self.stats.deleted += 1
                if self.proof is not None:
                    self.proof.log_delete(
                        [self._decode(c) for c in ref.lits]
                    )
            else:
                keep.append(ref)
        if not removed:
            return
        self._learned = keep
        for w in range(2, len(self._watches)):
            lst = self._watches[w]
            self._watches[w] = [c for c in lst if id(c) not in removed]

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[Lit] = (),
        budget: Optional[Budget] = None,
    ) -> SatResult:
        """Solve under the given assumptions, subject to ``budget``."""
        self.stats.unknown_reason = ""
        self._conflict_assumptions = []
        if not self._ok:
            return SatResult.UNSAT
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            self._log_lemma([])
            return SatResult.UNSAT
        assumption_codes = []
        for lit in assumptions:
            v = lit if lit > 0 else -lit
            if v > self._num_vars:
                self.ensure_vars(v)
            assumption_codes.append(self._code(lit))

        conflicts_at_start = self.stats.conflicts
        restart_idx = 0
        restart_limit = 32 * _luby(0)
        check_counter = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if len(self._trail_lim) <= len(assumption_codes):
                    # Conflict under assumptions (or at root level).
                    if not self._trail_lim:
                        self._ok = False
                        self._log_lemma([])
                    else:
                        self._finish_assumption_unsat(
                            self._final_core_from_conflict(conflict)
                        )
                    return SatResult.UNSAT
                learnt, back_level = self._analyze(conflict)
                if _consume_unsound():
                    # Injected solver bug: the learned clause degenerates to
                    # the empty clause, i.e. an unconditional UNSAT claim.
                    learnt = []
                self._log_lemma(learnt)
                if not learnt:
                    self._ok = False
                    self._backtrack(0)
                    return SatResult.UNSAT
                back_level = max(back_level, 0)
                self._backtrack(max(back_level, 0))
                if len(learnt) == 1:
                    self._backtrack(0)
                    if not self._enqueue(learnt[0], None):
                        self._ok = False
                        self._log_lemma([])
                        return SatResult.UNSAT
                else:
                    ref = _ClauseRef(learnt, learned=True)
                    self._attach(ref)
                    self._learned.append(ref)
                    self._learned_lits += len(learnt)
                    self.stats.learned += 1
                    self._bump_clause(ref)
                    self._enqueue(learnt[0], ref)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                # Budget checks on every conflict.
                if budget is not None:
                    used = self.stats.conflicts - conflicts_at_start
                    if budget.max_conflicts is not None and used >= budget.max_conflicts:
                        self.stats.unknown_reason = "conflicts"
                        self._backtrack(0)
                        return SatResult.UNKNOWN
                    if (
                        budget.max_learned_lits is not None
                        and self._learned_lits >= budget.max_learned_lits
                    ):
                        self.stats.unknown_reason = "memory"
                        self._backtrack(0)
                        return SatResult.UNKNOWN
                    if (
                        budget.deadline is not None
                        and used % 128 == 0
                        and time.monotonic() > budget.deadline
                    ):
                        self.stats.unknown_reason = "timeout"
                        self._backtrack(0)
                        return SatResult.UNKNOWN
                if self.stats.conflicts - conflicts_at_start >= restart_limit:
                    restart_idx += 1
                    restart_limit = (
                        self.stats.conflicts - conflicts_at_start
                    ) + 32 * _luby(restart_idx)
                    self.stats.restarts += 1
                    self._backtrack(0)
                if len(self._learned) > 4000 + 8 * self._num_vars:
                    self._reduce_db()
                continue

            check_counter += 1
            if budget is not None and budget.deadline is not None and check_counter % 64 == 0:
                if time.monotonic() > budget.deadline:
                    self.stats.unknown_reason = "timeout"
                    self._backtrack(0)
                    return SatResult.UNKNOWN

            # Re-establish assumptions as pseudo-decisions.
            if len(self._trail_lim) < len(assumption_codes):
                code = assumption_codes[len(self._trail_lim)]
                val = self._value[code]
                if val == _TRUE:
                    self._trail_lim.append(len(self._trail))
                    continue
                if val == _FALSE:
                    self._finish_assumption_unsat(
                        self._final_core_from_failed(code)
                    )
                    return SatResult.UNSAT
                self._trail_lim.append(len(self._trail))
                self._enqueue(code, None)
                continue

            v = self._pick_branch_var()
            if v == 0:
                self._save_model()
                self._backtrack(0)
                return SatResult.SAT
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            code = (v << 1) | (0 if self._polarity[v] else 1)
            self._enqueue(code, None)

    def _save_model(self) -> None:
        self._model = {}
        value = self._value
        for v in range(1, self._num_vars + 1):
            self._model[v] = value[v << 1] == _TRUE

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, lit: Lit) -> bool:
        """Value of a literal in the last SAT model (unassigned vars: False)."""
        v = lit if lit > 0 else -lit
        val = self._model.get(v, False)
        return val if lit > 0 else not val

    @property
    def model(self) -> Dict[int, bool]:
        return dict(self._model)
