"""Unit tests for the CDCL SAT solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SatResult, SatSolver
from repro.sat.solver import Budget, _luby


def test_empty_formula_is_sat():
    s = SatSolver()
    assert s.solve() is SatResult.SAT


def test_unit_clause():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([a])
    assert s.solve() is SatResult.SAT
    assert s.model_value(a) is True
    assert s.model_value(-a) is False


def test_contradiction():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([a])
    s.add_clause([-a])
    assert s.solve() is SatResult.UNSAT


def test_simple_implication_chain():
    s = SatSolver()
    vs = [s.new_var() for _ in range(10)]
    s.add_clause([vs[0]])
    for i in range(9):
        s.add_clause([-vs[i], vs[i + 1]])
    assert s.solve() is SatResult.SAT
    assert all(s.model_value(v) for v in vs)


def test_tautology_is_dropped():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([a, -a])
    assert s.solve() is SatResult.SAT


def test_duplicate_literals_merged():
    s = SatSolver()
    a = s.new_var()
    b = s.new_var()
    s.add_clause([a, a, b])
    s.add_clause([-a])
    assert s.solve() is SatResult.SAT
    assert s.model_value(b)


def test_pigeonhole_3_into_2_unsat():
    # 3 pigeons, 2 holes: classic small UNSAT instance exercising learning.
    s = SatSolver()
    holes = 2
    pigeons = 3
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = s.new_var()
    for p in range(pigeons):
        s.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1, h], -var[p2, h]])
    assert s.solve() is SatResult.UNSAT


def test_pigeonhole_5_into_4_unsat():
    s = SatSolver()
    holes, pigeons = 4, 5
    var = {(p, h): s.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        s.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1, h], -var[p2, h]])
    assert s.solve() is SatResult.UNSAT


def test_assumptions_sat_and_unsat():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    assert s.solve(assumptions=[-a]) is SatResult.SAT
    assert s.model_value(b)
    s.add_clause([-b])
    assert s.solve(assumptions=[-a]) is SatResult.UNSAT
    # The solver is still usable and SAT without assumptions.
    assert s.solve() is SatResult.SAT
    assert s.model_value(a)


def test_assumptions_do_not_persist():
    s = SatSolver()
    a = s.new_var()
    assert s.solve(assumptions=[-a]) is SatResult.SAT
    assert s.solve(assumptions=[a]) is SatResult.SAT


def test_conflict_budget_returns_unknown():
    # A hard pigeonhole instance with a 1-conflict budget must give up.
    s = SatSolver()
    holes, pigeons = 5, 6
    var = {(p, h): s.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        s.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1, h], -var[p2, h]])
    result = s.solve(budget=Budget(max_conflicts=1))
    assert result is SatResult.UNKNOWN
    assert s.stats.unknown_reason == "conflicts"


def test_luby_sequence_prefix():
    assert [_luby(i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]


def _random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        lits = set()
        while len(lits) < width:
            v = rng.randint(1, num_vars)
            lits.add(v if rng.random() < 0.5 else -v)
        clauses.append(sorted(lits, key=abs))
    return clauses


def _brute_force_sat(num_vars, clauses):
    for bits in range(1 << num_vars):
        ok = True
        for clause in clauses:
            if not any(
                ((bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


@pytest.mark.parametrize("seed", range(12))
def test_random_cnf_against_brute_force(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(4, 9)
    num_clauses = rng.randint(num_vars, 5 * num_vars)
    clauses = _random_cnf(rng, num_vars, num_clauses)
    s = SatSolver()
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    expected = _brute_force_sat(num_vars, clauses)
    result = s.solve()
    assert result is (SatResult.SAT if expected else SatResult.UNSAT)
    if result is SatResult.SAT:
        for clause in clauses:
            assert any(s.model_value(l) for l in clause)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_cnf_model_satisfies_clauses(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(3, 14)
    clauses = _random_cnf(rng, num_vars, rng.randint(2, 4 * num_vars))
    s = SatSolver()
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    if s.solve() is SatResult.SAT:
        for clause in clauses:
            assert any(s.model_value(l) for l in clause)


def test_incremental_use_after_unsat_assumptions():
    s = SatSolver()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.add_clause([a, b])
    s.add_clause([-a, c])
    assert s.solve(assumptions=[a, -c]) is SatResult.UNSAT
    assert s.solve(assumptions=[a]) is SatResult.SAT
    assert s.model_value(c)


# ---------------------------------------------------------------------------
# Search lock: (conflicts, decisions, propagations, restarts, learned) must
# not move when the solver's data structures change.  Any edit that changes
# a branching choice, a watch order or a learned clause changes these.
# ---------------------------------------------------------------------------


def _signed(rng, num_vars, width):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), width)]


def _search_counts(s):
    st = s.stats
    return st.conflicts, st.decisions, st.propagations, st.restarts, st.learned


def _pigeonhole(s, pigeons, holes):
    var = {(p, h): s.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        s.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1, h], -var[p2, h]])


def test_search_lock_random_3sat():
    rng = random.Random(7)
    s = SatSolver()
    s.ensure_vars(120)
    for _ in range(510):
        s.add_clause(_signed(rng, 120, 3))
    assert s.solve() is SatResult.UNSAT
    assert _search_counts(s) == (899, 1153, 22410, 14, 889)


def test_search_lock_pigeonhole_6_into_5():
    s = SatSolver()
    _pigeonhole(s, 6, 5)
    assert s.solve() is SatResult.UNSAT
    assert _search_counts(s) == (158, 201, 1871, 3, 151)


def test_search_lock_bitblasted_i8_mul_commutativity():
    from repro.smt import terms as T
    from repro.smt.solver import SmtSolver

    a, b = T.bv_var("a", 8), T.bv_var("b", 8)
    smt = SmtSolver()
    smt.assert_term(T.bool_not(T.bv_eq(T.bv_mul(a, b), T.bv_mul(b, a))))
    # Multiplier equivalence is hard for CDCL: lock the first 1500 conflicts.
    assert smt.sat.solve(budget=Budget(max_conflicts=1500)) is SatResult.UNKNOWN
    assert _search_counts(smt.sat) == (1500, 2149, 120971, 24, 1500)


def test_search_lock_incremental_under_assumptions():
    rng = random.Random(4)
    s = SatSolver()
    s.ensure_vars(100)
    for _ in range(380):
        s.add_clause(_signed(rng, 100, 3))
    answers = ""
    for _ in range(60):
        answers += s.solve(_signed(rng, 100, 4)).value[0]
        if answers[-1] != "s":
            break
        s.add_clause(_signed(rng, 100, 3))
    assert answers == "s" * 23 + "u"
    assert _search_counts(s) == (405, 1076, 12231, 7, 404)


def _heap_invariant(s):
    live = {}
    for neg_act, v in s._order_heap:
        if -neg_act == s._activity[v]:
            live[v] = live.get(v, 0) + 1
    for v in range(1, s.num_vars + 1):
        unassigned = s._value[v << 1] == -1
        if unassigned:
            assert live.get(v) == 1, v
        assert s._in_heap[v] == (v in live), v
    assert all(n == 1 for n in live.values())


def test_order_heap_stays_bounded_over_incremental_solves():
    """200 solves under assumptions on one solver: the VSIDS heap keeps one
    live entry per unassigned variable and at most ~2x num_vars entries in
    all, and every answer matches a fresh solver's (repeated UNSAT cores
    under assumptions leave no stale marks behind)."""
    rng = random.Random(11)
    n = 60
    clauses = [_signed(rng, n, 3) for _ in range(200)]
    s = SatSolver()
    s.ensure_vars(n)
    for c in clauses:
        s.add_clause(c)
    answers = []
    for i in range(200):
        assumptions = _signed(rng, n, 3)
        result = s.solve(assumptions)
        answers.append(result)
        assert len(s._order_heap) <= 2 * s.num_vars + 64
        _heap_invariant(s)
        fresh = SatSolver()
        fresh.ensure_vars(n)
        for c in clauses:
            fresh.add_clause(c)
        assert fresh.solve(assumptions) is result
        if result is SatResult.UNSAT:
            assert set(s.unsat_core()) <= set(assumptions)
        if i % 20 == 19:
            clauses.append(_signed(rng, n, 3))
            s.add_clause(clauses[-1])
    assert SatResult.SAT in answers and SatResult.UNSAT in answers
