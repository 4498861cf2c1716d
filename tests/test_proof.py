"""Tests for proof logging, the independent RUP checker, and certification.

Three layers are exercised:

* SAT: every UNSAT answer of :class:`SatSolver` leaves a proof log the
  independent checker accepts, cross-checked against brute-force truth
  on small random CNF; assumption UNSATs yield sound cores.
* SMT/EF: certify mode bundles checker-accepted certificates into
  :class:`EFOutcome` and the refinement checker's results.
* End to end: an injected learned-clause corruption (the ``unsound``
  fault) is caught by ``--certify`` as SOLVER_UNSOUND, and silently
  trusted without it — the trust story the certificate spine exists for.
"""

import itertools
import random

from repro.sat import SatResult, SatSolver
from repro.sat.checker import check_events
from repro.sat.proof import ProofLog
from repro.sat.solver import arm_unsound, reset_unsound


# -- helpers -----------------------------------------------------------------


def random_cnf(rng, num_vars, num_clauses, max_width=3):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def brute_force_sat(clauses, num_vars, fixed=()):
    fixed_map = {abs(lit): lit > 0 for lit in fixed}
    for bits in itertools.product([False, True], repeat=num_vars):
        assign = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if any(assign[v] != val for v, val in fixed_map.items()):
            continue
        if all(
            any(assign[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def solve_logged(clauses, num_vars, assumptions=(), seed=None):
    proof = ProofLog()
    solver = SatSolver(polarity_seed=seed, proof=proof)
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=list(assumptions))
    return result, solver, proof


# -- proof validity on random CNF --------------------------------------------


def test_unsat_proofs_pass_checker_and_match_brute_force():
    rng = random.Random(12345)
    sat = unsat = 0
    for trial in range(150):
        num_vars = rng.randint(1, 8)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 5 * num_vars))
        result, solver, proof = solve_logged(clauses, num_vars, seed=trial)
        truth = brute_force_sat(clauses, num_vars)
        if result is SatResult.SAT:
            sat += 1
            assert truth, f"trial {trial}: solver SAT but brute force UNSAT"
            model = solver.model
            for clause in clauses:
                assert any(
                    model.get(abs(lit), False) == (lit > 0) for lit in clause
                )
        else:
            unsat += 1
            assert result is SatResult.UNSAT
            assert not truth, f"trial {trial}: solver UNSAT but satisfiable"
            outcome = check_events(proof.events)
            assert outcome.valid, f"trial {trial}: {outcome.reason}"
    # The generator must actually exercise both outcomes.
    assert sat > 20 and unsat > 20


def test_unsat_proofs_valid_on_larger_instances():
    # Phase-transition-density instances up to 20 vars: too big to brute
    # force here, but the proofs must still check.
    rng = random.Random(99)
    unsat = 0
    for trial in range(25):
        num_vars = rng.randint(12, 20)
        clauses = random_cnf(rng, num_vars, int(4.4 * num_vars))
        result, solver, proof = solve_logged(clauses, num_vars, seed=trial)
        if result is SatResult.UNSAT:
            unsat += 1
            outcome = check_events(proof.events)
            assert outcome.valid, f"trial {trial}: {outcome.reason}"
    assert unsat >= 5


def test_trimming_checks_no_more_lemmas_than_full_replay():
    rng = random.Random(7)
    compared = 0
    for trial in range(60):
        num_vars = rng.randint(4, 10)
        clauses = random_cnf(rng, num_vars, 5 * num_vars)
        result, _, proof = solve_logged(clauses, num_vars, seed=trial)
        if result is not SatResult.UNSAT:
            continue
        trimmed = check_events(proof.events, trim=True)
        full = check_events(proof.events, trim=False)
        assert trimmed.valid and full.valid
        assert trimmed.checked_lemmas <= full.checked_lemmas
        compared += 1
    assert compared >= 10


def test_pigeonhole_proof_is_valid():
    # php(n): n+1 pigeons, n holes — classically hard for resolution,
    # so the proof log gets real lemma traffic and real deletions.
    n = 5
    def var(p, h):
        return p * n + h + 1

    clauses = [[var(p, h) for h in range(n)] for p in range(n + 1)]
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    result, _, proof = solve_logged(clauses, (n + 1) * n)
    assert result is SatResult.UNSAT
    outcome = check_events(proof.events)
    assert outcome.valid, outcome.reason
    assert outcome.total_lemmas > 10
    assert outcome.checked_lemmas <= outcome.total_lemmas


# -- assumption cores --------------------------------------------------------


def test_assumption_core_is_sound_subset():
    rng = random.Random(4242)
    cored = 0
    for trial in range(120):
        num_vars = rng.randint(2, 8)
        clauses = random_cnf(rng, num_vars, 3 * num_vars)
        k = rng.randint(1, num_vars)
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), k)
        ]
        result, solver, proof = solve_logged(
            clauses, num_vars, assumptions=assumptions, seed=trial
        )
        if result is not SatResult.UNSAT:
            continue
        core = solver.unsat_core()
        assert set(core) <= set(assumptions)
        # The core must be sufficient: clauses + core is still UNSAT.
        assert not brute_force_sat(clauses, num_vars, fixed=core)
        outcome = check_events(proof.events, assumptions=assumptions)
        assert outcome.valid, f"trial {trial}: {outcome.reason}"
        cored += 1
    assert cored > 30


def test_incremental_solving_keeps_proof_checkable():
    # One solver, several checks under different assumptions; the
    # cumulative log must stay valid at every UNSAT answer.
    proof = ProofLog()
    s = SatSolver(proof=proof)
    a, b, c = (s.new_var() for _ in range(3))
    s.add_clause([-a, b])
    s.add_clause([-b, c])
    assert s.solve(assumptions=[a, -c]) is SatResult.UNSAT
    assert set(s.unsat_core()) <= {a, -c}
    assert check_events(proof.events, assumptions=[a, -c]).valid
    assert s.solve(assumptions=[a]) is SatResult.SAT
    s.add_clause([-c])
    assert s.solve(assumptions=[a]) is SatResult.UNSAT
    assert check_events(proof.events, assumptions=[a]).valid


def test_root_unsat_has_empty_core_and_empty_terminal():
    proof = ProofLog()
    s = SatSolver(proof=proof)
    a = s.new_var()
    s.add_clause([a])
    s.add_clause([-a])
    assert s.solve() is SatResult.UNSAT
    assert s.unsat_core() == []
    assert proof.terminal == ()
    assert check_events(proof.events).valid


# -- checker independence: rejections ----------------------------------------


def test_checker_rejects_fabricated_lemma():
    events = [
        ("i", (1, 2)),
        ("a", (-1,)),  # not RUP: nothing forces ¬x1 from (x1 ∨ x2)
        ("a", ()),  # "UNSAT" — only via the fabricated lemma, so rejected
    ]
    outcome = check_events(events)
    assert not outcome.valid
    assert "not RUP" in outcome.reason


def test_checker_rejects_nonempty_terminal_without_assumptions():
    events = [("i", (1, 2)), ("a", (-1,))]
    outcome = check_events(events)
    assert not outcome.valid
    assert "non-assumption" in outcome.reason


def test_checker_rejects_empty_clause_on_satisfiable_formula():
    events = [("i", (1, 2)), ("a", ())]
    outcome = check_events(events)
    assert not outcome.valid


def test_checker_rejects_terminal_outside_assumptions():
    # Terminal lemma must be a subset of the negated assumptions.
    events = [("i", (1,)), ("a", (-2,))]
    outcome = check_events(events, assumptions=[1])
    assert not outcome.valid
    assert "assumption" in outcome.reason


def test_checker_accepts_valid_rup_chain():
    events = [
        ("i", (1, 2)),
        ("i", (-1, 2)),
        ("i", (-2,)),
        ("a", (2,)),  # RUP from the first two inputs
        ("a", ()),  # RUP: unit conflict with input 3
    ]
    outcome = check_events(events)
    assert outcome.valid, outcome.reason


def test_checker_handles_deletions():
    events = [
        ("i", (1, 2)),
        ("i", (-1, 2)),
        ("i", (-2,)),
        ("a", (2,)),
        ("d", (1, 2)),  # delete an input after the lemma that used it
        ("a", ()),
    ]
    outcome = check_events(events)
    assert outcome.valid, outcome.reason


def test_unsound_injection_is_rejected_by_checker():
    # Arm the corruption: the next learned clause degenerates to [],
    # making the solver claim UNSAT on a satisfiable formula.  The
    # independent checker must reject that proof.
    rng = random.Random(1)
    num_vars = 20
    # Pure 3-SAT at phase-transition density: hard enough to learn
    # clauses yet satisfiable (verified by the uncorrupted run below).
    clauses = []
    for _ in range(4 * num_vars):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    # First confirm the instance produces conflicts and is genuinely SAT.
    result0, solver0, _ = solve_logged(clauses, num_vars, seed=0)
    assert result0 is SatResult.SAT
    assert solver0.stats.conflicts > 0
    try:
        arm_unsound()
        result, _, proof = solve_logged(clauses, num_vars, seed=0)
    finally:
        reset_unsound()
    assert result is SatResult.UNSAT  # the lie
    outcome = check_events(proof.events)
    assert not outcome.valid
    assert "not RUP" in outcome.reason


# -- SMT / EF / refinement integration ---------------------------------------


def test_smt_solver_certifies_unsat():
    from repro.smt.solver import CheckResult, SmtSolver
    from repro.smt.terms import bool_and, bool_not, bool_var

    solver = SmtSolver(certify=True)
    x = bool_var("x")
    solver.assert_term(bool_and(x, bool_not(x)))
    assert solver.check() is CheckResult.UNSAT
    assert len(solver.certificates) == 1
    cert = solver.certificates[0]
    assert cert.valid
    assert cert.digest  # CNF/var-map digest is bound into the certificate
    assert "certified" in cert.summary()


def test_smt_solver_without_certify_counts_unchecked():
    from repro.smt import solver as smt_solver
    from repro.smt.solver import CheckResult, SmtSolver
    from repro.smt.terms import bool_and, bool_not, bool_var

    before = smt_solver.TELEMETRY.unchecked_unsat
    solver = SmtSolver()
    x = bool_var("y")
    solver.assert_term(bool_and(x, bool_not(x)))
    assert solver.check() is CheckResult.UNSAT
    assert solver.certificates == []
    assert smt_solver.TELEMETRY.unchecked_unsat == before + 1


def test_exists_forall_certify_bundles_certificates():
    from repro.smt.exists_forall import (
        EFResult,
        QuantVar,
        solve_exists_forall,
    )
    from repro.smt.terms import TRUE, bv_add, bv_eq, bv_var

    # psi = commutativity, universally true, so "forall x,y. not psi" is
    # unsatisfiable and the EF query answers UNSAT — with certificates.
    x, y = bv_var("x", 4), bv_var("y", 4)
    psi = bv_eq(bv_add(x, y), bv_add(y, x))
    outcome = solve_exists_forall(
        TRUE, psi, [QuantVar("x", 4), QuantVar("y", 4)], certify=True
    )
    assert outcome.result is EFResult.UNSAT
    assert outcome.certificates
    assert all(c.valid for c in outcome.certificates)


def test_refinement_certify_keeps_verdicts_and_attaches_certificates():
    from repro.refinement.check import VerifyOptions
    from repro.suite.runner import _run_one_test
    from repro.suite.unittests import build_corpus

    corpus = {t.name: t for t in build_corpus()}
    for name in ["simplify-max-pattern", "combine-add-self"]:
        test = corpus[name]
        plain = _run_one_test(test, VerifyOptions(), False, 1, None)
        cert = _run_one_test(test, VerifyOptions(certify=True), False, 1, None)
        assert plain.verdicts == cert.verdicts
        assert cert.certified_unsat > 0
        assert cert.cert_failures == 0
        assert plain.certified_unsat == 0


def test_unsound_fault_caught_only_with_certify():
    from repro.harness import faults
    from repro.harness.faults import FaultPlan, FaultSpec
    from repro.refinement.check import Verdict, VerifyOptions
    from repro.suite.runner import _run_one_test
    from repro.suite.unittests import build_corpus

    corpus = {t.name: t for t in build_corpus()}
    test = corpus["combine-add-self"]  # EF query with conflicts: arm fires
    plan = FaultPlan({test.name: FaultSpec(kind="unsound", site="ef")})

    # E-graph off: the rung would discharge this query before the EF
    # solver runs, and the fault under test is injected at the EF site.
    with faults.activate(plan):
        caught = _run_one_test(
            test, VerifyOptions(certify=True, egraph=False), False, 1, None
        )
    assert caught.verdicts.get(Verdict.SOLVER_UNSOUND.value) == 1
    assert caught.cert_failures >= 1

    with faults.activate(plan):
        silent = _run_one_test(test, VerifyOptions(egraph=False), False, 1, None)
    # Without certification the bogus UNSAT is silently trusted.
    assert Verdict.SOLVER_UNSOUND.value not in silent.verdicts
    assert silent.verdicts.get(Verdict.CORRECT.value, 0) >= 1


def test_solver_unsound_describe_mentions_checker():
    from repro.refinement.check import (
        RefinementResult,
        Verdict,
    )

    result = RefinementResult(Verdict.SOLVER_UNSOUND)
    text = result.describe()
    assert "SOLVER UNSOUND" in text


def test_unsat_core_notes_surface_in_refinement_result():
    from repro.refinement.check import VerifyOptions, verify_refinement
    from repro.ir.parser import parse_module

    # A target that drops a poison guarantee: INCORRECT, and the inner
    # core should name which assumption families the proof leaned on.
    src = parse_module(
        """
        define i8 @f(i8 %a) {
        entry:
          %x = add i8 %a, 0
          ret i8 %x
        }
        """
    )
    tgt = parse_module(
        """
        define i8 @f(i8 %a) {
        entry:
          %x = mul i8 %a, 3
          ret i8 %x
        }
        """
    )
    result = verify_refinement(
        src.definitions()[0],
        tgt.definitions()[0],
        src,
        tgt,
        VerifyOptions(certify=True),
    )
    assert result.verdict.value == "incorrect"
    assert any("unsat core" in note for note in result.notes)
