"""Tests for the bit-blasting QF_BV solver: circuits vs. concrete evaluation."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SatSolver
from repro.smt import CheckResult, ResourceLimits, SmtSolver
from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster


def _check_sat(formula):
    s = SmtSolver()
    s.assert_term(formula)
    return s.check(), s


def test_trivial_sat_unsat():
    x = T.bool_var("x")
    res, _ = _check_sat(x)
    assert res is CheckResult.SAT
    res, _ = _check_sat(T.bool_and(x, T.bool_not(x)))
    assert res is CheckResult.UNSAT


def test_bv_equation():
    a = T.bv_var("a", 8)
    res, s = _check_sat(T.bv_eq(T.bv_add(a, T.bv_const(1, 8)), T.bv_const(0, 8)))
    assert res is CheckResult.SAT
    assert s.model_env()["a"] == 255


def test_cnf_stats_counts_clauses():
    sat = SatSolver()
    blaster = BitBlaster(sat)
    a, b = T.bv_var("a", 8), T.bv_var("b", 8)
    blaster.assert_term(T.bv_eq(T.bv_add(a, b), T.bv_const(3, 8)))
    stats = blaster.cnf_stats()
    assert stats["clauses"] == sat.num_clauses > 0
    assert stats["vars"] == sat.num_vars > 0


def test_bv_unsat_parity():
    # x + x is always even: x + x == 1 has no solution.
    x = T.bv_var("x", 6)
    res, _ = _check_sat(T.bv_eq(T.bv_add(x, x), T.bv_const(1, 6)))
    assert res is CheckResult.UNSAT


def test_mul_commutes_valid():
    a = T.bv_var("a", 5)
    b = T.bv_var("b", 5)
    neq = T.bool_not(T.bv_eq(T.bv_mul(a, b), T.bv_mul(b, a)))
    res, _ = _check_sat(neq)
    assert res is CheckResult.UNSAT


def test_de_morgan_valid():
    a = T.bv_var("a", 4)
    b = T.bv_var("b", 4)
    lhs = T.bv_not(T.bv_and(a, b))
    rhs = T.bv_or(T.bv_not(a), T.bv_not(b))
    res, _ = _check_sat(T.bool_not(T.bv_eq(lhs, rhs)))
    assert res is CheckResult.UNSAT


def test_udiv_relation():
    a = T.bv_var("a", 6)
    b = T.bv_var("b", 6)
    # Find a, b with a / b == 5 and a % b == 2.
    f = T.bool_and(
        T.bv_eq(T.bv_udiv(a, b), T.bv_const(5, 6)),
        T.bv_eq(T.bv_urem(a, b), T.bv_const(2, 6)),
        T.bool_not(T.bv_eq(b, T.bv_const(0, 6))),
    )
    res, s = _check_sat(f)
    assert res is CheckResult.SAT
    env = s.model_env()
    assert env["a"] // env["b"] == 5
    assert env["a"] % env["b"] == 2


def test_udiv_by_zero_semantics():
    a = T.bv_var("a", 4)
    f = T.bool_not(
        T.bv_eq(T.bv_udiv(a, T.bv_const(0, 4)), T.bv_const(15, 4))
    )
    res, _ = _check_sat(f)
    assert res is CheckResult.UNSAT  # udiv by 0 is always all-ones


def test_sdiv_sign_cases():
    a = T.bv_var("a", 4)
    # a sdiv -1 == -a for a != INT_MIN... check one concrete case via solver:
    f = T.bool_not(
        T.bv_eq(
            T.bv_sdiv(T.bv_const(6, 4), T.bv_const(0xF, 4)), T.bv_const(0xA, 4)
        )
    )
    res, _ = _check_sat(T.bool_and(f, T.bv_eq(a, a)))
    assert res is CheckResult.UNSAT


_W = 5


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << _W) - 1),
    st.integers(min_value=0, max_value=(1 << _W) - 1),
    st.sampled_from(
        ["bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvsdiv", "bvsrem",
         "bvshl", "bvlshr", "bvashr", "bvand", "bvor", "bvxor"]
    ),
)
def test_circuits_match_reference_semantics(x, y, opname):
    """For concrete x, y the circuit must force the folded result."""
    ops = {
        "bvadd": T.bv_add, "bvsub": T.bv_sub, "bvmul": T.bv_mul,
        "bvudiv": T.bv_udiv, "bvurem": T.bv_urem, "bvsdiv": T.bv_sdiv,
        "bvsrem": T.bv_srem, "bvshl": T.bv_shl, "bvlshr": T.bv_lshr,
        "bvashr": T.bv_ashr, "bvand": T.bv_and, "bvor": T.bv_or,
        "bvxor": T.bv_xor,
    }
    op = ops[opname]
    a = T.bv_var("ca", _W)
    b = T.bv_var("cb", _W)
    expected = op(T.bv_const(x, _W), T.bv_const(y, _W)).value
    s = SmtSolver()
    s.assert_term(T.bv_eq(a, T.bv_const(x, _W)))
    s.assert_term(T.bv_eq(b, T.bv_const(y, _W)))
    # Build the operation over *variables* so folding can't bypass circuits.
    result_var = T.bv_var("cr", _W)
    s.assert_term(T.bv_eq(result_var, op(a, b)))
    assert s.check() is CheckResult.SAT
    assert s.model_env()["cr"] == expected, (opname, x, y, expected)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << _W) - 1),
    st.integers(min_value=0, max_value=(1 << _W) - 1),
)
def test_comparison_circuits(x, y):
    a = T.bv_var("pa", _W)
    b = T.bv_var("pb", _W)
    s = SmtSolver()
    s.assert_term(T.bv_eq(a, T.bv_const(x, _W)))
    s.assert_term(T.bv_eq(b, T.bv_const(y, _W)))
    ult = T.bool_var("r_ult")
    slt = T.bool_var("r_slt")
    s.assert_term(T.bool_xor(ult, T.bool_not(T.bv_ult(a, b))))
    s.assert_term(T.bool_xor(slt, T.bool_not(T.bv_slt(a, b))))
    assert s.check() is CheckResult.SAT
    env = s.model_env()
    sx = x - (1 << _W) if x >= 1 << (_W - 1) else x
    sy = y - (1 << _W) if y >= 1 << (_W - 1) else y
    assert env["r_ult"] == (x < y)
    assert env["r_slt"] == (sx < sy)


def test_concat_extract_roundtrip():
    a = T.bv_var("xa", 4)
    b = T.bv_var("xb", 4)
    cat = T.bv_concat(a, b)  # a is the high part
    f = T.bool_not(
        T.bool_and(
            T.bv_eq(T.bv_extract(cat, 7, 4), a),
            T.bv_eq(T.bv_extract(cat, 3, 0), b),
        )
    )
    res, _ = _check_sat(f)
    assert res is CheckResult.UNSAT


def test_sext_circuit():
    a = T.bv_var("sxa", 3)
    wide = T.bv_sext(a, 6)
    # sext(a) interpreted signed equals a signed: check via slt both ways.
    f = T.bool_not(
        T.bv_eq(
            T.bv_ashr(T.bv_shl(wide, T.bv_const(3, 6)), T.bv_const(3, 6)), wide
        )
    )
    res, _ = _check_sat(f)
    assert res is CheckResult.UNSAT


def test_resource_limit_timeout():
    # A multiplication inversion at 14 bits with a tiny conflict budget.
    a = T.bv_var("ta", 14)
    b = T.bv_var("tb", 14)
    f = T.bool_and(
        T.bv_eq(T.bv_mul(a, b), T.bv_const(12345, 14)),
        T.bv_ult(T.bv_const(1, 14), a),
        T.bv_ult(T.bv_const(1, 14), b),
    )
    s = SmtSolver()
    s.assert_term(f)
    res = s.check(ResourceLimits(max_conflicts=1))
    assert res in (CheckResult.TIMEOUT, CheckResult.SAT)  # tiny budget


def test_memout_limit():
    a = T.bv_var("ma", 12)
    b = T.bv_var("mb", 12)
    f = T.bv_eq(T.bv_mul(a, b), T.bv_const(3001, 12))
    s = SmtSolver()
    s.assert_term(f)
    res = s.check(ResourceLimits(max_learned_lits=1))
    assert res in (CheckResult.MEMOUT, CheckResult.SAT)


def test_ite_bv_circuit():
    c = T.bool_var("ic")
    a = T.bv_var("ia", 4)
    f = T.bool_and(
        T.bv_eq(T.bv_ite(c, a, T.bv_const(3, 4)), T.bv_const(7, 4)),
        T.bool_not(c),
    )
    res, _ = _check_sat(f)
    assert res is CheckResult.UNSAT


def test_assumptions_do_not_stick():
    x = T.bool_var("x")
    s = SmtSolver()
    s.assert_term(T.bool_or(x, T.bool_not(x)))
    assert s.check(assumptions=[T.bool_not(x)]) is CheckResult.SAT
    assert s.check(assumptions=[x]) is CheckResult.SAT
