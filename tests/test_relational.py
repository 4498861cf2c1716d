"""Tests for the relational abstract interpreter (PR 10).

Three layers of coverage:

* unit tests for block alignment and the relational value numbering,
  including the soundness-critical *negative* cases (no ``sub x, x -> 0``,
  no ``select c, x, x -> x``, freeze pairing one-to-one);
* a differential fuzz loop checking every claimed congruence of random
  straight-line pairs against paired concrete ``ir.interp`` runs;
* end-to-end parity: corpus verdicts are byte-identical with and without
  ``--no-relational`` (± ``--certify``), and every knownbugs
  miscompilation stays DETECTED with the analysis on.
"""

import random

import pytest

from repro.analysis.prescreen import (
    RELATIONAL_RULES,
    relational_rule_hits,
)
from repro.analysis.relational import STATS as REL_STATS, analyze_relational
from repro.ir.interp import POISON, UndefinedBehavior, run_function
from repro.ir.parser import parse_module
from repro.ir.values import Register
from repro.refinement.check import Verdict, VerifyOptions, verify_refinement


def _fn(text):
    return parse_module(text).definitions()[0]


def _pair(src_text, tgt_text):
    return _fn(src_text), _fn(tgt_text)


def _reg(fn, name):
    for inst in fn.instructions():
        if getattr(inst, "name", None) == name:
            return Register(inst.type, name)
    raise AssertionError(f"no register %{name}")


# ---------------------------------------------------------------------------
# Block alignment
# ---------------------------------------------------------------------------


DIAMOND = (
    "define i8 @f(i8 %a) {\n"
    "entry:\n  %c = icmp eq i8 %a, 0\n  br i1 %c, label %t, label %e\n"
    "t:\n  %x = add i8 %a, 1\n  br label %join\n"
    "e:\n  %y = add i8 %a, 2\n  br label %join\n"
    "join:\n  %r = phi i8 [ %x, %t ], [ %y, %e ]\n  ret i8 %r\n}"
)


def test_align_identical_diamond_fully_certified():
    src, tgt = _pair(DIAMOND, DIAMOND)
    result = analyze_relational(src, tgt)
    pairs = dict(result.alignment.pairs)
    assert pairs == {"entry": "entry", "t": "t", "e": "e", "join": "join"}
    assert set(result.alignment.certified) == set(result.alignment.pairs)


def test_align_renamed_blocks():
    tgt_text = DIAMOND.replace("%t", "%bb1").replace("%e", "%bb2").replace(
        "t:", "bb1:"
    ).replace("e:", "bb2:").replace("%join", "%m").replace("join:", "m:")
    src, tgt = _pair(DIAMOND, tgt_text)
    result = analyze_relational(src, tgt)
    assert dict(result.alignment.certified) == {
        "entry": "entry",
        "t": "bb1",
        "e": "bb2",
        "join": "m",
    }
    assert result.ret_congruent()


def test_align_mismatched_terminator_falls_back():
    tgt = (
        "define i8 @f(i8 %a) {\n"
        "entry:\n  ret i8 %a\n}"
    )
    src, tgt = _pair(DIAMOND, tgt)
    result = analyze_relational(src, tgt)
    # Entry still pairs (lockstep start), but nothing past the mismatch.
    assert dict(result.alignment.pairs) == {"entry": "entry"}
    assert not result.ret_congruent()


def test_align_swapped_branch_targets_not_aligned():
    tgt_text = DIAMOND.replace(
        "br i1 %c, label %t, label %e", "br i1 %c, label %e, label %t"
    )
    src, tgt = _pair(DIAMOND, tgt_text)
    result = analyze_relational(src, tgt)
    cert = dict(result.alignment.certified)
    # true/false targets cross over: %t pairs with %e, which computes a
    # different value, so the phi and return must not be congruent.
    assert not result.ret_congruent()
    assert cert.get("entry") == "entry"


# ---------------------------------------------------------------------------
# Relational value numbering
# ---------------------------------------------------------------------------


def test_commuted_mul_congruent():
    src = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %x = mul i8 %a, %b\n  ret i8 %x\n}"
    tgt = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %y = mul i8 %b, %a\n  ret i8 %y\n}"
    s, t = _pair(src, tgt)
    result = analyze_relational(s, t)
    assert result.congruent(_reg(s, "x"), _reg(t, "y"))
    assert result.ret_congruent()


def test_affine_offsets_fold_across_chains():
    src = "define i8 @f(i8 %a) {\nentry:\n  %x = add i8 %a, 3\n  ret i8 %x\n}"
    tgt = (
        "define i8 @f(i8 %a) {\nentry:\n  %p = add i8 %a, 1\n"
        "  %q = add i8 %p, 2\n  ret i8 %q\n}"
    )
    s, t = _pair(src, tgt)
    result = analyze_relational(s, t)
    assert result.congruent(_reg(s, "x"), _reg(t, "q"))
    assert result.offset_between(_reg(s, "x"), _reg(t, "p")) == 2


def test_flags_must_match_exactly():
    src = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %x = add nsw i8 %a, %b\n  ret i8 %x\n}"
    tgt = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %y = add i8 %a, %b\n  ret i8 %y\n}"
    s, t = _pair(src, tgt)
    result = analyze_relational(s, t)
    # Dropping nsw is a *refinement*, not an equivalence: the poison bits
    # differ, so the classes must stay apart in both directions.
    assert not result.congruent(_reg(s, "x"), _reg(t, "y"))


def test_no_sub_x_x_fold():
    src = "define i8 @f(i8 %a) {\nentry:\n  %x = sub i8 %a, %a\n  ret i8 %x\n}"
    tgt = "define i8 @f(i8 %a) {\nentry:\n  %y = add i8 %a, 0\n  %z = sub i8 %a, %a\n  ret i8 %z\n}"
    s, t = _pair(src, tgt)
    result = analyze_relational(s, t)
    zero = parse_module(
        "define i8 @g() {\nentry:\n  ret i8 0\n}"
    ).definitions()[0].entry.terminator.value
    # sub %a, %a keeps its sub node: never congruent to the constant 0
    # (per-use undef readings of %a may differ).
    assert result.value_vn("src", _reg(s, "x")) != result.value_vn("src", zero)
    # ... but the two syntactically identical subs do pair up.
    assert result.congruent(_reg(s, "x"), _reg(t, "z"))


def test_identity_folds_survive_operand():
    src = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %x = xor i8 %a, %b\n  ret i8 %x\n}"
    tgt = (
        "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %p = xor i8 %a, %b\n"
        "  %q = xor i8 %p, 0\n  ret i8 %q\n}"
    )
    s, t = _pair(src, tgt)
    result = analyze_relational(s, t)
    assert result.congruent(_reg(s, "x"), _reg(t, "q"))


def test_no_select_same_arms_fold():
    src = "define i8 @f(i1 %c, i8 %a) {\nentry:\n  %x = select i1 %c, i8 %a, i8 %a\n  ret i8 %x\n}"
    tgt = "define i8 @f(i1 %c, i8 %a) {\nentry:\n  %y = add i8 %a, 0\n  ret i8 %y\n}"
    s, t = _pair(src, tgt)
    result = analyze_relational(s, t)
    # select c, x, x forgets c's poison; must not collapse to x.
    assert not result.congruent(_reg(s, "x"), _reg(t, "y"))


def test_freeze_pairs_one_to_one():
    src = (
        "define i8 @f(i8 %a) {\nentry:\n  %x = freeze i8 %a\n"
        "  %y = freeze i8 %a\n  %r = sub i8 %x, %y\n  ret i8 %r\n}"
    )
    s, t = _pair(src, src)
    result = analyze_relational(s, t)
    # Two freezes of the same operand pair positionally, never crosswise.
    assert ("x", "x") in result.nondet_pairs
    assert ("y", "y") in result.nondet_pairs
    assert ("x", "y") not in result.nondet_pairs
    assert result.congruent(_reg(s, "x"), _reg(t, "x"))
    assert result.origin_map() == {
        "freeze_x": "freeze_x",
        "freeze_y": "freeze_y",
    }


def test_swapped_icmp_predicate_congruent():
    src = "define i1 @f(i8 %a, i8 %b) {\nentry:\n  %x = icmp sgt i8 %a, %b\n  ret i1 %x\n}"
    tgt = "define i1 @f(i8 %a, i8 %b) {\nentry:\n  %y = icmp slt i8 %b, %a\n  ret i1 %y\n}"
    s, t = _pair(src, tgt)
    result = analyze_relational(s, t)
    assert result.congruent(_reg(s, "x"), _reg(t, "y"))


def test_phi_congruence_needs_certified_alignment():
    src, tgt = _pair(DIAMOND, DIAMOND)
    result = analyze_relational(src, tgt)
    assert result.congruent(_reg(src, "r"), _reg(tgt, "r"))
    assert result.ret_congruent()


def test_first_divergence_names_the_pair():
    tgt_text = DIAMOND.replace("%x = add i8 %a, 1", "%x = add i8 %a, 9")
    src, tgt = _pair(DIAMOND, tgt_text)
    result = analyze_relational(src, tgt)
    div = result.first_divergence()
    assert div is not None
    a, b, s_reg, t_reg = div
    assert (s_reg, t_reg) == ("x", "x") and (a, b) == ("t", "t")
    assert "diverging value pair" in result.describe_divergence()
    assert "offsets differ by" in result.describe_divergence()


def test_unconditional_pairs_exclude_nondet_sources():
    src = (
        "define i8 @f(i8 %a) {\nentry:\n  %x = add i8 %a, 1\n"
        "  %y = freeze i8 %x\n  ret i8 %y\n}"
    )
    s, t = _pair(src, src)
    result = analyze_relational(s, t)
    pairs = set(result.unconditional_pairs())
    assert ("x", "x") in pairs  # pure op over an argument
    assert all(p != ("y", "y") for p in pairs)  # freeze: witness-conditional


# ---------------------------------------------------------------------------
# Prescreen rule: R-relational-equal
# ---------------------------------------------------------------------------


def test_relational_equal_discharges_commuted_pair():
    src = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %x = mul i8 %a, %b\n  ret i8 %x\n}"
    tgt = "define i8 @f(i8 %a, i8 %b) {\nentry:\n  %y = mul i8 %b, %a\n  ret i8 %y\n}"
    sm, tm = parse_module(src), parse_module(tgt)
    hits0 = relational_rule_hits()
    result = verify_refinement(
        sm.definitions()[0],
        tm.definitions()[0],
        sm,
        tm,
        VerifyOptions(timeout_s=30.0),
    )
    assert result.verdict is Verdict.CORRECT
    assert relational_rule_hits() > hits0


def test_relational_rules_registered():
    assert RELATIONAL_RULES == ("relational-equal", "relational-equal-mem")


def test_seed_counters_thread_through_stats():
    REL_STATS.reset()
    src = (
        "define i8 @f(i8 %a) {\nentry:\n  %x = freeze i8 %a\n"
        "  %r = mul i8 %x, 3\n  ret i8 %r\n}"
    )
    tgt = (
        "define i8 @f(i8 %a) {\nentry:\n  %u = freeze i8 %a\n"
        "  %s = mul i8 3, %u\n  ret i8 %s\n}"
    )
    sm, tm = parse_module(src), parse_module(tgt)
    result = verify_refinement(
        sm.definitions()[0], tm.definitions()[0], sm, tm,
        VerifyOptions(timeout_s=30.0),
    )
    assert result.verdict is Verdict.CORRECT
    assert REL_STATS.analyses > 0
    assert REL_STATS.aligned_blocks > 0


# ---------------------------------------------------------------------------
# Differential fuzz: congruence claims vs paired concrete runs
# ---------------------------------------------------------------------------

_FUZZ_OPCODES = ("add", "sub", "mul", "and", "or", "xor")
_COMMUTATIVE = {"add", "mul", "and", "or", "xor"}


def _gen_straightline(rng, width, n_insts):
    """Random straight-line function over two arguments; returns IR text
    and the list of defined register names."""
    ty = f"i{width}"
    operands = ["%a", "%b"]
    lines = []
    names = []
    for i in range(n_insts):
        op = rng.choice(_FUZZ_OPCODES)
        lhs = rng.choice(operands + [str(rng.randrange(1 << width))])
        rhs = rng.choice(operands + [str(rng.randrange(1 << width))])
        if lhs not in operands and rhs not in operands:
            lhs = rng.choice(operands)
        name = f"%t{i}"
        lines.append(f"  {name} = {op} {ty} {lhs}, {rhs}")
        operands.append(name)
        names.append(name)
    ret = names[-1] if names else "%a"
    text = (
        f"define {ty} @f({ty} %a, {ty} %b) {{\nentry:\n"
        + "\n".join(lines)
        + f"\n  ret {ty} {ret}\n}}"
    )
    return text, names


def _derive_target(rng, src_text, width):
    """Rename registers, randomly swap commutative operands, sprinkle
    identity ops and dead code — all verdict-preserving rewrites."""
    ty = f"i{width}"
    lines = src_text.splitlines()
    out = []
    rename = {}
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("%t") and " = " in stripped:
            name, rhs = stripped.split(" = ", 1)
            parts = rhs.split()
            op, lhs_tok, rhs_tok = parts[0], parts[2].rstrip(","), parts[3]
            lhs_tok = rename.get(lhs_tok, lhs_tok)
            rhs_tok = rename.get(rhs_tok, rhs_tok)
            if op in _COMMUTATIVE and rng.random() < 0.5:
                lhs_tok, rhs_tok = rhs_tok, lhs_tok
            new = "%u" + name[2:]
            rename[name] = new
            if rng.random() < 0.3 and lhs_tok.startswith("%"):
                # Identity-op insertion: reroute one operand through a
                # no-op add (the certified right-identity fold).
                pre = new + "pre"
                out.append(f"  {pre} = add {ty} {lhs_tok}, 0")
                lhs_tok = pre
            out.append(f"  {new} = {op} {ty} {lhs_tok}, {rhs_tok}")
            if rng.random() < 0.2:
                out.append(
                    f"  {new}dead = xor {ty} {new}, "
                    f"{rng.randrange(1 << width)}"
                )
        elif stripped.startswith("ret"):
            tok = stripped.split()[-1]
            out.append(f"  ret {ty} {rename.get(tok, tok)}")
        elif stripped.startswith("define"):
            out.append(line)
        elif stripped in ("entry:", "}"):
            out.append(line)
    return "\n".join(out)


def _returning(text, width, reg):
    """The same function text with its return value swapped for ``reg``."""
    ty = f"i{width}"
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip().startswith("ret "):
            lines[i] = f"  ret {ty} {reg}"
    return "\n".join(lines)


def test_differential_fuzz_congruence_vs_interp():
    rng = random.Random(20260808)
    trials = 120
    checked_pairs = 0
    for trial in range(trials):
        width = rng.choice((4, 8))
        src_text, _ = _gen_straightline(rng, width, rng.randrange(2, 7))
        tgt_text = _derive_target(rng, src_text, width)
        s, t = _pair(src_text, tgt_text)
        result = analyze_relational(s, t)
        pairs = [
            (a, b)
            for a, b in result.congruent_register_pairs()
            if a.startswith("t") and (b.startswith("u") or b.startswith("t"))
        ]
        if not pairs:
            continue
        sample = rng.sample(pairs, min(3, len(pairs)))
        for s_reg, t_reg in sample:
            sm = parse_module(_returning(src_text, width, "%" + s_reg))
            tm = parse_module(_returning(tgt_text, width, "%" + t_reg))
            for _ in range(4):
                args = [
                    rng.randrange(1 << width), rng.randrange(1 << width)
                ]
                try:
                    got_s = run_function(sm, "f", list(args))
                    got_t = run_function(tm, "f", list(args))
                except UndefinedBehavior:
                    continue
                if got_s is POISON or got_t is POISON:
                    assert got_s is got_t, (
                        f"trial {trial}: %{s_reg} vs %{t_reg} on {args}: "
                        f"poison mismatch {got_s!r} != {got_t!r}"
                    )
                else:
                    assert got_s == got_t, (
                        f"trial {trial}: %{s_reg} vs %{t_reg} on {args}: "
                        f"{got_s} != {got_t}\n{sm}\n---\n{tm}"
                    )
                checked_pairs += 1
    assert checked_pairs > 100  # the fuzz actually exercised congruences


# ---------------------------------------------------------------------------
# End-to-end parity
# ---------------------------------------------------------------------------


def _corpus_verdicts(tests, **option_overrides):
    from repro.suite.runner import run_suite

    options = VerifyOptions(**option_overrides)
    outcome = run_suite(tests, options)
    return {
        r.test: dict(sorted(r.verdicts.items())) for r in outcome.records
    }


@pytest.fixture(scope="module")
def corpus_slice():
    from repro.suite.unittests import build_corpus

    return build_corpus()[:16]


def test_corpus_verdict_parity_no_relational(corpus_slice):
    # max_ef_iterations pinned high enough that neither configuration
    # hits the CEGAR iteration ceiling: the relational seeds may only
    # *accelerate* convergence, never change a definitive verdict.
    on = _corpus_verdicts(corpus_slice, max_ef_iterations=256)
    off = _corpus_verdicts(
        corpus_slice, relational=False, max_ef_iterations=256
    )
    assert on == off


def test_corpus_verdict_parity_certified(corpus_slice):
    on = _corpus_verdicts(
        corpus_slice[:8], certify=True, max_ef_iterations=256
    )
    off = _corpus_verdicts(
        corpus_slice[:8],
        certify=True,
        relational=False,
        max_ef_iterations=256,
    )
    assert on == off


def test_options_from_old_payload_ignore_legacy_pairing():
    old = dict(VerifyOptions().to_json(), legacy_pairing=True, witness_pairing=False)
    assert VerifyOptions.from_json(old) == VerifyOptions()


def test_knownbugs_detected_and_parity_with_relational():
    from repro.harness.isolation import run_verification_job
    from repro.suite.knownbugs import KNOWN_BUGS

    for bug in KNOWN_BUGS:
        sm, tm = parse_module(bug.src), parse_module(bug.tgt)
        verdicts = {}
        for relational in (True, False):
            result = run_verification_job(
                sm.definitions()[0],
                tm.definitions()[0],
                sm,
                tm,
                VerifyOptions(timeout_s=30.0, relational=relational),
            )
            verdicts[relational] = result.verdict
            if bug.detectable:
                # Every detectable miscompilation stays DETECTED: the
                # relational rungs may only prove, never refute.
                assert result.verdict is Verdict.INCORRECT, (
                    bug.name,
                    relational,
                    result.verdict,
                )
        assert verdicts[True] is verdicts[False], (bug.name, verdicts)
