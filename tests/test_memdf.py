"""Tests for the memory-aware static analysis layer.

Covers the points-to/provenance domain, the store/load dataflow facts,
their memo on sealed functions (back-to-back tests in one worker), the
memory lint rules, the memdf-driven prescreen rules — and a differential
fuzz pass that checks every published fact against the concrete
interpreter on random straight-line memory IR.
"""

import random

import pytest

from repro.analysis.memdf import analyze_memdf
from repro.analysis.pointsto import (
    PointsToFact,
    analyze_pointsto,
    assign_alloca_bids,
)
from repro.analysis.verify import lint_function
from repro.ir.instructions import Alloca, Load, Store
from repro.ir.interp import POISON, Interpreter, UndefinedBehavior
from repro.ir.parser import parse_module
from repro.ir.types import PointerType
from repro.refinement.check import Verdict, VerifyOptions, verify_refinement
from repro.semantics.memory import build_layout


def _layout_for(mod, fn, config=None):
    ptr_args = [a.name for a in fn.args if isinstance(a.type, PointerType)]
    num_allocas = sum(
        1
        for b in fn.blocks.values()
        for i in b.instructions
        if isinstance(i, Alloca)
    )
    return build_layout(mod.globals, ptr_args, num_allocas, config)


def _facts(ir):
    mod = parse_module(ir)
    fn = mod.definitions()[0]
    layout = _layout_for(mod, fn)
    return mod, fn, layout, analyze_memdf(fn, layout)


# ---------------------------------------------------------------------------
# points-to domain
# ---------------------------------------------------------------------------


def test_pointsto_alloca_gep_select():
    ir = """
    define i8 @f(ptr %p, i1 %c) {
    entry:
      %a = alloca i8
      %b = alloca [4 x i8]
      %g = getelementptr i8, ptr %b, i8 2
      %s = select i1 %c, ptr %a, ptr %g
      %v = load i8, ptr %s
      ret i8 %v
    }
    """
    mod = parse_module(ir)
    fn = mod.definitions()[0]
    layout = _layout_for(mod, fn)
    bids = assign_alloca_bids(fn, layout)
    facts = analyze_pointsto(fn, layout)
    assert facts["a"] == PointsToFact(frozenset({bids["a"]}), (0, 0))
    assert facts["b"] == PointsToFact(frozenset({bids["b"]}), (0, 0))
    assert facts["g"] == PointsToFact(frozenset({bids["b"]}), (2, 2))
    assert facts["s"].bids == frozenset({bids["a"], bids["b"]})
    assert facts["s"].off == (0, 2)
    # The pointer argument may be null or its own shared block, with a
    # caller-chosen offset.
    arg_bid = layout.shared_blocks[0].bid
    assert facts["p"] == PointsToFact(frozenset({0, arg_bid}), None)


def test_pointsto_loaded_pointer_is_top():
    ir = """
    define i8 @f(ptr %p) {
    entry:
      %q = load ptr, ptr %p
      %v = load i8, ptr %q
      ret i8 %v
    }
    """
    mod = parse_module(ir)
    fn = mod.definitions()[0]
    facts = analyze_pointsto(fn, _layout_for(mod, fn))
    assert facts["q"].is_top


def test_may_overlap_ignores_null_block():
    a = PointsToFact(frozenset({0, 3}), (0, 0))
    b = PointsToFact(frozenset({0, 4}), (0, 0))
    assert not a.may_overlap(b, 1, 1)  # only the (UB) null block is common
    c = PointsToFact(frozenset({3}), (2, 2))
    assert not a.may_overlap(c, 2, 1)  # [0,2) vs [2,3): disjoint ranges
    assert a.may_overlap(c, 3, 1)


# ---------------------------------------------------------------------------
# memory dataflow facts
# ---------------------------------------------------------------------------


def test_memdf_forwarding_and_clobber():
    ir = """
    define i8 @f(ptr %p, i8 %v) {
    entry:
      %a = alloca i8
      store i8 %v, ptr %a
      %l = load i8, ptr %a
      ret i8 %l
    }
    """
    _, fn, layout, mdf = _facts(ir)
    loads = [
        i
        for b in fn.blocks.values()
        for i in b.instructions
        if isinstance(i, Load)
    ]
    assert id(loads[0]) in mdf.forwards
    bids = assign_alloca_bids(fn, layout)
    assert mdf.clobbered == frozenset({bids["a"]})
    assert mdf.clobbered_shared_writable() == frozenset()
    assert mdf.resolve_return() == ("arg", "v", "i8")


def test_memdf_may_alias_store_blocks_forwarding():
    ir = """
    define i8 @f(ptr %p, i8 %v) {
    entry:
      %q = getelementptr i8, ptr %p, i8 0
      %a = load i8, ptr %p
      store i8 %v, ptr %q
      %b = load i8, ptr %p
      ret i8 %b
    }
    """
    _, fn, layout, mdf = _facts(ir)
    # The store through %q may alias %p, so nothing forwards to %b and
    # the shared arg block is clobbered.
    assert mdf.resolve_return() is None
    assert mdf.clobbered_shared_writable() != frozenset()


def test_memdf_dead_store_and_observer():
    dead_ir = """
    define void @f(ptr %p, i8 %v) {
    entry:
      store i8 %v, ptr %p
      store i8 9, ptr %p
      ret void
    }
    """
    _, fn, _, mdf = _facts(dead_ir)
    stores = [
        i
        for b in fn.blocks.values()
        for i in b.instructions
        if isinstance(i, Store)
    ]
    assert id(stores[0]) in mdf.dead_stores
    live_ir = """
    define i8 @f(ptr %p, i8 %v) {
    entry:
      %q = getelementptr i8, ptr %p, i8 0
      store i8 %v, ptr %p
      %l = load i8, ptr %q
      store i8 9, ptr %p
      ret i8 %l
    }
    """
    _, fn2, _, mdf2 = _facts(live_ir)
    assert mdf2.dead_stores == frozenset()


def test_memdf_oob_classification():
    ir = """
    define i64 @f(ptr %p) {
    entry:
      %v = load i64, ptr %p
      ret i64 %v
    }
    """
    _, fn, _, mdf = _facts(ir)  # arg blocks are 4 bytes; an i64 never fits
    (fact,) = mdf.access.values()
    assert fact.oob and not fact.inbounds
    assert mdf.entry_oob
    inb_ir = """
    define i8 @f() {
    entry:
      %a = alloca [2 x i8]
      %q = getelementptr i8, ptr %a, i8 1
      %v = load i8, ptr %q
      ret i8 %v
    }
    """
    _, fn2, _, mdf2 = _facts(inb_ir)
    load_fact = [
        mdf2.access[id(i)]
        for b in fn2.blocks.values()
        for i in b.instructions
        if isinstance(i, Load)
    ][0]
    assert load_fact.inbounds and not load_fact.oob


def test_memdf_call_escapes_everything():
    ir = """
    declare void @ext(ptr)

    define i8 @f(ptr %p, i8 %v) {
    entry:
      store i8 %v, ptr %p
      call void @ext(ptr %p)
      %l = load i8, ptr %p
      ret i8 %l
    }
    """
    _, fn, _, mdf = _facts(ir)
    assert mdf.has_calls
    assert mdf.clobbered is None
    assert mdf.forwards == {}


# ---------------------------------------------------------------------------
# facts live on the sealed function they describe
# ---------------------------------------------------------------------------

STORE_LOAD = """
define i8 @f(ptr %p, i8 %v) {
entry:
  store i8 %v, ptr %p
  %l = load i8, ptr %p
  ret i8 %l
}
"""


def _sealed_facts():
    mod = parse_module(STORE_LOAD)
    fn = mod.definitions()[0].seal()
    layout = _layout_for(mod, fn)
    lint_function(fn, mod)
    return fn, analyze_memdf(fn, layout)


def test_sealed_function_and_its_facts_die_together():
    """No fact holds its function strongly: the last reference going frees
    the function by reference counting alone, with its facts."""
    import gc
    import weakref

    from repro.ir.dominators import dominator_tree

    fn, mdf = _sealed_facts()
    assert analyze_memdf(fn, mdf.layout) is mdf  # memoized on the function
    refs = [weakref.ref(x) for x in (fn, mdf, dominator_tree(fn))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del fn, mdf
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_memdf_outliving_its_function_raises():
    import gc

    fn, mdf = _sealed_facts()
    assert mdf.resolve_return() == ("arg", "v", "i8")
    enabled = gc.isenabled()
    gc.disable()
    try:
        del fn
        with pytest.raises(ReferenceError):
            mdf.resolve_return()
    finally:
        if enabled:
            gc.enable()


def test_unsealed_analysis_leaves_nothing_behind():
    """An unsealed function is analysed afresh on every call and keeps no
    memo, so nothing outlives the call but the returned facts."""
    import gc
    import weakref

    mod = parse_module(STORE_LOAD)
    fn = mod.definitions()[0]
    layout = _layout_for(mod, fn)
    first = analyze_memdf(fn, layout)
    lint_function(fn, mod)
    assert analyze_memdf(fn, layout) is not first
    assert not fn.sealed and fn._facts is None
    fn_ref = weakref.ref(fn)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del fn, mod
        assert fn_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_two_corpus_tests_back_to_back_one_worker():
    """Regression: one in-process worker runs two memory tests in a row.

    Facts live on each test's own sealed functions, so nothing of the
    first test can alias into the second.
    """
    from repro.suite.runner import run_suite
    from repro.suite.unittests import UNIT_TESTS

    names = {"gvn-store-forward", "select-of-allocas-store"}
    tests = [t for t in UNIT_TESTS if t.name in names]
    assert len(tests) == 2
    outcome = run_suite(tests, VerifyOptions(timeout_s=30.0), jobs=1)
    assert outcome.tally.correct == 2
    assert not outcome.clean_failures


# ---------------------------------------------------------------------------
# memdf-driven prescreen rules and verdict parity
# ---------------------------------------------------------------------------


def _verify(ir_src, ir_tgt, **kwargs):
    src = parse_module(ir_src)
    tgt = parse_module(ir_tgt)
    return verify_refinement(
        src.definitions()[0],
        tgt.definitions()[0],
        src,
        tgt,
        VerifyOptions(timeout_s=30.0, **kwargs),
    )


def test_prescreen_rules_fire_and_agree_with_solver():
    from repro.analysis.prescreen import STATS

    fwd_ir = """
    define i8 @f(ptr %p, i8 %v) {
    entry:
      store i8 %v, ptr %p
      %l = load i8, ptr %p
      ret i8 %l
    }
    """
    tgt_ir = """
    define i8 @f(ptr %p, i8 %v) {
    entry:
      store i8 %v, ptr %p
      ret i8 %v
    }
    """
    STATS.by_rule.clear()
    assert _verify(fwd_ir, tgt_ir).verdict is Verdict.CORRECT
    assert STATS.by_rule.get("load-forward", 0) >= 1
    assert _verify(fwd_ir, tgt_ir, memdf=False).verdict is Verdict.CORRECT

    disjoint_ir = """
    define i8 @f(ptr %p, i1 %c, i8 %v) {
    entry:
      %a = alloca i8
      %b = alloca i8
      %q = select i1 %c, ptr %a, ptr %b
      store i8 %v, ptr %q
      %r = load i8, ptr %q
      ret i8 %r
    }
    """
    STATS.by_rule.clear()
    assert _verify(disjoint_ir, disjoint_ir).verdict is Verdict.CORRECT
    assert STATS.by_rule.get("alias-disjoint", 0) >= 1
    assert _verify(disjoint_ir, disjoint_ir, memdf=False).verdict is Verdict.CORRECT

    oob_ir = """
    define i64 @f(ptr %p) {
    entry:
      %v = load i64, ptr %p
      ret i64 %v
    }
    """
    STATS.by_rule.clear()
    assert _verify(oob_ir, oob_ir).verdict is Verdict.CORRECT
    assert STATS.by_rule.get("oob-ub", 0) >= 1
    assert _verify(oob_ir, oob_ir, memdf=False).verdict is Verdict.CORRECT


def test_memdf_never_masks_a_miscompilation():
    src = """
    define i8 @f(ptr %p, i8 %v) {
    entry:
      %q = getelementptr i8, ptr %p, i8 0
      %a = load i8, ptr %p
      store i8 %v, ptr %q
      %b = load i8, ptr %p
      ret i8 %b
    }
    """
    tgt = """
    define i8 @f(ptr %p, i8 %v) {
    entry:
      %q = getelementptr i8, ptr %p, i8 0
      %a = load i8, ptr %p
      store i8 %v, ptr %q
      ret i8 %a
    }
    """
    assert _verify(src, tgt).verdict is Verdict.INCORRECT
    assert _verify(src, tgt, memdf=False).verdict is Verdict.INCORRECT


# ---------------------------------------------------------------------------
# memory lint rules
# ---------------------------------------------------------------------------


def _lint(ir):
    mod = parse_module(ir)
    fn = mod.definitions()[0]
    return lint_function(fn, mod)


def test_lint_flags_provable_oob_access():
    diags = _lint(
        """
        define i8 @f() {
        entry:
          %a = alloca i8
          %q = getelementptr i8, ptr %a, i8 4
          %v = load i8, ptr %q
          ret i8 %v
        }
        """
    )
    assert any(d.code == "access-oob" for d in diags)


def test_lint_allows_arg_block_accesses():
    # Argument-block sizes are a model artifact; accesses through them
    # must never be flagged as ill-formed IR.
    diags = _lint(
        """
        define i8 @f(ptr %p) {
        entry:
          %q = getelementptr i8, ptr %p, i8 64
          %v = load i8, ptr %q
          ret i8 %v
        }
        """
    )
    assert not any(d.code == "access-oob" for d in diags)


def test_lint_flags_gep_on_non_pointer():
    diags = _lint(
        """
        define i8 @f(i8 %x) {
        entry:
          %q = getelementptr i8, i8 %x, i8 1
          ret i8 %x
        }
        """
    )
    assert any(d.code == "gep-non-pointer" for d in diags)


def test_lint_warns_on_returned_local():
    diags = _lint(
        """
        define ptr @f() {
        entry:
          %a = alloca i8
          ret ptr %a
        }
        """
    )
    assert any(d.code == "dangling-local" for d in diags)


# ---------------------------------------------------------------------------
# differential fuzz: facts vs the concrete interpreter
# ---------------------------------------------------------------------------


class _TracingInterpreter(Interpreter):
    """Records (instruction, decoded pointer, outcome) per memory access."""

    def __init__(self, module):
        super().__init__(module)
        self.alloca_interp_bid = {}  # alloca name -> interp bid
        self.trace = []  # (inst, interp_bid, off, ub: bool)

    def _execute(self, inst, env):
        if isinstance(inst, (Load, Store)):
            ptr = self._operand(inst.pointer, env)
            bid, off = (None, None) if ptr is POISON else self._decode_ptr(ptr)
            try:
                super()._execute(inst, env)
            except UndefinedBehavior:
                self.trace.append((inst, bid, off, True))
                raise
            self.trace.append((inst, bid, off, False))
            return
        super()._execute(inst, env)
        if isinstance(inst, Alloca):
            bid, _ = self._decode_ptr(env[inst.name])
            self.alloca_interp_bid[inst.name] = bid


def _gen_memory_fn(rng):
    """Random straight-line memory IR over 4/8-bit ints, no branches."""
    width = rng.choice([4, 8])
    ty = f"i{width}"
    lines = []
    ptrs = []
    num_allocas = rng.randint(1, 3)
    for i in range(num_allocas):
        size = rng.randint(1, 4)
        lines.append(f"  %a{i} = alloca [{size} x i8]")
        ptrs.append(f"%a{i}")
    ints = ["%x0", "%x1"]
    k = 0
    for _ in range(rng.randint(3, 10)):
        k += 1
        roll = rng.random()
        if roll < 0.25:
            base = rng.choice(ptrs)
            off = rng.randint(-1, 4)
            lines.append(f"  %p{k} = getelementptr i8, ptr {base}, i8 {off}")
            ptrs.append(f"%p{k}")
        elif roll < 0.40 and len(ptrs) >= 2:
            a, b = rng.sample(ptrs, 2)
            lines.append(f"  %c{k} = icmp ult {ty} %x0, %x1")
            lines.append(f"  %p{k} = select i1 %c{k}, ptr {a}, ptr {b}")
            ptrs.append(f"%p{k}")
        elif roll < 0.72:
            val = rng.choice(ints + [str(rng.randint(0, (1 << width) - 1))])
            lines.append(f"  store {ty} {val}, ptr {rng.choice(ptrs)}")
        else:
            lines.append(f"  %l{k} = load {ty}, ptr {rng.choice(ptrs)}")
            ints.append(f"%l{k}")
    ret = rng.choice(ints)
    lines.append(f"  ret {ty} {ret}")
    body = "\n".join(lines)
    return f"define {ty} @f({ty} %x0, {ty} %x1) {{\nentry:\n{body}\n}}", width


def _check_facts_against_interp(ir, width, rng):
    mod = parse_module(ir)
    fn = mod.definitions()[0]
    layout = _layout_for(mod, fn)
    mdf = analyze_memdf(fn, layout)
    layout_bids = assign_alloca_bids(fn, layout)

    interp = _TracingInterpreter(mod)
    args = [rng.randint(0, (1 << width) - 1) for _ in range(2)]
    ub = False
    result = None
    try:
        result = interp.run(fn, list(args)).value
    except UndefinedBehavior:
        ub = True

    bid_map = {
        interp_bid: layout_bids[name]
        for name, interp_bid in interp.alloca_interp_bid.items()
        if name in layout_bids
    }
    env = {"x0": args[0], "x1": args[1]}
    for inst, interp_bid, off, access_ub in interp.trace:
        fact = mdf.access[id(inst)]
        # No pointer in this IR is ever poison (plain geps, selects on
        # defined conditions), so every UB here is an OOB access.
        if access_ub:
            assert not fact.inbounds, f"inbounds access raised UB: {inst!r}"
        if fact.oob:
            assert access_ub, f"provably-OOB access executed fine: {inst!r}"
        # Points-to soundness: the concrete (bid, off) of every executed
        # defined pointer lies inside the abstract location.
        if fact.pts.bids is not None:
            assert bid_map[interp_bid] in fact.pts.bids
        if fact.pts.off is not None:
            lo, hi = fact.pts.off
            assert lo <= off <= hi

    if ub:
        return
    # Forwarded loads returned the stored operand's value (re-execute and
    # compare the load result with the store operand in the final env).
    replay = _TracingInterpreter(mod)
    renv = {}
    for arg, value in zip(fn.args, args):
        renv[arg.name] = value
    for inst in fn.entry.instructions:
        from repro.ir.instructions import Ret

        if isinstance(inst, Ret):
            break
        replay._execute(inst, renv)
        fwd = mdf.forwards.get(id(inst))
        if fwd is not None:
            assert renv[inst.name] == replay._operand(fwd.value, renv)

    # Deleting provably dead stores cannot change the (UB-free) result.
    if mdf.dead_stores:
        mod2 = parse_module(ir)
        fn2 = mod2.definitions()[0]
        dead_positions = {
            pos
            for pos, inst in enumerate(fn.entry.instructions)
            if id(inst) in mdf.dead_stores
        }
        fn2.entry.instructions = [
            inst
            for pos, inst in enumerate(fn2.entry.instructions)
            if pos not in dead_positions
        ]
        assert Interpreter(mod2).run(fn2, list(args)).value == result

    # A resolved return symbol names the actual result.
    sym = mdf.resolve_return()
    if sym is not None and result is not POISON:
        if sym[0] == "const":
            assert result == sym[1]
        else:
            assert result == dict(zip([a.name for a in fn.args], args))[sym[1]]


def test_differential_fuzz_memdf_vs_interp():
    rng = random.Random(20260808)
    for trial in range(120):
        ir, width = _gen_memory_fn(rng)
        try:
            _check_facts_against_interp(ir, width, rng)
        except AssertionError:
            print(f"--- fuzz trial {trial} ---\n{ir}")
            raise
