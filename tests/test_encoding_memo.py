"""Each sealed function version is unrolled and encoded once.

The refinement check memoizes a sealed version's unrolled copy (per
unroll factor) and the copy's encoding (per namespace, layout value,
known-bits fold, memdf narrowing, module inputs and intern generation) as
facts of the version, so the target of one pipeline step is reused as
the source of the next.  These tests pin the memo's key, its lifetime and
the read-only contract of a shared :class:`EncodedFunction`.
"""

from __future__ import annotations

import gc
import weakref
from collections.abc import Mapping
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.analysis.memdf import analyze_memdf
from repro.harness.deadline import Deadline
from repro.ir.parser import parse_module
from repro.refinement import check
from repro.refinement.check import Verdict, VerifyOptions, verify_refinement
from repro.semantics.encoder import _Encoder
from repro.semantics.memory import SymMemory, build_layout
from repro.smt.terms import reset_interning
from repro.suite.unittests import UNIT_TESTS
from repro.tv.plugin import validate_pipeline

OPTS = VerifyOptions(timeout_s=30.0)

STRAIGHT_IR = """
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = add i8 %a, 0
  %y = mul i8 %x, 2
  %u = add i8 %y, undef
  %z = add i8 %y, %b
  %w = sub i8 %z, %b
  ret i8 %w
}
"""

LOOP_IR = """
define i8 @f(i8 %n) {{
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i8 %i, {step}
  %c = icmp ult i8 %i1, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i8 %i1
}}
"""

MEMORY_IR = """
@g = global i8 {init}
declare i8 @ext(i8){attrs}

define i8 @f(i8 %x) {{
entry:
  %p = alloca i8
  store i8 %x, ptr %p
  %v = load i8, ptr %p
  %g0 = load i8, ptr @g
  %s = add i8 %v, %g0
  %r = call i8 @ext(i8 %s)
  ret i8 %r
}}
"""


@pytest.fixture
def encodes(monkeypatch):
    """Every function ``_Encoder.encode`` runs on, in call order."""
    seen = []
    encode = _Encoder.encode

    def counting(self):
        seen.append(self.fn)
        return encode(self)

    monkeypatch.setattr(_Encoder, "encode", counting)
    return seen


def _sealed(ir: str):
    module = parse_module(ir).seal()
    return module.definitions()[0], module


def test_pipeline_encodes_each_version_once(encodes):
    report = validate_pipeline(
        parse_module(STRAIGHT_IR), ["instsimplify", "instcombine", "dce"], OPTS
    )
    assert [r.result.verdict for r in report.records] == [Verdict.CORRECT] * 3
    # Four versions, one layout: one encoding each, not two per pair.
    assert len(encodes) == 4
    assert len({id(fn) for fn in encodes}) == 4


def test_a_version_with_a_loop_is_unrolled_once(monkeypatch, encodes):
    unrolled = []
    unroll = check.unroll_function

    def counting(fn, *args, **kwargs):
        unrolled.append(fn)
        return unroll(fn, *args, **kwargs)

    monkeypatch.setattr(check, "unroll_function", counting)
    (f, m1), (g, m2), (h, m3) = (
        _sealed(LOOP_IR.format(step=s)) for s in (1, 1, 2)
    )
    assert verify_refinement(f, g, m1, m2, OPTS).verdict is Verdict.CORRECT
    assert verify_refinement(g, h, m2, m3, OPTS).verdict is Verdict.INCORRECT
    assert len(unrolled) == 3  # f, g, h: g's copy serves both pairs
    deadline = Deadline.start(None)
    assert check._unrolled(g, 4, deadline) is check._unrolled(g, 4, deadline)
    assert check._unrolled(g, 2, deadline) is not check._unrolled(g, 4, deadline)
    assert len(encodes) == 3


def test_each_encoder_input_gets_its_own_encoding(encodes):
    fn, module = _sealed(MEMORY_IR.format(init=1, attrs=""))
    deadline = Deadline.start(None)
    layout = build_layout(module.globals, [], 1, OPTS.memory)
    mdf = analyze_memdf(fn, layout)

    def encoding(ns="a", lay=layout, opts=OPTS, memdf=mdf, mod=module):
        return check._encoding(fn, mod, ns, lay, opts, memdf, deadline)

    base = encoding()
    assert encoding() is base and len(encodes) == 1
    wider = build_layout(module.globals, [], 2, OPTS.memory)
    variants = [
        encoding(ns="b"),
        encoding(lay=wider, memdf=analyze_memdf(fn, wider)),  # alloca count
        encoding(opts=replace(OPTS, prescreen=False)),
        encoding(memdf=None),
        encoding(mod=parse_module(MEMORY_IR.format(init=2, attrs=""))),
        encoding(mod=parse_module(MEMORY_IR.format(init=1, attrs=" readnone"))),
    ]
    assert len({id(e) for e in [base] + variants}) == 7
    assert len(encodes) == 7
    # Same inputs by value, another module object: the memo answers.
    assert encoding(mod=parse_module(MEMORY_IR.format(init=1, attrs=""))) is base
    assert len(encodes) == 7


def test_no_encoding_is_reused_across_an_intern_reset(encodes):
    fn, module = _sealed(STRAIGHT_IR)
    layout = build_layout(module.globals, [], 0, OPTS.memory)
    deadline = Deadline.start(None)
    first = check._encoding(fn, module, "a", layout, OPTS, None, deadline)
    reset_interning()
    second = check._encoding(fn, module, "a", layout, OPTS, None, deadline)
    assert second is not first and len(encodes) == 2
    assert check._encoding(fn, module, "a", layout, OPTS, None, deadline) is second


@pytest.mark.parametrize("sealed", [True, False])
def test_self_refinement_keeps_its_verdict_with_disjoint_names(monkeypatch, sealed):
    pairs = []
    run = check._RefinementChecker.run

    def recording(self):
        pairs.append((self.src, self.tgt))
        return run(self)

    monkeypatch.setattr(check._RefinementChecker, "run", recording)
    module = parse_module(STRAIGHT_IR)
    if sealed:
        module.seal()
    fn = module.definitions()[0]
    for _ in range(2):
        assert verify_refinement(fn, fn, module, module, OPTS).verdict is Verdict.CORRECT
    for src, tgt in pairs:
        src_names = {qv.name for qv in src.nondet_all}
        tgt_names = {qv.name for qv in tgt.nondet_all}
        assert src_names and tgt_names and not src_names & tgt_names
        assert src.namespace != tgt.namespace
    if sealed:  # the second call reuses both encodings
        assert pairs[1][0] is pairs[0][0] and pairs[1][1] is pairs[0][1]


def _snapshot(value):
    """A structural copy down to immutable leaves (terms are interned)."""
    if isinstance(value, SymMemory):
        return ("memory", value.layout, _snapshot(value.blocks), _snapshot(value.infos))
    if isinstance(value, Mapping):
        return tuple((k, _snapshot(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_snapshot(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _snapshot(getattr(value, f.name))) for f in fields(value)
        )
    return value


def test_the_checker_leaves_every_encoding_unchanged(monkeypatch):
    made = []
    encode = _Encoder.encode

    def snapshotting(self):
        enc = encode(self)
        made.append((enc, _snapshot(enc)))
        return enc

    monkeypatch.setattr(_Encoder, "encode", snapshotting)
    tests = [t for t in UNIT_TESTS if t.pipeline][:16]
    for test in tests:
        validate_pipeline(parse_module(test.ir), list(test.pipeline), OPTS)
    assert len(made) > 16
    for enc, before in made:
        assert _snapshot(enc) == before
        with pytest.raises(AttributeError):
            enc.ub = None


def test_a_version_and_its_encodings_die_together():
    fn, module = _sealed(LOOP_IR.format(step=1))
    assert verify_refinement(fn, fn, module, module, OPTS).verdict is Verdict.CORRECT
    copy = check._unrolled(fn, OPTS.unroll_factor, Deadline.start(None))
    refs = [weakref.ref(x) for x in (fn, copy)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del fn, copy, module
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
