"""Sealed functions (``Function.seal``) and the facts memo they carry.

The pass manager seals every snapshot and the refinement check seals its
unrolled copies, so each function version is analysed once however many
refinement pairs read it.  These tests check that every memoized fact
equals a fresh computation on an unsealed clone, that no memoized object
can be mutated by a caller, that a sealed function rejects writes, and
that one multi-pass test analyses each (function version, layout) once
while counting lint diagnostics as before.
"""

import dataclasses
import weakref
from types import MappingProxyType

import pytest

from repro.analysis import memdf as memdf_mod
from repro.analysis import verify as lint_mod
from repro.analysis.knownbits import analyze_known_bits
from repro.analysis.memdf import MemDF, analyze_memdf
from repro.analysis.pointsto import analyze_pointsto, assign_alloca_bids
from repro.analysis.poison import analyze_poison
from repro.analysis.range import analyze_ranges
from repro.analysis.verify import lint_function
from repro.ir.cfg import reachable_blocks, reverse_postorder
from repro.ir.dominators import DominatorTree, dominator_tree
from repro.ir.instructions import Alloca, Instruction
from repro.ir.loops import Loop, LoopForest, loop_forest
from repro.ir.parser import parse_module
from repro.ir.types import PointerType
from repro.ir.unroll import unroll_function
from repro.refinement.check import VerifyOptions
from repro.semantics.memory import build_layout
from repro.suite.apps import APP_SPECS, O3_PIPELINE
from repro.suite.genir import GenConfig, generate_module
from repro.suite.unittests import build_corpus

#: The genir configs of the e2e benchmark's ``arith`` and ``memloop``
#: workloads (``benchmarks/e2e/workloads.py``).
ARITH_CONFIG = GenConfig(width=8, max_instructions=16)
MEMLOOP_CONFIGS = tuple(
    spec.config for spec in APP_SPECS if spec.name in ("bzip2", "gzip", "ph7")
)


def _modules():
    out = []
    for test in build_corpus():
        out.append(parse_module(test.ir))
        if test.buggy_target is not None:
            out.append(parse_module(test.buggy_target))
    for seed in range(12):
        out.append(generate_module(300 + seed, 1, ARITH_CONFIG))
        out.append(generate_module(400 + seed, 1, MEMLOOP_CONFIGS[seed % 3]))
    return out


def _versions():
    """(module, function) pairs: every definition, and an unrolled copy of
    each one with loops (the refinement check seals those)."""
    out = []
    for module in _modules():
        for fn in module.definitions():
            out.append((module, fn))
            if LoopForest(fn).loops and not LoopForest(fn).has_irreducible():
                unrolled = fn.clone()
                unroll_function(unrolled, 4)
                out.append((module, unrolled))
    return out


VERSIONS = _versions()


def _layout(module, fn):
    pointer_args = [a.name for a in fn.args if isinstance(a.type, PointerType)]
    allocas = sum(1 for inst in fn.instructions() if isinstance(inst, Alloca))
    return build_layout(module.globals, pointer_args, allocas)


#: Every memoized fact, as (module, function, layout) -> value.
FACTS = {
    "rpo": lambda m, fn, lay: reverse_postorder(fn),
    "predecessors": lambda m, fn, lay: fn.predecessors(),
    "reachable": lambda m, fn, lay: reachable_blocks(fn),
    "domtree": lambda m, fn, lay: dominator_tree(fn),
    "loops": lambda m, fn, lay: loop_forest(fn),
    "alloca_bids": lambda m, fn, lay: assign_alloca_bids(fn, lay),
    "lint": lambda m, fn, lay: lint_function(fn, m),
    "lint-gate": lambda m, fn, lay: lint_function(fn),
    "pointsto": lambda m, fn, lay: analyze_pointsto(fn, lay),
    "memdf": lambda m, fn, lay: analyze_memdf(fn, lay),
    "knownbits": lambda m, fn, lay: analyze_known_bits(fn),
    "ranges": lambda m, fn, lay: analyze_ranges(fn),
    "poison": lambda m, fn, lay: analyze_poison(fn),
}


def _plain(value, where):
    """``value`` as plain comparable data; instruction identities become
    (block, index) positions via ``where`` so two copies compare."""
    if isinstance(value, Instruction):
        return ("inst", where[id(value)])
    if isinstance(value, MemDF):
        return {
            "pointsto": _plain(value.pointsto, where),
            "access": {where[k]: v for k, v in value.access.items()},
            "forwards": {
                where[k]: (where[id(v.store)], v.value)
                for k, v in value.forwards.items()
            },
            "dead_stores": {where[k] for k in value.dead_stores},
            "clobbered": value.clobbered,
            "has_calls": value.has_calls,
            "entry_oob": value.entry_oob,
            "layout": value.layout,
        }
    if isinstance(value, DominatorTree):
        return {"order": list(value.order), "idom": dict(value.idom)}
    if isinstance(value, LoopForest):
        return [
            (
                loop.header,
                sorted(loop.body),
                loop.parent.header if loop.parent is not None else None,
                [child.header for child in loop.children],
                loop.irreducible,
            )
            for loop in value.loops
        ]
    if isinstance(value, (dict, MappingProxyType)):
        return {k: _plain(v, where) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, where) for v in value]
    if isinstance(value, (set, frozenset)):
        return set(value)
    return value


def _positions(fn):
    return {
        id(inst): (label, i)
        for label, block in fn.blocks.items()
        for i, inst in enumerate(block.instructions)
    }


def _assert_read_only(value, path="fact"):
    """No caller can change ``value``: every container in it is immutable
    and every object refuses attribute writes.  Instructions belong to the
    (sealed) function the fact describes, not to the fact."""
    if value is None or isinstance(value, (str, int, float, weakref.ref, Instruction)):
        return
    if isinstance(value, (tuple, frozenset)):
        for i, v in enumerate(value):
            _assert_read_only(v, f"{path}[{i}]")
        return
    if isinstance(value, MappingProxyType):
        for k, v in value.items():
            _assert_read_only(k, f"{path} key")
            _assert_read_only(v, f"{path}[{k!r}]")
        return
    if dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen:
        for f in dataclasses.fields(value):
            _assert_read_only(getattr(value, f.name), f"{path}.{f.name}")
        return
    if isinstance(value, (DominatorTree, LoopForest, Loop)):
        attrs = [k for k in vars(value) if not k.startswith("_")]
        for name in attrs:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            _assert_read_only(getattr(value, name), f"{path}.{name}")
        return
    raise AssertionError(f"{path} is mutable: {type(value).__name__}")


@pytest.mark.parametrize("index", range(len(VERSIONS)))
def test_memoized_facts_equal_fresh_ones_and_are_read_only(index):
    module, original = VERSIONS[index]
    sealed = original.clone().seal()
    fresh = sealed.clone()
    assert sealed.sealed and not fresh.sealed
    layout = _layout(module, sealed)
    where_sealed, where_fresh = _positions(sealed), _positions(fresh)
    for name, compute in FACTS.items():
        memo = compute(module, sealed, layout)
        again = compute(module, sealed, layout)
        if name.startswith("lint"):
            assert again == memo and again is not memo  # a copy per call
        else:
            assert again is memo, name
        assert _plain(memo, where_sealed) == _plain(
            compute(module, fresh, layout), where_fresh
        ), name
    assert not fresh._facts
    for key, value in sealed._facts.items():
        _assert_read_only(value, repr(key))


def test_a_sealed_function_rejects_writes_and_its_clone_does_not():
    module = parse_module(
        "define i8 @f(i8 %a) {\nentry:\n  %x = add i8 %a, 1\n  br label %b\n"
        "b:\n  ret i8 %x\n}"
    )
    fn = module.definitions()[0].seal()
    block = fn.blocks["entry"]
    with pytest.raises(AttributeError, match="sealed"):
        fn.name = "g"
    with pytest.raises(AttributeError, match="sealed"):
        block.instructions = []
    with pytest.raises(TypeError):
        fn.blocks["c"] = block
    with pytest.raises(AttributeError):
        block.instructions.append(block.instructions[0])
    with pytest.raises(AttributeError):
        fn.sink_labels.add("c")
    copy = fn.clone()
    assert not copy.sealed
    copy.blocks["entry"].instructions.pop(0)
    copy.name = "g"
    assert str(fn) == str(module.definitions()[0])
    assert fn.seal() is fn  # sealing twice is a no-op


def test_a_sealed_module_rejects_new_functions():
    module = parse_module("define i8 @f(i8 %a) {\nentry:\n  ret i8 %a\n}").seal()
    assert all(fn.sealed for fn in module.functions.values())
    with pytest.raises(TypeError):
        module.add_function(module.clone().functions["f"])
    assert not module.clone().functions["f"].sealed


def test_one_memdf_analysis_per_function_version_and_layout(monkeypatch):
    """A multi-pass memory test: the pass manager's sealed snapshots and
    the check's sealed unrolled copies each get one memdf analysis per
    layout value, however many callers ask; lint counts what it did at
    the parent commit ((6, 0, 5) for this test: six functions linted,
    no errors, five warnings)."""
    from repro.refinement import check
    from repro.tv.plugin import validate_pipeline

    asked = []
    real = memdf_mod.analyze_memdf

    def recording(fn, layout):
        asked.append((fn, layout))  # holds fn, so ids stay distinct
        return real(fn, layout)

    monkeypatch.setattr(memdf_mod, "analyze_memdf", recording)
    monkeypatch.setattr(check, "analyze_memdf", recording)
    spec = next(s for s in APP_SPECS if s.name == "ph7")
    module = generate_module(12, 1, spec.config)
    lint0 = dataclasses.astuple(lint_mod.LINT_STATS)
    analyses0 = memdf_mod.STATS.analyses
    report = validate_pipeline(
        module,
        list(O3_PIPELINE),
        VerifyOptions(timeout_s=30.0, unroll_factor=8, max_conflicts=300),
    )
    assert [r.result.verdict.value for r in report.records] == ["correct"] * 3
    lint = tuple(b - a for a, b in zip(lint0, dataclasses.astuple(lint_mod.LINT_STATS)))
    assert lint == (6, 0, 5)
    distinct = {(id(fn), layout) for fn, layout in asked}
    assert all(fn.sealed for fn, _ in asked)
    assert memdf_mod.STATS.analyses - analyses0 == len(distinct)
    assert len(distinct) < len(asked)  # versions shared between pairs
