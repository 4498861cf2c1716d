"""Tests for the pass manager infrastructure itself."""

import pytest

from repro.ir.parser import parse_module
from repro.opt.bugs import BUG_REGISTRY, BUGS_BY_CATEGORY, BUGS_BY_OPTION
from repro.opt.passmanager import PASS_REGISTRY, PassManager, run_pipeline


SRC = "define i8 @f(i8 %a) {\nentry:\n  %x = add i8 %a, 0\n  ret i8 %x\n}"


def test_unknown_pass_raises():
    module = parse_module(SRC)
    with pytest.raises(KeyError):
        run_pipeline(module, ["not-a-pass"])


def test_pass_runs_record_before_and_after():
    module = parse_module(SRC)
    runs = run_pipeline(module, ["instsimplify"])
    assert len(runs) == 1
    run = runs[0]
    assert run.changed
    before_fn = run.before.get_function("f")
    after_fn = run.after.get_function("f")
    assert len(list(before_fn.instructions())) == 2
    assert len(list(after_fn.instructions())) == 1


def test_snapshots_are_isolated_from_later_passes():
    module = parse_module(
        "define i8 @f(i8 %a) {\nentry:\n  %x = add i8 %a, 0\n"
        "  %y = mul i8 %x, 4\n  ret i8 %y\n}"
    )
    runs = run_pipeline(module, ["instsimplify", "instcombine"])
    # The first run's `after` must not reflect the second pass's changes.
    first_after = runs[0].after.get_function("f")
    ops = [getattr(i, "opcode", "") for i in first_after.instructions()]
    assert "mul" in ops  # instcombine's shl rewrite came later


def test_no_change_reported_for_stable_input():
    module = parse_module("define i8 @f(i8 %a) {\nentry:\n  ret i8 %a\n}")
    runs = run_pipeline(module, ["instsimplify", "dce", "gvn"])
    assert all(not r.changed for r in runs)


def test_pipeline_runs_per_function():
    module = parse_module(
        SRC + "\n\ndefine i8 @g(i8 %b) {\nentry:\n  %y = mul i8 %b, 1\n  ret i8 %y\n}"
    )
    runs = run_pipeline(module, ["instsimplify"])
    assert sorted(r.function for r in runs) == ["f", "g"]


def test_options_reach_passes():
    module = parse_module(
        "define i1 @f(i1 %x, i1 %y) {\nentry:\n"
        "  %r = select i1 %x, i1 %y, i1 false\n  ret i1 %r\n}"
    )
    manager = PassManager(["instcombine"], {"bug:select-to-and-or": True})
    manager.run(module)
    fn = module.get_function("f")
    ops = [getattr(i, "opcode", "") for i in fn.instructions()]
    assert "and" in ops  # the buggy rewrite fired


def test_bug_registry_consistency():
    assert len(BUG_REGISTRY) >= 7
    for bug in BUG_REGISTRY:
        assert bug.option.startswith("bug:")
        assert bug.pass_name in PASS_REGISTRY
        assert BUGS_BY_OPTION[bug.option] is bug
        assert bug in BUGS_BY_CATEGORY[bug.category]


def test_every_bug_option_defaults_off():
    """With no options, no buggy rewrite may fire (zero-defect default)."""
    module = parse_module(
        "define i1 @f(i1 %x, i1 %y) {\nentry:\n"
        "  %r = select i1 %x, i1 %y, i1 false\n  ret i1 %r\n}"
    )
    run_pipeline(module, ["instcombine"])
    ops = [getattr(i, "opcode", "") for i in module.get_function("f").instructions()]
    assert "and" not in ops


def _batches():
    """(name, IR, pipeline, pass options) over the handwritten corpus
    (bugs injected where a test has one) and fixed-seed genir batches
    with the e2e benchmark's ``arith`` and ``memloop`` configs."""
    from repro.ir.printer import print_module
    from repro.suite.apps import APP_SPECS, O3_PIPELINE
    from repro.suite.genir import GenConfig, generate_module
    from repro.suite.unittests import build_corpus

    arith_pipeline = ("instsimplify", "instcombine", "reassociate", "gvn", "simplifycfg", "dce")
    arith_config = GenConfig(width=8, max_instructions=16)
    memloop = [s.config for s in APP_SPECS if s.name in ("bzip2", "gzip", "ph7")]
    bugs = sorted(b.option for b in BUG_REGISTRY if b.pass_name in arith_pipeline)
    out = []
    for test in build_corpus():
        options = {test.bug_option: True} if test.bug_option else {}
        out.append((test.name, test.ir, test.pipeline, options))
    for seed in range(16):
        ir = print_module(generate_module(500 + seed, 1, arith_config))
        out.append((f"arith-{seed}", ir, arith_pipeline, {}))
        out.append((f"arith-bug-{seed}", ir, arith_pipeline, {bugs[seed % len(bugs)]: True}))
        ir = print_module(generate_module(600 + seed, 1, memloop[seed % 3]))
        out.append((f"memloop-{seed}", ir, tuple(O3_PIPELINE), {}))
    return out


def test_passes_that_report_no_change_leave_the_module_as_it_was():
    """The pass manager reuses the previous snapshot for a run that reports
    no change, which is sound only if such a run changed nothing."""
    from repro.ir.printer import print_module

    no_change = 0
    for name, ir, pipeline, options in _batches():
        module = parse_module(ir)
        for pass_name in pipeline:
            for fn in module.definitions():
                before = print_module(module)
                if not PASS_REGISTRY[pass_name](fn, module, options):
                    no_change += 1
                    assert print_module(module) == before, (name, pass_name)
    assert no_change > 100


def test_steps_share_snapshots_that_validation_never_mutates(monkeypatch):
    """At most one sealed clone per step: each run's ``after`` is the next
    run's ``before``, across passes and functions, and a run that changed
    nothing has ``after is before``.  Validating every pair reads those
    shared snapshots and must leave them as the pass manager took them."""
    from repro.ir.printer import print_module
    from repro.refinement.check import VerifyOptions
    from repro.tv.plugin import validate_pipeline

    taken = []
    run = PassManager.run

    def run_and_print(self, module):
        runs = run(self, module)
        taken.append(
            [(r, print_module(r.before), print_module(r.after)) for r in runs]
        )
        return runs

    monkeypatch.setattr(PassManager, "run", run_and_print)
    inputs = [(ir, pipeline, options) for _, ir, pipeline, options in _batches()]
    two_functions = SRC + "\n\ndefine i8 @g(i8 %b) {\nentry:\n  %y = mul i8 %b, 1\n  ret i8 %y\n}"
    inputs.append((two_functions, ("instsimplify", "instcombine", "dce"), {}))
    options = VerifyOptions(timeout_s=30.0, max_conflicts=300)
    for ir, pipeline, pass_options in inputs:
        validate_pipeline(parse_module(ir), list(pipeline), options, pass_options)
    assert len(taken) == len(inputs)
    for runs in taken:
        for (prev, _, _), (nxt, _, _) in zip(runs, runs[1:]):
            assert prev.after is nxt.before
        for r, before, after in runs:
            assert (r.after is r.before) == (not r.changed)
            for snapshot in (r.before, r.after):
                assert all(fn.sealed for fn in snapshot.functions.values())
            assert print_module(r.before) == before
            assert print_module(r.after) == after
