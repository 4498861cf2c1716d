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


def test_steps_share_snapshots_that_validation_never_mutates(monkeypatch):
    """One clone per step: each run's ``after`` is the next run's
    ``before``, across passes and functions.  Validating every pair reads
    those shared snapshots and must leave them as the pass manager took
    them."""
    from repro.ir.printer import print_module
    from repro.refinement.check import VerifyOptions
    from repro.suite.unittests import UNIT_TESTS
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
    names = {
        "mem2reg-diamond",
        "store-forwarding-chain",
        "phi-constant-merge",
        "licm-invariant-mul",
        "gen-1",
        "gen-5",
    }
    inputs = [(t.ir, t.pipeline) for t in UNIT_TESTS if t.name in names]
    assert len(inputs) == len(names)
    two_functions = SRC + "\n\ndefine i8 @g(i8 %b) {\nentry:\n  %y = mul i8 %b, 1\n  ret i8 %y\n}"
    inputs.append((two_functions, ("instsimplify", "instcombine", "dce")))
    for ir, pipeline in inputs:
        validate_pipeline(parse_module(ir), list(pipeline), VerifyOptions(timeout_s=30.0))
    assert len(taken) == len(inputs)
    for runs in taken:
        for (prev, _, _), (nxt, _, _) in zip(runs, runs[1:]):
            assert prev.after is nxt.before
        for r, before, after in runs:
            assert print_module(r.before) == before
            assert print_module(r.after) == after
