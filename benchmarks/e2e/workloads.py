"""Input streams and the correctness oracle for the end-to-end benchmark.

A workload is an endless, seeded stream of suite tests: test ``i`` of
seed ``s`` depends only on ``(workload, s, i)``, so a round can build just
its own slice and a run over tests ``[0, n)`` is the same on every machine
and every commit.

Each :class:`Case` pairs a suite test with the verdict the suite's own
hand-written expectations demand of it:

* ``detect`` -- an injected bug (``bug_option`` handwritten tests,
  ``buggy_target`` tests, detectable known bugs and the §8.5 tweaked
  variants) must end INCORRECT;
* ``clean`` -- a bug-free pipeline must never end INCORRECT;
* ``any`` -- no verdict is wrong: known bugs catalogued as bounded-TV
  misses, and random functions whose injected bug option may or may not
  fire on that input.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.refinement.check import Verdict, VerifyOptions
from repro.suite.apps import APP_SPECS, O3_PIPELINE
from repro.suite.genir import GenConfig, generate_module
from repro.suite.knownbugs import KNOWN_BUGS
from repro.suite.unittests import UnitTest, build_corpus
from repro.tv.plugin import validate_pipeline

DETECT, CLEAN, ANY = "detect", "clean", "any"

#: Options shared by every workload.  A conflict budget and the CEGAR
#: iteration cap, not a clock, decide TIMEOUT, so verdicts do not depend on
#: machine speed.  The 60 s job timeout is a guard: the slowest pair seen
#: over 40 runs took 57 s and hit the iteration cap (TIMEOUT either way).
BASE_OPTIONS = VerifyOptions(timeout_s=60.0, max_conflicts=2000)

#: Tests per round: about 2.5 s of verification on a 2-core x86-64
#: container (README.md).  ``rerun`` rounds add ``RERUN_CACHED`` tests.
ROUND_SIZES: Dict[str, int] = {
    "unittests": 120,
    "arith": 70,
    "memloop": 130,
    "rerun": 80,
}
#: The leading slice of the seed's unittests stream that fills the rerun
#: cache and that every rerun round verifies again.
RERUN_CACHED = 130

#: The five arithmetic/UB defect classes ``arith`` draws from: the bug
#: options whose pass is in ``ARITH_PIPELINE`` and that need neither
#: memory, loops nor floats to fire.
ARITH_BUGS = (
    "bug:select-to-and-or",
    "bug:nsw-reassoc",
    "bug:undef-shift",
    "bug:gvn-flags",
    "bug:speculate-branch",
)
ARITH_PIPELINE = (
    "instsimplify",
    "instcombine",
    "reassociate",
    "gvn",
    "simplifycfg",
    "dce",
)
#: 16, not 24: at 24 instructions single functions ran 16-76 s in CEGAR,
#: past the 60 s guard.
ARITH_CONFIG = GenConfig(width=8, max_instructions=16)

#: ``memloop`` draws from the loop/memory/branch application configs.
#: sqlite3 is left out because single functions of it run for tens of
#: seconds in SAT, oggenc because softfloat circuits make it SAT-bound;
#: both would turn this front-end-heavy workload into a solver one.
MEMLOOP_APPS = ("bzip2", "gzip", "ph7")
MEMLOOP_UNROLL = 8
#: At 2000 conflicts a few propagation-heavy queries per run, most ending
#: TIMEOUT anyway, took three quarters of memloop's time (seed 1, traced),
#: making it a second SAT workload; at 300 SAT is about a fifth.
MEMLOOP_CONFLICTS = 300


@dataclass(frozen=True)
class Case:
    test: UnitTest
    expect: str


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512: independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def _function(rng: random.Random, config: GenConfig) -> str:
    return print_module(generate_module(rng.randrange(1 << 31), 1, config))


def fixed_unittests() -> List[Case]:
    """Handwritten corpus with its bugs injected, plus every §8.5 known bug
    as a FileCheck-style test and its tweaked variant."""
    cases = [
        Case(t, DETECT if t.bug_option or t.buggy_target else CLEAN)
        for t in build_corpus(generated=0)
    ]
    for bug in KNOWN_BUGS:
        test = UnitTest(f"kb:{bug.name}", bug.src, (), buggy_target=bug.tgt)
        cases.append(Case(test, DETECT if bug.detectable else ANY))
        if bug.tweaked_src is not None:
            tweaked = UnitTest(
                f"kb:{bug.name}:tweaked",
                bug.tweaked_src,
                (),
                buggy_target=bug.tweaked_tgt,
            )
            cases.append(Case(tweaked, DETECT))
    return cases


def _generated_unittest(seed: int, index: int) -> UnitTest:
    """One test from the corpus's own generator and pipeline."""
    corpus_seed = _rng("unittests", seed, index).randrange(1 << 30)
    return replace(build_corpus(generated=1, seed=corpus_seed)[-1], name=f"gen-{index}")


def unittests_cases(seed: int, start: int, stop: int) -> List[Case]:
    """The fixed corpus first, then generated clean tests."""
    fixed = fixed_unittests()
    out = fixed[start:stop]
    for i in range(max(start, len(fixed)), stop):
        out.append(Case(_generated_unittest(seed, i), CLEAN))
    return out


def arith_cases(seed: int, start: int, stop: int) -> List[Case]:
    """Straight-line and diamond i8 arithmetic; one bug option or none."""
    cases = []
    for i in range(start, stop):
        rng = _rng("arith", seed, i)
        ir = _function(rng, ARITH_CONFIG)
        bug = rng.choice((None,) + ARITH_BUGS)
        test = UnitTest(f"arith-{i}", ir, ARITH_PIPELINE, bug_option=bug)
        cases.append(Case(test, CLEAN if bug is None else ANY))
    return cases


def memloop_cases(seed: int, start: int, stop: int) -> List[Case]:
    """Loop/memory/branch functions through the -O3 pipeline."""
    specs = [s for s in APP_SPECS if s.name in MEMLOOP_APPS]
    cases = []
    for i in range(start, stop):
        spec = specs[i % len(specs)]
        ir = _function(_rng("memloop", seed, i), spec.config)
        cases.append(Case(UnitTest(f"{spec.name}-{i}", ir, tuple(O3_PIPELINE)), CLEAN))
    return cases


def rerun_cases(seed: int, start: int, stop: int) -> List[Case]:
    """The cached unittests slice again, plus fresh tests [start, stop).

    The fresh tests come from the ``seed + 1`` stream past the cached
    slice, so they share no generated function with it: those pairs miss
    the cache and write new entries beside the reads of old ones.
    """
    fresh = unittests_cases(seed + 1, RERUN_CACHED + start, RERUN_CACHED + stop)
    return rerun_fixture_cases(seed) + [
        replace(c, test=replace(c.test, name=f"fresh-{c.test.name}")) for c in fresh
    ]


def rerun_fixture_cases(seed: int) -> List[Case]:
    """What fills the rerun workload's persistent cache."""
    return unittests_cases(seed, 0, RERUN_CACHED)


STREAMS = {
    "unittests": unittests_cases,
    "arith": arith_cases,
    "memloop": memloop_cases,
    "rerun": rerun_cases,
}


def options_for(workload: str, overrides: Dict[str, object]) -> VerifyOptions:
    options = BASE_OPTIONS
    if workload == "memloop":
        options = replace(
            options, unroll_factor=MEMLOOP_UNROLL, max_conflicts=MEMLOOP_CONFLICTS
        )
    return replace(options, **overrides)


def round_cases(workload: str, seed: int, round_index: int, size: int = 0) -> List[Case]:
    """Round ``round_index`` of a run: the next ``size`` tests of the stream."""
    size = size or ROUND_SIZES[workload]
    return STREAMS[workload](seed, round_index * size, (round_index + 1) * size)


# -- the oracle -----------------------------------------------------------


#: A known verifier false alarm: check 2 (target UB only when the source is)
#: refuted on a clean pipeline with an undef argument in the counterexample.
#: Branch-on-undef UB is encoded through per-use undef readings, so a pass
#: that deletes a dead reading of an undef-derived value can flip the check.
#: It hits about one random function in 2000-7000, so it is reported under
#: ``known_errors`` and kept in the verdict digest, but not counted as a
#: failed pair: otherwise a run would fail or pass by the luck of its seed.
KNOWN_FALSE_ALARM = "ub-with-undef-argument"


def _false_alarm_kinds(case: Case, options: VerifyOptions) -> List[str]:
    """Re-verify a clean test; one signature per INCORRECT pair."""
    report = validate_pipeline(parse_module(case.test.ir), list(case.test.pipeline), options)
    kinds = []
    for record in report.records:
        result = record.result
        if result.verdict is Verdict.INCORRECT:
            undef_arg = any(
                k.startswith("isundef_") and v for k, v in result.counterexample.items()
            )
            known = result.failed_check == "ub" and undef_arg
            kinds.append(KNOWN_FALSE_ALARM if known else "false-alarm")
    return kinds


def check(case: Case, verdicts: Dict[str, int], options: VerifyOptions) -> Tuple[list, list]:
    """``(failed, known)``: why this test's verdict counts break its
    expectation, split into failed pairs and known false alarms.

    A failed pair is a CRASH, a SOLVER_UNSOUND, an INCORRECT on a clean
    pipeline (a false alarm), or a missed expected detection.
    """
    failed = []
    for verdict in (Verdict.CRASH, Verdict.SOLVER_UNSOUND):
        failed += [verdict.value] * verdicts.get(verdict.value, 0)
    incorrect = verdicts.get(Verdict.INCORRECT.value, 0)
    known = []
    if case.expect == CLEAN and incorrect:
        kinds = _false_alarm_kinds(case, options)
        known = [k for k in kinds if k == KNOWN_FALSE_ALARM]
        failed += ["false-alarm"] * (incorrect - len(known))
    elif case.expect == DETECT and not incorrect:
        failed.append("missed-detection")
    return failed, known


def ir_sha(case: Case) -> str:
    text = case.test.ir + "\n;;\n" + (case.test.buggy_target or "")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdict_digest(rows: List[tuple]) -> str:
    """SHA-256 over ``(test name, sorted verdict counts)`` rows, in order."""
    h = hashlib.sha256()
    for name, verdicts in rows:
        counts = ",".join(f"{k}={verdicts[k]}" for k in sorted(verdicts))
        h.update(f"{name}:{counts}\n".encode())
    return h.hexdigest()
