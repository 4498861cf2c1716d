"""Fresh SMT variable names depend on the pair, never on process history.

The encoder numbers its own variables from 0 in every encoding, under a
namespace the refinement check picks per pair (``a``/``b``), and the
call-pairing selectors are numbered within the pair.  A verdict, its
notes and every proof certificate's digest (a hash of the CNF and the
variable-name map) are therefore the same whatever the process verified
before.
"""

from __future__ import annotations

import pytest

from repro.ir.parser import parse_module
from repro.refinement.check import Verdict, VerifyOptions, verify_refinement
from repro.semantics.encoder import _Encoder
from repro.semantics.memory import build_layout
from repro.suite.knownbugs import KNOWN_BUGS
from repro.suite.runner import reset_test_state, run_suite
from repro.suite.unittests import UNIT_TESTS

CERTIFY = VerifyOptions(certify=True)


def _bug_pair(name: str, tweaked: bool):
    bug = next(b for b in KNOWN_BUGS if b.name == name)
    src, tgt = (bug.tweaked_src, bug.tweaked_tgt) if tweaked else (bug.src, bug.tgt)
    return parse_module(src), parse_module(tgt)


def _verify(name: str, tweaked: bool):
    sm, tm = _bug_pair(name, tweaked)
    result = verify_refinement(
        sm.definitions()[0], tm.definitions()[0], sm, tm, CERTIFY
    )
    notes = [n for n in result.notes if not n.startswith("phase-times:")]
    return result.verdict, notes, [c.digest for c in result.certificates]


@pytest.mark.parametrize(
    "name,tweaked",
    [("select-to-and", False), ("escaped-local-clobbered-1", True)],
)
def test_verdict_notes_and_certificates_do_not_depend_on_what_ran_before(
    name, tweaked
):
    reset_test_state()
    first = _verify(name, tweaked)
    run_suite(UNIT_TESTS[:12], VerifyOptions(timeout_s=30))
    reset_test_state()
    second = _verify(name, tweaked)
    assert first[0] is Verdict.INCORRECT
    assert first[2], "the pair should have certified UNSAT answers"
    assert second == first


def test_each_encoding_numbers_its_variables_from_zero():
    sm, _ = _bug_pair("select-to-and", False)
    fn = sm.definitions()[0]
    layout = build_layout(sm.globals, [], 0)
    first = _Encoder(fn, sm, "a", layout).encode()
    _Encoder(fn, sm, "b", layout).encode()
    again = _Encoder(fn, sm, "a", layout).encode()
    names = [qv.name for qv in first.nondet_all]
    assert names and names == [qv.name for qv in again.nondet_all]
    assert names[0].startswith("a.") and names[0].endswith("!0")
