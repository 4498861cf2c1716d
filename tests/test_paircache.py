"""Tests for the pair tier of the query cache.

Contract under test: a whole verification job is keyed by every input it
reads (so jobs that could differ in verdict never share a key), only
definitive, undegraded, unrejected results are stored, a replay is the
stored result without timing plus one note, pair and query entries never
answer each other, and every pool worker reads every shard, so a pooled
re-run answers every definitive pair from the cache.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.engine import qcache
from repro.engine.qcache import (
    CACHE_VERSION,
    PAIR_NOTE,
    PAIR_VERDICTS,
    QueryCache,
    pair_fingerprint,
    shard_path,
)
from repro.engine.warmpool import WarmPool
from repro.harness.isolation import run_verification_job
from repro.ir.parser import parse_module
from repro.refinement.check import RefinementResult, Verdict, VerifyOptions
from repro.sat import solver as sat_solver
from repro.sat.proof import Certificate
from repro.semantics.encoder import _Encoder
from repro.semantics.memory import MemoryConfig
from repro.smt.solver import SmtSolver
from repro.suite.knownbugs import KNOWN_BUGS
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
OPTS = VerifyOptions(timeout_s=10.0)
CORPUS = build_corpus()[:10]

BASE_IR = """
@g = global i8 1
declare i8 @ext(i8)

define i8 @f(i8 noundef %x) {
entry:
  %a = add nsw i8 %x, 1
  %b = call i8 @ext(i8 %a)
  ret i8 %b
}
"""


def stable(record) -> dict:
    return {
        "test": record.test,
        "verdicts": record.verdicts,
        "detected": record.detected,
        "missed": record.missed,
        "clean_failure": record.clean_failure,
        "degradations": record.degradations,
    }


def storable_pairs(outcome) -> int:
    """Pairs of a run whose result the pair tier keeps."""
    return sum(
        n
        for r in outcome.records
        if not r.degradations
        for verdict, n in r.verdicts.items()
        if verdict in PAIR_VERDICTS
    )


def pair_entries(cache: QueryCache) -> list:
    return [
        e
        for shard in cache._shards
        for e in shard.entries.values()
        if e.get("kind") == "pair"
    ]


def job_key(ir=BASE_IR, tgt_ir=None, options=OPTS, lint=True, edit=None):
    sm = parse_module(ir)
    tm = parse_module(tgt_ir or ir)
    src, tgt = sm.get_function("f"), tm.get_function("f")
    if edit is not None:
        edit(src, sm)
    return pair_fingerprint(src, tgt, sm, tm, options, lint)


def known_bug():
    """A detectable known bug as one (src, tgt) job."""
    bug = next(b for b in KNOWN_BUGS if b.detectable)
    sm, tm = parse_module(bug.src), parse_module(bug.tgt)
    return sm.definitions()[0], tm.definitions()[0], sm, tm


# ---------------------------------------------------------------------------
# (a) a warm run answers every definitive pair without encoding or solving
# ---------------------------------------------------------------------------


def test_warm_run_replays_every_definitive_pair_without_encoder_or_solver(
    tmp_path, monkeypatch
):
    path = str(tmp_path / "qc.jsonl")
    cold = run_suite(CORPUS, OPTS, inject_bugs=True, query_cache=path, cache_shards=4)
    calls = {"check": 0, "encode": 0}
    check, encode = SmtSolver.check, _Encoder.encode

    def counting_check(self, *args, **kwargs):
        calls["check"] += 1
        return check(self, *args, **kwargs)

    def counting_encode(self, *args, **kwargs):
        calls["encode"] += 1
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(SmtSolver, "check", counting_check)
    monkeypatch.setattr(_Encoder, "encode", counting_encode)
    cache = QueryCache(path, shards=4)
    warm = run_suite(CORPUS, OPTS, inject_bugs=True, query_cache=cache)
    assert [stable(r) for r in warm.records] == [stable(r) for r in cold.records]
    assert storable_pairs(cold) == sum(sum(r.verdicts.values()) for r in cold.records)
    assert cache.pair_hits == storable_pairs(cold) > 0
    assert cache.counters()["pair_hits"] == cache.pair_hits
    assert warm.tally.qcache_pair_hits == cache.pair_hits
    assert calls == {"check": 0, "encode": 0}


# ---------------------------------------------------------------------------
# (b) every key input changes the key
# ---------------------------------------------------------------------------


def _option_variants():
    base = VerifyOptions(timeout_s=10.0)
    for f in dataclasses.fields(VerifyOptions):
        value = getattr(base, f.name)
        if f.name == "memory":
            for sub in dataclasses.fields(MemoryConfig):
                bumped = dataclasses.replace(
                    value, **{sub.name: getattr(value, sub.name) + 1}
                )
                yield f"memory.{sub.name}", dataclasses.replace(base, memory=bumped)
            continue
        if isinstance(value, bool):
            new = not value
        elif value is None:
            new = 7
        elif isinstance(value, float):
            new = value + 1.0
        else:
            new = value + 1
        yield f.name, dataclasses.replace(base, **{f.name: new})


def test_every_option_field_changes_the_key():
    base = job_key()
    variants = dict(_option_variants())
    assert len(variants) == len(dataclasses.fields(VerifyOptions)) + 2
    for name, options in variants.items():
        assert job_key(options=options) != base, name


def _widen_constant_operand(fn, _module):
    from repro.ir.types import IntType
    from repro.ir.values import ConstantInt

    add = fn.blocks["entry"].instructions[0]
    add.rhs = ConstantInt(IntType(16), 1)
    assert str(add) == "%a = add nsw i8 %x, 1"


def test_every_ir_input_changes_the_key():
    base = job_key()
    variants = {
        "lint": job_key(lint=False),
        "instruction flag": job_key(BASE_IR.replace("add nsw", "add")),
        "operand": job_key(BASE_IR.replace("%x, 1", "%x, 2")),
        "argument attribute": job_key(BASE_IR.replace("i8 noundef %x", "i8 %x")),
        "global initializer": job_key(BASE_IR.replace("global i8 1", "global i8 2")),
        "declaration attributes": job_key(
            BASE_IR.replace("declare i8 @ext(i8)", "declare i8 @ext(i8) readnone")
        ),
        "target only": job_key(
            tgt_ir=BASE_IR.replace("add nsw i8 %x, 1", "add nsw i8 1, %x")
        ),
        "duplicate_labels": job_key(
            edit=lambda fn, _m: setattr(fn, "duplicate_labels", ["entry"])
        ),
        "sink_labels": job_key(edit=lambda fn, _m: setattr(fn, "sink_labels", {"entry"})),
        "global align": job_key(
            edit=lambda _fn, m: setattr(m.globals["g"], "align", 4)
        ),
        # The printer shows an add's type once, not its operands' types.
        "operand type": job_key(edit=_widen_constant_operand),
    }
    for name, key in variants.items():
        assert key != base, name
    assert len(set(variants.values())) == len(variants)
    assert job_key() == base  # and the key is a pure function of the inputs


def test_source_digest_changes_the_key(monkeypatch):
    base = job_key()
    monkeypatch.setattr(qcache, "source_digest", lambda: "0" * 64)
    assert job_key() != base


def test_key_is_memoized_text_of_sealed_functions():
    sm, tm = parse_module(BASE_IR).seal(), parse_module(BASE_IR).seal()
    src, tgt = sm.get_function("f"), tm.get_function("f")
    first = pair_fingerprint(src, tgt, sm, tm, OPTS, True)
    assert src.fact("pair-text", lambda: None) is not None
    assert pair_fingerprint(src, tgt, sm, tm, OPTS, True) == first
    # module_tgt=None means "the source module", as in verify_refinement.
    assert pair_fingerprint(src, src, sm, None, OPTS, True) == pair_fingerprint(
        src, src, sm, sm, OPTS, True
    )


# ---------------------------------------------------------------------------
# (c) what is never stored, and what a load refuses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "verdict", [Verdict.TIMEOUT, Verdict.OOM, Verdict.CRASH, Verdict.SOLVER_UNSOUND]
)
def test_exhaustion_crash_and_unsound_results_are_never_stored(verdict):
    cache = QueryCache()
    assert not cache.store_pair("ab" * 32, RefinementResult(verdict, failed_check="x"))
    assert cache.lookup_pair("ab" * 32) is None
    assert len(cache) == 0


def test_degraded_and_rejected_certificate_results_are_never_stored():
    cache = QueryCache()
    degraded = RefinementResult(Verdict.CORRECT, degradations=["unroll:4->2"])
    rejected = RefinementResult(
        Verdict.CORRECT,
        certificates=[Certificate(query="q", digest="d", valid=False, reason="bad")],
    )
    assert not cache.store_pair("cd" * 32, degraded)
    assert not cache.store_pair("ef" * 32, rejected)
    assert len(cache) == 0
    accepted = RefinementResult(
        Verdict.CORRECT,
        certificates=[Certificate(query="q", digest="d", valid=True, core=(1, -2))],
    )
    assert cache.store_pair("12" * 32, accepted)
    replay = cache.lookup_pair("12" * 32)
    assert [c.core for c in replay.certificates] == [(1, -2)]
    assert all(c.valid for c in replay.certificates)


def test_rejected_certificate_under_certify_is_not_stored():
    from repro.suite.runner import _run_one_test

    test = next(t for t in build_corpus() if t.name == "combine-add-self")
    # E-graph off so the query reaches the EF solver, whose first learned
    # clause the armed corruption turns into a bogus UNSAT.
    options = VerifyOptions(timeout_s=10.0, certify=True, egraph=False)
    cache = QueryCache()
    with qcache.activate(cache):
        sat_solver.arm_unsound()
        caught = _run_one_test(test, options, False, 1, None)
        assert caught.verdicts == {"solver-unsound": 1}
        assert caught.cert_failures >= 1
        assert cache.misses >= 1  # the pair tier was asked, and kept nothing
        assert pair_entries(cache) == []
        honest = _run_one_test(test, options, False, 1, None)
        replay = _run_one_test(test, options, False, 1, None)
    assert honest.verdicts == replay.verdicts == {"correct": 1}
    assert len(pair_entries(cache)) == 1
    assert cache.pair_hits == 1 and replay.solver_checks == 0


def test_armed_fault_bypasses_the_pair_tier():
    from repro.harness import faults
    from repro.harness.faults import FaultPlan, FaultSpec

    src, tgt, sm, tm = known_bug()
    cache = QueryCache()
    plan = FaultPlan({"t": FaultSpec(kind="crash", site="parse")})
    with qcache.activate(cache), faults.activate(plan), faults.current_test("t"):
        first = run_verification_job(src, tgt, sm, tm, OPTS)
        second = run_verification_job(src, tgt, sm, tm, OPTS)
    assert first.verdict is second.verdict is Verdict.INCORRECT
    assert pair_entries(cache) == [] and cache.pair_hits == 0
    assert PAIR_NOTE not in second.notes
    # Without the armed fault the same job is stored and replayed.
    with qcache.activate(cache):
        run_verification_job(src, tgt, sm, tm, OPTS)
        assert PAIR_NOTE in run_verification_job(src, tgt, sm, tm, OPTS).notes


def _pair_line(payload, **entry) -> str:
    base = {"v": CACHE_VERSION, "key": "aa" * 32, "kind": "pair", "pair": payload}
    base.update(entry)
    return json.dumps(base)


def test_crafted_pair_lines_are_quarantined(tmp_path):
    good = RefinementResult(Verdict.INCORRECT, failed_check="ret", counterexample={"arg_x": 3})
    cache = QueryCache()
    assert cache.store_pair("bb" * 32, good)
    payload = pair_entries(cache)[0]["pair"]
    bad_payloads = [
        dict(payload, verdict="timeout"),
        dict(payload, verdict="oom"),
        dict(payload, verdict="crash"),
        dict(payload, verdict="solver-unsound"),
        dict(payload, verdict="no-such-verdict"),
        dict(payload, degradations=["unroll:4->2"]),
        dict(payload, certificates=[{"valid": False}]),
        dict(payload, notes=[3]),
        {k: v for k, v in payload.items() if k != "counterexample"},
        dict(payload, failed_check=7),
        "correct",
    ]
    path = tmp_path / "qc.jsonl"
    lines = [_pair_line(p) for p in bad_payloads]
    lines.append(_pair_line(payload, key="cc" * 32))
    path.write_text("\n".join(lines) + "\n")
    loaded = QueryCache(str(path))
    assert loaded.dropped_lines == len(bad_payloads)
    assert loaded.lookup_pair("aa" * 32) is None
    replay = loaded.lookup_pair("cc" * 32)
    assert replay.verdict is Verdict.INCORRECT
    assert replay.counterexample == {"arg_x": 3}


# ---------------------------------------------------------------------------
# (d) a replayed INCORRECT
# ---------------------------------------------------------------------------


def test_replayed_incorrect_keeps_counterexample_and_drops_timing(tmp_path):
    src, tgt, sm, tm = known_bug()
    path = str(tmp_path / "qc.jsonl")
    with qcache.activate(QueryCache(path, shards=2)):
        cold = run_verification_job(src, tgt, sm, tm, OPTS)
    assert cold.verdict is Verdict.INCORRECT
    assert cold.elapsed_s > 0 and cold.phase_times
    assert any(n.startswith("phase-times:") for n in cold.notes)
    cache = QueryCache(path, shards=2)  # a disk hit, not a memory one
    with qcache.activate(cache):
        replay = run_verification_job(src, tgt, sm, tm, OPTS)
    assert cache.pair_hits == 1 and cache.hits == 1 and cache.misses == 0
    assert replay.verdict is Verdict.INCORRECT
    assert replay.failed_check == cold.failed_check
    assert replay.counterexample == cold.to_json()["counterexample"]
    assert replay.counterexample
    assert replay.elapsed_s == 0.0 and replay.phase_times == {}
    assert not any(n.startswith("phase-times:") for n in replay.notes)
    assert replay.notes.count(PAIR_NOTE) == 1
    assert replay.notes[:-1] == [
        n for n in cold.notes if not n.startswith("phase-times:")
    ]
    assert replay.describe().startswith("Transformation doesn't verify!")


def test_from_json_inverts_to_json():
    result = RefinementResult(
        Verdict.INCORRECT,
        failed_check="ret",
        counterexample={"arg_x": 1, "isundef_y": False},
        approx_features=["fp"],
        elapsed_s=0.5,
        diagnostic={"type": "lint"},
        certificates=[
            Certificate("q", "d", True, lemmas=3, deletions=1, checked_lemmas=2, core=(4,))
        ],
        notes=["n"],
        phase_times={"solve": 0.25},
    )
    data = result.to_json(full_certificates=True)
    assert RefinementResult.from_json(data).to_json(full_certificates=True) == data


# ---------------------------------------------------------------------------
# (e) pair and query entries never answer each other
# ---------------------------------------------------------------------------


def test_pair_and_query_entries_never_answer_each_other(tmp_path):
    path = str(tmp_path / "qc.jsonl")
    cache = QueryCache(path, shards=2)
    pair_key, query_key = "dd" * 32, "ee" * 32
    assert cache.store_pair(pair_key, RefinementResult(Verdict.CORRECT))
    cache.store(query_key, "unsat")
    for c in (cache, QueryCache(path, shards=2)):
        assert c.lookup(pair_key) is None
        assert c.lookup_pair(query_key) is None
        assert c.lookup(query_key)["result"] == "unsat"
        assert c.lookup_pair(pair_key).verdict is Verdict.CORRECT
        assert c.pair_hits == 1


# ---------------------------------------------------------------------------
# (f) pooled runs read every shard
# ---------------------------------------------------------------------------


def _disk_pair_keys(path: str, shards: int) -> set:
    keys = set()
    for k in range(shards):
        name = shard_path(path, k, shards)
        if os.path.exists(name):
            with open(name) as fh:
                entries = [json.loads(line) for line in fh if line.strip()]
            keys.update(e["key"] for e in entries if e.get("kind") == "pair")
    return keys


def test_pooled_reruns_hit_every_definitive_pair(tmp_path):
    inproc_path = str(tmp_path / "inproc.jsonl")
    inproc = run_suite(CORPUS, OPTS, query_cache=inproc_path, cache_shards=8)
    path = str(tmp_path / "qc.jsonl")
    fill = run_suite(CORPUS, OPTS, jobs=2, query_cache=path, cache_shards=8)
    assert [stable(r) for r in fill.records] == [stable(r) for r in inproc.records]
    # A pooled fill persists every pair an in-process fill writes.  (Some
    # query digests follow the fresh-name counter, so the query entries
    # of the two fills may differ by schedule.)
    assert _disk_pair_keys(path, 8) == _disk_pair_keys(inproc_path, 8)
    expected = storable_pairs(fill)
    assert expected > 0

    cold = run_suite(CORPUS, OPTS, jobs=2, query_cache=path, cache_shards=8)
    assert [stable(r) for r in cold.records] == [stable(r) for r in fill.records]
    assert sum(c["pair_hits"] for c in cold.worker_cache.values()) == expected
    assert_every_pair_replayed(cold)

    with WarmPool(jobs=2, cache_path=path, cache_shards=8) as pool:
        warm = run_suite(CORPUS, OPTS, warm_pool=pool)
    assert [stable(r) for r in warm.records] == [stable(r) for r in fill.records]
    assert_every_pair_replayed(warm)


def assert_every_pair_replayed(outcome) -> None:
    """Each pair of each test was one cache lookup, and a hit: a pair
    miss or a query lookup would count a miss or an extra hit."""
    for r in outcome.records:
        assert r.qcache_misses == 0, r.test
        assert r.qcache_hits == sum(r.verdicts.values()), r.test
        assert r.solver_checks == 0, r.test


# ---------------------------------------------------------------------------
# (g) the key does not depend on the hash seed
# ---------------------------------------------------------------------------


_KEY_SCRIPT = """
import sys
from repro.engine.qcache import pair_fingerprint
from repro.ir.parser import parse_module
from repro.refinement.check import VerifyOptions
ir = sys.stdin.read()
sm, tm = parse_module(ir).seal(), parse_module(ir.replace("nsw nuw", "nuw")).seal()
f = sm.get_function("f")
print(pair_fingerprint(f, tm.get_function("f"), sm, tm, VerifyOptions(), True))
"""

_SEED_IR = """
@g = global i8 1
@h = constant i8 2
declare i8 @ext(i8 noundef, i8) readnone willreturn nounwind

define i8 @f(i8 noundef nocapture %x, ptr nonnull noundef readonly %p) mustprogress willreturn nofree {
entry:
  %a = add nsw nuw i8 %x, 1
  %b = call i8 @ext(i8 %a, i8 %x)
  ret i8 %b
}
"""


def test_key_is_the_same_under_any_hash_seed():
    keys = set()
    for seed in ("1", "2", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC_DIR)
        out = subprocess.run(
            [sys.executable, "-c", _KEY_SCRIPT],
            input=_SEED_IR,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        keys.add(out.stdout.strip())
    assert len(keys) == 1 and len(keys.pop()) == 64
