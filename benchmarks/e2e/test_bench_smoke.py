"""Smoke test of the end-to-end benchmark at a tiny round size.

Run from the repository root: ``python -m pytest benchmarks/e2e -q``.
Every workload runs one untraced and one traced round of a few tests
through the same code path a full run uses.
"""

from __future__ import annotations

import json
import sys

import pytest

import bench

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Workloads whose pairs all run in the round's own process.
IN_PROCESS = ("unittests", "arith", "memloop")


def _run(capsys, workload: str, trace: str) -> dict:
    code = bench.main(
        ["--workload", workload, "--seed", "1", "--seconds", str(2 * bench.ROUND_SECONDS),
         "--trace", trace, "--round-size", "6"]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_oracle_passes(capsys, workload):
    for trace, metrics in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        result = _run(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in metrics]
        for m in metrics:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            if trace == "0":
                assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_self_times_cover_the_traced_wall(workload):
    summary = bench.run(workload, 1, bench.ROUND_SECONDS * 2, True, {}, round_size=6)
    layers = summary["per_layer"]
    self_total = sum(layers[f"{name}.self_s"] for name in bench.ALL_LAYERS)
    assert self_total == pytest.approx(layers["trace.wall_s"], rel=0.05)
    assert layers["engine.qcache.lookups"] == 0


def test_rerun_uses_pool_and_cache():
    layers = bench.run("rerun", 1, bench.ROUND_SECONDS * 2, True, {}, round_size=6)["per_layer"]
    assert layers["engine.qcache.lookups"] > 0
    assert layers["engine.qcache.hits"] > 0
    assert layers["engine.pool.workers"] >= 1


def test_set_override_is_applied_and_validated(capsys):
    code = bench.main(["--workload", "arith", "--seconds", "2.5", "--round-size", "3",
                       "--set", "max_conflicts=50"])
    assert code == 0
    assert "set-max_conflicts=50" in capsys.readouterr().out
    assert bench.main(["--workload", "arith", "--set", "no_such_field=1"]) == 2
    assert bench.main(["--set", "max_conflicts=1", "--write-baseline", "x"]) == 2


def test_known_false_alarm_is_listed_not_failed():
    sys.path.insert(0, str(bench.ROOT / "src"))
    import workloads

    # A clean arith function whose DCE step check 2 refutes with an undef
    # argument: the verifier's known false alarm.
    case = workloads.arith_cases(5, 79, 80)[0]
    assert case.expect == workloads.CLEAN
    failed, known = workloads.check(case, {"incorrect": 1, "correct": 1},
                                    workloads.options_for("arith", {}))
    assert failed == [] and known == [workloads.KNOWN_FALSE_ALARM]
    # Any other clean-pipeline INCORRECT still fails the run.
    clean = workloads.arith_cases(5, 0, 1)[0]
    assert clean.expect == workloads.CLEAN
    assert workloads.check(clean, {"incorrect": 1}, workloads.options_for("arith", {}))[0]
