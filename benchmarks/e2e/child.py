"""One benchmark round in a fresh interpreter; ``bench.py`` spawns it.

Usage: ``python benchmarks/e2e/child.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  The spec names the workload, seed, round index, option
overrides, whether to trace, a work directory, and the parent's
``time.monotonic()`` reading taken just before the spawn (Linux's
monotonic clock is system-wide, so the two readings compare).  The round
prints one JSON object on stdout:

* set-up: spawn to the start of the timed phase (imports, input
  generation, query-cache copy);
* timed phase: one ``run_suite`` call over the round's tests;
* per-pair latencies, verdict counts and digest, oracle failures, the
  peak RSS of the round process and of its largest pool worker, a reading
  of a fixed reference loop (the host's current speed), and -- traced --
  per-layer calls, self times and counters.

With ``"fixture": true`` it instead fills the rerun workload's persistent
query cache with a pooled run over the seed inputs and prints its time.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import probe
import workloads
from repro.suite.runner import run_suite

CACHE_SHARDS = 8


def _jobs() -> int:
    return min(2, os.cpu_count() or 1)


def reference_work() -> int:
    """A fixed slice of interpreter work (tuples, dicts, calls, a sort) that
    never touches the program: its time tracks the host's current speed."""
    table = {}
    for i in range(20000):
        key = (i % 97, i % 89, str(i % 1013))
        table[key] = table.get(key, 0) + 1
    return len(sorted(table.items(), key=lambda kv: (kv[1], kv[0])))


def reference_s(repeat: int = 7) -> float:
    """Fastest of ``repeat`` timings of :func:`reference_work`, with the
    collector off so the round's heap does not leak into the reading."""
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def fill_fixture(spec: dict) -> dict:
    cache = Path(spec["cache"])
    cache.parent.mkdir(parents=True, exist_ok=True)
    tests = [c.test for c in workloads.rerun_fixture_cases(spec["seed"])]
    t0 = time.perf_counter()
    run_suite(
        tests,
        workloads.options_for("rerun", spec["overrides"]),
        jobs=_jobs(),
        query_cache=str(cache),
        cache_shards=CACHE_SHARDS,
    )
    return {"fixture_s": time.perf_counter() - t0}


def run_round(spec: dict) -> dict:
    workload = spec["workload"]
    work = Path(spec["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    cases = workloads.round_cases(workload, spec["seed"], spec["round"], spec["size"])
    options = workloads.options_for(workload, spec["overrides"])
    pool = {}
    if workload == "rerun":
        # A fresh copy per round: every round reads the same old entries.
        fixture = Path(spec["cache"])
        for shard in fixture.parent.glob(fixture.name + ".shard-*"):
            shutil.copyfile(shard, work / shard.name)
        pool = {
            "jobs": _jobs(),
            "query_cache": str(work / fixture.name),
            "cache_shards": CACHE_SHARDS,
        }
    tracer = probe.Probe(work, spec["trace"])
    tracer.install()
    tests = [c.test for c in cases]

    setup_s = time.monotonic() - spec["spawned_at"]
    root = tracer.open(probe.ROOT_LAYER) if spec["trace"] else None
    t0 = time.perf_counter()
    outcome = run_suite(tests, options, inject_bugs=True, **pool)
    wall_s = time.perf_counter() - t0
    if root is not None:
        tracer.close(root)
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the pool workers.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    max_rss_mb = max(peak_rss_mb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    ref_s = reference_s()
    tracer.uninstall()
    probe.collect_spills(tracer)

    # The oracle may re-verify a suspect test: after timing and RSS.
    failed, errors, rows = 0, [], []
    for case, record in zip(cases, outcome.records):
        rows.append((case.test.name, record.verdicts))
        bad, known = workloads.check(case, record.verdicts, options)
        failed += len(bad)
        if bad or known:
            errors.append(
                {"test": case.test.name, "ir_sha": workloads.ir_sha(case), "why": bad + known}
            )
    tally = outcome.tally
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "tests": len(cases),
        "attempted": tally.analyzed,
        "decided": tally.correct + tally.incorrect,
        "failed": failed,
        "errors": errors,
        "digest": workloads.verdict_digest(rows),
        "lat_ms": [ms for ms, _verdict in tracer.pairs],
        "peak_rss_mb": peak_rss_mb,
        "max_rss_mb": max_rss_mb,
        "reference_s": ref_s,
    }
    if spec["trace"]:
        result["layers"] = probe.self_times(tracer.spans)
        result["counters"] = dict(tracer.counters)
        result["counters"].update(_tally_counters(outcome, wall_s, pool.get("jobs", 1)))
        _write_trace(Path(spec["trace_file"]), tracer.spans)
    return result


def _tally_counters(outcome, wall_s: float, jobs: int) -> dict:
    """Counters the suite already threads through records and the tally."""
    t = outcome.tally
    workers = {r.worker for r in outcome.records if r.worker is not None}
    return {
        "prescreen.hits": t.prescreen_hits,
        "prescreen.misses": t.prescreen_misses,
        "relational.rule_hits": t.relational_rule_hits,
        "relational.seed_pairs": t.relational_seed_pairs,
        "relational.aligned_blocks": t.relational_aligned_blocks,
        "egraph.proved": t.egraph_proved,
        "egraph.shrunk": t.egraph_shrunk,
        "egraph.unchanged": t.egraph_misses,
        "memdf.rule_hits": t.memdf_rule_hits,
        "memdf.narrowed": t.memdf_narrowed,
        "memdf.block_skips": t.memdf_block_skips,
        "engine.qcache.lookups": t.qcache_hits + t.qcache_misses,
        "engine.qcache.hits": t.qcache_hits,
        "engine.qcache.load_bytes": t.qcache_load_bytes,
        "engine.qcache.evictions": t.qcache_evictions,
        "engine.pool.workers": len(workers),
        "engine.pool.busy_s": sum(r.elapsed_s for r in outcome.records) if workers else 0.0,
        "engine.pool.capacity_s": jobs * wall_s if workers else 0.0,
    }


def _write_trace(path: Path, spans) -> None:
    """Append this round's spans, one JSON array per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = fill_fixture(spec) if spec.get("fixture") else run_round(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
