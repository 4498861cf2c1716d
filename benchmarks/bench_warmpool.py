"""E14 — warmpool: persistent workers + sharded cache vs cold spawn.

A batch `--jobs N` run normally pays process-pool spawn, module import,
term re-interning, and a full result-cache load on *every* invocation.
The warm pool (`repro.engine.warmpool`) keeps the pre-forked workers of
the serve supervisor alive between runs; every worker, warm or cold,
loads every shard of the digest-routed cache (`repro.engine.qcache`).
This benchmark measures:

* warm-pool repeat runs are strictly faster than cold-spawn repeats of
  the same corpus at the same job count;
* verdicts are identical across cold/warm x sharded/single-file x
  ``--certify``, and across concurrent serve clients.

Per-worker cache-load bytes are no longer an axis: every worker loads
the whole disk tier (EXPERIMENTS.md E20).  Raw numbers land in
``BENCH_warmpool.json``.
"""

import hashlib
import json
import os
import threading
import time
from pathlib import Path

from conftest import print_table

from repro.engine.qcache import QueryCache, shard_index, shard_path
from repro.engine.warmpool import WarmPool
from repro.refinement.check import RefinementResult, Verdict, VerifyOptions
from repro.serve import ServeConfig, protocol
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus

OPTS = VerifyOptions(timeout_s=10.0)
CERT_OPTS = VerifyOptions(timeout_s=10.0, certify=True)
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_warmpool.json"
REPEATS = 3
SHARDS = 8
#: Synthetic entries padding both cache layouts to deployment scale (a
#: long-lived cache holds every pair the corpus history ever verified;
#: the per-run reload of that file is what the warm pool amortizes).
#: Kept under the default LRU bound so padding never evicts real entries.
PAD_ENTRIES = 50_000


def _pad(path: str, shards: int) -> None:
    """Append ``PAD_ENTRIES`` synthetic pair entries straight into the
    files of the ``shards``-way layout at ``path``, each in the shard its
    key routes to."""
    probe = QueryCache()
    probe.store_pair("0" * 64, RefinementResult(Verdict.CORRECT))
    template = probe._shards[0].get("0" * 64)
    lines = {}
    for i in range(PAD_ENTRIES):
        key = hashlib.sha256(f"pad-{i}".encode()).hexdigest()
        entry = json.dumps(dict(template, key=key), sort_keys=True) + "\n"
        lines.setdefault(shard_index(key, shards), []).append(entry)
    for k, shard_lines in lines.items():
        with open(shard_path(path, k, shards), "a", encoding="utf-8") as fh:
            fh.writelines(shard_lines)


def _stable(records):
    return [
        (r.test, tuple(sorted(r.verdicts.items())), r.detected, r.missed)
        for r in records
    ]


def test_bench_warmpool(benchmark, tmp_path):
    corpus = build_corpus()
    # Fixed worker count: the axis under test is per-run reload
    # amortization, which needs a real multi-worker pool;
    # on small CI machines the workers time-slice, which still measures
    # (and if anything understates) the warm pool's advantage.
    jobs = 4
    single_path = str(tmp_path / "single.jsonl")
    sharded_path = str(tmp_path / "sharded.jsonl")

    def run():
        results = {"times": {}, "records": {}}

        # Seed both cache layouts with the same entry population: real
        # entries from a cold run each, plus the same synthetic padding
        # to deployment scale written straight into their files.
        for label, path, shards in (
            ("cold/single-file", single_path, 1),
            ("cold/sharded fill", sharded_path, SHARDS),
        ):
            out = run_suite(
                corpus, OPTS, inject_bugs=True, jobs=jobs,
                query_cache=path, cache_shards=shards,
            )
            results["records"][label] = out.records
            _pad(path, shards)
        results["cache_bytes"] = os.path.getsize(single_path)

        # -- axis 1: cold-spawn vs warm-pool wall clock -------------------
        # Cold is a fresh process pool per run, every worker eagerly
        # re-loading the whole single-file cache and re-interning terms
        # from scratch.  Warm is one persistent sharded pool that pays
        # fork + shard load once.  Repeats are interleaved cold/warm
        # pairs so machine drift hits both configurations equally.
        cold_times = []
        warm_times = []
        with WarmPool(
            jobs=jobs, cache_path=sharded_path, cache_shards=SHARDS
        ) as pool:
            start = time.monotonic()
            out = run_suite(corpus, OPTS, inject_bugs=True, warm_pool=pool)
            results["times"]["warm first (fork+load)"] = [
                time.monotonic() - start
            ]
            for _ in range(REPEATS):
                start = time.monotonic()
                cold_out = run_suite(
                    corpus, OPTS, inject_bugs=True, jobs=jobs,
                    query_cache=single_path, cache_shards=1,
                )
                cold_times.append(time.monotonic() - start)
                start = time.monotonic()
                out = run_suite(
                    corpus, OPTS, inject_bugs=True, warm_pool=pool
                )
                warm_times.append(time.monotonic() - start)
            results["times"]["cold-spawn"] = cold_times
            results["times"]["warm-pool"] = warm_times
            results["records"]["warm/sharded"] = out.records
        results["records"]["cold/single-file repeat"] = cold_out.records

        # -- axis 2: parity sweep (cold/sharded, warm/single-file, certify)
        results["records"]["cold/sharded"] = run_suite(
            corpus, OPTS, inject_bugs=True, jobs=jobs,
            query_cache=sharded_path, cache_shards=SHARDS,
        ).records
        with WarmPool(jobs=jobs, cache_path=single_path) as pool:
            out = run_suite(corpus, OPTS, inject_bugs=True, warm_pool=pool)
            results["records"]["warm/single-file"] = out.records
        results["records"]["cold/certify"] = run_suite(
            corpus, CERT_OPTS, inject_bugs=True, jobs=jobs,
            query_cache=sharded_path, cache_shards=SHARDS,
        ).records
        with WarmPool(
            jobs=jobs, cache_path=sharded_path, cache_shards=SHARDS
        ) as pool:
            out = run_suite(corpus, CERT_OPTS, inject_bugs=True, warm_pool=pool)
            results["records"]["warm/certify"] = out.records

        # -- axis 3: concurrent clients against one warm daemon ----------
        spec = f"unix:{tmp_path / 'bench.sock'}"
        config = ServeConfig(
            workers=jobs,
            queue_limit=65536,
            cache_enabled=True,
            cache_path=sharded_path,
            cache_shards=SHARDS,
            default_options=OPTS.to_json(),
        )
        server = ServeServer(protocol.parse_address(spec), config).start()
        try:
            clients_axis = {}
            for n_clients in (1, 4):
                got = {}
                def one(k):
                    with ServeClient(spec) as client:
                        got[k] = client.submit_corpus(
                            corpus, OPTS, inject_bugs=True
                        )
                threads = [
                    threading.Thread(target=one, args=(k,))
                    for k in range(n_clients)
                ]
                start = time.monotonic()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                wall = time.monotonic() - start
                clients_axis[n_clients] = {
                    "wall_s": round(wall, 3),
                    "verdicts_per_s": round(
                        n_clients * len(corpus) / wall, 1
                    ),
                    "records": got,
                }
            results["clients"] = clients_axis
        finally:
            server.close(drain_timeout_s=10.0)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    times = results["times"]
    cold_mean = sum(times["cold-spawn"]) / len(times["cold-spawn"])
    warm_mean = sum(times["warm-pool"]) / len(times["warm-pool"])
    rows = [
        {
            "config": label,
            "runs": len(walls),
            "mean_s": round(sum(walls) / len(walls), 3),
            "tests/s": round(len(build_corpus()) * len(walls) / sum(walls), 1),
        }
        for label, walls in times.items()
    ]
    print_table("E14: cold-spawn vs warm-pool wall clock", rows)

    client_rows = [
        {
            "clients": n,
            "wall_s": axis["wall_s"],
            "verdicts/s": axis["verdicts_per_s"],
        }
        for n, axis in results["clients"].items()
    ]
    print_table("E14: concurrent clients, one warm daemon", client_rows)

    # Acceptance 1: warm repeats strictly faster than cold-spawn repeats.
    assert warm_mean < cold_mean, (warm_mean, cold_mean)

    # Acceptance 2: identical verdicts across every configuration.
    baseline = _stable(results["records"]["cold/single-file"])
    for label in (
        "cold/sharded fill", "warm/sharded", "cold/single-file repeat",
        "cold/sharded", "warm/single-file",
    ):
        assert _stable(results["records"][label]) == baseline, label
    cert_baseline = _stable(results["records"]["cold/certify"])
    assert _stable(results["records"]["warm/certify"]) == cert_baseline
    names = [t.name for t in corpus]
    for n, axis in results["clients"].items():
        for k, records in axis["records"].items():
            assert [r.test for r in records] == names, (n, k)
            assert _stable(records) == baseline, (n, k)

    OUT_PATH.write_text(
        json.dumps(
            {
                "bench": "warmpool",
                "corpus_tests": len(corpus),
                "jobs": jobs,
                "shards": SHARDS,
                "cpu_count": os.cpu_count(),
                "cache_entries_padded": PAD_ENTRIES,
                "cache_file_bytes": results["cache_bytes"],
                "wall_clock": {
                    label: {
                        "runs": [round(w, 3) for w in walls],
                        "mean_s": round(sum(walls) / len(walls), 3),
                    }
                    for label, walls in times.items()
                },
                "warm_speedup_vs_cold_spawn": round(cold_mean / warm_mean, 2),
                "concurrent_clients": {
                    str(n): {
                        "wall_s": axis["wall_s"],
                        "verdicts_per_s": axis["verdicts_per_s"],
                    }
                    for n, axis in results["clients"].items()
                },
                "verdict_parity": {
                    "configs": sorted(results["records"]),
                    "identical": True,
                },
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
