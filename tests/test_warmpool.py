"""Tests for the warm pool and the sharded two-tier result cache.

Contract under test: shard routing is a pure function of the digest,
every instance loads every shard and reads what other writers appended
since, the in-memory tier is a real bounded LRU, and a persistent warm
pool produces verdicts identical to the cold sequential path — including
under ``--certify``, intern-table trimming, and injected worker deaths.
"""

import hashlib
import json
import os

from repro.engine import qcache
from repro.engine.qcache import (
    MIN_SHRINK_ENTRIES,
    CacheShard,
    QueryCache,
    shard_index,
    shard_path,
)
from repro.engine.warmpool import WarmPool
from repro.harness.degrade import DegradationLadder
from repro.harness.faults import FaultPlan, FaultSpec
from repro.refinement.check import RefinementResult, Verdict, VerifyOptions
from repro.serve.supervisor import ServeConfig
from repro.suite.runner import run_suite
from repro.suite.unittests import build_corpus

OPTS = VerifyOptions(timeout_s=10.0)
CORPUS = build_corpus()[:8]
CORRECT = RefinementResult(Verdict.CORRECT)


def digests(n: int):
    """Deterministic hex digests, like pair fingerprints."""
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


def pair_entry(key: str) -> dict:
    """A well-formed cache entry, as ``store_pair`` writes it."""
    cache = QueryCache()
    assert cache.store_pair(key, CORRECT)
    return cache._shards[0].get(key)


def stable(record) -> dict:
    """The timing-free view of a record used for parity assertions."""
    return {
        "test": record.test,
        "verdicts": record.verdicts,
        "detected": record.detected,
        "missed": record.missed,
        "clean_failure": record.clean_failure,
        "degradations": record.degradations,
    }


# ---------------------------------------------------------------------------
# In-memory LRU tier
# ---------------------------------------------------------------------------


def test_lru_evicts_least_recently_used_first():
    shard = CacheShard(0, None, max_entries=3)
    a, b, c, d = digests(4)
    for key in (a, b, c):
        shard.put(key, pair_entry(key))
    assert shard.get(a) is not None  # refresh a: b is now the oldest
    shard.put(d, pair_entry(d))
    assert shard.get(b) is None  # evicted in recency order, not insertion
    assert shard.get(a) is not None
    assert shard.get(c) is not None
    assert shard.get(d) is not None
    assert shard.evictions == 1
    assert len(shard.entries) == 3


def test_lru_byte_bound_evicts_and_counts():
    entry = pair_entry("x")
    cost = CacheShard._entry_cost(entry)
    shard = CacheShard(0, None, max_entries=1000, max_bytes=3 * cost)
    keys = digests(5)
    for key in keys:
        shard.put(key, pair_entry(key))
    assert shard.evictions >= 1
    assert shard.mem_bytes <= 3 * (cost + 64)  # keys differ a little in cost
    assert shard.get(keys[-1]) is not None  # newest survives
    counters = shard.counters()
    assert counters["evictions"] == shard.evictions
    assert counters["entries"] == len(shard.entries)


def test_query_cache_counters_expose_shard_tier():
    cache = QueryCache(None, shards=4)
    d = digests(6)
    for key in d:
        cache.store_pair(key, CORRECT)
    counters = cache.counters()
    assert counters["shards"] == 4
    assert counters["stores"] == counters["entries"] == len(d)
    assert counters["hits"] == counters["misses"] == 0
    assert counters["evictions"] == 0
    assert len(counters["per_shard"]) == 4
    assert sum(s["entries"] for s in counters["per_shard"]) == len(d)


# ---------------------------------------------------------------------------
# Shard routing + on-disk layout
# ---------------------------------------------------------------------------


def test_shard_routing_is_deterministic_and_prefix_based():
    for digest in digests(64):
        expected = int(digest[:8], 16) % 8
        assert shard_index(digest, 8) == expected
        assert shard_index(digest, 8) == shard_index(digest, 8)
        assert shard_index(digest, 1) == 0
    # Routing must hit every shard on a uniform digest population.
    assert {shard_index(d, 4) for d in digests(256)} == {0, 1, 2, 3}


def test_entries_land_in_their_routed_shard_file(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = QueryCache(path, shards=4)
    keys = digests(32)
    for key in keys:
        cache.store_pair(key, CORRECT)
    for k in range(4):
        shard_file = shard_path(path, k, 4)
        want = sorted(key for key in keys if shard_index(key, 4) == k)
        with open(shard_file, encoding="utf-8") as fh:
            got = sorted(json.loads(line)["key"] for line in fh)
        assert got == want
    # A fresh instance (another process, in effect) sees every entry.
    fresh = QueryCache(path, shards=4)
    assert all(fresh.lookup_pair(key) is not None for key in keys)
    assert fresh.hits == len(keys)


def test_every_instance_loads_and_appends_every_shard(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    keys = digests(40)
    full = QueryCache(path, shards=4)
    for key in keys:
        full.store_pair(key, CORRECT)

    other = QueryCache(path, shards=4)
    counters = other.counters()
    # Loads the whole disk tier, every shard...
    assert counters["load_entries"] == len(keys)
    total_bytes = sum(
        os.path.getsize(shard_path(path, k, 4)) for k in range(4)
    )
    assert counters["load_bytes"] == total_bytes
    assert {s["load_entries"] > 0 for s in counters["per_shard"]} == {True}
    assert all(other.lookup_pair(k) is not None for k in keys)
    # ...and appends each store to the shard file its digest routes to.
    new = hashlib.sha256(b"new").hexdigest()
    routed = shard_path(path, shard_index(new, 4), 4)
    size_before = os.path.getsize(routed)
    other.store_pair(new, CORRECT)
    assert os.path.getsize(routed) > size_before
    assert QueryCache(path, shards=4).lookup_pair(new) is not None
    # A long-lived instance reads it on refresh, and nothing twice.
    assert full.lookup_pair(new) is None
    assert full.refresh() == 1
    assert full.lookup_pair(new) is not None
    assert full.refresh() == 0


def test_refresh_reads_complete_lines_and_rereads_replaced_files(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    reader = QueryCache(path, shards=2)
    writer = QueryCache(path, shards=2)
    keys = [k for k in digests(40) if shard_index(k, 2) == 0][:3]
    routed = shard_path(path, 0, 2)
    # An append still in flight (no newline yet) is left for later.
    line = json.dumps(pair_entry(keys[0]), sort_keys=True)
    with open(routed, "a", encoding="utf-8") as fh:
        fh.write(line[:20])
    assert reader.refresh() == 0
    assert reader.dropped_lines == 0
    with open(routed, "a", encoding="utf-8") as fh:
        fh.write(line[20:] + "\n")
    assert reader.refresh() == 1
    assert reader.lookup_pair(keys[0]) is not None
    with open(routed, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    assert reader.refresh() == 0
    assert reader.dropped_lines == 1
    # A file heal() replaced (here shorter than what was read) is read
    # again from the start, not from the old offset.
    writer.heal()
    writer.store_pair(keys[1], CORRECT)
    assert reader.refresh() == 1
    assert reader.lookup_pair(keys[1]) is not None
    assert reader.dropped_lines == 1
    # So is a file that shrank under the bytes already read.
    with open(routed, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(pair_entry(keys[2]), sort_keys=True) + "\n")
    assert reader.refresh() == 1
    assert reader.lookup_pair(keys[2]) is not None


def _store_pairs(path: str, start: int, n: int) -> None:
    cache = QueryCache(path, shards=2)
    for key in digests(start + n)[start:]:
        cache.store_pair(key, CORRECT)


def test_refresh_under_concurrent_writers_loses_nothing(tmp_path):
    """More writer processes than cores append while a reader refreshes
    in a loop: the reader never consumes a partial line, so it ends with
    every entry and nothing quarantined."""
    import multiprocessing
    import time

    path = str(tmp_path / "cache.jsonl")
    reader = QueryCache(path, shards=2)
    ctx = multiprocessing.get_context("spawn")
    writers = [
        ctx.Process(target=_store_pairs, args=(path, k * 200, 200))
        for k in range(3)
    ]
    for w in writers:
        w.start()
    deadline = time.monotonic() + 60.0
    while any(w.is_alive() for w in writers) and time.monotonic() < deadline:
        reader.refresh()
    for w in writers:
        w.join(timeout=10.0)
        assert not w.is_alive() and w.exitcode == 0
    reader.refresh()
    assert reader.dropped_lines == 0
    assert len(reader) == 600


def test_sharded_heal_discards_corrupt_lines(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = QueryCache(path, shards=2)
    keys = digests(10)
    for key in keys:
        cache.store_pair(key, CORRECT)
    for k in range(2):
        with open(shard_path(path, k, 2), "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
            fh.write('{"v": 1, "key": "stale", "result": "unsat"}\n')
    fresh = QueryCache(path, shards=2)
    assert fresh.dropped_lines == 4
    assert fresh.heal() == 4
    healed = QueryCache(path, shards=2)
    assert healed.dropped_lines == 0
    assert all(healed.lookup_pair(k) is not None for k in keys)


# ---------------------------------------------------------------------------
# lru-shrink degradation rung
# ---------------------------------------------------------------------------


def test_memout_rung_shrinks_active_cache_lru():
    cache = QueryCache(None, shards=2, max_entries=1024)
    ladder = DegradationLadder()
    with qcache.activate(cache):
        steps, _opts = ladder.next_rung(OPTS, memout=True)
    shrink_steps = [s for s in steps if s.startswith("lru-shrink:")]
    assert shrink_steps == ["lru-shrink:1024->512"]
    assert cache.max_entries == 512


def test_shrink_halves_to_floor_then_stops_and_evicts():
    cache = QueryCache(None, max_entries=4 * MIN_SHRINK_ENTRIES)
    keys = digests(3 * MIN_SHRINK_ENTRIES)
    for key in keys:
        cache.store_pair(key, CORRECT)
    assert len(cache) == len(keys)
    assert cache.shrink() is not None  # -> 2*floor
    assert cache.shrink() == (2 * MIN_SHRINK_ENTRIES, MIN_SHRINK_ENTRIES)
    assert cache.shrink() is None  # at the floor
    assert len(cache) <= MIN_SHRINK_ENTRIES  # shrink evicted immediately
    assert cache.counters()["evictions"] >= len(keys) - MIN_SHRINK_ENTRIES


def test_timeout_rung_does_not_touch_the_cache():
    cache = QueryCache(None, max_entries=1024)
    ladder = DegradationLadder()
    with qcache.activate(cache):
        steps, _opts = ladder.next_rung(OPTS)  # TIMEOUT-style rung
    assert not any(s.startswith("lru-shrink:") for s in steps)
    assert cache.max_entries == 1024


# ---------------------------------------------------------------------------
# Warm pool: verdict parity with the cold paths
# ---------------------------------------------------------------------------


def test_warm_pool_matches_sequential_and_stays_warm():
    baseline = run_suite(CORPUS, OPTS, inject_bugs=True, jobs=1)
    with WarmPool(jobs=2) as pool:
        first = run_suite(CORPUS, OPTS, inject_bugs=True, warm_pool=pool)
        second = run_suite(CORPUS, OPTS, inject_bugs=True, warm_pool=pool)
    want = [stable(r) for r in baseline.records]
    assert [stable(r) for r in first.records] == want
    assert [stable(r) for r in second.records] == want
    # Same worker pids across runs: the pool is persistent, not respawned.
    pids_first = {r.worker for r in first.records}
    pids_second = {r.worker for r in second.records}
    assert pids_first and pids_first == pids_second
    assert pool.runs == 2


def test_warm_pool_certify_parity():
    opts = VerifyOptions(timeout_s=10.0, certify=True)
    baseline = run_suite(CORPUS[:6], opts, inject_bugs=True, jobs=1)
    with WarmPool(jobs=2) as pool:
        warm = run_suite(CORPUS[:6], opts, inject_bugs=True, warm_pool=pool)
    assert [stable(r) for r in warm.records] == [
        stable(r) for r in baseline.records
    ]
    assert warm.tally.certified_unsat == baseline.tally.certified_unsat
    assert warm.tally.cert_failures == baseline.tally.cert_failures


def test_warm_pool_intern_trim_parity():
    """A worker that trims its interned-term universe after every test
    (limit 1) and one that never trims (huge limit) agree verdict-for-
    verdict: warm interning is a cache, never a semantic input."""
    trimmed_records = hot_records = None
    with WarmPool(jobs=2, intern_limit=1) as pool:
        trimmed_records = pool.run(CORPUS, OPTS)
    with WarmPool(jobs=2, intern_limit=10**9) as pool:
        hot_records = pool.run(CORPUS, OPTS)
    assert [stable(r) for r in trimmed_records] == [
        stable(r) for r in hot_records
    ]


def test_warm_pool_chunk_crash_isolates_to_singletons():
    victim = CORPUS[3].name
    plan = FaultPlan({victim: FaultSpec(kind="die", site="solve")})
    config = ServeConfig(
        workers=2,
        queue_limit=65536,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=1.0,
        task_grace_s=5.0,
        backoff_base_s=0.05,
        backoff_cap_s=0.2,
        fault_plan=plan,
        fault_attempts=(1,),  # only each request's first dispatch faults
        default_options=OPTS.to_json(),
    )
    with WarmPool(config=config) as pool:
        records = pool.run(CORPUS, OPTS)
        health = pool.health()
    assert [r.test for r in records] == [t.name for t in CORPUS]
    # The chunk died once, its members were resubmitted individually, and
    # the victim's singleton retry produced a real verdict.
    assert all("crash" not in r.verdicts for r in records)
    assert health["stats"]["worker_deaths"] >= 1


def test_warm_pool_journal_resume(tmp_path):
    journal = tmp_path / "journal.jsonl"
    with WarmPool(jobs=2) as pool:
        full = run_suite(
            CORPUS, OPTS, inject_bugs=True, warm_pool=pool, journal=str(journal)
        )
        resumed = run_suite(
            CORPUS, OPTS, inject_bugs=True, warm_pool=pool, journal=str(journal)
        )
    assert resumed.resumed == len(CORPUS)
    assert [stable(r) for r in resumed.records] == [
        stable(r) for r in full.records
    ]


def test_warm_pool_sharded_cache_reports_per_worker_counters(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with WarmPool(jobs=2, cache_path=path, cache_shards=4) as pool:
        first = run_suite(CORPUS, OPTS, inject_bugs=True, warm_pool=pool)
        second = run_suite(CORPUS, OPTS, inject_bugs=True, warm_pool=pool)
    assert [stable(r) for r in first.records] == [
        stable(r) for r in second.records
    ]
    assert second.tally.qcache_hits > 0  # warm tier replayed pairs
    assert pool.worker_cache  # per-worker counters came back
    for counters in pool.worker_cache.values():
        assert counters["shards"] == 4
        assert "owned_shards" not in counters
    assert sum(c["hits"] for c in pool.worker_cache.values()) > 0
    # Shard files exist on disk; no single file was written.
    assert not os.path.exists(path)
    assert any(
        os.path.exists(shard_path(path, k, 4)) for k in range(4)
    )


# ---------------------------------------------------------------------------
# Cold pool with sharded cache (engine.pool threading)
# ---------------------------------------------------------------------------


def test_jobs_run_with_sharded_cache_matches_sequential(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    baseline = run_suite(CORPUS, OPTS, inject_bugs=True, jobs=1)
    outcome = run_suite(
        CORPUS,
        OPTS,
        inject_bugs=True,
        jobs=2,
        query_cache=path,
        cache_shards=4,
    )
    assert [stable(r) for r in outcome.records] == [
        stable(r) for r in baseline.records
    ]
    assert outcome.worker_cache  # pool returned per-worker counters
    total_bytes = sum(
        os.path.getsize(shard_path(path, k, 4))
        for k in range(4)
        if os.path.exists(shard_path(path, k, 4))
    )
    # A second pooled run loads every shard in every worker.
    again = run_suite(
        CORPUS,
        OPTS,
        inject_bugs=True,
        jobs=2,
        query_cache=path,
        cache_shards=4,
    )
    assert [stable(r) for r in again.records] == [
        stable(r) for r in baseline.records
    ]
    assert again.tally.qcache_load_bytes > 0
    for counters in again.worker_cache.values():
        assert counters["load_bytes"] >= total_bytes
        assert "owned_shards" not in counters
