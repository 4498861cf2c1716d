"""Process-pool scheduler for parallel corpus verification.

The suite runner's throughput — not single-query latency — dominates
wall-clock on whole-corpus runs (the paper validates ~37k unit tests
under per-function budgets).  This module fans per-test jobs out to a
pool of worker processes:

* each worker is its own crash-isolation domain: a hard interpreter
  death (segfault, OOM-kill) loses one test, not the run — strictly
  stronger than the in-process containment of the sequential path,
  which still catches soft failures inside the worker.  A dead worker
  breaks the whole :class:`ProcessPoolExecutor`, and the executor cannot
  say *which* queued test killed it — every pending future raises
  ``BrokenProcessPool``.  Collateral tests are therefore retried without
  being charged an attempt; only after repeated pool collapses does the
  scheduler fall back to one-test-per-pool isolation, where a death is
  unambiguously attributable and counts toward the CRASH verdict;
* the parent is the **single journal writer**: workers return plain
  JSON records and the parent appends them to the run journal as they
  complete, so ``--journal`` resume stays crash-safe under parallelism;
* record ordering is deterministic: the caller merges results in corpus
  order regardless of completion order;
* tests are **batched per worker task**: individual tests are
  milliseconds of work, so per-test dispatch (pickle the test, ship it,
  pickle the record back) used to dominate and made ``--jobs`` *slower*
  than sequential.  The scheduler now submits contiguous chunks of
  ``task_batch`` tests per task (default: enough for ~4 tasks per
  worker), amortizing dispatch while keeping the pool load-balanced;
  journal appends happen per completed chunk, so a crash re-runs at most
  one chunk per worker;
* workers reset the term intern table before every test, bounding
  memory across long runs, and each owns a private
  :class:`~repro.engine.qcache.QueryCache` that loads every shard of the
  on-disk cache when one is configured and appends each store to the
  shard its digest routes to (appends are line-atomic and loading is
  corruption-tolerant, so concurrent writers are safe).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

from repro.engine import qcache
from repro.harness import faults
from repro.harness.degrade import DegradationLadder
from repro.harness.faults import FaultPlan
from repro.harness.journal import RunJournal
from repro.refinement.check import Verdict, VerifyOptions
from repro.suite.unittests import UnitTest

#: How many times a test that *attributably* killed its worker process is
#: retried before it is recorded as a hard CRASH.  Attempts are only
#: charged when the death is attributable: in the batched pool a dead
#: worker voids every pending future, so those casualties retry for free.
#: Soft failures are contained inside the worker and never get here.
_MAX_HARD_ATTEMPTS = 2

#: How many pool collapses are absorbed (retrying the unfinished tests in
#: a fresh batched pool each time) before the scheduler switches to
#: one-test-per-pool isolation to pin down the culprit.
_MAX_POOL_BREAKS = 2

#: Target number of chunks per worker when ``task_batch`` is not given:
#: big enough to amortize dispatch, small enough to load-balance a
#: corpus with a few slow outliers.
_TASKS_PER_WORKER = 4


def default_task_batch(n_tests: int, jobs: int) -> int:
    """Chunk size giving ~``_TASKS_PER_WORKER`` tasks per worker."""
    return max(1, n_tests // max(1, jobs * _TASKS_PER_WORKER))


def default_jobs() -> int:
    """CPU-count-aware default for ``--jobs``."""
    return max(1, os.cpu_count() or 1)


def _pool_context():
    """Prefer fork (cheap, inherits the warm interpreter); fall back to
    spawn where fork is unavailable (every argument we ship is picklable)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- worker side -------------------------------------------------------------

_worker_state: dict = {}


def _init_worker(
    options: VerifyOptions,
    inject_bugs: bool,
    batch: int,
    ladder: Optional[DegradationLadder],
    fault_plan: Optional[FaultPlan],
    cache_enabled: bool,
    cache_path: Optional[str],
    cache_shards: int = 1,
) -> None:
    _worker_state["options"] = options
    _worker_state["inject_bugs"] = inject_bugs
    _worker_state["batch"] = batch
    _worker_state["ladder"] = ladder
    _worker_state["fault_plan"] = fault_plan
    _worker_state["cache"] = (
        qcache.QueryCache(cache_path, shards=max(1, cache_shards))
        if cache_enabled
        else None
    )


def _run_chunk(tests: List[UnitTest]) -> dict:
    """Run a chunk of tests in this worker; returns journal-ready records
    plus this worker's cache counters (pid-keyed by the parent so the
    suite summary can report per-worker load bytes).

    Batching amortizes task dispatch; per-test state hygiene (intern
    reset, fault scoping) is unchanged from one-test-per-task dispatch,
    so records are independent of how tests were chunked.
    """
    from repro.suite.runner import _run_one_test, reset_test_state

    cache = _worker_state["cache"]
    out: List[dict] = []
    with faults.activate(_worker_state["fault_plan"]), qcache.activate(cache):
        for test in tests:
            reset_test_state()
            record = _run_one_test(
                test,
                _worker_state["options"],
                _worker_state["inject_bugs"],
                _worker_state["batch"],
                _worker_state["ladder"],
            )
            record.worker = os.getpid()
            out.append(record.to_json())
    return {
        "records": out,
        "pid": os.getpid(),
        "cache": cache.counters() if cache is not None else None,
    }


# -- parent side -------------------------------------------------------------


def run_parallel(
    tests: List[UnitTest],
    options: VerifyOptions,
    inject_bugs: bool,
    batch: int,
    *,
    jobs: int,
    journal: Optional[RunJournal] = None,
    fault_plan: Optional[FaultPlan] = None,
    ladder: Optional[DegradationLadder] = None,
    cache_enabled: bool = False,
    cache_path: Optional[str] = None,
    cache_shards: int = 1,
    task_batch: Optional[int] = None,
) -> Tuple[List["TestRecord"], Dict[int, dict]]:
    """Run ``tests`` across ``jobs`` worker processes.

    Returns ``(records, worker_cache)``: records in **corpus order**
    (tests are keyed by corpus index internally, so duplicate test names
    get one record each) and a worker-pid-keyed map of each worker's
    final cache counters (empty when no cache is configured).  The parent
    journals each record as its worker reports it (single writer,
    crash-safe).

    ``task_batch`` tests are shipped per worker task (default: enough
    for ~4 tasks per worker) so dispatch overhead is amortized across a
    chunk instead of being paid per millisecond-sized test.

    Hard worker deaths are handled in two stages.  A dead worker breaks
    the whole pool — every still-pending future raises
    ``BrokenProcessPool`` regardless of whether its chunk ever ran — so
    the unfinished tests are retried in a fresh pool *without* being
    charged an attempt (and with chunking dropped to one test per task,
    making the next failure attributable).  After ``_MAX_POOL_BREAKS``
    collapses the scheduler runs each unfinished test in its own
    single-worker pool: there a death is unambiguously that test's
    doing, attempts are charged, and after ``_MAX_HARD_ATTEMPTS`` the
    test is recorded as a CRASH.  One hard death thus loses (at most)
    one test, never the run, and never mislabels tests that were merely
    queued (or chunked) behind it.
    """
    from repro.suite.runner import TestRecord

    ctx = _pool_context()
    initargs = (
        options,
        inject_bugs,
        batch,
        ladder,
        fault_plan,
        cache_enabled,
        cache_path,
        cache_shards,
    )
    attempts: List[int] = [0] * len(tests)
    records: Dict[int, TestRecord] = {}
    worker_cache: Dict[int, dict] = {}

    def absorb(result: dict) -> List[dict]:
        pid = result.get("pid")
        if pid is not None and result.get("cache"):
            worker_cache[pid] = result["cache"]
        return result.get("records", [])

    def finish(idx: int, record: TestRecord) -> None:
        records[idx] = record
        if journal is not None:
            journal.record(record.to_json())

    def crash_record(test: UnitTest, exc: BaseException) -> TestRecord:
        from repro.harness.isolation import worker_loss_diagnostic

        record = TestRecord(test=test.name, category=test.category)
        record.count(Verdict.CRASH)
        record.diagnostic = worker_loss_diagnostic(
            f"worker process died: {exc}", kind=type(exc).__name__
        )
        return record

    if task_batch is None:
        task_batch = default_task_batch(len(tests), jobs)
    chunk_size = max(1, task_batch)
    pending: List[int] = list(range(len(tests)))
    pool_breaks = 0
    while pending and pool_breaks < _MAX_POOL_BREAKS:
        survivors: List[int] = []
        broke = False
        chunks = [
            pending[i : i + chunk_size]
            for i in range(0, len(pending), chunk_size)
        ]
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)),
            mp_context=ctx,
            initializer=_init_worker,
            initargs=initargs,
        ) as pool:
            futures = {
                pool.submit(_run_chunk, [tests[i] for i in chunk]): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    for idx, rec in zip(chunk, absorb(future.result())):
                        finish(idx, TestRecord.from_json(rec))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BrokenProcessPool:
                    # Some worker died and took the pool with it; this
                    # chunk may never have run at all.  No attempt is
                    # charged — the culprit is found in isolation below.
                    broke = True
                    survivors.extend(chunk)
                except BaseException as exc:  # noqa: BLE001
                    # The pool is still alive, so this failure (e.g. an
                    # unpicklable result) came from this chunk.  With one
                    # test per chunk it is attributable and charged; a
                    # bigger chunk is retried one-test-per-task so the
                    # next round can attribute it.
                    if len(chunk) == 1:
                        idx = chunk[0]
                        attempts[idx] += 1
                        if attempts[idx] < _MAX_HARD_ATTEMPTS:
                            survivors.append(idx)
                        else:
                            finish(idx, crash_record(tests[idx], exc))
                    else:
                        survivors.extend(chunk)
        pending = survivors
        pool_breaks = pool_breaks + 1 if broke else 0
        # Any retry round runs one test per task: cheap (few tests are
        # left) and it makes in-pool failures attributable.
        chunk_size = 1

    # Repeated collapses: isolate each unfinished test in its own
    # single-worker pool, where a death names its test.
    for idx in pending:
        test = tests[idx]
        while True:
            try:
                with ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=ctx,
                    initializer=_init_worker,
                    initargs=initargs,
                ) as pool:
                    result = pool.submit(_run_chunk, [test]).result()
                finish(idx, TestRecord.from_json(absorb(result)[0]))
                break
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 — worker died
                attempts[idx] += 1
                if attempts[idx] >= _MAX_HARD_ATTEMPTS:
                    finish(idx, crash_record(test, exc))
                    break
    return [records[i] for i in range(len(tests))], worker_cache
