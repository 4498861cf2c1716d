"""Persistent pre-forked worker pool for batch corpus verification.

:mod:`repro.engine.pool` pays two constant costs on every ``--jobs``
run: it forks a fresh ``ProcessPoolExecutor`` (workers re-import and
re-warm the whole parse/encode/solve stack), and each worker loads the
entire on-disk query cache before running a single test.  The serve
daemon already solved both — its :class:`~repro.serve.supervisor
.Supervisor` keeps pre-warmed workers alive across requests with
heartbeats, hang SIGKILL, restart backoff and a circuit breaker — so
:class:`WarmPool` rides exactly that machinery for batch runs:

* **persistent workers**: one pool outlives many :meth:`run` calls; the
  interned term universe (:mod:`repro.smt.terms`) and each worker's
  in-memory cache tier stay warm across tests *and* across successive
  corpus runs in the same process.  Worker memory is bounded by the
  intern high-water mark (``ServeConfig.intern_limit``), which resets a
  worker to exactly the cold-start state the cold pool forces after
  every test;
* **chunked dispatch**: tests are batched per request (the same
  amortization :func:`repro.engine.pool.default_task_batch` chose for
  the cold pool) and shipped as ``chunk`` operations; each chunk carries
  a hang deadline scaled to its size;
* **crash attribution**: a chunk is dispatched once (``max_attempts:
  1``) — when its worker dies the supervisor returns a ``chunk_crash``
  payload and the pool resubmits every member as a singleton ``test``
  request with the full retry budget, where a repeat death is
  attributable to one test (mirroring the cold pool's
  collapse-then-isolate ladder);
* **shared cache tier**: every worker loads every shard file of the
  query cache once, at start, and appends each entry to the shard its
  digest routes to (see :mod:`repro.engine.qcache`), so a pair or query
  any worker stored answers every worker's next run;
* **measurable wins**: every chunk reply carries the worker's cache
  counters; :attr:`WarmPool.worker_cache` maps worker pid to its latest
  counters (hits, misses, per-shard load bytes/entries, evictions) for
  the suite summary and ``BENCH_warmpool.json``.

Verdict parity: records are produced by the same
:func:`repro.suite.runner._run_one_test` the sequential and cold-pool
paths call, canonical cache fingerprints are name-independent, and the
serve CI jobs already assert byte-identical verdicts for warm workers —
a warm pool differs from a cold one only in *when* memory is reset,
never in what a test computes.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Dict, List, Optional

from repro.engine.pool import default_jobs, default_task_batch
from repro.harness.degrade import DegradationLadder
from repro.harness.journal import RunJournal
from repro.refinement.check import VerifyOptions
from repro.serve.client import unittest_to_json
from repro.serve.supervisor import OverloadedError, ServeConfig, Supervisor
from repro.suite.runner import TestRecord
from repro.suite.unittests import UnitTest


class WarmPool:
    """A long-lived verification worker pool for batch runs.

    Use as a context manager (or call :meth:`start`/:meth:`close`); pass
    it to :func:`repro.suite.runner.run_suite` via ``warm_pool=`` or call
    :meth:`run` directly.  Repeated :meth:`run` calls reuse the same
    worker processes — the second run of the same corpus skips fork,
    import pre-warm and cache load entirely.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        cache_enabled: bool = False,
        cache_path: Optional[str] = None,
        cache_shards: int = 1,
        intern_limit: int = 400_000,
        default_options: Optional[dict] = None,
        config: Optional[ServeConfig] = None,
    ) -> None:
        if config is None:
            config = ServeConfig(
                workers=max(1, jobs or default_jobs()),
                # The pool submits a whole corpus of chunks up front;
                # shedding is the daemon's concern, not the batch
                # engine's.
                queue_limit=65536,
                cache_enabled=cache_enabled or cache_path is not None,
                cache_path=cache_path,
                cache_shards=max(1, cache_shards),
                intern_limit=intern_limit,
                default_options=default_options,
            )
        self.config = config
        self._sup: Optional[Supervisor] = None
        #: worker pid -> that worker's latest cache counters (cumulative
        #: over the worker's lifetime; last report wins).
        self.worker_cache: Dict[int, dict] = {}
        self.runs = 0  # completed run() calls (bench: run 0 is cold-ish)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WarmPool":
        if self._sup is None:
            self._sup = Supervisor(self.config).start()
        return self

    def close(self) -> None:
        if self._sup is not None:
            self._sup.shutdown()
            self._sup = None

    def __enter__(self) -> "WarmPool":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    def health(self) -> dict:
        self.start()
        assert self._sup is not None
        return self._sup.health()

    def cache_counters(self) -> dict:
        """Aggregate cache counters over every worker seen so far."""
        agg = {
            "workers": len(self.worker_cache),
            "hits": 0,
            "misses": 0,
            "load_entries": 0,
            "load_bytes": 0,
            "evictions": 0,
        }
        for counters in self.worker_cache.values():
            for key in ("hits", "misses", "load_entries", "load_bytes", "evictions"):
                agg[key] += int(counters.get(key, 0))
        return agg

    # -- the batch run -----------------------------------------------------
    def run(
        self,
        tests: List[UnitTest],
        options: Optional[VerifyOptions] = None,
        inject_bugs: bool = True,
        batch: int = 1,
        *,
        journal: Optional[RunJournal] = None,
        ladder: Optional[DegradationLadder] = None,
        task_batch: Optional[int] = None,
    ) -> List[TestRecord]:
        """Run ``tests`` on the warm pool; records in corpus order.

        The parent is the single journal writer: each record is appended
        to ``journal`` as its chunk completes, so ``--journal`` resume
        stays crash-safe exactly as with the cold pool.
        """
        self.start()
        options = options or VerifyOptions(timeout_s=30.0)
        options_json = options.to_json()
        retries = (
            int(getattr(ladder, "max_retries", 0) or 0)
            if ladder is not None
            else 0
        )
        n = len(tests)
        if n == 0:
            return []
        if task_batch is None:
            task_batch = default_task_batch(n, self.config.workers)
        chunk_size = max(1, task_batch)
        per_test_s = float(
            getattr(options, "timeout_s", None) or self.config.default_task_s
        )
        records: Dict[int, TestRecord] = {}
        chunk_futures: Dict[Future, List[int]] = {}
        single_futures: Dict[Future, int] = {}
        for lo in range(0, n, chunk_size):
            chunk = list(range(lo, min(lo + chunk_size, n)))
            request = {
                "op": "chunk",
                "tests": [unittest_to_json(tests[i]) for i in chunk],
                "options": options_json,
                "inject_bugs": inject_bugs,
                "batch": batch,
                "retries": retries,
                # A chunk of N tests legitimately runs ~N times longer
                # than one test before the supervisor may call it hung.
                "timeout_s": per_test_s * len(chunk),
                # Dispatched once: a worker loss degrades the whole chunk
                # to chunk_crash and its members retry as singletons.
                "max_attempts": 1,
            }
            chunk_futures[self._submit(request)] = chunk

        while chunk_futures or single_futures:
            done, _ = wait(
                set(chunk_futures) | set(single_futures),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                payload = future.result() or {}
                if future in chunk_futures:
                    chunk = chunk_futures.pop(future)
                    if payload.get("kind") == "chunk":
                        pid = payload.get("pid")
                        if pid is not None and payload.get("cache"):
                            self.worker_cache[pid] = payload["cache"]
                        for idx, rec in zip(chunk, payload.get("records", [])):
                            self._finish(
                                records, idx, TestRecord.from_json(rec), journal
                            )
                    else:
                        # chunk_crash (worker lost): isolate each member
                        # as a singleton request with the full budget.
                        for idx in chunk:
                            request = {
                                "op": "test",
                                "test": unittest_to_json(tests[idx]),
                                "options": options_json,
                                "inject_bugs": inject_bugs,
                                "batch": batch,
                                "retries": retries,
                                "timeout_s": per_test_s,
                            }
                            single_futures[self._submit(request)] = idx
                else:
                    idx = single_futures.pop(future)
                    self._finish(
                        records,
                        idx,
                        self._single_record(tests[idx], payload),
                        journal,
                    )
        self.runs += 1
        return [records[i] for i in range(n)]

    # -- plumbing ----------------------------------------------------------
    def _submit(self, request: dict) -> Future:
        """Submit with backoff: a briefly-open circuit breaker (worker
        deaths mid-corpus) sheds, and the batch engine's answer to
        shedding is to wait, not to drop tests."""
        assert self._sup is not None
        backoff = 0.05
        while True:
            try:
                return self._sup.submit(request)
            except OverloadedError:
                time.sleep(backoff)
                backoff = min(1.0, backoff * 2)

    @staticmethod
    def _finish(
        records: Dict[int, TestRecord],
        idx: int,
        record: TestRecord,
        journal: Optional[RunJournal],
    ) -> None:
        records[idx] = record
        if journal is not None:
            journal.record(record.to_json())

    @staticmethod
    def _single_record(test: UnitTest, payload: dict) -> TestRecord:
        data = payload.get("record")
        if data is None:  # UNAVAILABLE (drain raced us) or malformed
            data = {
                "test": test.name,
                "category": test.category,
                "verdicts": {"crash": 1},
                "diagnostic": {
                    "type": payload.get("error", "WORKER_LOST"),
                    "message": payload.get("detail", "no record in reply"),
                    "frames": [],
                },
            }
        return TestRecord.from_json(data)
