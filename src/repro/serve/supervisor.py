"""Worker supervision: the robustness core of the verification service.

A :class:`Supervisor` owns a pool of persistent, pre-warmed worker
processes and a bounded request queue, and guarantees that every
submitted request resolves exactly once — with a real verdict when any
worker can produce one, and with a structured ``CRASH`` payload when the
attempt budget is exhausted — no matter how workers fail:

* **heartbeats**: each worker runs a daemon thread that reports liveness
  (and the id of the task it is chewing on) every
  ``heartbeat_interval_s``; a silent worker past ``heartbeat_timeout_s``
  is declared dead even if its pipe is technically open (SIGSTOP-style
  freeze, OOM-kill limbo);
* **hang detection**: a task running past its own deadline plus
  ``task_grace_s`` marks the worker as *wedged* — heartbeats still flow
  (the process is alive, the solver is stuck), so supervision, not the
  in-process deadline, SIGKILLs it;
* **retry with budget**: the in-flight request of a dead or wedged
  worker is re-dispatched to a fresh worker; after ``max_attempts``
  total dispatches it degrades to a structured ``CRASH`` verdict instead
  of cycling forever;
* **exponential backoff**: a worker slot that keeps dying restarts with
  doubling delay (capped), so a poisoned environment cannot turn the
  supervisor into a fork bomb;
* **circuit breaker**: ``breaker_deaths`` worker deaths inside
  ``breaker_window_s`` open the breaker — new submissions are shed with
  :class:`OverloadedError` (an ``OVERLOADED`` reply at the protocol
  layer, the 503 of this protocol) until ``breaker_cooldown_s`` passes;
  the first completed request closes it.  The bounded queue sheds the
  same way instead of growing without limit;
* **graceful drain**: :meth:`Supervisor.drain` stops intake and waits
  for in-flight work under a deadline; stragglers past the deadline are
  resolved with an ``UNAVAILABLE`` error and their workers killed.

Fault injection rides the existing :mod:`repro.harness.faults` plumbing:
``ServeConfig.fault_plan`` is activated inside workers, with two extra
protocol-stage sites (``serve-recv``/``serve-send``) and
``fault_attempts`` selecting which dispatch attempts arm the plan — a
retried request only re-faults if the chaos test asks it to.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.harness import faults
from repro.harness.deadline import Deadline
from repro.harness.degrade import DegradationLadder
from repro.harness.faults import FaultPlan
from repro.harness.isolation import (
    diagnostic_from,
    run_contained,
    run_verification_job,
    worker_loss_diagnostic,
)
from repro.refinement.check import VerifyOptions

logger = logging.getLogger("repro.serve.supervisor")


class OverloadedError(RuntimeError):
    """The service is shedding load (queue full, breaker open, draining)."""

    def __init__(self, detail: str, code: str = "OVERLOADED") -> None:
        super().__init__(detail)
        self.code = code


@dataclass(frozen=True)
class ServeConfig:
    """Supervision knobs.  Production defaults; chaos tests shrink them."""

    workers: int = 2
    queue_limit: int = 128  # queued + in-flight requests before shedding
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    task_grace_s: float = 10.0  # on top of the request's own timeout
    default_task_s: float = 30.0  # hang deadline when the request has none
    max_attempts: int = 2  # total dispatches before degrading to CRASH
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 5.0
    breaker_deaths: int = 4
    breaker_window_s: float = 10.0
    breaker_cooldown_s: float = 2.0
    drain_timeout_s: float = 10.0
    cache_enabled: bool = False
    cache_path: Optional[str] = None
    #: Shard count for the two-tier result cache.  Every worker loads
    #: every shard, appends each store to the shard its digest routes
    #: to, and reads what its siblings appended before each request (see
    #: :mod:`repro.engine.qcache`).
    cache_shards: int = 1
    #: Interned-term high-water mark: a worker whose intern table grows
    #: past this resets it between tasks (warm-universe hygiene — the
    #: warm pool's answer to the cold pool's per-test reset).
    intern_limit: int = 400_000
    fault_plan: Optional[FaultPlan] = None
    fault_attempts: Tuple[int, ...] = (1,)
    default_options: Optional[dict] = None  # VerifyOptions.to_json()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerConfig:
    """The picklable subset of :class:`ServeConfig` a worker needs."""

    heartbeat_interval_s: float
    cache_enabled: bool
    cache_path: Optional[str]
    cache_shards: int
    intern_limit: int
    fault_plan: Optional[FaultPlan]
    fault_attempts: Tuple[int, ...]
    default_options: Optional[dict]


def _unittest_from_json(t: dict):
    from repro.suite.unittests import UnitTest

    return UnitTest(
        name=t["name"],
        ir=t["ir"],
        pipeline=tuple(t.get("pipeline") or ()),
        bug_option=t.get("bug_option"),
        category=t.get("category"),
        buggy_target=t.get("buggy_target"),
    )


def _trim_interning(limit: int) -> None:
    """Reset the interned-term universe once it crosses ``limit``.

    Between-test resets are exactly what the cold pool does every test,
    so triggering one here can only restore the cold-start state — the
    warm pool keeps the universe as long as memory allows and no longer.
    """
    from repro.smt.terms import intern_size, reset_interning

    if limit > 0 and intern_size() > limit:
        reset_interning()


def _execute_task(msg: dict, cfg: _WorkerConfig, cache) -> dict:
    """Run one request in this worker; returns the reply payload."""
    from repro.engine import qcache
    from repro.ir.parser import parse_module
    from repro.suite.runner import _run_one_test

    request = msg["request"]
    attempt = int(msg.get("attempt", 1))
    plan = cfg.fault_plan
    if plan is not None and attempt not in cfg.fault_attempts:
        plan = None
    name = (
        request.get("name")
        or (request.get("test") or {}).get("name")
        or f"req-{msg.get('id')}"
    )
    options = VerifyOptions.from_json(
        request.get("options") or cfg.default_options or {}
    )
    retries = int(request.get("retries", 0) or 0)
    ladder = DegradationLadder(max_retries=retries) if retries > 0 else None
    if cache is not None:
        cache.refresh()  # what sibling workers stored since the last request

    with faults.activate(plan), qcache.activate(cache):
        with faults.current_test(name):
            faults.maybe_fault("serve-recv")
        if request["op"] == "chunk":
            # A batch-engine task: many tests per dispatch, amortizing
            # the per-request pipe round-trip the same way engine.pool
            # batches tests per pool task.  The interned term universe
            # stays warm across tests (that is the warm pool's point);
            # _trim_interning bounds it at the configured high-water
            # mark, which a cold pool resets to after *every* test.
            records = []
            for t in request["tests"]:
                _trim_interning(cfg.intern_limit)
                record = _run_one_test(
                    _unittest_from_json(t),
                    options,
                    bool(request.get("inject_bugs", True)),
                    int(request.get("batch", 1)),
                    ladder,
                )
                record.worker = os.getpid()
                records.append(record.to_json())
            payload = {
                "kind": "chunk",
                "records": records,
                "pid": os.getpid(),
                "cache": cache.counters() if cache is not None else None,
            }
        elif request["op"] == "test":
            record = _run_one_test(
                _unittest_from_json(request["test"]),
                options,
                bool(request.get("inject_bugs", True)),
                int(request.get("batch", 1)),
                ladder,
            )
            record.worker = os.getpid()
            payload = {
                "kind": "test",
                "record": record.to_json(),
                "pid": os.getpid(),
                "cache": cache.counters() if cache is not None else None,
            }
        else:

            def job():
                src_module = parse_module(request["src"])
                tgt_module = parse_module(request["tgt"])
                return run_verification_job(
                    src_module.definitions()[0],
                    tgt_module.definitions()[0],
                    src_module,
                    tgt_module,
                    options,
                    ladder=ladder,
                )

            result = run_contained(job, phase="serve")
            payload = {
                "kind": "verify",
                "result": result.to_json(
                    full_certificates=request.get("certificates") == "full"
                ),
            }
        with faults.current_test(name):
            faults.maybe_fault("serve-send")
    return payload


def _worker_main(conn, cfg: _WorkerConfig) -> None:
    """Entry point of a pooled worker process.

    Pre-warms the verification pipeline (imports + cache load), then
    serves tasks until the parent closes the pipe or sends ``stop``.  A
    daemon heartbeat thread reports liveness and the current task; the
    main loop is single-task-at-a-time by design — one request per crash
    domain.
    """
    # Pre-warm: pull in the whole parse/encode/solve stack now, not on
    # the first request.  Under the fork start method these are already
    # hot in the parent; under spawn this is the pre-warm.
    from repro.engine.qcache import QueryCache
    from repro.ir import parser as _parser  # noqa: F401
    from repro.suite import runner as _runner  # noqa: F401
    from repro.tv import plugin as _plugin  # noqa: F401

    cache = (
        QueryCache(cfg.cache_path, shards=cfg.cache_shards)
        if (cfg.cache_enabled or cfg.cache_path is not None)
        else None
    )
    send_lock = threading.Lock()
    state: dict = {"task": None, "since": 0.0}
    stop_event = threading.Event()

    def send(message: dict) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, EOFError, OSError):
                # Parent is gone; the main loop's recv will notice too.
                pass

    def heartbeat_loop() -> None:
        while not stop_event.wait(cfg.heartbeat_interval_s):
            task = state["task"]
            send(
                {
                    "type": "hb",
                    "pid": os.getpid(),
                    "task": task,
                    "elapsed": (time.monotonic() - state["since"])
                    if task is not None
                    else 0.0,
                }
            )

    threading.Thread(target=heartbeat_loop, daemon=True).start()
    send({"type": "ready", "pid": os.getpid()})

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(msg, dict):
            continue
        if msg.get("type") == "stop":
            break
        if msg.get("type") != "task":
            continue
        rid = msg["id"]
        state["task"] = rid
        state["since"] = time.monotonic()
        try:
            payload = _execute_task(msg, cfg, cache)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 — worker containment
            # _execute_task is already containment-wrapped inside; this
            # only catches serve-loop-level failures (e.g. an injected
            # protocol-stage crash).  Deterministic, so no retry: report
            # it as a structured error and let the supervisor degrade it.
            payload = {
                "kind": "error",
                "error": "WORKER_EXCEPTION",
                "detail": str(exc),
                "diagnostic": diagnostic_from(exc),
            }
        state["task"] = None
        send({"type": "result", "id": rid, "payload": payload})
        # Warm-universe hygiene between requests: keep interned terms
        # (and every term-keyed memo) alive while they fit, reset once
        # past the high-water mark.
        _trim_interning(cfg.intern_limit)
    stop_event.set()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Pending:
    """One submitted request: its future, attempt budget, and deadline."""

    __slots__ = (
        "rid",
        "request",
        "future",
        "attempts",
        "task_timeout_s",
        "max_attempts",
    )

    def __init__(
        self,
        rid: int,
        request: dict,
        task_timeout_s: float,
        max_attempts: int,
    ) -> None:
        self.rid = rid
        self.request = request
        self.future: Future = Future()
        self.attempts = 0  # dispatches so far
        self.task_timeout_s = task_timeout_s
        self.max_attempts = max(1, max_attempts)


@dataclass
class _Slot:
    """One supervised worker position in the pool."""

    idx: int
    proc: Optional[multiprocessing.process.BaseProcess] = None
    conn: Optional[multiprocessing.connection.Connection] = None
    pid: Optional[int] = None
    state: str = "dead"  # dead | starting | idle | busy
    current: Optional[int] = None  # rid of the in-flight request
    assigned_at: float = 0.0
    last_hb: float = 0.0
    deaths_in_row: int = 0
    restart_at: float = 0.0
    tasks_done: int = 0


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class Supervisor:
    """A health-checked, self-healing pool of verification workers."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._ctx = _pool_context()
        self._lock = threading.Lock()
        self._queue: Deque[_Pending] = deque()
        self._inflight: Dict[int, _Pending] = {}
        self._slots: List[_Slot] = [
            _Slot(idx=i) for i in range(max(1, self.config.workers))
        ]
        self._deaths: Deque[float] = deque()
        self._breaker_open_until = 0.0
        self._next_rid = 0
        self._running = False
        self._draining = False
        self._thread: Optional[threading.Thread] = None
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "retries": 0,
            "worker_deaths": 0,
            "restarts": 0,
            "shed": 0,
            "crash_degraded": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Supervisor":
        with self._lock:
            if self._running:
                return self
            self._running = True
        for slot in self._slots:
            self._spawn(slot)
        self._thread = threading.Thread(
            target=self._loop, name="serve-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, drain_timeout_s: Optional[float] = None) -> None:
        """Drain under a deadline, then stop the loop and all workers."""
        self.drain(drain_timeout_s)
        with self._lock:
            self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for slot in self._slots:
            self._stop_slot(slot)

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop intake; wait for queued + in-flight work under a deadline.

        Returns True if everything finished.  On deadline expiry the
        stragglers are resolved with an ``UNAVAILABLE`` error payload and
        their workers are killed (their next restart serves nobody until
        drain is lifted by a fresh :meth:`start`).
        """
        with self._lock:
            self._draining = True
        deadline = Deadline.start(
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        while True:
            with self._lock:
                outstanding = len(self._queue) + len(self._inflight)
            if outstanding == 0:
                return True
            if deadline.expired():
                break
            time.sleep(deadline.clamp(0.02))
        with self._lock:
            stragglers = list(self._queue) + list(self._inflight.values())
            self._queue.clear()
            self._inflight.clear()
            busy = [s for s in self._slots if s.state == "busy"]
            for slot in busy:
                slot.current = None
        for slot in busy:
            self._kill_slot_proc(slot)
        for pending in stragglers:
            self._resolve(
                pending,
                {
                    "kind": "error",
                    "error": "UNAVAILABLE",
                    "detail": "drain deadline expired",
                },
            )
        return False

    # -- intake ------------------------------------------------------------
    def submit(self, request: dict) -> Future:
        """Queue one request; the future resolves with its reply payload.

        Raises :class:`OverloadedError` instead of queueing when the
        service is draining, the circuit breaker is open, or the bounded
        queue (queued + in-flight) is full — load is shed, never
        accumulated without limit.
        """
        now = time.monotonic()
        with self._lock:
            if not self._running or self._draining:
                self.stats["shed"] += 1
                raise OverloadedError("service is draining", code="DRAINING")
            if now < self._breaker_open_until:
                self.stats["shed"] += 1
                raise OverloadedError(
                    "circuit breaker open after repeated worker deaths"
                )
            if len(self._queue) + len(self._inflight) >= self.config.queue_limit:
                self.stats["shed"] += 1
                raise OverloadedError(
                    f"queue full ({self.config.queue_limit} outstanding)"
                )
            self._next_rid += 1
            rid = self._next_rid
            options = request.get("options") or self.config.default_options or {}
            # A request may carry its own hang deadline (a chunk of N
            # tests legitimately runs ~N times longer than one test) and
            # its own attempt budget (a chunk is dispatched once — its
            # tests are retried individually for attribution, the same
            # split engine.pool performs after a pool collapse).
            base = request.get("timeout_s")
            if base is None:
                base = options.get("timeout_s")
            if base is None:
                base = self.config.default_task_s
            budget = int(request.get("max_attempts") or self.config.max_attempts)
            pending = _Pending(
                rid, request, float(base) + self.config.task_grace_s, budget
            )
            self._queue.append(pending)
            self.stats["submitted"] += 1
            return pending.future

    # -- introspection -----------------------------------------------------
    def health(self) -> dict:
        now = time.monotonic()
        with self._lock:
            return {
                "ok": self._running and not self._draining,
                "draining": self._draining,
                "queue": len(self._queue),
                "inflight": len(self._inflight),
                "queue_limit": self.config.queue_limit,
                "breaker_open": now < self._breaker_open_until,
                "stats": dict(self.stats),
                "workers": [
                    {
                        "slot": s.idx,
                        "pid": s.pid,
                        "state": s.state,
                        "tasks_done": s.tasks_done,
                        "deaths_in_row": s.deaths_in_row,
                        "last_hb_age_s": round(now - s.last_hb, 3)
                        if s.last_hb
                        else None,
                    }
                    for s in self._slots
                ],
            }

    # -- worker management -------------------------------------------------
    def _spawn(self, slot: _Slot) -> None:
        cfg = self.config
        wcfg = _WorkerConfig(
            heartbeat_interval_s=cfg.heartbeat_interval_s,
            cache_enabled=cfg.cache_enabled,
            cache_path=cfg.cache_path,
            cache_shards=cfg.cache_shards,
            intern_limit=cfg.intern_limit,
            fault_plan=cfg.fault_plan,
            fault_attempts=tuple(cfg.fault_attempts),
            default_options=cfg.default_options,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, wcfg),
            name=f"alive-serve-worker-{slot.idx}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        with self._lock:
            slot.proc = proc
            slot.conn = parent_conn
            slot.pid = proc.pid
            slot.state = "starting"
            slot.current = None
            slot.last_hb = time.monotonic()
        logger.info("spawned worker slot=%d pid=%s", slot.idx, proc.pid)

    def _kill_slot_proc(self, slot: _Slot) -> None:
        proc, conn = slot.proc, slot.conn
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        with self._lock:
            slot.proc = None
            slot.conn = None
            slot.state = "dead"

    def _stop_slot(self, slot: _Slot) -> None:
        conn = slot.conn
        if conn is not None:
            try:
                conn.send({"type": "stop"})
            except (BrokenPipeError, OSError):
                pass
        if slot.proc is not None:
            slot.proc.join(timeout=0.5)
        self._kill_slot_proc(slot)

    def _on_slot_death(self, slot: _Slot, reason: str) -> None:
        """A worker is gone (or wedged): kill, reschedule, back off."""
        now = time.monotonic()
        with self._lock:
            rid = slot.current
            slot.current = None
            slot.deaths_in_row += 1
            backoff = min(
                self.config.backoff_cap_s,
                self.config.backoff_base_s * (2 ** (slot.deaths_in_row - 1)),
            )
            slot.restart_at = now + backoff
            self.stats["worker_deaths"] += 1
            self._deaths.append(now)
            while self._deaths and now - self._deaths[0] > self.config.breaker_window_s:
                self._deaths.popleft()
            if len(self._deaths) >= self.config.breaker_deaths:
                self._breaker_open_until = now + self.config.breaker_cooldown_s
                logger.warning(
                    "circuit breaker OPEN (%d deaths in %.1fs); shedding for %.1fs",
                    len(self._deaths),
                    self.config.breaker_window_s,
                    self.config.breaker_cooldown_s,
                )
            pending = self._inflight.pop(rid, None) if rid is not None else None
        logger.warning(
            "worker slot=%d pid=%s lost (%s); backoff %.2fs",
            slot.idx,
            slot.pid,
            reason,
            backoff,
        )
        self._kill_slot_proc(slot)
        if pending is None:
            return
        if pending.attempts < pending.max_attempts:
            with self._lock:
                self.stats["retries"] += 1
                self._queue.appendleft(pending)  # retries jump the line
        else:
            with self._lock:
                self.stats["crash_degraded"] += 1
            self._resolve(pending, self._crash_payload(pending, reason))

    def _crash_payload(self, pending: _Pending, reason: str) -> dict:
        """The degraded verdict for a request whose budget is exhausted."""
        message = (
            f"worker lost ({reason}) on every attempt "
            f"({pending.attempts}/{pending.max_attempts})"
        )
        diagnostic = worker_loss_diagnostic(message)
        request = pending.request
        if request.get("op") == "chunk":
            # The warm pool resubmits each member as a singleton "test"
            # request, where a repeat failure is attributable to one test.
            return {
                "kind": "chunk_crash",
                "tests": [
                    t.get("name", "<unnamed>")
                    for t in request.get("tests", [])
                ],
                "detail": message,
                "diagnostic": diagnostic,
            }
        if request.get("op") == "test":
            test = request.get("test") or {}
            return {
                "kind": "test",
                "record": {
                    "test": test.get("name", "<unnamed>"),
                    "category": test.get("category"),
                    "verdicts": {"crash": 1},
                    "diagnostic": diagnostic,
                    "serve_attempts": pending.attempts,
                },
            }
        return {
            "kind": "verify",
            "result": {
                "verdict": "crash",
                "failed_check": "serve",
                "diagnostic": diagnostic,
                "degradations": [],
                "counterexample": {},
                "approx_features": [],
                "unsupported_feature": None,
                "elapsed_s": 0.0,
                "certificates": [],
                "notes": [],
            },
        }

    def _resolve(self, pending: _Pending, payload: dict) -> None:
        if not pending.future.done():
            pending.future.set_result(payload)

    # -- the supervision loop ---------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._lock:
                if not self._running:
                    return
                conn_to_slot = {
                    s.conn: s for s in self._slots if s.conn is not None
                }
            ready = (
                multiprocessing.connection.wait(
                    list(conn_to_slot), timeout=0.02
                )
                if conn_to_slot
                else []
            )
            if not conn_to_slot:
                time.sleep(0.02)
            for conn in ready:
                slot = conn_to_slot.get(conn)
                if slot is None or slot.conn is not conn:
                    continue
                self._drain_conn(slot)
            self._check_health()
            self._dispatch()

    def _drain_conn(self, slot: _Slot) -> None:
        conn = slot.conn
        try:
            while conn is not None and conn.poll():
                msg = conn.recv()
                self._handle_worker_message(slot, msg)
                conn = slot.conn  # may have been torn down by a handler
        except (EOFError, OSError):
            self._on_slot_death(slot, "pipe closed (process died)")

    def _handle_worker_message(self, slot: _Slot, msg: dict) -> None:
        if not isinstance(msg, dict):
            return
        kind = msg.get("type")
        now = time.monotonic()
        if kind == "hb":
            with self._lock:
                slot.last_hb = now
            return
        if kind == "ready":
            with self._lock:
                slot.last_hb = now
                slot.pid = msg.get("pid", slot.pid)
                if slot.state == "starting":
                    slot.state = "idle"
            return
        if kind == "result":
            rid = msg.get("id")
            with self._lock:
                pending = self._inflight.pop(rid, None)
                if slot.current == rid:
                    slot.current = None
                    slot.state = "idle"
                slot.tasks_done += 1
                slot.deaths_in_row = 0
                slot.last_hb = now
                self.stats["completed"] += 1
                # A completed task is proof of recovery: close the breaker.
                self._deaths.clear()
                self._breaker_open_until = 0.0
            if pending is None:
                return  # raced with a hang-kill; already rescheduled
            payload = msg.get("payload") or {}
            if payload.get("kind") == "error":
                # Deterministic in-worker serve failure: degrade, no retry.
                with self._lock:
                    self.stats["crash_degraded"] += 1
                detail = payload.get("detail", "worker exception")
                self._resolve(
                    pending, self._crash_payload(pending, f"exception: {detail}")
                )
            else:
                self._resolve(pending, payload)

    def _check_health(self) -> None:
        now = time.monotonic()
        cfg = self.config
        for slot in self._slots:
            with self._lock:
                state = slot.state
                proc = slot.proc
                current = slot.current
                last_hb = slot.last_hb
                assigned_at = slot.assigned_at
                restart_due = (
                    state == "dead"
                    and self._running
                    and not self._draining
                    and now >= slot.restart_at
                )
                timeout_s = None
                if current is not None and current in self._inflight:
                    timeout_s = self._inflight[current].task_timeout_s
            if state == "dead":
                if restart_due:
                    with self._lock:
                        self.stats["restarts"] += 1
                    self._spawn(slot)
                continue
            if proc is not None and not proc.is_alive():
                self._on_slot_death(slot, "process exited")
                continue
            if now - last_hb > cfg.heartbeat_timeout_s:
                self._on_slot_death(slot, "heartbeat timeout")
                continue
            if (
                state == "busy"
                and timeout_s is not None
                and now - assigned_at > timeout_s
            ):
                self._on_slot_death(
                    slot, f"task overdue ({now - assigned_at:.1f}s)"
                )

    def _dispatch(self) -> None:
        while True:
            with self._lock:
                if not self._queue:
                    return
                slot = next(
                    (s for s in self._slots if s.state == "idle"), None
                )
                if slot is None:
                    return
                pending = self._queue.popleft()
                pending.attempts += 1
                slot.state = "busy"
                slot.current = pending.rid
                slot.assigned_at = time.monotonic()
                self._inflight[pending.rid] = pending
                conn = slot.conn
                message = {
                    "type": "task",
                    "id": pending.rid,
                    "attempt": pending.attempts,
                    "request": pending.request,
                }
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                self._on_slot_death(slot, "dispatch failed (pipe broken)")
