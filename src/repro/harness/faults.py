"""Deterministic fault injection for the verification harness.

The fault-tolerance tests need to prove that one bad test cannot kill a
corpus run, whatever the failure mode: a crash in the encoder, a hang
before the solver, an allocation blow-up.  A :class:`FaultPlan` maps test
names to :class:`FaultSpec` records; the verification pipeline calls
:func:`maybe_fault` at its phase boundaries (``parse``, ``unroll``,
``encode``, ``solve``) and the active plan decides whether to detonate.

Faults are scoped with two context managers: :func:`activate` installs a
plan for a whole suite run, :func:`current_test` names the test the
harness is currently executing.  With no active plan every hook is a
cheap no-op, so production runs pay one dict lookup per phase at most.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.harness.deadline import Deadline, DeadlineExceeded

#: Hard cap on an injected hang when no deadline is active, so a
#: misconfigured test cannot wedge the pytest run forever.
_HANG_CAP_S = 5.0

#: Hard cap on an injected non-cooperative spin (``kind="spin"``).  A
#: spin is *meant* to outlive every in-process deadline — only external
#: supervision (the serve layer SIGKILLing the worker) clears it — but
#: if supervision fails the spin must still end so the test run does.
_SPIN_CAP_S = 30.0


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure.

    ``kind``: ``"crash"`` raises :class:`RuntimeError`, ``"oom"`` raises
    :class:`MemoryError`, ``"hang"`` spins until the job deadline expires
    (cooperatively — it raises :class:`DeadlineExceeded` exactly like a
    real slow phase hitting a checkpoint), ``"spin"`` wedges the process
    in a non-cooperative busy-wait that *ignores* the deadline — the
    failure mode a stuck solver exhibits, which only external supervision
    (:mod:`repro.serve.supervisor` killing the worker) can clear,
    ``"die"`` hard-kills the
    interpreter via ``os._exit`` — no exception, no cleanup, simulating a
    segfault or OOM-kill.  Only process-level isolation (``jobs > 1``)
    survives ``"die"``; injecting it into a sequential in-process run
    kills the run itself.  ``"unsound"`` does not raise at all: it arms a
    solver-level corruption (the next learned clause degenerates to the
    empty clause, see :func:`repro.sat.solver.arm_unsound`) so the solver
    silently claims UNSAT — the failure mode ``--certify`` exists to
    catch.  The arming is reset when the test finishes.

    ``site``: the phase boundary to fire at (``parse`` / ``unroll`` /
    ``encode`` / ``solve`` / ``ef`` — the last fires inside
    :func:`repro.smt.exists_forall.solve_exists_forall`, past the plain
    SAT probes).  The verification service adds two protocol-stage sites
    in its workers: ``serve-recv`` (task received, not yet executed) and
    ``serve-send`` (result computed, not yet reported) — killing at the
    latter proves a retry cannot duplicate a verdict.

    ``at_call``: fire on the Nth visit to the site (1-based).  Retries
    re-visit sites, so ``at_call=1`` makes a fault fire once and then let
    a degraded retry through — exactly the recovery path the ladder tests
    exercise.

    ``when_unroll_ge``: only fire when the job's unroll factor is at
    least this value; lets a test "time out at unroll 4 but verify at 2".
    """

    kind: str
    site: str
    at_call: int = 1
    when_unroll_ge: Optional[int] = None


class FaultPlan:
    """Test-name -> fault mapping with per-site visit counting."""

    def __init__(self, faults: Dict[str, FaultSpec]) -> None:
        self.faults = dict(faults)
        self._visits: Dict[tuple, int] = {}

    def fire_if_armed(
        self,
        test: str,
        site: str,
        deadline: Optional[Deadline],
        unroll_factor: Optional[int],
    ) -> None:
        spec = self.faults.get(test)
        if spec is None or spec.site != site:
            return
        if spec.when_unroll_ge is not None and (
            unroll_factor is None or unroll_factor < spec.when_unroll_ge
        ):
            return
        key = (test, site)
        self._visits[key] = self._visits.get(key, 0) + 1
        if self._visits[key] != spec.at_call:
            return
        _detonate(spec, site, deadline)


def _detonate(spec: FaultSpec, site: str, deadline: Optional[Deadline]) -> None:
    if spec.kind == "crash":
        raise RuntimeError(f"injected crash at {site}")
    if spec.kind == "oom":
        raise MemoryError(f"injected oom at {site}")
    if spec.kind == "die":
        os._exit(134)  # simulated SIGABRT-style death: no unwinding at all
    if spec.kind == "unsound":
        # Arm, don't raise: the point is that nothing *visibly* fails —
        # the solver keeps running and returns a confident wrong UNSAT.
        from repro.sat import solver as sat_solver

        sat_solver.arm_unsound()
        return
    if spec.kind == "spin":
        # Deliberately never calls deadline.check: a wedged worker is
        # invisible to in-process timeouts.  The serve supervisor must
        # notice the overdue task (heartbeats keep flowing — the process
        # is alive, just stuck) and SIGKILL this process.
        cap = time.monotonic() + _SPIN_CAP_S
        while time.monotonic() < cap:
            time.sleep(0.01)
        raise RuntimeError(f"injected spin at {site} outlived supervision")
    if spec.kind == "hang":
        cap = time.monotonic() + _HANG_CAP_S
        while True:
            if deadline is not None:
                deadline.check(f"hang@{site}")
            if time.monotonic() >= cap:
                raise DeadlineExceeded(f"hang@{site}")
            time.sleep(0.002)
    raise ValueError(f"unknown fault kind {spec.kind!r}")


_active_plan: Optional[FaultPlan] = None
_current_test: Optional[str] = None


@contextmanager
def activate(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Install ``plan`` for the duration of a suite run (None = no-op)."""
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    try:
        yield
    finally:
        _active_plan = previous


@contextmanager
def current_test(name: str) -> Iterator[None]:
    """Name the test the harness is currently executing."""
    global _current_test
    previous = _current_test
    _current_test = name
    try:
        yield
    finally:
        _current_test = previous
        # An "unsound" fault armed during this test must not leak into the
        # next one: disarm any still-pending corruption.  Checked via
        # sys.modules so merely running a faultless suite never imports
        # the SAT layer as a side effect.
        import sys

        mod = sys.modules.get("repro.sat.solver")
        if mod is not None:
            mod.reset_unsound()


def armed() -> bool:
    """Whether the active plan holds a fault for the current test."""
    return (
        _active_plan is not None
        and _current_test is not None
        and _current_test in _active_plan.faults
    )


def maybe_fault(
    site: str,
    deadline: Optional[Deadline] = None,
    unroll_factor: Optional[int] = None,
) -> None:
    """Phase-boundary hook; detonates the active plan's fault, if armed."""
    if _active_plan is None or _current_test is None:
        return
    _active_plan.fire_if_armed(_current_test, site, deadline, unroll_factor)
