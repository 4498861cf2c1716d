"""Retry-with-degradation ladder for TIMEOUT/OOM verdicts.

§8.3 of the paper runs the single-file app corpus with a reduced timeout
and unroll factor because full-strength settings blow the budget on big
functions.  We automate that practice: when a job exhausts its resources,
the harness retries it with a ladder of successively cheaper
configurations — halved unroll factor, halved conflict budget, a smaller
scaled-down memory model — and records every step taken in the result,
so a downgraded verdict is always auditable.

Both verdicts of every rung are sound (a smaller unroll factor only
weakens the bounded guarantee, it cannot introduce false alarms), so a
``CORRECT``/``INCORRECT`` from a degraded retry is still a definitive
outcome for the degraded configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.refinement.check import RefinementResult, Verdict, VerifyOptions

#: Floor for the degraded conflict budget; below this the solver cannot
#: make meaningful progress and further halving only burns retries.
_MIN_CONFLICTS = 256

#: Floor for the degraded e-graph node budget; below this saturation
#: cannot represent even small queries and the rung is pure overhead.
_MIN_EGRAPH_NODES = 64


@dataclass(frozen=True)
class DegradationLadder:
    """Policy for cheapening a job after resource exhaustion.

    ``max_retries`` bounds the number of degraded re-runs per job.
    Each rung halves the unroll factor (down to ``min_unroll``), halves
    any conflict budget, and — once the unroll factor bottoms out —
    shrinks the scaled-down memory model's per-argument block.
    """

    max_retries: int = 2
    min_unroll: int = 1

    def next_rung(
        self, options: VerifyOptions, memout: bool = False
    ) -> Optional[Tuple[List[str], VerifyOptions]]:
        """The next cheaper configuration, or None when fully degraded.

        With ``memout`` the rung also halves the active result cache's
        in-memory LRU bounds (``lru-shrink``): under memory pressure the
        warm cache tier is ballast, and shrinking it is a step the
        options alone cannot express (it acts on process state, so it
        happens here, exactly once per rung, and is recorded like any
        other step).
        """
        steps: List[str] = []
        changes: dict = {}
        if memout:
            from repro.engine import qcache

            cache = qcache.active()
            if cache is not None:
                shrunk = cache.shrink()
                if shrunk is not None:
                    old, new = shrunk
                    steps.append(f"lru-shrink:{old}->{new}")
            if options.memdf:
                # The points-to/memdf memo tables and the extra analysis
                # pass cost memory; under MEMOUT the facts are ballast
                # (they only make encodings smaller, never correctness).
                changes["memdf"] = False
                steps.append("memdf-off")
            if options.relational:
                # Same deal for the relational interpreter: its product
                # numbering and witness seeds only save solver work, so
                # under MEMOUT the analysis state is pure ballast.
                changes["relational"] = False
                steps.append("relational-off")
        if options.unroll_factor > self.min_unroll:
            new_unroll = max(self.min_unroll, options.unroll_factor // 2)
            changes["unroll_factor"] = new_unroll
            steps.append(f"unroll:{options.unroll_factor}->{new_unroll}")
        if options.max_conflicts is not None and options.max_conflicts > _MIN_CONFLICTS:
            new_conflicts = max(_MIN_CONFLICTS, options.max_conflicts // 2)
            changes["max_conflicts"] = new_conflicts
            steps.append(f"conflicts:{options.max_conflicts}->{new_conflicts}")
        if options.egraph and options.egraph_max_nodes > _MIN_EGRAPH_NODES:
            # Saturation time grows with the node budget, so a TIMEOUT
            # retry cheapens the e-graph rung along with the solver.
            new_nodes = max(_MIN_EGRAPH_NODES, options.egraph_max_nodes // 2)
            changes["egraph_max_nodes"] = new_nodes
            steps.append(f"egraph:{options.egraph_max_nodes}->{new_nodes}")
        if not steps and options.memory.arg_block_bytes > 1:
            new_bytes = max(1, options.memory.arg_block_bytes // 2)
            changes["memory"] = replace(options.memory, arg_block_bytes=new_bytes)
            steps.append(f"argbytes:{options.memory.arg_block_bytes}->{new_bytes}")
        if not steps:
            return None
        return steps, replace(options, **changes)


def run_with_degradation(
    attempt: Callable[[VerifyOptions], RefinementResult],
    options: VerifyOptions,
    ladder: Optional[DegradationLadder],
) -> RefinementResult:
    """Run ``attempt``, retrying down the ladder on TIMEOUT/OOM.

    The returned result is the last attempt's, with ``degradations``
    listing every step taken on the way there (empty for a first-try
    answer).  ``attempt`` must not raise — wrap it in the containment
    boundary (:func:`repro.harness.isolation.run_contained`) first.
    """
    result = attempt(options)
    if ladder is None:
        return result
    taken: List[str] = []
    current = options
    retries = 0
    while (
        result.verdict in (Verdict.TIMEOUT, Verdict.OOM)
        and retries < ladder.max_retries
    ):
        rung = ladder.next_rung(current, memout=result.verdict is Verdict.OOM)
        if rung is None:
            break
        steps, current = rung
        taken.extend(steps)
        retries += 1
        result = attempt(current)
    result.degradations = taken + list(result.degradations)
    return result
