"""Per-pair timing and per-layer spans, installed from outside the program.

The benchmark wraps the bindings that callers use -- a module attribute
such as ``repro.refinement.check.analyze_memdf`` or a class attribute
such as ``SatSolver.solve`` -- and never edits the code under test.

Untraced, only the pair boundary is wrapped: ``run_verification_job`` at
its two call sites (``repro.tv.plugin`` for pipeline tests and
``repro.suite.runner`` for FileCheck-style tests), one ``perf_counter``
pair per refinement pair.  Traced, every layer entry point in
:data:`LAYERS` records a span ``[name, start, end, parent, pair]`` in
memory, plus the counters that only the call boundary can see (SAT search
effort, CNF size, CEGAR outcomes, changed pass runs).

Pool workers are forked from the process that installed the probe, so
they inherit the wrappers.  After a fork the probe starts empty and
appends each finished top-level record to
``<spill_dir>/worker-<pid>.jsonl`` (pool workers have no reliable exit
hook); :func:`collect_spills` reads them back.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Pair boundary: run_verification_job at each binding a caller uses.
PAIR_SITES = (
    ("repro.tv.plugin", "run_verification_job"),
    ("repro.suite.runner", "run_verification_job"),
)

#: Layer name -> entry points (module, attribute path) wrapped for spans.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sat.solver": (("repro.sat.solver", "SatSolver.solve"),),
    "smt.bitblast": (("repro.smt.solver", "SmtSolver.assert_term"),),
    "smt.solver": (("repro.smt.solver", "SmtSolver.check"),),
    "smt.exists_forall": (("repro.refinement.check", "solve_exists_forall"),),
    "analysis.prescreen": (
        ("repro.analysis.prescreen", "Prescreener.screen_sat"),
        ("repro.analysis.prescreen", "Prescreener.screen_query"),
        ("repro.analysis.prescreen", "Prescreener.screen_memory"),
    ),
    "analysis.relational": (("repro.refinement.check", "analyze_relational"),),
    "egraph.simplify": (
        ("repro.egraph.simplify", "EgraphSimplifier.screen_query"),
        ("repro.egraph.simplify", "EgraphSimplifier.simplify"),
    ),
    "analysis.memdf": (("repro.refinement.check", "analyze_memdf"),),
    "semantics.encoder": (("repro.semantics.encoder", "_Encoder.encode"),),
    "ir.unroll": (("repro.refinement.check", "unroll_function"),),
    "refinement.check": (("repro.harness.isolation", "verify_refinement"),),
    "opt.passmanager": (("repro.opt.passmanager", "PassManager.run"),),
    "ir.parser": (("repro.suite.runner", "parse_module"),),
    "analysis.verify": (("repro.analysis.verify", "lint_function"),),
}
#: The span at the pair boundary, and the root span over the timed phase
#: whose self time is everything no layer claims (runner and plugin glue).
PAIR_LAYER = "harness"
ROOT_LAYER = "suite.runner"
ALL_LAYERS = tuple(LAYERS) + (PAIR_LAYER, ROOT_LAYER)


def _sat_before(args):
    s = args[0].stats
    return s.conflicts, s.decisions, s.propagations


def _sat_after(counters, args, _result, before) -> None:
    s = args[0].stats
    counters["sat.solver.conflicts"] += s.conflicts - before[0]
    counters["sat.solver.decisions"] += s.decisions - before[1]
    counters["sat.solver.propagations"] += s.propagations - before[2]


def _ef_after(counters, _args, outcome, _before) -> None:
    counters["smt.exists_forall.iterations"] += outcome.iterations
    kind = outcome.result.value
    counters[f"smt.exists_forall.{kind if kind in ('sat', 'unsat') else 'indefinite'}"] += 1


def _passes_after(counters, _args, runs, _before) -> None:
    counters["opt.passmanager.changed_runs"] += sum(1 for r in runs if r.changed)


#: Layer -> (snapshot before the call, fold the call's effect into counters).
_OBSERVERS = {
    "sat.solver": (_sat_before, _sat_after),
    "smt.exists_forall": (None, _ef_after),
    "opt.passmanager": (None, _passes_after),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Probe:
    """Records pair latencies and, when ``trace`` is set, layer spans."""

    def __init__(self, spill_dir: Path, trace: bool) -> None:
        self.spill_dir = Path(spill_dir)
        self.trace = trace
        self.pairs: List[Tuple[float, str]] = []  # (ms, verdict value)
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._pair = -1
        self._forked = False
        self._spill_file = None
        self._undo: List[tuple] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for module, attr in PAIR_SITES:
            self._wrap(module, attr, self._pair_wrapper)
        if self.trace:
            for layer, sites in LAYERS.items():
                for module, path in sites:
                    self._wrap(module, path, self._span_wrapper(layer))
            # CNF size: every input clause and variable passes these two.
            for attr, key in (("add_clause", "cnf_clauses"), ("new_var", "cnf_vars")):
                self._wrap(
                    "repro.sat.solver",
                    f"SatSolver.{attr}",
                    self._count_wrapper(f"smt.bitblast.{key}"),
                )
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, module: str, path: str, make: Callable) -> None:
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _after_fork(self) -> None:
        self.pairs, self.spans, self._stack = [], [], []
        self.counters = Counter()
        self._forked = True
        self._spill_file = None

    # -- spans --------------------------------------------------------------
    def open(self, layer: str) -> list:
        stack = self._stack
        record = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, self._pair]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()
        if self._forked and not self._stack:
            self._spill()

    def _pair_wrapper(self, fn: Callable) -> Callable:
        probe = self

        def pair(*args, **kwargs):
            probe._pair = len(probe.pairs)
            record = probe.open(PAIR_LAYER) if probe.trace else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                probe.pairs.append(((perf_counter() - t0) * 1e3, result.verdict.value))
                probe.counters["harness.degradations"] += len(result.degradations)
            finally:
                probe._pair = -1
                if record is not None:
                    probe.close(record)
                elif probe._forked:
                    probe._spill()
            return result

        return pair

    def _span_wrapper(self, layer: str) -> Callable:
        probe = self
        before, after = _OBSERVERS.get(layer, (None, None))

        def make(fn: Callable) -> Callable:
            def span(*args, **kwargs):
                record = probe.open(layer)
                snapshot = before(args) if before else None
                try:
                    result = fn(*args, **kwargs)
                finally:
                    probe.close(record)
                if after:
                    after(probe.counters, args, result, snapshot)
                return result

            return span

        return make

    def _count_wrapper(self, key: str) -> Callable:
        probe = self

        def make(fn: Callable) -> Callable:
            def count(*args, **kwargs):
                probe.counters[key] += 1
                return fn(*args, **kwargs)

            return count

        return make

    def _spill(self) -> None:
        if self._spill_file is None:
            # Line-buffered: each record reaches the file in one write, so
            # nothing is lost when the worker ends without running exit hooks.
            path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
            self._spill_file = open(path, "a", encoding="utf-8", buffering=1)
        self._spill_file.write(
            json.dumps({"pairs": self.pairs, "spans": self.spans, "counters": self.counters})
            + "\n"
        )
        self.pairs, self.spans = [], []
        self.counters = Counter()


def collect_spills(probe: Probe) -> None:
    """Fold every forked worker's spilled records into ``probe``."""
    for path in sorted(probe.spill_dir.glob("worker-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                chunk = json.loads(line)
                base = len(probe.spans)
                for name, start, end, parent, pair in chunk["spans"]:
                    parent = parent + base if parent >= 0 else -1
                    probe.spans.append([name, start, end, parent, pair])
                probe.pairs.extend(tuple(p) for p in chunk["pairs"])
                probe.counters.update(chunk["counters"])


def self_times(spans: List[list]) -> Dict[str, Tuple[int, float]]:
    """Layer -> (calls, self seconds): duration minus direct children's."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _pair in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, Tuple[int, float]] = {}
    for (name, start, end, _parent, _pair), cover in zip(spans, covered):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - cover)
    return out
