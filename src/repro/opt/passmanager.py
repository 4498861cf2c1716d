"""Pass manager: named passes, pipelines, per-pass IR snapshots.

Mirrors the slice of LLVM's pass infrastructure that translation
validation interacts with: run a named pass over every function, report
whether anything changed (the plugin skips validation for no-change runs,
§8.1), and let drivers snapshot the IR before/after each pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.ir.function import Function
from repro.ir.module import Module

# A pass takes (function, module, options) and returns True when it
# changed the function.
PassFn = Callable[[Function, Module, dict], bool]

PASS_REGISTRY: Dict[str, PassFn] = {}


def register_pass(name: str):
    def decorate(fn: PassFn) -> PassFn:
        PASS_REGISTRY[name] = fn
        return fn

    return decorate


@dataclass
class PassRun:
    """One pass execution over one function.

    ``before`` and ``after`` are sealed snapshots shared with the
    neighbouring runs (one run's ``after`` is the next run's ``before``,
    and a run that changed nothing has ``after is before``): read them;
    to change one, take a ``clone()``.
    """

    pass_name: str
    function: str
    changed: bool
    before: Module
    after: Module


@dataclass
class PassManager:
    """Runs a pipeline of named passes over a module.

    ``options`` is visible to every pass; buggy variants are switched on
    through it (see :mod:`repro.opt.bugs`).
    """

    pipeline: List[str]
    options: dict = field(default_factory=dict)

    def run(self, module: Module) -> List[PassRun]:
        """Run the pipeline; returns one PassRun per (pass, function)."""
        import repro.opt.passes  # noqa: F401  (registers all passes)

        runs: List[PassRun] = []
        # Snapshots are sealed clones, at most one per step: a step's
        # ``after`` is the next step's ``before``, and a step that changes
        # nothing reuses its ``before`` (passes report every change), so
        # each function version is analysed once however many pairs read it.
        snapshot: Optional[Module] = None
        for name in self.pipeline:
            pass_fn = PASS_REGISTRY.get(name)
            if pass_fn is None:
                raise KeyError(f"unknown pass {name!r}")
            for fn in module.definitions():
                before = snapshot if snapshot is not None else module.clone().seal()
                changed = pass_fn(fn, module, self.options)
                snapshot = module.clone().seal() if changed else before
                runs.append(PassRun(name, fn.name, changed, before, snapshot))
        return runs


def run_pipeline(
    module: Module, pipeline: List[str], options: Optional[dict] = None
) -> List[PassRun]:
    """Convenience wrapper used by the tools and the evaluation harness."""
    return PassManager(list(pipeline), options or {}).run(module)
