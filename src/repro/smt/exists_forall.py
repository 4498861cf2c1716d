"""CEGAR solver for exists-forall (2QBF-over-bitvectors) queries.

The refinement condition of §5.2, once negated for the solver, has the
shape::

    exists O .  phi(O)  and  forall N . not psi(O, N)

where ``O`` collects the outer variables (inputs, target outputs, target
non-determinism) and ``N`` the source-side non-determinism (undef / freeze
/ unknown-call variables).  We solve it by counterexample-guided
instantiation:

1. keep a finite set S of instantiations for N (started at all-zeros);
2. solve ``phi(O) and AND_{n in S} not psi(O, n)``;
   - UNSAT: the original query is UNSAT (sound: S under-constrains)
     => refinement HOLDS;
3. from a model O*, solve ``psi(O*, N)`` over N alone;
   - UNSAT: O* is a genuine witness => refinement FAILS with model O*;
   - SAT with model n*: add n* to S and repeat.

Termination is guaranteed on bounded bitvectors (each n* removes at least
one candidate O*), and both verdicts are sound — the property Alive2
requires for its zero-false-alarm goal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.harness.faults import maybe_fault
from repro.sat.proof import Certificate
from repro.smt.solver import CheckResult, ResourceLimits, SmtSolver
from repro.smt.terms import (
    Term,
    bool_and,
    bool_not,
    bool_var,
    bv_const,
    bv_eq,
    bv_var,
    on_reset,
    substitute,
    term_vars,
)


class EFResult(Enum):
    """Outcome of an exists-forall query."""

    UNSAT = "unsat"  # no witness: the negated refinement query fails to hold
    SAT = "sat"  # witness found (counterexample to refinement)
    TIMEOUT = "timeout"
    MEMOUT = "memout"


@dataclass
class EFOutcome:
    result: EFResult
    model: Dict[str, object] = field(default_factory=dict)
    iterations: int = 0
    # Certify mode: one certificate per UNSAT answer given by either the
    # outer or the (persistent) inner solver, chronological.
    certificates: List[Certificate] = field(default_factory=list)
    # Names of the existential variables in the inner solver's unsat core
    # when a candidate was confirmed (result SAT): which pinned values the
    # "source cannot match this" proof actually depended on.
    core_names: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class QuantVar:
    """A declared variable: bitvector if width >= 1, boolean if width == 0."""

    name: str
    width: int


def _const_for(var: QuantVar, value: object) -> Term:
    from repro.smt.terms import FALSE, TRUE

    if var.width == 0:
        return TRUE if value else FALSE
    return bv_const(int(value), var.width)


def solve_exists_forall(
    phi: Term,
    psi: Term,
    forall_vars: Sequence[QuantVar],
    limits: Optional[ResourceLimits] = None,
    max_iterations: int = 64,
    symbolic_seeds: Sequence[Dict[str, Term]] = (),
    certify: bool = False,
) -> EFOutcome:
    """Solve ``exists O. phi(O) and forall N. not psi(O, N)``.

    ``forall_vars`` lists N; every other free variable is existential.
    ``psi`` is the formula whose universal falsification is required
    (for refinement: "the source can produce this output").

    ``symbolic_seeds`` are instantiations of N by *terms over the outer
    variables*; they are asserted up front.  This is the CEGAR analogue
    of E-matching: refinement queries where the source's undef variables
    must track a target expression converge in one round instead of
    enumerating the value space (cf. the instantiation heuristics of
    §3.3/§3.7 of the Alive2 paper).
    """

    def _assert_not_psi(solver: SmtSolver, mapping: Dict[str, Term]) -> None:
        solver.assert_term(bool_not(substitute(psi, mapping)))

    # Fault-injection site for solver-level faults (kind="unsound" arms
    # the learned-clause corruption in repro.sat.solver from here, so the
    # plain SAT probes of the refinement sequence are unaffected).
    maybe_fault("ef")
    deadline = None
    if limits is not None and limits.timeout_s is not None:
        deadline = time.monotonic() + limits.timeout_s

    def remaining() -> Optional[ResourceLimits]:
        if limits is None:
            return None
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        return ResourceLimits(
            timeout_s=timeout,
            max_conflicts=limits.max_conflicts,
            max_learned_lits=limits.max_learned_lits,
        )

    forall_names = {v.name for v in forall_vars}
    psi_vars = term_vars(psi)
    relevant_forall = [v for v in forall_vars if v.name in psi_vars]

    # Instantiation set; all-zeros is the seed.
    instantiations: List[Dict[str, object]] = [
        {v.name: 0 for v in relevant_forall}
    ]
    tried = {tuple(sorted(instantiations[0].items()))}

    # Randomized initial polarity diversifies candidate models, avoiding
    # the pathological enumeration order (e.g. all-even sums first) that a
    # fixed false-polarity heuristic produces.
    outer = SmtSolver(polarity_seed=0xA11CE, certify=certify)
    outer.assert_term(phi)
    for inst in instantiations:
        _assert_not_psi(
            outer,
            {v.name: _const_for(v, inst[v.name]) for v in relevant_forall},
        )
    for seed in symbolic_seeds:
        # Complete partial seeds with zeros: an instantiation must cover
        # every universal variable or the assertion would be unsound.
        mapping = {
            v.name: seed.get(v.name, _const_for(v, 0)) for v in relevant_forall
        }
        if not any(v.name in seed for v in relevant_forall):
            continue
        _assert_not_psi(outer, mapping)

    iterations = 0
    inner: Optional[SmtSolver] = None  # persistent across CEGAR rounds

    def certs() -> List[Certificate]:
        bundle = list(outer.certificates)
        if inner is not None:
            bundle.extend(inner.certificates)
        return bundle

    while True:
        iterations += 1
        if deadline is not None and time.monotonic() > deadline:
            return EFOutcome(EFResult.TIMEOUT, iterations=iterations)
        if iterations > max_iterations:
            return EFOutcome(EFResult.TIMEOUT, iterations=iterations)

        if iterations > 1:
            # Diversify candidate models: phase saving otherwise walks the
            # value space in tiny steps (e.g. even sums only), turning the
            # instantiation loop into plain enumeration.
            outer.randomize_polarity()
        res = outer.check(remaining())
        if res is CheckResult.UNSAT:
            return EFOutcome(
                EFResult.UNSAT, iterations=iterations, certificates=certs()
            )
        if res is CheckResult.TIMEOUT:
            return EFOutcome(EFResult.TIMEOUT, iterations=iterations)
        if res is CheckResult.MEMOUT:
            return EFOutcome(EFResult.MEMOUT, iterations=iterations)

        candidate = outer.model_env()
        # Fix every existential variable appearing in psi to its model value
        # (missing ones are unconstrained; 0 is as good as any).  The inner
        # solver is persistent: psi is blasted once, each round only adds
        # assumption literals pinning the existentials to the candidate, so
        # clauses learned refuting one candidate carry over to the next.
        if inner is None:
            inner = SmtSolver(certify=certify)
            inner.assert_term(psi)
        assumptions: List[Term] = []
        for name in psi_vars:
            if name in forall_names:
                continue
            width = _var_width(psi, name)
            value = candidate.get(name, 0)
            if width == 0:
                var = bool_var(name)
                assumptions.append(var if value else bool_not(var))
            else:
                assumptions.append(
                    bv_eq(bv_var(name, width), bv_const(int(value), width))
                )
        inner_res = inner.check(remaining(), assumptions=assumptions)
        if inner_res is CheckResult.UNSAT:
            # The unsat core names which pinned existentials the "source
            # cannot reproduce this candidate" proof actually used.
            core_names: List[str] = []
            for term in inner.last_core:
                for name in sorted(term_vars(term)):
                    if name not in core_names:
                        core_names.append(name)
            return EFOutcome(
                EFResult.SAT,
                model=candidate,
                iterations=iterations,
                certificates=certs(),
                core_names=core_names,
            )
        if inner_res is CheckResult.TIMEOUT:
            return EFOutcome(EFResult.TIMEOUT, iterations=iterations)
        if inner_res is CheckResult.MEMOUT:
            return EFOutcome(EFResult.MEMOUT, iterations=iterations)

        inner_model = inner.model_env()
        inst = {
            v.name: inner_model.get(v.name, 0) for v in relevant_forall
        }
        key = tuple(sorted(inst.items()))
        if key in tried:
            # The instantiation did not eliminate the candidate; block the
            # candidate itself to guarantee progress.
            blockers = []
            for name, value in candidate.items():
                if name in forall_names:
                    continue
                width = _var_width(phi, name) or _var_width(psi, name)
                if width is None:
                    continue
                if width == 0:
                    var = bool_var(name)
                    blockers.append(var if value else bool_not(var))
                else:
                    blockers.append(bv_eq(bv_var(name, width), bv_const(int(value), width)))
            if not blockers:
                return EFOutcome(EFResult.TIMEOUT, iterations=iterations)
            outer.assert_term(bool_not(bool_and(*blockers)))
            continue
        tried.add(key)
        _assert_not_psi(
            outer,
            {v.name: _const_for(v, inst[v.name]) for v in relevant_forall},
        )


# Keyed by the interned term itself, NOT id(term): an id can be recycled
# after reset_interning() frees the old object, which would alias a stale
# width onto an unrelated term.  Holding the term pins it alive, and the
# on_reset hook drops the cache together with the intern table.
_WIDTH_CACHE: Dict[tuple, Optional[int]] = {}


@on_reset
def _clear_width_cache() -> None:
    _WIDTH_CACHE.clear()


def _var_width(term: Term, name: str) -> Optional[int]:
    """Find the width of variable ``name`` in ``term`` (None if absent)."""
    key = (term, name)
    if key in _WIDTH_CACHE:
        return _WIDTH_CACHE[key]
    stack = [term]
    seen = set()
    width: Optional[int] = None
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.op == "var" and t.payload == name:
            width = t.width
            break
        stack.extend(t.args)
    _WIDTH_CACHE[key] = width
    return width
