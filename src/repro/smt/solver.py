"""Quantifier-free SMT solver: terms -> CNF -> CDCL, with resource limits.

This is the layer the refinement checker talks to.  It mirrors the part
of Z3's interface that Alive2 uses: assert boolean formulas, check
satisfiability under a timeout and a memory cap, and extract models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional

from repro.sat.checker import check_events
from repro.sat.proof import Certificate, ProofLog
from repro.sat.solver import Budget, SatResult, SatSolver
from repro.smt.terms import Term, term_vars


class CheckResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"
    MEMOUT = "memout"


@dataclass
class SolverTelemetry:
    """Process-wide counters over every :meth:`SmtSolver.check` call.

    The result cache's contract is that a hit skips the solver *entirely*;
    these counters are how tests and benchmarks observe that, and how the
    engine reports per-worker solver load.
    """

    checks: int = 0
    sat: int = 0
    unsat: int = 0
    indefinite: int = 0  # timeout / memout
    # Certification traffic (certify mode): UNSAT answers whose proof the
    # independent checker accepted / rejected, UNSAT answers that went
    # unchecked (certify off), core literals over all UNSAT answers, and
    # proof sizes before/after backward trimming.
    certified: int = 0
    cert_failed: int = 0
    unchecked_unsat: int = 0
    core_lits: int = 0
    proof_lemmas: int = 0
    proof_checked: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "checks": self.checks,
            "sat": self.sat,
            "unsat": self.unsat,
            "indefinite": self.indefinite,
            "certified": self.certified,
            "cert_failed": self.cert_failed,
            "unchecked_unsat": self.unchecked_unsat,
            "core_lits": self.core_lits,
            "proof_lemmas": self.proof_lemmas,
            "proof_checked": self.proof_checked,
        }


TELEMETRY = SolverTelemetry()


def reset_telemetry() -> None:
    TELEMETRY.checks = TELEMETRY.sat = TELEMETRY.unsat = 0
    TELEMETRY.indefinite = 0
    TELEMETRY.certified = TELEMETRY.cert_failed = 0
    TELEMETRY.unchecked_unsat = TELEMETRY.core_lits = 0
    TELEMETRY.proof_lemmas = TELEMETRY.proof_checked = 0


@dataclass(frozen=True)
class ResourceLimits:
    """Per-query resource budget.

    ``timeout_s``: wall-clock limit in seconds (None = unlimited).
    ``max_conflicts``: CDCL conflict budget (a deterministic timeout proxy,
    useful for reproducible benchmarks).
    ``max_learned_lits``: cap on learned-clause literals — the out-of-memory
    proxy matching the paper's 1 GB Z3 cap.
    """

    timeout_s: Optional[float] = None
    max_conflicts: Optional[int] = None
    max_learned_lits: Optional[int] = None

    def to_budget(self) -> Budget:
        deadline = None
        if self.timeout_s is not None:
            deadline = time.monotonic() + self.timeout_s
        return Budget(
            deadline=deadline,
            max_conflicts=self.max_conflicts,
            max_learned_lits=self.max_learned_lits,
        )


class SmtSolver:
    """A one-shot (but multi-check) SMT solver instance."""

    def __init__(
        self, polarity_seed: Optional[int] = None, certify: bool = False
    ) -> None:
        from repro.smt.bitblast import BitBlaster

        self.certify = certify
        self.proof: Optional[ProofLog] = ProofLog() if certify else None
        self.sat = SatSolver(polarity_seed, proof=self.proof)
        self.blaster = BitBlaster(self.sat)
        self._assertions: List[Term] = []
        #: One entry per UNSAT answer in certify mode, chronological.
        self.certificates: List[Certificate] = []
        #: Assumption terms the last UNSAT answer depended on.
        self.last_core: List[Term] = []
        self._check_count = 0

    def randomize_polarity(self) -> None:
        self.sat.randomize_polarity()

    def assert_term(self, term: Term) -> None:
        """Add a boolean term to the assertion stack."""
        self._assertions.append(term)
        self.blaster.assert_term(term)

    @property
    def assertions(self) -> List[Term]:
        return list(self._assertions)

    def check(
        self,
        limits: Optional[ResourceLimits] = None,
        assumptions: Iterable[Term] = (),
    ) -> CheckResult:
        """Check satisfiability of the asserted formulas (plus assumptions)."""
        assumption_terms = list(assumptions)
        assumption_lits = [self.blaster.blast_bool(t) for t in assumption_terms]
        budget = limits.to_budget() if limits is not None else None
        TELEMETRY.checks += 1
        self._check_count += 1
        result = self.sat.solve(assumptions=assumption_lits, budget=budget)
        if result is SatResult.SAT:
            TELEMETRY.sat += 1
            return CheckResult.SAT
        if result is SatResult.UNSAT:
            TELEMETRY.unsat += 1
            core_lits = self.sat.unsat_core()
            TELEMETRY.core_lits += len(core_lits)
            term_by_lit: Dict[int, Term] = {}
            for lit, term in zip(assumption_lits, assumption_terms):
                term_by_lit.setdefault(lit, term)
            self.last_core = [
                term_by_lit[lit] for lit in core_lits if lit in term_by_lit
            ]
            if self.certify:
                self._certify_unsat(core_lits, assumption_lits)
            else:
                TELEMETRY.unchecked_unsat += 1
            return CheckResult.UNSAT
        TELEMETRY.indefinite += 1
        if self.sat.stats.unknown_reason == "memory":
            return CheckResult.MEMOUT
        return CheckResult.TIMEOUT

    def _certify_unsat(
        self, core_lits: List[int], assumption_lits: List[int]
    ) -> None:
        """Run the independent RUP checker over the proof so far and bundle
        the verdict into a :class:`Certificate`."""
        assert self.proof is not None
        outcome = check_events(self.proof.events, assumptions=assumption_lits)
        cert = Certificate(
            query=f"check#{self._check_count}",
            digest=self.blaster.certificate_digest(),
            valid=outcome.valid,
            reason=outcome.reason,
            lemmas=self.proof.lemmas,
            deletions=self.proof.deletions,
            checked_lemmas=outcome.checked_lemmas,
            core=tuple(core_lits),
        )
        self.certificates.append(cert)
        TELEMETRY.proof_lemmas += self.proof.lemmas
        TELEMETRY.proof_checked += outcome.checked_lemmas
        if outcome.valid:
            TELEMETRY.certified += 1
        else:
            TELEMETRY.cert_failed += 1

    def model_env(self) -> Dict[str, object]:
        """Extract {variable name: int | bool} from the last SAT model.

        Only variables that were actually bit-blasted appear; callers must
        treat missing variables as unconstrained (the partial-model property
        that §3.8 of the paper exploits for over-approximation tagging).
        """
        env: Dict[str, object] = {}
        for name, bits in self.blaster.var_bits.items():
            if isinstance(bits, int):
                env[name] = self.sat.model_value(bits)
            else:
                value = 0
                for i, lit in enumerate(bits):
                    if self.sat.model_value(lit):
                        value |= 1 << i
                env[name] = value
        return env

    def vars_in_formula(self) -> frozenset:
        """Names of variables referenced by any asserted formula."""
        names: set = set()
        for t in self._assertions:
            names |= term_vars(t)
        return frozenset(names)


def check_valid(
    formula: Term, limits: Optional[ResourceLimits] = None
) -> CheckResult:
    """Check validity of ``formula``: UNSAT of its negation means valid.

    Returns SAT if a counterexample to validity exists, UNSAT if valid.
    """
    from repro.smt.terms import bool_not

    solver = SmtSolver()
    solver.assert_term(bool_not(formula))
    return solver.check(limits)
