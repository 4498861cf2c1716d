"""Aggregation of validation outcomes into the paper's outcome classes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.refinement.check import RefinementResult, Verdict


@dataclass
class ValidationRecord:
    """One validated (source, target) pair."""

    function: str
    pass_name: str
    result: RefinementResult


@dataclass
class Tally:
    """The outcome columns of Figure 7."""

    correct: int = 0
    incorrect: int = 0
    timeout: int = 0
    oom: int = 0
    unsupported: int = 0
    approx: int = 0
    crash: int = 0  # validator failures contained by the harness
    solver_unsound: int = 0  # UNSAT claims the proof checker rejected
    skipped_unchanged: int = 0
    total_time_s: float = 0.0
    # Pair-cache traffic (engine layer): a hit replayed a whole (src, tgt)
    # job without verifying it, a miss verified it.
    qcache_hits: int = 0
    qcache_misses: int = 0
    # Cache-tier load cost (sharded two-tier cache): JSONL entries/bytes
    # parsed by workers at cache open, and in-memory LRU evictions under
    # the bounds.  Deliberately not part of row(): load cost is an engine
    # property, not a verdict.
    qcache_load_entries: int = 0
    qcache_load_bytes: int = 0
    qcache_evictions: int = 0
    # Static prescreen traffic (analysis layer): queries discharged by
    # dataflow facts before ever reaching the cache or the solver, plus
    # lint diagnostics from the pre-verification gate.
    prescreen_hits: int = 0
    prescreen_misses: int = 0
    lint_errors: int = 0
    lint_warnings: int = 0
    # Certification traffic (certify mode): UNSAT answers whose proofs the
    # independent checker accepted vs rejected, and core literals seen.
    certified_unsat: int = 0
    cert_failures: int = 0
    core_lits: int = 0
    # E-graph traffic (equality-saturation rung): queries the simplifier
    # discharged with zero solver calls, terms it shrank, terms it left
    # unchanged — plus aggregate per-phase wall-clock across all jobs.
    egraph_proved: int = 0
    egraph_shrunk: int = 0
    egraph_misses: int = 0
    # Memory-dataflow traffic (memdf layer): queries discharged by the
    # alias/forwarding/OOB prescreen rules (subset of prescreen_hits),
    # accesses whose encoding dropped at least one aliasing case-split,
    # and total (access x block) pairs pruned.
    memdf_rule_hits: int = 0
    memdf_narrowed: int = 0
    memdf_block_skips: int = 0
    # Relational-analysis traffic: queries discharged by the
    # R-relational-equal rules (subset of prescreen_hits), witness pairs
    # contributed to the CEGAR seeds, and certified aligned block pairs.
    relational_rule_hits: int = 0
    relational_seed_pairs: int = 0
    relational_aligned_blocks: int = 0
    phase_time_s: Dict[str, float] = field(default_factory=dict)

    def add(self, result: RefinementResult) -> None:
        self.add_verdict(result.verdict, result.elapsed_s)
        for phase, seconds in getattr(result, "phase_times", {}).items():
            self.phase_time_s[phase] = self.phase_time_s.get(phase, 0.0) + seconds
        for cert in getattr(result, "certificates", ()):
            if cert.valid:
                self.certified_unsat += 1
            else:
                self.cert_failures += 1
            self.core_lits += len(cert.core)

    def add_verdict(self, verdict: Verdict, elapsed_s: float = 0.0) -> None:
        """Count one outcome; used directly when replaying journal entries."""
        self.total_time_s += elapsed_s
        if verdict is Verdict.CORRECT:
            self.correct += 1
        elif verdict is Verdict.INCORRECT:
            self.incorrect += 1
        elif verdict is Verdict.TIMEOUT:
            self.timeout += 1
        elif verdict is Verdict.OOM:
            self.oom += 1
        elif verdict is Verdict.APPROX:
            self.approx += 1
        elif verdict is Verdict.CRASH:
            self.crash += 1
        elif verdict is Verdict.SOLVER_UNSOUND:
            self.solver_unsound += 1
        else:
            self.unsupported += 1

    @property
    def qcache_hit_rate(self) -> float:
        total = self.qcache_hits + self.qcache_misses
        return self.qcache_hits / total if total else 0.0

    @property
    def prescreen_hit_rate(self) -> float:
        total = self.prescreen_hits + self.prescreen_misses
        return self.prescreen_hits / total if total else 0.0

    @property
    def analyzed(self) -> int:
        return (
            self.correct
            + self.incorrect
            + self.timeout
            + self.oom
            + self.unsupported
            + self.approx
            + self.crash
            + self.solver_unsound
        )

    def row(self) -> Dict[str, object]:
        return {
            "pairs": self.analyzed + self.skipped_unchanged,
            "diff": self.analyzed,
            "correct": self.correct,
            "incorrect": self.incorrect,
            "timeout": self.timeout,
            "oom": self.oom,
            "crash": self.crash,
            "solver_unsound": self.solver_unsound,
            "unsupported": self.unsupported + self.approx,
            "time_s": round(self.total_time_s, 2),
        }


@dataclass
class ValidationReport:
    records: List[ValidationRecord] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    def add(self, record: ValidationRecord) -> None:
        self.records.append(record)
        self.tally.add(record.result)

    def failures(self) -> List[ValidationRecord]:
        return [
            r for r in self.records if r.result.verdict is Verdict.INCORRECT
        ]

    def summary(self) -> str:
        t = self.tally
        text = (
            f"{t.analyzed} analyzed ({t.skipped_unchanged} unchanged skipped): "
            f"{t.correct} correct, {t.incorrect} incorrect, "
            f"{t.timeout} timeout, {t.oom} OOM, {t.crash} crash, "
            f"{t.unsupported + t.approx} unsupported/approx "
            f"[{t.total_time_s:.1f}s]"
        )
        if t.solver_unsound:
            text += f" [SOLVER UNSOUND: {t.solver_unsound}]"
        if t.certified_unsat or t.cert_failures:
            text += (
                f" [certified: {t.certified_unsat} UNSAT proofs accepted, "
                f"{t.cert_failures} rejected, {t.core_lits} core lits]"
            )
        if t.qcache_hits or t.qcache_misses:
            text += (
                f" [pair cache: {t.qcache_hits} replayed / "
                f"{t.qcache_misses} verified, {t.qcache_hit_rate:.0%}]"
            )
        if t.qcache_load_entries or t.qcache_load_bytes or t.qcache_evictions:
            text += (
                f" [cache tier: {t.qcache_load_entries} entries / "
                f"{t.qcache_load_bytes} bytes loaded, "
                f"{t.qcache_evictions} evicted]"
            )
        if t.prescreen_hits or t.prescreen_misses:
            text += (
                f" [prescreen: {t.prescreen_hits} discharged / "
                f"{t.prescreen_misses} passed on, {t.prescreen_hit_rate:.0%}]"
            )
        if t.egraph_proved or t.egraph_shrunk or t.egraph_misses:
            text += (
                f" [egraph: {t.egraph_proved} proved, "
                f"{t.egraph_shrunk} shrunk, {t.egraph_misses} unchanged]"
            )
        if t.memdf_rule_hits or t.memdf_narrowed or t.memdf_block_skips:
            text += (
                f" [memdf: {t.memdf_rule_hits} rule hits, "
                f"{t.memdf_narrowed} accesses narrowed, "
                f"{t.memdf_block_skips} block case-splits pruned]"
            )
        if (
            t.relational_rule_hits
            or t.relational_seed_pairs
            or t.relational_aligned_blocks
        ):
            text += (
                f" [relational: {t.relational_rule_hits} rule hits, "
                f"{t.relational_seed_pairs} seed pairs, "
                f"{t.relational_aligned_blocks} aligned blocks]"
            )
        if t.phase_time_s:
            phases = ", ".join(
                f"{k}={v:.2f}s"
                for k, v in sorted(t.phase_time_s.items())
            )
            text += f" [phases: {phases}]"
        if t.lint_errors or t.lint_warnings:
            text += (
                f" [lint: {t.lint_errors} errors, {t.lint_warnings} warnings]"
            )
        return text
