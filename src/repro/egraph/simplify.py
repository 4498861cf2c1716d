"""Budgeted equality-saturation front-end for the verifier.

This is the e-graph rung of the solver ladder: after the dataflow
prescreen and before CEGAR, :class:`EgraphSimplifier` saturates a query
term under the certified rule set and extracts the cheapest equivalent.
Three outcomes, in decreasing order of win:

* the ∀-formula ψ extracts to ``TRUE`` (or the ∃-formula φ to ``FALSE``)
  — the query is discharged with **zero** solver calls;
* the extracted term is smaller — the Tseitin CNF shrinks;
* nothing improved — the original term passes through unchanged.

Soundness mirrors the prescreen contract: every rule is an exact
equivalence (certified by the test suite), so the simplifier may only
*prove*, never refute, and replacing a term with its extraction can
never flip a verdict.  Any internal inconsistency (a bad rule merging
two distinct constants) falls back to the untouched input.

Budgets (node count, iteration count) make saturation total and feed the
TIMEOUT degradation ladder: a retry rung halves ``egraph_max_nodes``
the same way it halves solver conflict budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.smt.terms import FALSE, TRUE, Term, on_reset, term_size
from repro.egraph.core import EGraph, EGraphInconsistent, saturate
from repro.egraph.rules import RULES

#: Default budgets: small on purpose — the rule set converges in a few
#: iterations on verifier-shaped terms, and an unproductive saturation
#: must cost far less than the solver call it failed to avoid.
DEFAULT_MAX_NODES = 512
DEFAULT_MAX_ITERATIONS = 8

#: Terms larger than this skip saturation outright: the e-graph would
#: blow its node budget before doing useful work.
_SIZE_GATE_FRACTION = 1.0


@dataclass
class EgraphStats:
    """Counters mirroring ``analysis.prescreen.PrescreenStats``.

    Module-level so the suite runner can snapshot deltas per test.
    """

    attempts: int = 0  # terms offered to the simplifier
    proved: int = 0  # queries discharged (psi==TRUE / phi==FALSE)
    shrunk: int = 0  # terms replaced by a smaller extraction
    unchanged: int = 0  # saturation found nothing better
    budget_stops: int = 0  # node/iteration/deadline budget hit
    inconsistencies: int = 0  # bad-rule fallbacks (should stay 0)
    nodes_removed: int = 0  # total DAG-node reduction across shrinks
    by_rule: Dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.attempts = 0
        self.proved = 0
        self.shrunk = 0
        self.unchanged = 0
        self.budget_stops = 0
        self.inconsistencies = 0
        self.nodes_removed = 0
        self.by_rule = {}

    def snapshot(self) -> Tuple[int, int, int, int, int, int, int]:
        return (
            self.attempts,
            self.proved,
            self.shrunk,
            self.unchanged,
            self.budget_stops,
            self.inconsistencies,
            self.nodes_removed,
        )


STATS = EgraphStats()

# Memo keyed by (term, max_nodes, max_iterations) — term interning makes
# the key cheap.  Registered on the term-table reset hook so a universe
# reset (new worker, test isolation) cannot leak stale Terms.
_SIMPLIFY_MEMO: Dict[Tuple[Term, int, int], Term] = {}


@on_reset
def _clear_memo() -> None:
    _SIMPLIFY_MEMO.clear()


class EgraphSimplifier:
    """Saturate-and-extract with budgets; safe to share across queries."""

    def __init__(
        self,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.max_nodes = max_nodes
        self.max_iterations = max_iterations
        self.should_stop = should_stop

    def simplify(self, term: Term) -> Term:
        """The cheapest certified-equal form of ``term`` (or ``term``)."""
        if term.is_const or term.op == "var":
            return term
        STATS.attempts += 1
        key = (term, self.max_nodes, self.max_iterations)
        hit = _SIMPLIFY_MEMO.get(key)
        if hit is not None:
            self._count(term, hit)
            return hit
        input_size = term_size(term)
        if input_size > self.max_nodes * _SIZE_GATE_FRACTION:
            STATS.budget_stops += 1
            STATS.unchanged += 1
            return term
        try:
            graph = EGraph()
            cid = graph.add_term(term)
            outcome = saturate(
                graph,
                RULES,
                max_iterations=self.max_iterations,
                max_nodes=self.max_nodes,
                should_stop=self.should_stop,
            )
            extracted = graph.extract(cid)
        except EGraphInconsistent:
            STATS.inconsistencies += 1
            STATS.unchanged += 1
            return term
        if outcome.budget_hit:
            STATS.budget_stops += 1
        # Extraction rebuilds through the smart constructors, so the
        # result is already canonical; only adopt it when it is not
        # larger (ties keep the new canonical form).
        if extracted is not term and term_size(extracted) > input_size:
            extracted = term
        _SIMPLIFY_MEMO[key] = extracted
        self._count(term, extracted)
        return extracted

    def _count(self, before: Term, after: Term) -> None:
        if after is before:
            STATS.unchanged += 1
            return
        delta = term_size(before) - term_size(after)
        STATS.shrunk += 1
        STATS.nodes_removed += max(0, delta)

    def _screen_psi(
        self,
        psi: Term,
        seeded_psis: Sequence[Term],
        union_seeds: Sequence[Tuple[Term, Term]] = (),
    ) -> Tuple[bool, Term]:
        """Saturate ψ and its witness instantiations in ONE shared e-graph.

        Returns ``(proved, psi')``.  The instantiations are near-identical
        DAGs to ψ, so hashconsing dedups almost everything and a single
        saturation costs barely more than saturating ψ alone.  Better
        still, an instantiation only ever needs a yes/no answer — did its
        class merge with ``TRUE``? — which is a union-find lookup, not an
        extraction, and the saturation loop early-exits the moment any
        watched class reaches ``TRUE``.
        """
        if psi is TRUE or any(seeded is TRUE for seeded in seeded_psis):
            return True, psi
        if psi.is_const or psi.op == "var":
            return False, psi
        STATS.attempts += 1
        key = (psi, self.max_nodes, self.max_iterations, tuple(union_seeds))
        hit = _SIMPLIFY_MEMO.get(key)
        goals = [
            seeded
            for seeded in seeded_psis
            if not seeded.is_const and seeded.op != "var"
        ]
        # A memoized non-TRUE extraction cannot answer the seed goals, so
        # the fast path only applies when it settles the query by itself.
        if hit is not None and (hit is TRUE or not goals):
            self._count(psi, hit)
            return hit is TRUE, hit
        if term_size(psi) > self.max_nodes * _SIZE_GATE_FRACTION:
            STATS.budget_stops += 1
            STATS.unchanged += 1
            return False, psi
        try:
            graph = EGraph()
            root = graph.add_term(psi)
            true_cid = graph.add_term(TRUE)
            watched = [root] + [graph.add_term(goal) for goal in goals]
            # Union seeds: caller-certified valid equalities (relational
            # analysis, term-unconditional pairs).  Merging them up front
            # lets saturation cross the src/tgt boundary without a rule
            # deriving the equality from scratch.
            for a, b in union_seeds:
                graph.merge(graph.add_term(a), graph.add_term(b))
            external_stop = self.should_stop

            def stop() -> bool:
                if external_stop is not None and external_stop():
                    return True
                true_root = graph.find(true_cid)
                return any(graph.find(cid) == true_root for cid in watched)

            outcome = saturate(
                graph,
                RULES,
                max_iterations=self.max_iterations,
                max_nodes=self.max_nodes,
                should_stop=stop,
            )
            true_root = graph.find(true_cid)
            if any(graph.find(cid) == true_root for cid in watched):
                # The early-exit closure reports as a budget stop, but a
                # reached goal is a proof, not a truncation.
                if graph.find(root) == true_root:
                    _SIMPLIFY_MEMO[key] = TRUE
                    self._count(psi, TRUE)
                return True, psi
            if outcome.budget_hit:
                STATS.budget_stops += 1
            extracted = graph.extract(root)
            if extracted is not psi and term_size(extracted) > term_size(psi):
                extracted = psi
            _SIMPLIFY_MEMO[key] = extracted
            self._count(psi, extracted)
            return extracted is TRUE, extracted
        except EGraphInconsistent:
            STATS.inconsistencies += 1
            STATS.unchanged += 1
            return False, psi

    # -- query-level entry point --------------------------------------------
    def screen_query(
        self,
        phi: Term,
        psi: Term,
        seeded_psis: Sequence[Term] = (),
        union_seeds: Sequence[Tuple[Term, Term]] = (),
    ) -> Tuple[bool, Term, Term]:
        """Simplify a refinement query ``∃O. φ ∧ ∀N. ¬ψ``.

        Returns ``(proved, phi', psi')``.  ``proved`` means the query is
        discharged outright, by one of three sound arguments:

        * ψ saturates to ``TRUE``: the ∀-obligation is a tautology;
        * φ saturates to ``FALSE``: the ∃-context is vacuous;
        * some ``ψ[N := f(O)]`` in ``seeded_psis`` saturates to ``TRUE``:
          ``f`` is a *witness function* — for every O the instantiation
          ``f(O)`` satisfies ψ, so ``∀N. ¬ψ`` is unsatisfiable.  The
          caller builds these from the CEGAR symbolic seeds, which is
          how equivalence-shaped queries over undef/freeze reads fall
          to saturation (both sides rewrite to the same class once the
          source's nondeterminism is paired with the target's).

        Otherwise the simplified pair feeds the bit-blaster.  ψ and the
        witness instantiations are saturated together in one shared
        e-graph; φ — typically the largest term by far — only pays for
        saturation when the ψ side failed to discharge the query.

        ``union_seeds`` are caller-certified *valid* term equalities
        (true under every assignment — the relational analysis's
        unconditional congruences): each pair is merged in the shared
        e-graph before saturation, bridging src and tgt subterms the
        rule set cannot connect syntactically.
        """
        proved, psi2 = self._screen_psi(psi, seeded_psis, union_seeds)
        if proved:
            STATS.proved += 1
            return True, phi, psi2
        phi2 = self.simplify(phi)
        if phi2 is FALSE:
            STATS.proved += 1
            return True, phi2, psi2
        return False, phi2, psi2
