"""E-graph over :mod:`repro.smt.terms` with congruence closure.

An e-graph stores a congruence relation over terms: each *e-class* is a
set of *e-nodes* (an operator applied to child e-classes) known to be
semantically equal.  Rewrite rules never destroy the original term —
they only :meth:`~EGraph.merge` classes — so equality saturation can
explore many rewrites of one query term simultaneously and the
extractor can pick the cheapest representative afterwards.

The representation follows the egg recipe (union-find + hashcons +
deferred ``rebuild``): merges enqueue their class on a worklist, and
:meth:`~EGraph.rebuild` restores the congruence invariant (two e-nodes
with equal operators and equal child classes live in the same class) by
re-canonicalizing parent nodes until a fixpoint.

Everything is deterministic: classes iterate in creation order and the
extractor breaks ties on a stable node key, so two runs over the same
term produce the same extraction — a requirement for reproducible
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.smt.terms import FALSE, TRUE, Term, rebuild_term

#: Extraction cost per operator — a rough proxy for Tseitin gate count.
#: Every cost is >= 1, which makes best-node extraction acyclic (a node's
#: total cost strictly exceeds each child class's cost).
_OP_COST: Dict[str, int] = {
    "const": 1,
    "var": 1,
    "bvnot": 2,
    "bvneg": 4,
    "extract": 2,
    "sext": 2,
    "concat": 2,
    "not": 2,
    "and": 3,
    "or": 3,
    "xor": 3,
    "ite": 4,
    "bveq": 4,
    "bvand": 4,
    "bvor": 4,
    "bvxor": 4,
    "bvite": 6,
    "bvult": 6,
    "bvslt": 6,
    "bvadd": 8,
    "bvsub": 8,
    "bvshl": 24,
    "bvlshr": 24,
    "bvashr": 24,
    "bvmul": 48,
    "bvudiv": 96,
    "bvurem": 96,
    "bvsdiv": 96,
    "bvsrem": 96,
}
_DEFAULT_COST = 8


class EGraphInconsistent(Exception):
    """Two distinct constants were merged: some rewrite rule is unsound.

    Raised instead of silently picking one value — the caller treats the
    whole saturation attempt as a miss, so a bad rule can slow the
    pipeline down but can never corrupt a verdict.
    """


@dataclass(frozen=True)
class ENode:
    """One operator applied to child e-classes.

    ``width``/``payload`` mirror :class:`repro.smt.terms.Term`; children
    are e-class ids (callers must canonicalize through ``find`` before
    hashcons lookups).
    """

    op: str
    width: int
    payload: object
    children: Tuple[int, ...]

    def sort_key(self) -> tuple:
        return (self.op, self.width, repr(self.payload), self.children)


@dataclass
class _EClass:
    nodes: List[ENode] = field(default_factory=list)
    node_set: set = field(default_factory=set)
    # (parent enode as stored, parent class id) pairs for congruence repair.
    parents: List[Tuple[ENode, int]] = field(default_factory=list)
    const: Optional[Term] = None  # the class's constant value, if known
    width: int = 0

    def add_node(self, node: ENode) -> None:
        if node not in self.node_set:
            self.node_set.add(node)
            self.nodes.append(node)


class EGraph:
    """Union-find + hashcons e-graph with deferred congruence repair."""

    def __init__(self) -> None:
        self._uf: List[int] = []
        self._classes: Dict[int, _EClass] = {}
        self._hashcons: Dict[ENode, int] = {}
        self._worklist: List[int] = []
        self._term_memo: Dict[Term, int] = {}

    # -- union-find ----------------------------------------------------------
    def find(self, cid: int) -> int:
        root = cid
        while self._uf[root] != root:
            root = self._uf[root]
        while self._uf[cid] != root:  # path compression
            self._uf[cid], cid = root, self._uf[cid]
        return root

    @property
    def num_nodes(self) -> int:
        return len(self._hashcons)

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    def width_of(self, cid: int) -> int:
        return self._classes[self.find(cid)].width

    def const_of(self, cid: int) -> Optional[Term]:
        """The constant :class:`Term` this class is known to equal, if any."""
        return self._classes[self.find(cid)].const

    def nodes_of(self, cid: int) -> List[ENode]:
        return self._classes[self.find(cid)].nodes

    def class_ids(self) -> List[int]:
        """Canonical class ids in deterministic (creation) order."""
        return sorted(self._classes.keys())

    # -- construction --------------------------------------------------------
    def _new_class(self, width: int) -> int:
        cid = len(self._uf)
        self._uf.append(cid)
        self._classes[cid] = _EClass(width=width)
        return cid

    def canonicalize(self, node: ENode) -> ENode:
        children = tuple(self.find(c) for c in node.children)
        if children == node.children:
            return node
        return ENode(node.op, node.width, node.payload, children)

    def add_enode(self, node: ENode) -> int:
        """Intern ``node``; returns its class (existing on a hashcons hit)."""
        node = self.canonicalize(node)
        cid = self._hashcons.get(node)
        if cid is not None:
            return self.find(cid)
        cid = self._new_class(node.width)
        self._hashcons[node] = cid
        cls = self._classes[cid]
        cls.add_node(node)
        for child in node.children:
            self._classes[self.find(child)].parents.append((node, cid))
        return cid

    def mk(self, op: str, children: Tuple[int, ...], width: int, payload=None) -> int:
        """Rule-RHS helper: intern an operator node over existing classes."""
        return self.add_enode(ENode(op, width, payload, children))

    def add_term(self, term: Term) -> int:
        """Add a term DAG; shared subterms map to shared classes."""
        memo = self._term_memo
        hit = memo.get(term)
        if hit is not None:
            return self.find(hit)
        # Iterative postorder so deep encoder DAGs cannot blow the stack.
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            t, expanded = stack.pop()
            if t in memo:
                continue
            if not expanded:
                stack.append((t, True))
                stack.extend((a, False) for a in t.args)
                continue
            children = tuple(self.find(memo[a]) for a in t.args)
            cid = self.add_enode(ENode(t.op, t.width, t.payload, children))
            if t.is_const:
                self._register_const(cid, t)
            memo[t] = cid
        return self.find(memo[term])

    def add_const(self, const_term: Term) -> int:
        """Intern a constant term (rule-RHS helper)."""
        assert const_term.is_const
        return self.add_term(const_term)

    def _register_const(self, cid: int, const_term: Term) -> None:
        cls = self._classes[self.find(cid)]
        if cls.const is not None and cls.const is not const_term:
            raise EGraphInconsistent(
                f"class equals both {cls.const!r} and {const_term!r}"
            )
        cls.const = const_term

    # -- merging + congruence ------------------------------------------------
    def merge(self, a: int, b: int) -> int:
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        ca, cb = self._classes[a], self._classes[b]
        assert ca.width == cb.width, (ca.width, cb.width)
        if ca.const is not None and cb.const is not None:
            if ca.const is not cb.const:
                raise EGraphInconsistent(
                    f"merged {ca.const!r} with {cb.const!r}"
                )
        # Keep the smaller id as root: stable across runs.
        if b < a:
            a, b = b, a
            ca, cb = cb, ca
        for node in cb.nodes:
            ca.add_node(node)
        ca.parents.extend(cb.parents)
        if ca.const is None:
            ca.const = cb.const
        self._uf[b] = a
        del self._classes[b]
        self._worklist.append(a)
        return a

    def rebuild(self) -> None:
        """Restore the congruence invariant after a batch of merges."""
        while self._worklist:
            todo = sorted({self.find(c) for c in self._worklist})
            self._worklist = []
            for cid in todo:
                if cid in self._classes:
                    self._repair(self.find(cid))

    def _repair(self, cid: int) -> None:
        cls = self._classes[cid]
        parents, cls.parents = cls.parents, []
        seen: Dict[ENode, int] = {}
        for pnode, pclass in parents:
            self._hashcons.pop(pnode, None)
            canon = self.canonicalize(pnode)
            pclass = self.find(pclass)
            existing = self._hashcons.get(canon)
            if existing is not None and self.find(existing) != pclass:
                pclass = self.merge(existing, pclass)
            self._hashcons[canon] = pclass
            dup = seen.get(canon)
            if dup is not None and self.find(dup) != pclass:
                pclass = self.merge(dup, pclass)
            seen[canon] = pclass
        target = self._classes[self.find(cid)]
        target.parents.extend(seen.items())

    # -- constant propagation ------------------------------------------------
    def _fold_one(self, cid: int, node: ENode) -> bool:
        """Try to simplify ``node``'s class from its children's constants.

        Returns True when a merge happened.  Full folds go through the
        term smart constructors, so the e-graph agrees bit-for-bit with
        the semantics the bit-blaster implements; the short-circuit cases
        (n-ary bool and/or, ite on a known condition) mirror the same
        constructors without needing terms for non-constant children.
        """
        consts = [self.const_of(child) for child in node.children]
        if node.op in ("and", "or"):
            dominant = FALSE if node.op == "and" else TRUE
            neutral = TRUE if node.op == "and" else FALSE
            if any(c is dominant for c in consts):
                return self._merge_if_new(cid, self.add_term(dominant))
            if any(c is neutral for c in consts):
                rest = tuple(
                    ch
                    for ch, c in zip(node.children, consts)
                    if c is not neutral
                )
                if not rest:
                    other = self.add_term(neutral)
                elif len(rest) == 1:
                    other = rest[0]
                else:
                    other = self.mk(node.op, rest, 0)
                return self._merge_if_new(cid, other)
            return False
        if node.op in ("ite", "bvite"):
            cond = consts[0]
            if cond is not None:
                taken = node.children[1 if cond.value else 2]
                return self._merge_if_new(cid, taken)
            if self.find(node.children[1]) == self.find(node.children[2]):
                return self._merge_if_new(cid, node.children[1])
        if any(c is None for c in consts):
            return False
        folded = rebuild_term(
            node.op, tuple(consts), node.payload, node.width
        )
        if not folded.is_const:
            return False
        return self._merge_if_new(cid, self.add_term(folded))

    def _merge_if_new(self, a: int, b: int) -> bool:
        """Merge and report whether the congruence actually changed."""
        if self.find(a) == self.find(b):
            return False
        self.merge(a, b)
        self.rebuild()
        return True

    def fold_constants(self) -> bool:
        """Upward constant propagation to a fixpoint.

        Returns True when any class changed.
        """
        changed_any = False
        progress = True
        while progress:
            progress = False
            for cid in self.class_ids():
                cid = self.find(cid)
                cls = self._classes.get(cid)
                if cls is None or cls.const is not None:
                    continue
                for node in list(cls.nodes):
                    if node.op in ("var", "const") or not node.children:
                        continue
                    if self._fold_one(cid, node):
                        progress = changed_any = True
                        break
        return changed_any

    # -- extraction ----------------------------------------------------------
    def extract(self, cid: int) -> Term:
        """The cheapest term equivalent to class ``cid``.

        Bottom-up cost fixpoint, then a rebuild through the term smart
        constructors (which constant-fold and canonicalize again, so the
        extracted term may be strictly simpler than any single e-node
        chain — e.g. ``or(p, and(not p, TRUE))`` collapses to TRUE).
        """
        cid = self.find(cid)
        best: Dict[int, Tuple[int, ENode]] = {}
        changed = True
        while changed:
            changed = False
            for cls_id in self.class_ids():
                cls = self._classes[cls_id]
                # A known-constant class always extracts to its constant.
                if cls.const is not None:
                    node = ENode(
                        "const", cls.const.width, cls.const.payload, ()
                    )
                    if cls_id not in best:
                        best[cls_id] = (_OP_COST["const"], node)
                        changed = True
                    continue
                for node in sorted(cls.nodes, key=ENode.sort_key):
                    total = _OP_COST.get(node.op, _DEFAULT_COST)
                    ok = True
                    for child in node.children:
                        entry = best.get(self.find(child))
                        if entry is None:
                            ok = False
                            break
                        total += entry[0]
                    if not ok:
                        continue
                    cur = best.get(cls_id)
                    if cur is None or total < cur[0]:
                        best[cls_id] = (total, node)
                        changed = True
        if cid not in best:  # defensive: every reachable class has a node
            raise EGraphInconsistent(f"class {cid} has no extractable node")
        # Iterative top-down build with a memo per class.
        out: Dict[int, Term] = {}
        stack = [cid]
        while stack:
            c = self.find(stack[-1])
            if c in out:
                stack.pop()
                continue
            node = best[c][1]
            pending = [
                ch for ch in node.children if self.find(ch) not in out
            ]
            if pending:
                stack.extend(pending)
                continue
            args = tuple(out[self.find(ch)] for ch in node.children)
            out[c] = rebuild_term(node.op, args, node.payload, node.width)
            stack.pop()
        return out[cid]


# ---------------------------------------------------------------------------
# Bounded equality saturation
# ---------------------------------------------------------------------------


@dataclass
class SaturationOutcome:
    iterations: int = 0
    saturated: bool = False  # reached a rewrite fixpoint
    budget_hit: bool = False  # stopped by node/iteration budget instead


def saturate(
    graph: EGraph,
    rules,
    max_iterations: int = 8,
    max_nodes: int = 2048,
    should_stop: Optional[Callable[[], bool]] = None,
) -> SaturationOutcome:
    """Apply ``rules`` to fixpoint or budget.

    ``rules`` is a sequence of :class:`repro.egraph.rules.Rule`.  Budgets
    make this total: ``max_nodes`` bounds e-graph growth (rule
    application stops once exceeded) and ``max_iterations`` bounds the
    outer loop.  ``should_stop`` is polled between iterations (the
    verifier passes its deadline check) — saturation is a best-effort
    simplifier, so stopping early is always sound.
    """
    outcome = SaturationOutcome()
    for _ in range(max_iterations):
        outcome.iterations += 1
        if should_stop is not None and should_stop():
            outcome.budget_hit = True
            return outcome
        if graph.num_nodes > max_nodes:
            outcome.budget_hit = True
            return outcome
        # Match against a snapshot, then apply: rules see a consistent
        # e-graph and the batch is order-independent up to merges.
        # Classes are indexed by the ops of their e-nodes so a rule is
        # only offered classes whose root can possibly match — with ~30
        # rules this cuts e-matching work by an order of magnitude.
        by_op: dict = {}
        all_roots = []
        for cid in graph.class_ids():
            if graph.find(cid) != cid:
                continue  # merged away by an earlier rule this pass
            all_roots.append(cid)
            for node in graph.nodes_of(cid):
                bucket = by_op.setdefault(node.op, [])
                if not bucket or bucket[-1] != cid:
                    bucket.append(cid)
        matches = []
        for rule in rules:
            root_op = rule.lhs.op
            candidates = by_op.get(root_op, ()) if root_op else all_roots
            for cid in candidates:
                for env in rule.matches(graph, cid):
                    matches.append((rule, cid, env))
        changed = False
        for rule, cid, env in matches:
            if graph.num_nodes > max_nodes:
                outcome.budget_hit = True
                break
            rhs_cid = rule.build_rhs(graph, env)
            if rhs_cid is None:
                continue
            if graph.find(rhs_cid) != graph.find(cid):
                graph.merge(cid, rhs_cid)
                changed = True
        graph.rebuild()
        if graph.fold_constants():
            changed = True
        if outcome.budget_hit:
            return outcome
        if not changed:
            outcome.saturated = True
            return outcome
    outcome.budget_hit = True
    return outcome
