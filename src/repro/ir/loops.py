"""Loop nesting forest via the Tarjan–Havlak algorithm (§7, citing [14]).

The analysis runs on the CFG only — like Alive2, we do not trust the
optimizer's own loop information.  Irreducible loops are detected and
flagged; the unroller refuses them (they fall into the paper's
"unsupported" bucket).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Optional, Set

from repro.ir.cfg import predecessors, successors
from repro.ir.function import Function


def loop_forest(fn: Function) -> "LoopForest":
    """The loop forest of ``fn``, read-only; computed once on a sealed
    function."""
    return fn.fact("loops", lambda: LoopForest(fn).read_only())


@dataclass
class Loop:
    """A natural loop: header plus body (including nested loop blocks).

    The parent link is weak, so a forest holds no reference cycle and
    dies by reference counting with whatever holds it.
    """

    header: str
    body: Set[str] = field(default_factory=set)
    children: List["Loop"] = field(default_factory=list)
    irreducible: bool = False
    _parent: Optional["weakref.ref[Loop]"] = field(
        default=None, repr=False, compare=False
    )
    _read_only: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: object) -> None:
        if self._read_only:
            raise AttributeError(f"loop %{self.header} is read-only")
        object.__setattr__(self, name, value)

    @property
    def parent(self) -> Optional["Loop"]:
        return self._parent() if self._parent is not None else None

    @parent.setter
    def parent(self, loop: Optional["Loop"]) -> None:
        self._parent = weakref.ref(loop) if loop is not None else None

    def depth(self) -> int:
        d = 1
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def __repr__(self) -> str:
        return f"Loop(header={self.header!r}, body={sorted(self.body)!r})"


class LoopForest:
    """All loops of a function, with nesting structure."""

    _read_only = False

    def __init__(self, fn: Function) -> None:
        self.loops: List[Loop] = []
        self.loop_of_header: Dict[str, Loop] = {}
        self._analyze(fn)

    def __setattr__(self, name: str, value: object) -> None:
        if self._read_only:
            raise AttributeError("the loop forest is read-only")
        object.__setattr__(self, name, value)

    def read_only(self) -> "LoopForest":
        """Freeze the forest: immutable containers, no attribute writes."""
        for loop in self.loops:
            loop.body = frozenset(loop.body)
            loop.children = tuple(loop.children)
            object.__setattr__(loop, "_read_only", True)
        self.loops = tuple(self.loops)
        self.loop_of_header = MappingProxyType(self.loop_of_header)
        object.__setattr__(self, "_read_only", True)
        return self

    @property
    def top_level(self) -> List[Loop]:
        return [l for l in self.loops if l.parent is None]

    def innermost_first(self) -> List[Loop]:
        """Loops ordered inside-out (post-order DFS over each nesting tree)."""
        out: List[Loop] = []

        def visit(loop: Loop) -> None:
            for child in loop.children:
                visit(child)
            out.append(loop)

        for root in self.top_level:
            visit(root)
        return out

    def _analyze(self, fn: Function) -> None:
        succ = successors(fn)
        pred = predecessors(fn)
        entry = next(iter(fn.blocks))

        # DFS preorder numbering and spanning-tree structure.
        number: Dict[str, int] = {}
        last: Dict[str, int] = {}
        parent: Dict[str, Optional[str]] = {entry: None}
        order: List[str] = []
        counter = 0
        stack: List[tuple[str, int]] = [(entry, 0)]
        number[entry] = counter
        order.append(entry)
        counter += 1
        while stack:
            node, idx = stack.pop()
            succs = [s for s in succ.get(node, []) if s in fn.blocks]
            if idx < len(succs):
                stack.append((node, idx + 1))
                child = succs[idx]
                if child not in number:
                    number[child] = counter
                    order.append(child)
                    counter += 1
                    parent[child] = node
                    stack.append((child, 0))
        # `last[n]` = max preorder number within n's DFS subtree.
        last = dict(number)
        for node in reversed(order):
            p = parent.get(node)
            if p is not None:
                last[p] = max(last[p], last[node])

        def is_ancestor(a: str, b: str) -> bool:
            return number[a] <= number[b] <= last[a]

        # Union-find collapsing inner loops into their headers.
        uf_parent: Dict[str, str] = {b: b for b in number}

        def find(x: str) -> str:
            root = x
            while uf_parent[root] != root:
                root = uf_parent[root]
            while uf_parent[x] != root:
                uf_parent[x], x = root, uf_parent[x]
            return root

        header_loop: Dict[str, Loop] = {}
        # Havlak: process potential headers in reverse preorder (inner first).
        for header in reversed(order):
            backedge_sources = [
                p
                for p in pred.get(header, [])
                if p in number and is_ancestor(header, p)
            ]
            # Self-loops count as backedges via is_ancestor reflexivity.
            if not backedge_sources:
                continue
            body: Set[str] = set()
            irreducible = False
            worklist = [find(p) for p in backedge_sources if find(p) != header]
            body.update(worklist)
            while worklist:
                node = worklist.pop()
                for p in pred.get(node, []):
                    if p not in number:
                        continue
                    rep = find(p)
                    if rep == header or rep in body:
                        continue
                    if not is_ancestor(header, rep):
                        # An entry into the loop that bypasses the header.
                        irreducible = True
                        continue
                    body.add(rep)
                    worklist.append(rep)
            loop = Loop(header=header, irreducible=irreducible)
            # Attach collapsed inner loops as children; collect full body.
            full_body = {header}
            for rep in body:
                inner = header_loop.get(rep)
                if inner is not None and inner.parent is None and rep != header:
                    inner.parent = loop
                    loop.children.append(inner)
                    full_body |= inner.body
                else:
                    full_body.add(rep)
                uf_parent[find(rep)] = header
            loop.body = full_body
            header_loop[header] = loop
            self.loops.append(loop)
            self.loop_of_header[header] = loop

        # Include nested bodies transitively (children were collapsed).
        for loop in self.loops:
            for child in loop.children:
                loop.body |= child.body

    def loop_containing(self, label: str) -> Optional[Loop]:
        """The innermost loop whose body contains ``label``."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if label in loop.body:
                if best is None or len(loop.body) < len(best.body):
                    best = loop
        return best

    def has_irreducible(self) -> bool:
        return any(l.irreducible for l in self.loops)
