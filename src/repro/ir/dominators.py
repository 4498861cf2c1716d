"""Dominator tree via the Cooper–Harvey–Kennedy algorithm.

The paper cites this exact algorithm ([7] in the references) for the
dominance queries its unroller needs when patching loop-exit phis.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Optional

from repro.ir.cfg import predecessors, reverse_postorder
from repro.ir.function import Function


def dominator_tree(fn: Function) -> "DominatorTree":
    """The dominator tree of ``fn``; computed once on a sealed function."""
    return fn.fact("domtree", lambda: DominatorTree(fn))


class DominatorTree:
    """Immediate dominators for every reachable block (read-only)."""

    def __init__(self, fn: Function) -> None:
        self.order = reverse_postorder(fn)
        self.entry = self.order[0]
        self._index = MappingProxyType({label: i for i, label in enumerate(self.order)})
        preds = predecessors(fn)
        idom: Dict[str, Optional[str]] = {label: None for label in self.order}
        idom[self.entry] = self.entry
        changed = True
        while changed:
            changed = False
            for label in self.order[1:]:
                candidates = [
                    p for p in preds[label] if p in idom and idom[p] is not None
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for p in candidates[1:]:
                    new_idom = self._intersect(idom, new_idom, p)
                if idom[label] != new_idom:
                    idom[label] = new_idom
                    changed = True
        self.idom = MappingProxyType(idom)

    def __setattr__(self, name: str, value: object) -> None:
        if name in self.__dict__:
            raise AttributeError(f"DominatorTree.{name} is read-only")
        object.__setattr__(self, name, value)

    def _intersect(self, idom: Dict[str, Optional[str]], a: str, b: str) -> str:
        fa, fb = a, b
        while fa != fb:
            while self._index[fa] > self._index[fb]:
                fa = idom[fa]  # type: ignore[assignment]
            while self._index[fb] > self._index[fa]:
                fb = idom[fb]  # type: ignore[assignment]
        return fa

    def dominates(self, a: str, b: str) -> bool:
        """True iff block ``a`` dominates block ``b`` (reflexive)."""
        if a == b:
            return True
        runner = b
        while runner != self.entry:
            runner = self.idom[runner]  # type: ignore[assignment]
            if runner == a:
                return True
        return a == self.entry

    def children(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {label: [] for label in self.order}
        for label in self.order:
            if label != self.entry:
                parent = self.idom[label]
                if parent is not None:
                    out[parent].append(label)
        return out
