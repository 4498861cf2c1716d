"""Control-flow graph utilities: successor/predecessor maps and orderings.

Alive2 deliberately does not reuse LLVM's analyses (the compiler under
test is untrusted), so this module implements them independently; we do
the same rather than depending on our own optimizer's code.

On a sealed function (:meth:`Function.seal`) the orderings and maps here
are computed once and read from the function's facts memo.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from repro.ir.function import Function


def successors(fn: Function) -> Dict[str, List[str]]:
    return {label: block.successors() for label, block in fn.blocks.items()}


def predecessors(fn: Function) -> Mapping[str, Sequence[str]]:
    return fn.predecessors()


def reverse_postorder(fn: Function) -> Tuple[str, ...]:
    """Blocks in reverse postorder from the entry (unreachable ones excluded)."""
    return fn.fact("rpo", lambda: _reverse_postorder(fn))


def _reverse_postorder(fn: Function) -> Tuple[str, ...]:
    succ = successors(fn)
    entry = next(iter(fn.blocks))
    visited: Set[str] = set()
    order: List[str] = []

    # Iterative DFS with an explicit stack to avoid recursion limits.
    stack: List[tuple[str, int]] = [(entry, 0)]
    visited.add(entry)
    while stack:
        node, idx = stack.pop()
        succs = [s for s in succ.get(node, []) if s in fn.blocks]
        if idx < len(succs):
            stack.append((node, idx + 1))
            child = succs[idx]
            if child not in visited:
                visited.add(child)
                stack.append((child, 0))
        else:
            order.append(node)
    order.reverse()
    return tuple(order)


def reachable_blocks(fn: Function) -> FrozenSet[str]:
    return fn.fact("reachable", lambda: frozenset(reverse_postorder(fn)))


def remove_unreachable_blocks(fn: Function) -> bool:
    """Drop blocks unreachable from the entry; returns True if changed.

    Phi nodes in surviving blocks keep only entries from their *actual*
    predecessors.  Filtering against the reachable set alone is not
    enough: a pass that folds a conditional branch removes an edge but
    not the block it came from, leaving a dangling entry from a block
    that is still reachable yet no longer a predecessor (the verifier's
    phi-extra-pred check flags exactly this).
    """
    keep = reachable_blocks(fn)
    dead = [label for label in fn.blocks if label not in keep]
    for label in dead:
        del fn.blocks[label]
    preds = fn.predecessors()
    changed = bool(dead)
    for block in fn.blocks.values():
        for phi in block.phis():
            pruned = [
                (v, b) for v, b in phi.incoming if b in preds[block.label]
            ]
            if len(pruned) != len(phi.incoming):
                phi.incoming = pruned
                changed = True
    return changed
