"""Flow-sensitive points-to/provenance analysis over memory-layout blocks.

Each pointer-typed SSA value is mapped to an abstract location: the set
of :class:`~repro.semantics.memory.MemoryLayout` block-ids it may carry
(``None`` meaning "any block") plus a concrete byte-offset interval
(``None`` meaning "any offset").  The domain rides on the
:mod:`repro.analysis.framework` worklist solver; joins union the bid
sets and hull the offset intervals, and widening collapses the offset
interval (the bid lattice is finite, so it needs no acceleration).

Soundness contract (relied on by :mod:`repro.analysis.memdf`, the
prescreen rules, and the encoder's aliasing-case-split pruning): for
every execution that satisfies the encoder's precondition (pointer
arguments carry ``bid == 0 ∨ bid == own-block``) and in which the
analyzed value is *defined* (not poison, not an unresolved undef
reading), the value's concrete (bid, offset) lies inside the abstract
location.  Values the analysis cannot track — loaded pointers, call
results, int-to-pointer casts — map to ⊤, never to a smaller set.

Block numbering for allocas is assigned *syntactically* here (reverse
postorder, instruction order) via :func:`assign_alloca_bids`, and the
encoder uses the same assignment, so the facts and the SMT encoding
agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.analysis.framework import RegisterAnalysis, analyze_registers
from repro.ir.cfg import reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Gep, Load, Select
from repro.ir.types import ArrayType, IntType, PointerType, VectorType, byte_size
from repro.ir.values import ConstantInt, ConstantNull, GlobalRef
from repro.semantics.memory import MemoryLayout


@dataclass(frozen=True)
class PointsToFact:
    """Abstract location: candidate block-ids × byte-offset interval.

    ``bids is None`` means any block (⊤); ``off is None`` means any
    offset.  ``off`` is a closed interval ``(lo, hi)`` of byte offsets
    measured from the block base, in Python ints (GEPs can go negative).
    """

    bids: Optional[FrozenSet[int]]
    off: Optional[Tuple[int, int]] = None

    @property
    def is_top(self) -> bool:
        return self.bids is None

    def shifted(self, delta: Optional[int]) -> "PointsToFact":
        """The fact after adding a (possibly unknown) byte delta."""
        if delta is None or self.off is None:
            return PointsToFact(self.bids, None)
        return PointsToFact(self.bids, (self.off[0] + delta, self.off[1] + delta))

    def join(self, other: "PointsToFact") -> "PointsToFact":
        if self.bids is None or other.bids is None:
            bids = None
        else:
            bids = self.bids | other.bids
        if self.off is None or other.off is None:
            off = None
        else:
            off = (
                min(self.off[0], other.off[0]),
                max(self.off[1], other.off[1]),
            )
        return PointsToFact(bids, off)

    def may_overlap(self, other: "PointsToFact", nbytes: int, other_nbytes: int) -> bool:
        """May an ``nbytes`` access at self overlap an ``other_nbytes``
        access at ``other``?

        Accesses through the null block (bid 0) are UB, so bid 0 never
        witnesses an overlap between two *executed, defined* accesses.
        """
        if self.bids is None or other.bids is None:
            return True
        common = (self.bids & other.bids) - {0}
        if not common:
            return False
        if self.off is None or other.off is None:
            return True
        # Same candidate block: disjoint iff the byte ranges cannot touch.
        return not (
            self.off[1] + nbytes <= other.off[0]
            or other.off[1] + other_nbytes <= self.off[0]
        )


TOP = PointsToFact(None, None)


def assign_alloca_bids(fn: Function, layout: MemoryLayout) -> Mapping[str, int]:
    """Deterministic alloca → block-id assignment shared with the encoder.

    Allocas are numbered from ``layout.first_local_bid()`` in reverse
    postorder, instruction order — the same order the encoder walks, so
    the analysis and the SMT encoding name the same blocks.  Allocas in
    unreachable blocks get no bid (the encoder never reaches them).
    """
    first = layout.first_local_bid()
    return fn.fact(("alloca_bids", first), lambda: _alloca_bids(fn, first))


def _alloca_bids(fn: Function, next_bid: int) -> Mapping[str, int]:
    bids: Dict[str, int] = {}
    for label in reverse_postorder(fn):
        for inst in fn.blocks[label].instructions:
            if isinstance(inst, Alloca):
                bids[inst.name] = next_bid
                next_bid += 1
    return MappingProxyType(bids)


class PointsToAnalysis(RegisterAnalysis):
    """The provenance domain over :class:`PointsToFact` (see module doc)."""

    def __init__(self, fn: Function, layout: MemoryLayout) -> None:
        self.layout = layout
        self.alloca_bids = assign_alloca_bids(fn, layout)
        self.shared_bids: Dict[str, int] = {
            info.name: info.bid for info in layout.shared_blocks
        }

    def top(self) -> PointsToFact:
        return TOP

    def join(self, a: PointsToFact, b: PointsToFact) -> PointsToFact:
        return a.join(b)

    def widen_fact(self, old: PointsToFact, new: PointsToFact) -> PointsToFact:
        joined = old.join(new)
        if joined.off is not None and old.off is not None and joined.off != old.off:
            # The bid lattice is finite but offsets are not: collapse the
            # interval once it keeps growing.
            return PointsToFact(joined.bids, None)
        return joined

    def fact_of_argument(self, arg) -> PointsToFact:
        if isinstance(arg.type, PointerType):
            bid = self.shared_bids.get(f"%{arg.name}")
            if bid is not None:
                # The encoder's precondition pins a defined pointer arg to
                # null or its own block; the offset is caller-chosen.
                return PointsToFact(frozenset({0, bid}), None)
        return TOP

    def fact_of_constant(self, value) -> PointsToFact:
        if isinstance(value, ConstantNull):
            return PointsToFact(frozenset({0}), (0, 0))
        if isinstance(value, GlobalRef):
            bid = self.shared_bids.get(f"@{value.name}")
            if bid is not None:
                return PointsToFact(frozenset({bid}), (0, 0))
        return TOP

    def transfer(self, inst, env: Dict[str, PointsToFact]) -> PointsToFact:
        if isinstance(inst, Alloca):
            bid = self.alloca_bids.get(inst.name)
            if bid is not None:
                return PointsToFact(frozenset({bid}), (0, 0))
            return TOP
        if isinstance(inst, Gep):
            base = self.value_fact(inst.pointer, env)
            return base.shifted(_gep_delta(inst))
        if isinstance(inst, Select):
            return self.value_fact(inst.on_true, env).join(
                self.value_fact(inst.on_false, env)
            )
        if isinstance(inst, Load):
            # Loaded pointers carry provenance the domain does not track.
            return TOP
        return TOP


def _gep_delta(inst: Gep) -> Optional[int]:
    """Total byte delta of a GEP when every index is a constant."""
    total = 0
    scale = byte_size(inst.source_type)
    src = inst.source_type
    for idx_value in inst.indices:
        if not isinstance(idx_value, ConstantInt):
            return None
        idx = idx_value.value
        ty = idx_value.type
        if isinstance(ty, IntType) and idx >= 1 << (ty.width - 1):
            idx -= 1 << ty.width
        total += idx * scale
        if isinstance(src, (ArrayType, VectorType)):
            src = src.elem
            scale = byte_size(src)
    return total


def analyze_pointsto(
    fn: Function, layout: MemoryLayout
) -> Mapping[str, PointsToFact]:
    """Fixpoint register → :class:`PointsToFact` map for ``fn`` (read-only).

    The encoder, the memory dataflow pass, the lint and the prescreen all
    consume the same run: on a sealed function it is computed once per
    layout value.
    """
    return fn.fact(
        ("pointsto", layout),
        lambda: MappingProxyType(analyze_registers(fn, PointsToAnalysis(fn, layout))),
    )
