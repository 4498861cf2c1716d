"""Memory dataflow on top of the points-to domain.

Consumes :mod:`repro.analysis.pointsto` facts and derives, per function:

* **store-to-load forwarding** — a load that provably returns the value
  of an earlier store (same must-location, no intervening may-aliasing
  write or call in the block);
* **clobber sets** — the set of block-ids any store may write (``None``
  when a store or call escapes the domain);
* **access classification** — loads/stores that are provably
  out-of-bounds for *every* candidate (bid, offset), or provably
  in-bounds for all of them;
* **dead stores** — a store overwritten by a covering same-location
  store with no intervening observer.

The facts feed three consumers: the prescreen rules ``R-alias-disjoint``
/ ``R-load-forward`` / ``R-oob-ub`` in :mod:`repro.analysis.prescreen`,
the encoder's aliasing-case-split pruning in
:mod:`repro.semantics.encoder`, and the memory-refinement block skip in
:mod:`repro.refinement.check`.  All of them are gated behind
``VerifyOptions.memdf`` and may only *strengthen* what the solver would
prove anyway — never change a verdict.

Soundness: every fact holds for executions satisfying the encoder
precondition in which the involved pointers are defined; executions
where a pointer is poison/undef make the access UB, which every
refinement query masks through its ``ub`` disjunct.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.analysis.pointsto import (
    TOP,
    PointsToFact,
    analyze_pointsto,
    assign_alloca_bids,
)
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Call, Load, Ret, Store
from repro.ir.types import IntType, byte_size
from repro.ir.values import ConstantInt, ConstantNull, GlobalRef, Register
from repro.semantics.memory import MemoryLayout


@dataclass
class MemdfStats:
    """Module-level counters; the suite snapshots deltas per test."""

    analyses: int = 0
    forwards: int = 0
    dead_stores: int = 0
    oob_accesses: int = 0
    narrowed_accesses: int = 0  # encoder accesses with a pruned case-split
    block_skips: int = 0  # (access × block) pairs dropped from encodings
    refine_skips: int = 0  # memory-refinement blocks skipped via clobber facts

    def reset(self) -> None:
        self.analyses = 0
        self.forwards = 0
        self.dead_stores = 0
        self.oob_accesses = 0
        self.narrowed_accesses = 0
        self.block_skips = 0
        self.refine_skips = 0


STATS = MemdfStats()


@dataclass(frozen=True)
class AccessFact:
    """Classification of one load/store against its candidate blocks."""

    pts: PointsToFact
    nbytes: int
    oob: bool  # provably out of bounds for every candidate (⇒ UB if executed)
    inbounds: bool  # provably in bounds for every candidate


@dataclass(frozen=True)
class ForwardFact:
    """A load that provably returns ``store``'s operand value."""

    store: Store
    value: object  # the stored ir.values.Value


@dataclass(frozen=True)
class MemDF:
    """All memory-dataflow facts for one (unrolled) function, read-only.

    The function is held weakly (``fn_ref``): a sealed function memoizes
    its MemDF, and a strong reference back would keep both alive past
    the function's last user.
    """

    fn_ref: "weakref.ref[Function]"
    layout: MemoryLayout
    pointsto: Mapping[str, PointsToFact]
    access: Mapping[int, AccessFact]  # id(inst)
    forwards: Mapping[int, ForwardFact]  # id(load)
    dead_stores: FrozenSet[int]  # id(store)
    clobbered: Optional[FrozenSet[int]]  # None = may write anything
    has_calls: bool
    entry_oob: bool  # an always-executed entry-block access is OOB

    @property
    def fn(self) -> Function:
        fn = self.fn_ref()
        if fn is None:
            raise ReferenceError("MemDF outlived its function")
        return fn

    # -- consumer queries -----------------------------------------------------
    def pointer_fact(self, value) -> PointsToFact:
        """Abstract location of a pointer operand (⊤ when untracked)."""
        return _pointer_fact(self.pointsto, self.layout, value)

    def clobbered_shared_writable(self) -> Optional[FrozenSet[int]]:
        """Caller-visible writable bids any store may touch (None = ⊤)."""
        if self.clobbered is None:
            return None
        shared = frozenset(
            info.bid
            for info in self.layout.shared_blocks
            if info.writable
        )
        return self.clobbered & shared

    def resolve_return(self) -> Optional[Tuple]:
        """The function's return value as a symbol, when provable.

        Returns ``("const", value, width)`` or ``("arg", name, type-str)``
        when the (unique) returned value provably equals that symbol in
        every UB-free execution — following store-to-load forwarding
        chains — else ``None``.
        """
        rets = [
            inst
            for block in self.fn.blocks.values()
            for inst in block.instructions
            if isinstance(inst, Ret)
        ]
        if len(rets) != 1 or rets[0].value is None:
            return None
        return self._resolve_value(rets[0].value, depth=8)

    def _resolve_value(self, value, depth: int) -> Optional[Tuple]:
        if depth <= 0:
            return None
        if isinstance(value, ConstantInt):
            ty = value.type
            if isinstance(ty, IntType):
                return ("const", value.value & ((1 << ty.width) - 1), ty.width)
            return None
        if not isinstance(value, Register):
            return None
        for arg in self.fn.args:
            if arg.name == value.name:
                if isinstance(arg.type, IntType):
                    return ("arg", arg.name, str(arg.type))
                return None
        definer = self._def_map().get(value.name)
        if isinstance(definer, Load):
            fwd = self.forwards.get(id(definer))
            if fwd is not None:
                return self._resolve_value(fwd.value, depth - 1)
        return None

    def _def_map(self) -> Mapping[str, object]:
        fn = self.fn
        return fn.fact("defs", lambda: MappingProxyType(fn.defined_names()))


def _pointer_fact(
    pointsto: Mapping[str, PointsToFact], layout: MemoryLayout, value
) -> PointsToFact:
    if isinstance(value, Register):
        fact = pointsto.get(value.name)
        if fact is not None:
            return fact
    elif isinstance(value, GlobalRef):
        for info in layout.shared_blocks:
            if info.name == f"@{value.name}":
                return PointsToFact(frozenset({info.bid}), (0, 0))
    if isinstance(value, ConstantNull):
        return PointsToFact(frozenset({0}), (0, 0))
    return TOP


def _block_sizes(fn: Function, layout: MemoryLayout) -> Dict[int, int]:
    sizes = {info.bid: info.size for info in layout.shared_blocks}
    alloca_bids = assign_alloca_bids(fn, layout)
    for block in fn.blocks.values():
        for inst in block.instructions:
            if isinstance(inst, Alloca) and inst.name in alloca_bids:
                sizes[alloca_bids[inst.name]] = byte_size(inst.allocated_type)
    return sizes


def _classify(
    pts: PointsToFact, nbytes: int, sizes: Dict[int, int]
) -> Tuple[bool, bool]:
    """(provably-oob, provably-inbounds) of an ``nbytes`` access."""
    if pts.bids is None or not pts.bids:
        return False, False
    oob = True
    inbounds = True
    for bid in pts.bids:
        size = sizes.get(bid)
        if bid == 0 or size is None:
            inbounds = False  # null or unknown block: never provably valid
            continue
        if size < nbytes:
            inbounds = False
            continue
        if pts.off is None:
            # Some offset fits, so not provably OOB; not provably in
            # bounds either (the offset is caller-chosen).
            oob = False
            inbounds = False
            continue
        lo, hi = pts.off
        if hi < 0 or lo > size - nbytes:
            inbounds = False
            continue
        oob = False
        if lo < 0 or hi > size - nbytes:
            inbounds = False
    return oob, inbounds


@dataclass
class _Avail:
    """One forwardable store while scanning a block."""

    store: Store
    pts: PointsToFact
    nbytes: int
    observed: bool = False  # a later may-read saw this store's bytes


def _loc_key(value, pts: PointsToFact) -> Optional[Tuple]:
    """Must-location key: two accesses with equal keys touch the same
    (bid, offset) whenever both execute without UB."""
    if (
        pts.bids is not None
        and len(pts.bids) == 1
        and 0 not in pts.bids
        and pts.off is not None
        and pts.off[0] == pts.off[1]
    ):
        (bid,) = tuple(pts.bids)
        return ("c", bid, pts.off[0])
    if isinstance(value, Register):
        return ("r", value.name)
    if isinstance(value, GlobalRef):
        return ("g", value.name)
    return None


def analyze_memdf(fn: Function, layout: MemoryLayout) -> MemDF:
    """All memory-dataflow facts for ``fn``; computed once per layout
    value on a sealed function."""
    return fn.fact(("memdf", layout), lambda: _analyze(fn, layout))


def _analyze(fn: Function, layout: MemoryLayout) -> MemDF:
    STATS.analyses += 1
    pointsto = analyze_pointsto(fn, layout)
    sizes = _block_sizes(fn, layout)
    access: Dict[int, AccessFact] = {}
    forwards: Dict[int, ForwardFact] = {}
    has_calls = entry_oob = False
    clobbered: Optional[set] = set()
    dead: set = set()
    entry_label = next(iter(fn.blocks)) if fn.blocks else None

    for label, block in fn.blocks.items():
        avail: Dict[Tuple, _Avail] = {}
        for inst in block.non_phi_instructions():
            if isinstance(inst, Call):
                has_calls = True
                clobbered = None  # calls may write anything
                for entry in avail.values():
                    entry.observed = True
                avail.clear()
                continue
            if isinstance(inst, Store):
                pts = _pointer_fact(pointsto, layout, inst.pointer)
                nbytes = byte_size(inst.value.type)
                oob, inbounds = _classify(pts, nbytes, sizes)
                access[id(inst)] = AccessFact(pts, nbytes, oob, inbounds)
                if oob:
                    STATS.oob_accesses += 1
                    if label == entry_label:
                        entry_oob = True
                if clobbered is not None:
                    if pts.bids is None:
                        clobbered = None
                    else:
                        clobbered |= pts.bids
                key = _loc_key(inst.pointer, pts)
                # A covering same-location store makes the previous one
                # dead if nothing observed it in between.
                prev = avail.get(key) if key is not None else None
                if (
                    prev is not None
                    and not prev.observed
                    and nbytes >= prev.nbytes
                ):
                    dead.add(id(prev.store))
                    STATS.dead_stores += 1
                # Any may-aliasing store invalidates forwardable entries.
                for k in list(avail):
                    if k == key:
                        continue
                    entry = avail[k]
                    if pts.may_overlap(entry.pts, nbytes, entry.nbytes):
                        del avail[k]
                if key is not None:
                    avail[key] = _Avail(inst, pts, nbytes)
                continue
            if isinstance(inst, Load):
                pts = _pointer_fact(pointsto, layout, inst.pointer)
                nbytes = byte_size(inst.type)
                oob, inbounds = _classify(pts, nbytes, sizes)
                access[id(inst)] = AccessFact(pts, nbytes, oob, inbounds)
                if oob:
                    STATS.oob_accesses += 1
                    if label == entry_label:
                        entry_oob = True
                key = _loc_key(inst.pointer, pts)
                entry = avail.get(key) if key is not None else None
                if (
                    entry is not None
                    and inst.type == entry.store.value.type
                ):
                    forwards[id(inst)] = ForwardFact(
                        entry.store, entry.store.value
                    )
                    STATS.forwards += 1
                # Loads observe every store they may read from.
                for other in avail.values():
                    if pts.may_overlap(other.pts, nbytes, other.nbytes):
                        other.observed = True
                continue
        # Values still available at the block exit are observable later.
        for entry in avail.values():
            entry.observed = True

    return MemDF(
        fn_ref=weakref.ref(fn),
        layout=layout,
        pointsto=pointsto,
        access=MappingProxyType(access),
        forwards=MappingProxyType(forwards),
        dead_stores=frozenset(dead),
        clobbered=None if clobbered is None else frozenset(clobbered),
        has_calls=has_calls,
        entry_oob=entry_oob,
    )
