"""The SMT memory model (§4 of the paper, scaled down).

* The unit of allocation is the *memory block*; each global, pointer
  argument and alloca gets one.  Block ids are non-negative integers;
  bid 0 is the null block (size 0).
* A pointer is ``(bid, off)`` encoded as the bitvector ``bid ++ off``
  (offsets are signed).
* Block bytes are typed: a byte is (poison, is_pointer, value) — loading
  bytes whose type does not match the load type yields poison, as the
  paper specifies.
* The number of blocks is static after unrolling, so loads/stores
  scalarize to ite-chains over (block, offset) — the bounded analogue of
  Z3's array theory that keeps our bit-blaster fast.

Deviations (documented in DESIGN.md): no heap (malloc/free) and no block
liveness tracking — stack and global blocks live for the whole function;
escaped locals are not modified by unknown calls (the same limitation
§8.5 reports for Alive2 itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ir.types import Type, byte_size
from repro.ir.values import GlobalVariable
from repro.smt.terms import (
    FALSE,
    TRUE,
    BoolTerm,
    BvTerm,
    bool_and,
    bool_ite,
    bool_not,
    bool_or,
    bv_concat,
    bv_const,
    bv_eq,
    bv_extract,
    bv_ite,
    bv_sle,
    bv_var,
)


@dataclass(frozen=True)
class MemoryConfig:
    """Widths and sizes for the scaled-down memory."""

    off_bits: int = 8  # signed byte offsets
    arg_block_bytes: int = 4  # size of the block behind each pointer arg
    max_blocks: int = 64


@dataclass(frozen=True)
class BlockInfo:
    bid: int
    name: str
    size: int  # bytes
    writable: bool = True
    is_local: bool = False  # allocas (not observable by the caller)


@dataclass(frozen=True)
class MemoryLayout:
    """Static block numbering shared between source and target.

    Globals and pointer arguments get identical bids in both functions so
    that pointer values and memory contents are directly comparable.
    Allocas get function-local bids above the shared range.  Frozen and
    hashed by value: a sealed function memoizes its memory facts per
    layout value.
    """

    config: MemoryConfig
    shared_blocks: Tuple[BlockInfo, ...] = ()
    num_local_slots: int = 0

    @property
    def num_blocks(self) -> int:
        return 1 + len(self.shared_blocks) + self.num_local_slots  # +1 for null

    @property
    def bid_bits(self) -> int:
        return max(1, (self.num_blocks - 1).bit_length())

    @property
    def ptr_bits(self) -> int:
        return self.bid_bits + self.config.off_bits

    def first_local_bid(self) -> int:
        return 1 + len(self.shared_blocks)


def build_layout(
    globals_: Dict[str, GlobalVariable],
    pointer_args: List[str],
    num_allocas: int,
    config: Optional[MemoryConfig] = None,
) -> MemoryLayout:
    """Build the shared layout for a (source, target) function pair."""
    config = config or MemoryConfig()
    blocks: List[BlockInfo] = []
    bid = 1
    for name in sorted(globals_):
        g = globals_[name]
        blocks.append(
            BlockInfo(
                bid,
                f"@{name}",
                byte_size(g.value_type),
                writable=not g.is_constant,
            )
        )
        bid += 1
    for arg_name in pointer_args:
        blocks.append(BlockInfo(bid, f"%{arg_name}", config.arg_block_bytes))
        bid += 1
    layout = MemoryLayout(config, tuple(blocks), num_allocas)
    if layout.num_blocks > config.max_blocks:
        raise ValueError("too many memory blocks for the configured bid width")
    return layout


@dataclass(frozen=True)
class SymByte:
    """One byte of memory: typed, poison-aware (§4 'Block attributes and bytes')."""

    value: BvTerm  # 8 bits
    poison: BoolTerm = FALSE
    is_ptr: BoolTerm = FALSE
    undef_vars: frozenset = frozenset()

    @staticmethod
    def poison_byte() -> "SymByte":
        return SymByte(bv_const(0, 8), TRUE, FALSE, frozenset())


def _merge_byte(cond: BoolTerm, a: SymByte, b: SymByte) -> SymByte:
    if a == b:
        return a
    return SymByte(
        bv_ite(cond, a.value, b.value),
        bool_ite(cond, a.poison, b.poison),
        bool_ite(cond, a.is_ptr, b.is_ptr),
        a.undef_vars | b.undef_vars,
    )


class SymMemory:
    """Memory state: per-block byte lists.  Copy-on-write via ``clone``."""

    def __init__(self, layout: MemoryLayout, blocks: Dict[int, List[SymByte]],
                 infos: Dict[int, BlockInfo]) -> None:
        self.layout = layout
        self.blocks = blocks  # bid -> bytes
        self.infos = infos  # bid -> BlockInfo

    # -- construction -----------------------------------------------------
    @staticmethod
    def initial(
        layout: MemoryLayout,
        globals_: Dict[str, GlobalVariable],
        prefix: str,
    ) -> "SymMemory":
        """Initial memory: globals from initializers, arg blocks from shared
        input variables, null block empty."""
        from repro.ir.values import (
            ConstantAggregate,
            ConstantFloat,
            ConstantInt,
            ConstantNull,
            PoisonValue,
            UndefValue,
        )

        blocks: Dict[int, List[SymByte]] = {}
        infos: Dict[int, BlockInfo] = {}
        for info in layout.shared_blocks:
            infos[info.bid] = info
            data: List[SymByte] = []
            if info.name.startswith("@"):
                g = globals_[info.name[1:]]
                if g.initializer is not None:
                    data = _init_bytes(g.initializer, g.value_type)
                else:
                    # External global: unknown but fixed contents, shared by
                    # source and target (input variables).
                    data = [
                        SymByte(bv_var(f"glob_{g.name}_b{i}", 8))
                        for i in range(info.size)
                    ]
            else:
                arg = info.name[1:]
                data = [
                    SymByte(bv_var(f"argmem_{arg}_b{i}", 8))
                    for i in range(info.size)
                ]
            # Pad/trim to declared size.
            data = (data + [SymByte.poison_byte()] * info.size)[: info.size]
            blocks[info.bid] = data
        return SymMemory(layout, blocks, infos)

    def clone(self) -> "SymMemory":
        return SymMemory(
            self.layout, {k: list(v) for k, v in self.blocks.items()}, dict(self.infos)
        )

    def add_local_block(self, bid: int, name: str, size: int) -> None:
        self.infos[bid] = BlockInfo(bid, name, size, writable=True, is_local=True)
        self.blocks[bid] = [SymByte.poison_byte() for _ in range(size)]

    # -- pointers ------------------------------------------------------------
    def make_pointer(self, bid: int, off: int = 0) -> BvTerm:
        return bv_concat(
            bv_const(bid, self.layout.bid_bits),
            bv_const(off, self.layout.config.off_bits),
        )

    def decode_pointer(self, ptr: BvTerm) -> Tuple[BvTerm, BvTerm]:
        ob = self.layout.config.off_bits
        return bv_extract(ptr, ptr.width - 1, ob), bv_extract(ptr, ob - 1, 0)

    def null_pointer(self) -> BvTerm:
        return bv_const(0, self.layout.ptr_bits)

    # -- access --------------------------------------------------------------
    # The optional ``bids`` filter on the access methods restricts the
    # ite/case chains to the candidate blocks a points-to analysis proved
    # for the access (repro.analysis.pointsto).  Soundness: every
    # refinement query conjoins the encoder precondition, and the
    # points-to contract guarantees the concrete bid of a *defined*
    # pointer lies in the candidate set under that precondition; models
    # where the pointer is poison/undef already take the access-UB path.
    # Restricting therefore only changes the formula on models the query
    # excludes anyway.
    def _valid_range(
        self,
        bid: BvTerm,
        off: BvTerm,
        nbytes: int,
        bids: Optional[FrozenSet[int]] = None,
    ) -> BoolTerm:
        """Access of ``nbytes`` at (bid, off) is fully in-bounds."""
        ob = self.layout.config.off_bits
        cases = FALSE
        for info in self.infos.values():
            if bids is not None and info.bid not in bids:
                continue
            if info.size < nbytes:
                continue
            this = bool_and(
                bv_eq(bid, bv_const(info.bid, bid.width)),
                bv_sle(bv_const(0, ob), off),
                bv_sle(off, bv_const(info.size - nbytes, ob)),
            )
            cases = bool_or(cases, this)
        return cases

    def _writable(
        self, bid: BvTerm, bids: Optional[FrozenSet[int]] = None
    ) -> BoolTerm:
        bad = FALSE
        for info in self.infos.values():
            if bids is not None and info.bid not in bids:
                continue
            if not info.writable:
                bad = bool_or(bad, bv_eq(bid, bv_const(info.bid, bid.width)))
        return bool_not(bad)

    def load_bytes(
        self,
        bid: BvTerm,
        off: BvTerm,
        nbytes: int,
        bids: Optional[FrozenSet[int]] = None,
    ) -> List[SymByte]:
        """Read ``nbytes`` from (bid, off); caller checks bounds UB."""
        ob = self.layout.config.off_bits
        out: List[SymByte] = []
        for k in range(nbytes):
            byte = SymByte.poison_byte()
            for info in self.infos.values():
                if bids is not None and info.bid not in bids:
                    continue
                data = self.blocks[info.bid]
                is_block = bv_eq(bid, bv_const(info.bid, bid.width))
                for j in range(info.size):
                    if j < k:
                        continue
                    cond = bool_and(
                        is_block, bv_eq(off, bv_const(j - k, ob))
                    )
                    byte = _merge_byte(cond, data[j], byte)
            out.append(byte)
        return out

    def store_bytes(
        self,
        dom: BoolTerm,
        bid: BvTerm,
        off: BvTerm,
        data: List[SymByte],
        bids: Optional[FrozenSet[int]] = None,
    ) -> None:
        """Write bytes at (bid, off), guarded by path condition ``dom``."""
        ob = self.layout.config.off_bits
        for info in self.infos.values():
            if bids is not None and info.bid not in bids:
                continue
            block = self.blocks[info.bid]
            is_block = bv_eq(bid, bv_const(info.bid, bid.width))
            if is_block is FALSE:
                continue
            for j in range(info.size):
                new_byte = block[j]
                for k, b in enumerate(data):
                    if j - k < 0:
                        continue
                    cond = bool_and(
                        dom, is_block, bv_eq(off, bv_const(j - k, ob))
                    )
                    new_byte = _merge_byte(cond, b, new_byte)
                block[j] = new_byte

    # -- merging ----------------------------------------------------------------
    @staticmethod
    def merge(cond: BoolTerm, then: "SymMemory", els: "SymMemory") -> "SymMemory":
        assert then.layout is els.layout
        blocks: Dict[int, List[SymByte]] = {}
        infos = dict(then.infos)
        infos.update(els.infos)
        for bid, info in infos.items():
            t = then.blocks.get(bid)
            e = els.blocks.get(bid)
            if t is None:
                blocks[bid] = list(e)  # type: ignore[arg-type]
            elif e is None:
                blocks[bid] = list(t)
            else:
                blocks[bid] = [_merge_byte(cond, a, b) for a, b in zip(t, e)]
        return SymMemory(then.layout, blocks, infos)

    def non_local_bids(self) -> List[int]:
        return [info.bid for info in self.infos.values() if not info.is_local]


def _init_bytes(initializer, ty: Type) -> List[SymByte]:
    """Bytes for a constant global initializer."""
    from repro.ir.values import (
        ConstantAggregate,
        ConstantFloat,
        ConstantInt,
        ConstantNull,
        PoisonValue,
        UndefValue,
    )

    if isinstance(initializer, (ConstantAggregate,)):
        out: List[SymByte] = []
        for elem in initializer.elems:
            out.extend(_init_bytes(elem, elem.type))
        return out
    nbytes = byte_size(ty)
    if isinstance(initializer, (UndefValue, PoisonValue)):
        # Loading uninitialized memory is undef; poison bytes approximate it
        # on the safe side for globals (they are rare in the corpus).
        return [SymByte.poison_byte() for _ in range(nbytes)]
    if isinstance(initializer, ConstantInt):
        value = initializer.value
    elif isinstance(initializer, ConstantFloat):
        value = initializer.bits
    elif isinstance(initializer, ConstantNull):
        value = 0
    else:
        raise ValueError(f"unsupported initializer {initializer!r}")
    return [
        SymByte(bv_const((value >> (8 * i)) & 0xFF, 8)) for i in range(nbytes)
    ]
