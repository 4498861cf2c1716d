"""Unsigned/signed integer range analysis with widening.

Facts are inclusive unsigned intervals ``[umin, umax]``; the signed view
is derived (exact when the interval does not straddle the sign flip).
Transfer functions follow the term semantics of :mod:`repro.smt.terms`
(wrapped arithmetic — an operation that may wrap returns the full
range), so facts hold for every assignment of the SMT encoding.

Unrolled loop chains produce long phi chains (``i``, ``i+1``, ``i+2``,
...) whose joins would otherwise iterate once per loop trip; the
analysis widens to the full range after a few visits of the same block
(:attr:`repro.analysis.framework.DataflowAnalysis.widen_after`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.framework import RegisterAnalysis, analyze_registers
from repro.analysis.knownbits import concrete_binop
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Cast, Freeze, ICmp, Select
from repro.ir.types import IntType
from repro.ir.values import ConstantInt


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class IntRange:
    """An inclusive unsigned interval over ``width``-bit values."""

    width: int
    umin: int
    umax: int

    @staticmethod
    def full(width: int) -> "IntRange":
        return IntRange(width, 0, _mask(width))

    @staticmethod
    def constant(value: int, width: int) -> "IntRange":
        value &= _mask(width)
        return IntRange(width, value, value)

    @property
    def is_full(self) -> bool:
        return self.umin == 0 and self.umax == _mask(self.width)

    @property
    def is_constant(self) -> bool:
        return self.umin == self.umax

    @property
    def smin(self) -> int:
        """Signed lower bound (exact unless the range straddles the flip)."""
        half = 1 << (self.width - 1)
        if self.umax < half or self.umin >= half:
            return self.umin - (1 << self.width) if self.umin >= half else self.umin
        return -half

    @property
    def smax(self) -> int:
        half = 1 << (self.width - 1)
        if self.umax < half or self.umin >= half:
            return self.umax - (1 << self.width) if self.umax >= half else self.umax
        return half - 1

    def join(self, other: "IntRange") -> "IntRange":
        assert self.width == other.width
        return IntRange(
            self.width, min(self.umin, other.umin), max(self.umax, other.umax)
        )

    def contains(self, value: int) -> bool:
        return self.umin <= (value & _mask(self.width)) <= self.umax


def range_binop(op: str, a: IntRange, b: IntRange) -> IntRange:
    """Sound interval transfer matching the term-DSL fold semantics."""
    w = a.width
    mask = _mask(w)
    if a.is_constant and b.is_constant:
        return IntRange.constant(concrete_binop(op, a.umin, b.umin, w), w)
    if op == "add":
        if a.umax + b.umax <= mask:
            return IntRange(w, a.umin + b.umin, a.umax + b.umax)
        return IntRange.full(w)
    if op == "sub":
        if a.umin >= b.umax:
            return IntRange(w, a.umin - b.umax, a.umax - b.umin)
        return IntRange.full(w)
    if op == "mul":
        if a.umax * b.umax <= mask:
            return IntRange(w, a.umin * b.umin, a.umax * b.umax)
        return IntRange.full(w)
    if op == "and":
        return IntRange(w, 0, min(a.umax, b.umax))
    if op == "or":
        hi = (1 << max(a.umax.bit_length(), b.umax.bit_length())) - 1
        return IntRange(w, max(a.umin, b.umin), min(mask, hi))
    if op == "xor":
        hi = (1 << max(a.umax.bit_length(), b.umax.bit_length())) - 1
        return IntRange(w, 0, min(mask, hi))
    if op == "udiv":
        if b.umin >= 1:
            return IntRange(w, a.umin // b.umax, a.umax // b.umin)
        return IntRange.full(w)  # division by zero folds to all-ones
    if op == "urem":
        if b.umin >= 1:
            return IntRange(w, 0, min(a.umax, b.umax - 1))
        return IntRange(w, 0, a.umax)  # x urem 0 folds to x
    if op == "shl":
        if b.umax < w and a.umax << b.umax <= mask:
            return IntRange(w, a.umin << b.umin, a.umax << b.umax)
        return IntRange.full(w)
    if op == "lshr":
        lo = 0 if b.umax >= w else a.umin >> b.umax
        return IntRange(w, lo, a.umax >> min(b.umin, w))
    return IntRange.full(w)


def range_icmp(pred: str, a: IntRange, b: IntRange) -> Optional[bool]:
    """Decide a comparison from unsigned/signed bounds, if possible."""
    unsigned: Dict[str, Tuple[int, int, int, int]] = {
        "ult": (a.umin, a.umax, b.umin, b.umax),
        "ugt": (b.umin, b.umax, a.umin, a.umax),
        "slt": (a.smin, a.smax, b.smin, b.smax),
        "sgt": (b.smin, b.smax, a.smin, a.smax),
    }
    strict = unsigned.get(pred)
    if strict is not None:
        lhs_lo, lhs_hi, rhs_lo, rhs_hi = strict
        if lhs_hi < rhs_lo:
            return True
        if lhs_lo >= rhs_hi:
            return False
        return None
    weak: Dict[str, Tuple[int, int, int, int]] = {
        "ule": (a.umin, a.umax, b.umin, b.umax),
        "uge": (b.umin, b.umax, a.umin, a.umax),
        "sle": (a.smin, a.smax, b.smin, b.smax),
        "sge": (b.smin, b.smax, a.smin, a.smax),
    }
    entry = weak.get(pred)
    if entry is not None:
        lhs_lo, lhs_hi, rhs_lo, rhs_hi = entry
        if lhs_hi <= rhs_lo:
            return True
        if lhs_lo > rhs_hi:
            return False
        return None
    if pred == "eq" or pred == "ne":
        if a.umax < b.umin or b.umax < a.umin:
            return pred == "ne"
        if a.is_constant and b.is_constant and a.umin == b.umin:
            return pred == "eq"
    return None


class RangeAnalysis(RegisterAnalysis):
    """Forward interval analysis over integer registers."""

    def top(self):
        return None

    def join(self, a, b):
        if a is None or b is None or a.width != b.width:
            return None
        return a.join(b)

    def widen_fact(self, old, new):
        if old is None or new is None or old.width != new.width:
            return None
        # Widen each moving bound straight to its extreme.
        umin = old.umin if new.umin >= old.umin else 0
        umax = old.umax if new.umax <= old.umax else _mask(old.width)
        return IntRange(old.width, umin, umax)

    def fact_of_argument(self, arg):
        if isinstance(arg.type, IntType):
            return IntRange.full(arg.type.width)
        return None

    def fact_of_constant(self, value):
        if isinstance(value, ConstantInt) and isinstance(value.type, IntType):
            return IntRange.constant(value.value, value.type.width)
        return None

    def transfer(self, inst, env):
        ty = getattr(inst, "type", None)
        if not isinstance(ty, IntType):
            return None
        w = ty.width
        if isinstance(inst, BinOp):
            a = self.value_fact(inst.lhs, env)
            b = self.value_fact(inst.rhs, env)
            if a is None or b is None or a.width != w or b.width != w:
                return None
            return range_binop(inst.opcode, a, b)
        if isinstance(inst, ICmp):
            lhs_ty = getattr(inst.lhs, "type", None)
            if not isinstance(lhs_ty, IntType):
                return None
            a = self.value_fact(inst.lhs, env)
            b = self.value_fact(inst.rhs, env)
            if a is None or b is None or a.width != b.width:
                return IntRange.full(1)
            decided = range_icmp(inst.pred, a, b)
            if decided is None:
                return IntRange.full(1)
            return IntRange.constant(int(decided), 1)
        if isinstance(inst, Select):
            return self.join(
                self.value_fact(inst.on_true, env),
                self.value_fact(inst.on_false, env),
            )
        if isinstance(inst, Cast):
            src_ty = getattr(inst.operand, "type", None)
            if not isinstance(src_ty, IntType):
                return None
            a = self.value_fact(inst.operand, env)
            if a is None or a.width != src_ty.width:
                return None
            if inst.opcode == "zext":
                return IntRange(w, a.umin, a.umax)
            if inst.opcode == "trunc":
                if a.umax <= _mask(w):
                    return IntRange(w, a.umin, a.umax)
                return IntRange.full(w)
            if inst.opcode == "bitcast" and a.width == w:
                return a
            return None
        if isinstance(inst, Freeze):
            # freeze of poison/undef may take any value: a typed top (so
            # downstream transfers still fire), never the operand's fact.
            return IntRange.full(w)
        return None


def analyze_ranges(fn: Function) -> Mapping[str, Optional[IntRange]]:
    """Unsigned interval for every integer register (None = no info);
    read-only, computed once on a sealed function."""
    return fn.fact(
        "ranges", lambda: MappingProxyType(analyze_registers(fn, RangeAnalysis()))
    )
