"""Known-bits analysis (LLVM ValueTracking style).

A :class:`KnownBits` fact records, per bit position, whether the bit is
known to be 0, known to be 1, or unknown.  Transfer functions mirror the
*term semantics* of :mod:`repro.smt.terms` (wrapped arithmetic, shifts
folding to zero at or beyond the width, the division-by-zero folds) so a
fact is valid for every assignment of the underlying SMT encoding, not
just for UB-free executions.  When both operands are fully known the
transfer delegates to the smart constructors' constant folding, which
keeps the two semantics identical by construction.

The same transfer functions back both the IR-level analysis
(:func:`analyze_known_bits`) and the term-level abstract evaluator in
:mod:`repro.analysis.termfacts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from repro.analysis.framework import RegisterAnalysis, analyze_registers
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Cast, Freeze, ICmp, Select
from repro.ir.types import IntType
from repro.ir.values import ConstantInt
from repro.smt import terms


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class KnownBits:
    """Per-bit knowledge about a ``width``-bit value."""

    width: int
    zeros: int = 0  # mask of bits known to be 0
    ones: int = 0  # mask of bits known to be 1

    @staticmethod
    def top(width: int) -> "KnownBits":
        return KnownBits(width)

    @staticmethod
    def constant(value: int, width: int) -> "KnownBits":
        value &= _mask(width)
        return KnownBits(width, zeros=~value & _mask(width), ones=value)

    @property
    def is_constant(self) -> bool:
        return (self.zeros | self.ones) == _mask(self.width)

    @property
    def value(self) -> Optional[int]:
        return self.ones if self.is_constant else None

    @property
    def umin(self) -> int:
        return self.ones

    @property
    def umax(self) -> int:
        return _mask(self.width) & ~self.zeros

    def join(self, other: "KnownBits") -> "KnownBits":
        assert self.width == other.width
        return KnownBits(
            self.width, zeros=self.zeros & other.zeros, ones=self.ones & other.ones
        )

    def agrees_with(self, value: int) -> bool:
        """True iff a concrete ``value`` is compatible with this fact."""
        value &= _mask(self.width)
        return (value & self.zeros) == 0 and (value & self.ones) == self.ones


# -- transfer functions -------------------------------------------------------
#
# Each takes KnownBits operands and returns KnownBits of the result.  All
# of them first try exact constant folding through the interned-term
# smart constructors so the semantics cannot drift from the encoder's.

_TERM_BINOP = {
    "add": terms.bv_add,
    "sub": terms.bv_sub,
    "mul": terms.bv_mul,
    "udiv": terms.bv_udiv,
    "urem": terms.bv_urem,
    "sdiv": terms.bv_sdiv,
    "srem": terms.bv_srem,
    "and": terms.bv_and,
    "or": terms.bv_or,
    "xor": terms.bv_xor,
    "shl": terms.bv_shl,
    "lshr": terms.bv_lshr,
    "ashr": terms.bv_ashr,
}


def concrete_binop(op: str, x: int, y: int, width: int) -> int:
    """Fold ``x op y`` with exactly the term-DSL semantics."""
    folded = _TERM_BINOP[op](
        terms.bv_const(x, width), terms.bv_const(y, width)
    )
    assert folded.op == "const"
    return folded.payload


def kb_binop(op: str, a: KnownBits, b: KnownBits) -> KnownBits:
    w = a.width
    if a.is_constant and b.is_constant:
        return KnownBits.constant(concrete_binop(op, a.value, b.value, w), w)
    if op == "and":
        return KnownBits(w, zeros=a.zeros | b.zeros, ones=a.ones & b.ones)
    if op == "or":
        return KnownBits(w, zeros=a.zeros & b.zeros, ones=a.ones | b.ones)
    if op == "xor":
        known = (a.zeros | a.ones) & (b.zeros | b.ones)
        value = (a.ones ^ b.ones) & known
        return KnownBits(w, zeros=known & ~value & _mask(w), ones=value)
    if op in ("add", "sub"):
        return _kb_addsub(a, b, subtract=(op == "sub"))
    if op == "mul":
        # Trailing zeros add up; nothing else is tracked.
        tz = _trailing_zeros(a) + _trailing_zeros(b)
        if tz >= w:
            return KnownBits.constant(0, w)
        return KnownBits(w, zeros=_mask(min(tz, w)), ones=0)
    if op == "shl" and b.is_constant:
        sh = b.value
        if sh >= w:
            return KnownBits.constant(0, w)
        return KnownBits(
            w,
            zeros=((a.zeros << sh) | _mask(sh)) & _mask(w),
            ones=(a.ones << sh) & _mask(w),
        )
    if op == "lshr" and b.is_constant:
        sh = b.value
        if sh >= w:
            return KnownBits.constant(0, w)
        high = _mask(w) & ~(_mask(w) >> sh)
        return KnownBits(w, zeros=(a.zeros >> sh) | high, ones=a.ones >> sh)
    if op == "ashr" and b.is_constant:
        sh = b.value
        sign_bit = 1 << (w - 1)
        if sh >= w:
            # Term semantics: replicate the sign bit everywhere.
            if a.zeros & sign_bit:
                return KnownBits.constant(0, w)
            if a.ones & sign_bit:
                return KnownBits.constant(_mask(w), w)
            return KnownBits.top(w)
        high = _mask(w) & ~(_mask(w) >> sh)
        zeros = a.zeros >> sh
        ones = a.ones >> sh
        if a.zeros & sign_bit:
            zeros |= high
        elif a.ones & sign_bit:
            ones |= high
        else:
            high = 0
        return KnownBits(w, zeros=zeros & _mask(w), ones=ones & _mask(w))
    if op == "udiv" and b.is_constant and b.value not in (0, None):
        # result <= x / lb: known leading zeros survive.
        lead = _leading_zeros(a)
        extra = (b.value.bit_length() - 1) if b.value else 0
        lz = min(w, lead + extra)
        return KnownBits(w, zeros=_mask(w) & ~(_mask(w) >> lz), ones=0)
    if op == "urem" and b.is_constant and b.value not in (0, None):
        bound = b.value - 1
        lz = w - bound.bit_length()
        return KnownBits(w, zeros=_mask(w) & ~(_mask(w) >> lz), ones=0)
    return KnownBits.top(w)


def _kb_addsub(a: KnownBits, b: KnownBits, subtract: bool) -> KnownBits:
    """Ripple-carry propagation of known bits through add/sub."""
    w = a.width
    if subtract:
        # a - b == a + ~b + 1: flip b's knowledge and seed the carry.
        b = KnownBits(w, zeros=b.ones, ones=b.zeros)
        carry_one, carry_zero = True, False
    else:
        carry_one, carry_zero = False, True
    zeros = ones = 0
    for i in range(w):
        bit = 1 << i
        a_known = bool((a.zeros | a.ones) & bit)
        b_known = bool((b.zeros | b.ones) & bit)
        if not (a_known and b_known and (carry_one or carry_zero)):
            # Unknown inputs poison the carry chain from here up.
            carry_one = carry_zero = False
            continue
        av = bool(a.ones & bit)
        bv = bool(b.ones & bit)
        cv = carry_one
        total = int(av) + int(bv) + int(cv)
        if total & 1:
            ones |= bit
        else:
            zeros |= bit
        carry_one = total >= 2
        carry_zero = not carry_one
    return KnownBits(w, zeros=zeros, ones=ones)


def _trailing_zeros(a: KnownBits) -> int:
    count = 0
    for i in range(a.width):
        if a.zeros & (1 << i):
            count += 1
        else:
            break
    return count


def _leading_zeros(a: KnownBits) -> int:
    count = 0
    for i in reversed(range(a.width)):
        if a.zeros & (1 << i):
            count += 1
        else:
            break
    return count


def kb_zext(a: KnownBits, width: int) -> KnownBits:
    ext = _mask(width) & ~_mask(a.width)
    return KnownBits(width, zeros=a.zeros | ext, ones=a.ones)


def kb_sext(a: KnownBits, width: int) -> KnownBits:
    sign_bit = 1 << (a.width - 1)
    ext = _mask(width) & ~_mask(a.width)
    zeros, ones = a.zeros, a.ones
    if zeros & sign_bit:
        zeros |= ext
    elif ones & sign_bit:
        ones |= ext
    return KnownBits(width, zeros=zeros, ones=ones)


def kb_extract(a: KnownBits, hi: int, lo: int) -> KnownBits:
    width = hi - lo + 1
    return KnownBits(
        width, zeros=(a.zeros >> lo) & _mask(width), ones=(a.ones >> lo) & _mask(width)
    )


def kb_concat(hi: KnownBits, lo: KnownBits) -> KnownBits:
    width = hi.width + lo.width
    return KnownBits(
        width,
        zeros=(hi.zeros << lo.width) | lo.zeros,
        ones=(hi.ones << lo.width) | lo.ones,
    )


def kb_not(a: KnownBits) -> KnownBits:
    return KnownBits(a.width, zeros=a.ones, ones=a.zeros)


def kb_neg(a: KnownBits) -> KnownBits:
    return _kb_addsub(KnownBits.constant(0, a.width), a, subtract=True)


def kb_icmp(pred: str, a: KnownBits, b: KnownBits) -> Optional[bool]:
    """Decide an integer comparison from known bits, if possible."""
    if a.is_constant and b.is_constant:
        folded = _ICMP_TERM[pred](
            terms.bv_const(a.value, a.width), terms.bv_const(b.value, b.width)
        )
        return bool(folded.payload) if folded.op == "const" else None
    if pred in ("eq", "ne"):
        conflict = (a.ones & b.zeros) | (a.zeros & b.ones)
        if conflict:
            return pred == "ne"
        return None
    if pred in ("ult", "ugt", "ule", "uge"):
        lhs_lo, lhs_hi = a.umin, a.umax
        rhs_lo, rhs_hi = b.umin, b.umax
        if pred == "ugt":
            lhs_lo, lhs_hi, rhs_lo, rhs_hi = rhs_lo, rhs_hi, lhs_lo, lhs_hi
            pred = "ult"
        if pred == "uge":
            lhs_lo, lhs_hi, rhs_lo, rhs_hi = rhs_lo, rhs_hi, lhs_lo, lhs_hi
            pred = "ule"
        if pred == "ult":
            if lhs_hi < rhs_lo:
                return True
            if lhs_lo >= rhs_hi:
                return False
        else:  # ule
            if lhs_hi <= rhs_lo:
                return True
            if lhs_lo > rhs_hi:
                return False
    return None


_ICMP_TERM = {
    "eq": terms.bv_eq,
    "ne": lambda x, y: terms.bool_not(terms.bv_eq(x, y)),
    "ult": terms.bv_ult,
    "ule": terms.bv_ule,
    "ugt": lambda x, y: terms.bv_ult(y, x),
    "uge": lambda x, y: terms.bv_ule(y, x),
    "slt": terms.bv_slt,
    "sle": terms.bv_sle,
    "sgt": lambda x, y: terms.bv_slt(y, x),
    "sge": lambda x, y: terms.bv_sle(y, x),
}


# -- the IR-level analysis ----------------------------------------------------


class KnownBitsAnalysis(RegisterAnalysis):
    """Forward known-bits over integer registers; others stay ``None``."""

    def top(self):
        return None

    def join(self, a, b):
        if a is None or b is None or a.width != b.width:
            return None
        return a.join(b)

    def fact_of_argument(self, arg):
        if isinstance(arg.type, IntType):
            return KnownBits.top(arg.type.width)
        return None

    def fact_of_constant(self, value):
        if isinstance(value, ConstantInt) and isinstance(value.type, IntType):
            return KnownBits.constant(value.value, value.type.width)
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
            return kb_binop(inst.opcode, a, b)
        if isinstance(inst, ICmp):
            lhs_ty = getattr(inst.lhs, "type", None)
            if not isinstance(lhs_ty, IntType):
                return None
            a = self.value_fact(inst.lhs, env)
            b = self.value_fact(inst.rhs, env)
            if a is None or b is None or a.width != b.width:
                return KnownBits.top(1)
            decided = kb_icmp(inst.pred, a, b)
            if decided is None:
                return KnownBits.top(1)
            return KnownBits.constant(int(decided), 1)
        if isinstance(inst, Select):
            t = self.value_fact(inst.on_true, env)
            f = self.value_fact(inst.on_false, env)
            return self.join(t, f)
        if isinstance(inst, Cast):
            src_ty = getattr(inst.operand, "type", None)
            if not isinstance(src_ty, IntType):
                return None
            a = self.value_fact(inst.operand, env)
            if a is None or a.width != src_ty.width:
                return None
            if inst.opcode == "zext":
                return kb_zext(a, w)
            if inst.opcode == "sext":
                return kb_sext(a, w)
            if inst.opcode == "trunc":
                return kb_extract(a, w - 1, 0)
            if inst.opcode == "bitcast" and a.width == w:
                return a
            return None
        if isinstance(inst, Freeze):
            # freeze of poison/undef may take any value: a typed top (so
            # downstream transfers still fire), never the operand's fact.
            return KnownBits.top(w)
        return None


def analyze_known_bits(fn: Function) -> Mapping[str, Optional[KnownBits]]:
    """Known bits for every integer register of ``fn`` (None = no info);
    read-only, computed once on a sealed function."""
    return fn.fact(
        "knownbits",
        lambda: MappingProxyType(analyze_registers(fn, KnownBitsAnalysis())),
    )
