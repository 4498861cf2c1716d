"""Poison/undef taint analysis: conservatively prove values poison-free.

The fact for a register is a single bit: ``True`` means *every* UB-free
execution of the function computes a non-poison value for it.  The rules
mirror the poison semantics of :mod:`repro.semantics.encoder`:

* constants (including ``undef``) are poison-free; ``poison`` is not;
* an argument is poison-free only when marked ``noundef`` (a poison
  argument then triggers immediate UB, so UB-free executions see a
  defined value);
* ``freeze`` is always poison-free (that is its purpose);
* flag-carrying arithmetic (``nsw``/``nuw``/``exact``) may create
  poison and is never proven;
* shifts are poison-free only when the shift amount provably stays
  below the bit width (constant or range fact);
* ``udiv``/``urem``/``sdiv``/``srem`` propagate their operands' facts —
  a zero divisor is immediate UB, not poison;
* loads, calls, geps and floating-point operations are conservatively
  treated as possibly-poison.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Optional

from repro.analysis.framework import RegisterAnalysis, analyze_registers
from repro.analysis.range import IntRange, analyze_ranges
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Cast,
    Freeze,
    ICmp,
    Ret,
    Select,
)
from repro.ir.types import IntType
from repro.ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalRef,
    PoisonValue,
    UndefValue,
)

_SHIFT_OPS = {"shl", "lshr", "ashr"}
_INT_CASTS = {"zext", "sext", "trunc"}


class PoisonAnalysis(RegisterAnalysis):
    """Forward must-analysis; fact True = proven poison-free."""

    def __init__(self, ranges: Optional[Dict[str, Optional[IntRange]]] = None):
        self.ranges = ranges or {}

    def top(self):
        return False  # unknown producers may be poison

    def join(self, a, b):
        return bool(a) and bool(b)

    def fact_of_argument(self, arg):
        return isinstance(arg, Argument) and "noundef" in arg.attrs

    def fact_of_constant(self, value):
        if isinstance(value, PoisonValue):
            return False
        if isinstance(
            value, (ConstantInt, ConstantFloat, ConstantNull, UndefValue, GlobalRef)
        ):
            return True
        return False

    def _shift_in_bounds(self, inst: BinOp) -> bool:
        ty = inst.type
        if not isinstance(ty, IntType):
            return False
        if isinstance(inst.rhs, ConstantInt):
            return inst.rhs.value < ty.width
        name = getattr(inst.rhs, "name", None)
        fact = self.ranges.get(name) if name is not None else None
        return fact is not None and fact.umax < ty.width

    def transfer(self, inst, env):
        if isinstance(inst, Freeze):
            return True
        if isinstance(inst, Alloca):
            return True
        if isinstance(inst, BinOp):
            if inst.flags:
                return False
            ops_pf = self.value_fact(inst.lhs, env) and self.value_fact(
                inst.rhs, env
            )
            if inst.opcode in _SHIFT_OPS:
                return ops_pf and self._shift_in_bounds(inst)
            return ops_pf
        if isinstance(inst, ICmp):
            return self.value_fact(inst.lhs, env) and self.value_fact(
                inst.rhs, env
            )
        if isinstance(inst, Select):
            return (
                self.value_fact(inst.cond, env)
                and self.value_fact(inst.on_true, env)
                and self.value_fact(inst.on_false, env)
            )
        if isinstance(inst, Cast):
            if inst.opcode in _INT_CASTS:
                return self.value_fact(inst.operand, env)
            if inst.opcode == "bitcast":
                src_ty = getattr(inst.operand, "type", None)
                if isinstance(src_ty, IntType) and isinstance(inst.type, IntType):
                    return self.value_fact(inst.operand, env)
            return False
        return False


def analyze_poison(
    fn: Function, ranges: Optional[Mapping[str, Optional[IntRange]]] = None
) -> Mapping[str, bool]:
    """Poison-free fact per register, read-only; proves shifts with
    ``ranges`` (default: the function's own range facts, in which case a
    sealed function computes the map once)."""
    if ranges is None:
        return fn.fact(
            "poison",
            lambda: MappingProxyType(
                analyze_registers(fn, PoisonAnalysis(analyze_ranges(fn)))
            ),
        )
    return MappingProxyType(analyze_registers(fn, PoisonAnalysis(ranges)))


def returns_poison_free(
    fn: Function, facts: Optional[Dict[str, bool]] = None
) -> bool:
    """True iff every ``ret`` operand of ``fn`` is proven poison-free.

    Vacuously False for void returns or declarations (there is nothing
    to prove a poison-refinement query about).
    """
    if fn.is_declaration:
        return False
    if facts is None:
        facts = analyze_poison(fn)
    analysis = PoisonAnalysis()
    saw_ret = False
    for block in fn.blocks.values():
        term = block.terminator
        if not isinstance(term, Ret) or term.value is None:
            continue
        saw_ret = True
        name = getattr(term.value, "name", None)
        if name is not None:
            if not facts.get(name, False):
                return False
        elif not analysis.fact_of_constant(term.value):
            return False
    return saw_ret
