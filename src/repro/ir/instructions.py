"""IR instructions.

Every instruction is a small dataclass; operands are :class:`Value`
objects (constants or :class:`Register` references).  Instructions with a
result carry their result register name in ``name`` and type in ``type``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.types import Type
from repro.ir.values import Value

INT_BINOPS = {
    "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
    "shl", "lshr", "ashr", "and", "or", "xor",
}
FP_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}
ICMP_PREDS = {"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"}
FCMP_PREDS = {
    "false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
    "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true",
}
CAST_OPS = {"zext", "sext", "trunc", "bitcast", "ptrtoint", "inttoptr",
            "fpext", "fptrunc", "fptoui", "fptosi", "uitofp", "sitofp"}
FAST_MATH_FLAGS = {"nnan", "ninf", "nsz", "arcp", "contract", "afn", "reassoc", "fast"}


class Instruction:
    """Base class; concrete instructions are dataclasses below.

    Instructions that produce a value have ``name`` (result register) and
    ``type`` attributes; use ``getattr(inst, "name", None)`` for the rest.
    """

    @property
    def operands(self) -> List[Value]:
        return []

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        """Rewrite register operands in place using name -> Value."""
        raise NotImplementedError

    def is_terminator(self) -> bool:
        return False

    def clone(self) -> "Instruction":
        """A structural copy that shares operands, types and flag sets.

        Values, types and frozensets are immutable, so the only state an
        instruction could share by accident is a list: phi incoming,
        switch cases, call args, gep/extract/insert indices, the shuffle
        mask.  Every list-valued field gets a fresh list; every other
        field is shared with the original.
        """
        cls = self.__class__
        new = cls.__new__(cls)
        fields = dict(self.__dict__)
        for key, value in fields.items():
            if value.__class__ is list:
                fields[key] = value[:]
        new.__dict__ = fields
        return new

    def __repr__(self) -> str:
        from repro.ir.printer import print_instruction

        return print_instruction(self)


def _subst(value: Value, mapping: Dict[str, Value]) -> Value:
    from repro.ir.values import ConstantAggregate, Register

    if isinstance(value, Register) and value.name in mapping:
        return mapping[value.name]
    if isinstance(value, ConstantAggregate):
        new_elems = tuple(_subst(e, mapping) for e in value.elems)
        if new_elems != value.elems:
            return ConstantAggregate(value.type, new_elems)
    return value


@dataclass(repr=False)
class BinOp(Instruction):
    name: str
    opcode: str  # one of INT_BINOPS
    type: Type
    lhs: Value
    rhs: Value
    flags: frozenset = frozenset()  # subset of {nsw, nuw, exact}

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)


@dataclass(repr=False)
class FBinOp(Instruction):
    name: str
    opcode: str  # one of FP_BINOPS
    type: Type
    lhs: Value
    rhs: Value
    fmf: frozenset = frozenset()  # fast-math flags

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)


@dataclass(repr=False)
class FNeg(Instruction):
    name: str
    type: Type
    operand: Value
    fmf: frozenset = frozenset()

    @property
    def operands(self) -> List[Value]:
        return [self.operand]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.operand = _subst(self.operand, mapping)


@dataclass(repr=False)
class ICmp(Instruction):
    name: str
    pred: str
    type: Type  # result type: i1 or vector of i1
    lhs: Value
    rhs: Value

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)


@dataclass(repr=False)
class FCmp(Instruction):
    name: str
    pred: str
    type: Type
    lhs: Value
    rhs: Value
    fmf: frozenset = frozenset()

    @property
    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)


@dataclass(repr=False)
class Select(Instruction):
    name: str
    type: Type
    cond: Value
    on_true: Value
    on_false: Value

    @property
    def operands(self) -> List[Value]:
        return [self.cond, self.on_true, self.on_false]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.cond = _subst(self.cond, mapping)
        self.on_true = _subst(self.on_true, mapping)
        self.on_false = _subst(self.on_false, mapping)


@dataclass(repr=False)
class Freeze(Instruction):
    name: str
    type: Type
    operand: Value

    @property
    def operands(self) -> List[Value]:
        return [self.operand]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.operand = _subst(self.operand, mapping)


@dataclass(repr=False)
class Cast(Instruction):
    name: str
    opcode: str  # one of CAST_OPS
    type: Type  # destination type
    operand: Value

    @property
    def operands(self) -> List[Value]:
        return [self.operand]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.operand = _subst(self.operand, mapping)


@dataclass(repr=False)
class Phi(Instruction):
    name: str
    type: Type
    # list of (value, predecessor block label)
    incoming: List[Tuple[Value, str]] = field(default_factory=list)

    @property
    def operands(self) -> List[Value]:
        return [v for v, _ in self.incoming]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.incoming = [(_subst(v, mapping), b) for v, b in self.incoming]


@dataclass(repr=False)
class Br(Instruction):
    """Conditional or unconditional branch."""

    cond: Optional[Value]  # None for unconditional
    true_label: str
    false_label: Optional[str] = None

    def is_terminator(self) -> bool:
        return True

    @property
    def operands(self) -> List[Value]:
        return [] if self.cond is None else [self.cond]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        if self.cond is not None:
            self.cond = _subst(self.cond, mapping)

    def successors(self) -> List[str]:
        if self.cond is None:
            return [self.true_label]
        return [self.true_label, self.false_label]  # type: ignore[list-item]


@dataclass(repr=False)
class Switch(Instruction):
    value: Value
    default_label: str
    cases: List[Tuple[Value, str]] = field(default_factory=list)

    def is_terminator(self) -> bool:
        return True

    @property
    def operands(self) -> List[Value]:
        return [self.value] + [v for v, _ in self.cases]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.value = _subst(self.value, mapping)

    def successors(self) -> List[str]:
        return [self.default_label] + [label for _, label in self.cases]


@dataclass(repr=False)
class Ret(Instruction):
    value: Optional[Value] = None  # None for `ret void`

    def is_terminator(self) -> bool:
        return True

    @property
    def operands(self) -> List[Value]:
        return [] if self.value is None else [self.value]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        if self.value is not None:
            self.value = _subst(self.value, mapping)

    def successors(self) -> List[str]:
        return []


@dataclass(repr=False)
class Unreachable(Instruction):
    def is_terminator(self) -> bool:
        return True

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        pass

    def successors(self) -> List[str]:
        return []


@dataclass(repr=False)
class Alloca(Instruction):
    name: str
    allocated_type: Type
    align: int = 1
    type: Type = None  # type: ignore[assignment]  # set to ptr in __post_init__

    def __post_init__(self) -> None:
        from repro.ir.types import PTR

        if self.type is None:
            self.type = PTR

    @property
    def operands(self) -> List[Value]:
        return []

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        pass


@dataclass(repr=False)
class Load(Instruction):
    name: str
    type: Type  # loaded type
    pointer: Value
    align: int = 1

    @property
    def operands(self) -> List[Value]:
        return [self.pointer]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.pointer = _subst(self.pointer, mapping)


@dataclass(repr=False)
class Store(Instruction):
    value: Value
    pointer: Value
    align: int = 1

    @property
    def operands(self) -> List[Value]:
        return [self.value, self.pointer]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.value = _subst(self.value, mapping)
        self.pointer = _subst(self.pointer, mapping)


@dataclass(repr=False)
class Gep(Instruction):
    """Pointer arithmetic: `gep [inbounds] <ty>, ptr %p, i<N> %idx, ...`."""

    name: str
    source_type: Type
    pointer: Value
    indices: List[Value]
    inbounds: bool = False
    type: Type = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        from repro.ir.types import PTR

        if self.type is None:
            self.type = PTR

    @property
    def operands(self) -> List[Value]:
        return [self.pointer] + list(self.indices)

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.pointer = _subst(self.pointer, mapping)
        self.indices = [_subst(i, mapping) for i in self.indices]


@dataclass(repr=False)
class Call(Instruction):
    name: Optional[str]  # None if the result is unused / void
    type: Type  # return type
    callee: str
    args: List[Value] = field(default_factory=list)
    attrs: frozenset = frozenset()  # e.g. {"noreturn", "readnone", "willreturn"}

    @property
    def operands(self) -> List[Value]:
        return list(self.args)

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.args = [_subst(a, mapping) for a in self.args]


@dataclass(repr=False)
class ExtractElement(Instruction):
    name: str
    type: Type
    vector: Value
    index: Value

    @property
    def operands(self) -> List[Value]:
        return [self.vector, self.index]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.vector = _subst(self.vector, mapping)
        self.index = _subst(self.index, mapping)


@dataclass(repr=False)
class InsertElement(Instruction):
    name: str
    type: Type
    vector: Value
    element: Value
    index: Value

    @property
    def operands(self) -> List[Value]:
        return [self.vector, self.element, self.index]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.vector = _subst(self.vector, mapping)
        self.element = _subst(self.element, mapping)
        self.index = _subst(self.index, mapping)


@dataclass(repr=False)
class ExtractValue(Instruction):
    """extractvalue <aggregate-ty> %agg, <idx>, ... (constant indices)."""

    name: str
    type: Type  # result element type
    aggregate: Value
    indices: List[int] = field(default_factory=list)

    @property
    def operands(self) -> List[Value]:
        return [self.aggregate]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.aggregate = _subst(self.aggregate, mapping)


@dataclass(repr=False)
class InsertValue(Instruction):
    """insertvalue <aggregate-ty> %agg, <elem-ty> %v, <idx>, ..."""

    name: str
    type: Type  # aggregate type
    aggregate: Value
    element: Value
    indices: List[int] = field(default_factory=list)

    @property
    def operands(self) -> List[Value]:
        return [self.aggregate, self.element]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.aggregate = _subst(self.aggregate, mapping)
        self.element = _subst(self.element, mapping)


@dataclass(repr=False)
class ShuffleVector(Instruction):
    name: str
    type: Type
    v1: Value
    v2: Value
    mask: List[Optional[int]]  # None encodes an undef mask element

    @property
    def operands(self) -> List[Value]:
        return [self.v1, self.v2]

    def replace_operands(self, mapping: Dict[str, Value]) -> None:
        self.v1 = _subst(self.v1, mapping)
        self.v2 = _subst(self.v2, mapping)
