"""Functions and basic blocks."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, TypeVar

from repro.ir.instructions import Instruction, Phi
from repro.ir.types import Type
from repro.ir.values import Argument

T = TypeVar("T")


@dataclass
class BasicBlock:
    """A labelled straight-line sequence ending in a terminator."""

    label: str
    instructions: List[Instruction] = field(default_factory=list)
    # Set by Function.seal(): the instruction list is then a tuple and no
    # field can be reassigned.
    _sealed: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: object) -> None:
        if self._sealed:
            raise AttributeError(f"block %{self.label} is sealed; mutate a clone()")
        object.__setattr__(self, name, value)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def phis(self) -> List[Phi]:
        out = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                out.append(inst)
            else:
                break
        return out

    def non_phi_instructions(self) -> List[Instruction]:
        return [i for i in self.instructions if not isinstance(i, Phi)]

    def successors(self) -> List[str]:
        term = self.terminator
        if term is None:
            return []
        return term.successors()  # type: ignore[attr-defined]

    def clone(self) -> "BasicBlock":
        return BasicBlock(self.label, [inst.clone() for inst in self.instructions])


@dataclass
class Function:
    """A function definition (or declaration when ``blocks`` is empty)."""

    name: str
    return_type: Type
    args: List[Argument] = field(default_factory=list)
    blocks: "Dict[str, BasicBlock]" = field(default_factory=dict)  # ordered
    attrs: frozenset = frozenset()  # e.g. {"mustprogress", "noreturn"}
    # Labels of unroll sink blocks (§7): execution must not reach these;
    # their reachability is negated into the function's precondition.
    sink_labels: set = field(default_factory=set)
    # Labels the parser saw more than once.  ``blocks`` is a dict, so a
    # repeated label silently replaces the earlier block; the parser
    # records the collision here for the lint gate (``dup-block-label``)
    # instead of guessing which of the two bodies was meant.
    duplicate_labels: List[str] = field(default_factory=list)
    # The facts memo of a sealed function; None while it may change.
    _facts: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: object) -> None:
        if self._facts is not None:
            raise AttributeError(f"@{self.name} is sealed; mutate a clone()")
        object.__setattr__(self, name, value)

    def seal(self) -> "Function":
        """Make this function read-only and give it a facts memo; returns it.

        ``blocks`` becomes a read-only mapping, each block's instructions a
        tuple, the label collections and arguments tuples and frozensets,
        and no field of the function or of a block can be reassigned.
        Instructions are shared, not frozen: whoever reads a sealed
        function must not mutate them.  A ``clone()`` comes back unsealed.

        On a sealed function, :meth:`fact` computes each analysis result
        once (CFG orderings, lint diagnostics, points-to and memory
        dataflow facts, ...); the pass manager seals every snapshot, so
        each function version is analysed once however many refinement
        pairs read it.  (Named ``seal``, not ``freeze``, which is an IR
        instruction.)
        """
        if self._facts is None:
            for block in self.blocks.values():
                block.instructions = tuple(block.instructions)
                object.__setattr__(block, "_sealed", True)
            self.args = tuple(self.args)
            self.blocks = MappingProxyType(self.blocks)
            self.sink_labels = frozenset(self.sink_labels)
            self.duplicate_labels = tuple(self.duplicate_labels)
            object.__setattr__(self, "_facts", {})
        return self

    @property
    def sealed(self) -> bool:
        return self._facts is not None

    def fact(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, memoized under ``key`` when the function is sealed.

        Unsealed functions are analysed afresh on every call.  A fact must
        be immutable (every caller shares it) and must not hold the
        function strongly, so a function and its facts die together by
        reference counting.
        """
        facts = self._facts
        if facts is None:
            return compute()
        value = facts.get(key, _MISSING)
        if value is _MISSING:
            value = facts[key] = compute()
        return value

    def clone(self) -> "Function":
        """A structural copy: every block, instruction, argument and label
        collection is new; frozen values, types and attribute sets are
        shared with the original.  The copy is unsealed."""
        return Function(
            self.name,
            self.return_type,
            [replace(arg) for arg in self.args],
            {label: block.clone() for label, block in self.blocks.items()},
            self.attrs,
            set(self.sink_labels),
            list(self.duplicate_labels),
        )

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        return next(iter(self.blocks.values()))

    def block_list(self) -> List[BasicBlock]:
        return list(self.blocks.values())

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks.values():
            yield from block.instructions

    def defined_names(self) -> Dict[str, Instruction]:
        """Map of result register name -> defining instruction."""
        out: Dict[str, Instruction] = {}
        for inst in self.instructions():
            name = getattr(inst, "name", None)
            if name is not None:
                out[name] = inst
        return out

    def predecessors(self) -> Mapping[str, Sequence[str]]:
        """Block label -> predecessor labels, in block order.

        A fresh dict of lists; on a sealed function, one memoized
        read-only map of tuples.
        """
        if self._facts is None:
            return self._predecessors()
        return self.fact(
            "predecessors",
            lambda: MappingProxyType(
                {label: tuple(p) for label, p in self._predecessors().items()}
            ),
        )

    def _predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {label: [] for label in self.blocks}
        for label, block in self.blocks.items():
            for succ in block.successors():
                if succ in preds:
                    preds[succ].append(label)
        return preds

    def fresh_register(self, hint: str = "t") -> str:
        """A register name not used by any instruction or argument."""
        used = set(self.defined_names())
        used.update(a.name for a in self.args)
        i = 0
        while f"{hint}.{i}" in used:
            i += 1
        return f"{hint}.{i}"

    def fresh_label(self, hint: str) -> str:
        i = 0
        label = hint
        while label in self.blocks:
            label = f"{hint}.{i}"
            i += 1
        return label

    def __str__(self) -> str:
        from repro.ir.printer import print_function

        return print_function(self)


_MISSING = object()
