"""IR verifier/linter: SSA, type, and CFG well-formedness checks.

Errors are properties a sound encoder must be able to assume (defs
dominate uses, phi entries match predecessors, operands have the types
the opcode requires); the verification harness gates on them so
malformed input surfaces as a precise diagnostic instead of an opaque
``EncodeError``/CRASH deep inside the encoder.  Warnings flag suspect
but encodable IR: unreachable blocks and certain-UB/always-poison
instructions like ``udiv %x, 0``.

Also exported as the ``alive-lint`` console script (see ``main``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.cfg import reachable_blocks
from repro.ir.dominators import dominator_tree
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Br,
    Cast,
    FBinOp,
    FCmp,
    Gep,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
)
from repro.ir.module import Module
from repro.ir.types import FloatType, IntType, PointerType, VoidType
from repro.ir.values import ConstantInt, Register, Value

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class LintDiagnostic:
    """One finding; always names the function, block, and instruction."""

    level: str  # ERROR or WARNING
    code: str  # stable machine-readable kind, e.g. "phi-missing-pred"
    function: str
    block: Optional[str]
    instruction: Optional[str]  # printed form of the offending instruction
    message: str

    def __str__(self) -> str:
        where = f"@{self.function}"
        if self.block is not None:
            where += f", block %{self.block}"
        text = f"{self.level}[{self.code}] {where}: {self.message}"
        if self.instruction is not None:
            text += f"\n    --> {self.instruction}"
        return text


@dataclass
class LintStats:
    """Module-level counters; the suite snapshots deltas per test."""

    functions: int = 0
    errors: int = 0
    warnings: int = 0

    def reset(self) -> None:
        self.functions = self.errors = self.warnings = 0


LINT_STATS = LintStats()


class _FunctionLinter:
    def __init__(self, fn: Function, module: Optional[Module] = None):
        self.fn = fn
        self.module = module
        self.diags: List[LintDiagnostic] = []

    def report(
        self,
        level: str,
        code: str,
        message: str,
        block: Optional[str] = None,
        inst: Optional[Instruction] = None,
    ) -> None:
        self.diags.append(
            LintDiagnostic(
                level=level,
                code=code,
                function=self.fn.name,
                block=block,
                instruction=repr(inst) if inst is not None else None,
                message=message,
            )
        )

    # -- CFG shape -----------------------------------------------------------
    def check_cfg(self) -> bool:
        """Structural checks; returns False if the CFG is too broken for
        the dominance pass to run at all."""
        fn = self.fn
        ok = True
        for label in getattr(fn, "duplicate_labels", ()):
            self.report(
                ERROR,
                "dup-block-label",
                f"block label %{label} is defined more than once "
                f"(the later definition silently replaced the earlier one)",
                block=label,
            )
            ok = False
        for label, block in fn.blocks.items():
            if block.terminator is None:
                self.report(
                    ERROR,
                    "no-terminator",
                    f"block %{label} does not end in a terminator",
                    block=label,
                    inst=block.instructions[-1] if block.instructions else None,
                )
                ok = False
            for inst in block.instructions[:-1]:
                if inst.is_terminator():
                    self.report(
                        ERROR,
                        "terminator-position",
                        f"terminator in the middle of block %{label}",
                        block=label,
                        inst=inst,
                    )
                    ok = False
            seen_non_phi = False
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    if seen_non_phi:
                        self.report(
                            ERROR,
                            "phi-position",
                            f"phi after a non-phi instruction in block %{label}",
                            block=label,
                            inst=inst,
                        )
                else:
                    seen_non_phi = True
            for succ in block.successors():
                if succ not in fn.blocks:
                    self.report(
                        ERROR,
                        "bad-target",
                        f"branch targets unknown block %{succ}",
                        block=label,
                        inst=block.terminator,
                    )
                    ok = False
        entry_label = next(iter(self.fn.blocks))
        preds = fn.predecessors()
        if preds[entry_label]:
            self.report(
                ERROR,
                "entry-pred",
                f"entry block %{entry_label} has predecessors "
                f"({', '.join('%' + p for p in preds[entry_label])})",
                block=entry_label,
            )
        for label, block in fn.blocks.items():
            expected = preds[label]
            for phi in block.phis():
                have = [b for _, b in phi.incoming]
                if len(have) != len(expected):
                    self.report(
                        ERROR,
                        "phi-entry-count",
                        f"phi %{phi.name} has {len(have)} incoming "
                        f"entr{'y' if len(have) == 1 else 'ies'} but block "
                        f"%{label} has {len(expected)} predecessor"
                        f"{'' if len(expected) == 1 else 's'}",
                        block=label,
                        inst=phi,
                    )
                for pred in expected:
                    if pred not in have:
                        self.report(
                            ERROR,
                            "phi-missing-pred",
                            f"phi %{phi.name} has no entry for predecessor "
                            f"%{pred} of block %{label}",
                            block=label,
                            inst=phi,
                        )
                seen: set = set()
                for _, b in phi.incoming:
                    if b not in expected:
                        self.report(
                            ERROR,
                            "phi-extra-pred",
                            f"phi %{phi.name} has an entry for %{b}, which is "
                            f"not a predecessor of block %{label}",
                            block=label,
                            inst=phi,
                        )
                    elif b in seen:
                        self.report(
                            ERROR,
                            "phi-duplicate-pred",
                            f"phi %{phi.name} lists predecessor %{b} twice",
                            block=label,
                            inst=phi,
                        )
                    seen.add(b)
        return ok

    # -- SSA form ------------------------------------------------------------
    def check_ssa(self) -> None:
        fn = self.fn
        arg_names = {a.name for a in fn.args}
        def_site: Dict[str, tuple] = {}  # name -> (label, index, inst)
        for label, block in fn.blocks.items():
            for idx, inst in enumerate(block.instructions):
                name = getattr(inst, "name", None)
                if name is None:
                    continue
                if name in arg_names:
                    self.report(
                        ERROR,
                        "duplicate-def",
                        f"%{name} redefines a function argument",
                        block=label,
                        inst=inst,
                    )
                elif name in def_site:
                    self.report(
                        ERROR,
                        "duplicate-def",
                        f"%{name} is defined more than once "
                        f"(first in block %{def_site[name][0]})",
                        block=label,
                        inst=inst,
                    )
                else:
                    def_site[name] = (label, idx, inst)

        reachable = reachable_blocks(fn)
        try:
            dom = dominator_tree(fn)
        except (KeyError, IndexError):  # degenerate CFG already reported
            return

        def check_use(
            name: str, use_label: str, use_idx: int, inst: Instruction
        ) -> None:
            if name in arg_names:
                return
            site = def_site.get(name)
            if site is None:
                self.report(
                    ERROR,
                    "undefined-value",
                    f"use of undefined value %{name}",
                    block=use_label,
                    inst=inst,
                )
                return
            def_label, def_idx, _ = site
            if def_label == use_label:
                dominated = def_idx < use_idx
            elif def_label in reachable and use_label in reachable:
                dominated = dom.dominates(def_label, use_label)
            else:
                return  # unreachable code is only warned about
            if not dominated:
                self.report(
                    ERROR,
                    "dominance",
                    f"use of %{name} in block %{use_label} is not dominated "
                    f"by its definition in block %{def_label}",
                    block=use_label,
                    inst=inst,
                )

        for label, block in fn.blocks.items():
            for idx, inst in enumerate(block.instructions):
                if isinstance(inst, Phi):
                    # A phi use happens on the incoming edge: the def must
                    # dominate the *predecessor* block's exit.
                    for value, pred in inst.incoming:
                        if isinstance(value, Register) and pred in fn.blocks:
                            check_use(
                                value.name,
                                pred,
                                len(fn.blocks[pred].instructions),
                                inst,
                            )
                    continue
                for op in inst.operands:
                    if isinstance(op, Register):
                        check_use(op.name, label, idx, inst)

    # -- types ---------------------------------------------------------------
    def _operand_type(self, value: Value):
        return getattr(value, "type", None)

    def _def_type(self, value: Value):
        """The type ``value``'s definition carries (None if untracked)."""
        if not isinstance(value, Register):
            return None
        cached = getattr(self, "_def_types", None)
        if cached is None:
            cached = {a.name: a.type for a in self.fn.args}
            for block in self.fn.blocks.values():
                for inst in block.instructions:
                    name = getattr(inst, "name", None)
                    ty = getattr(inst, "type", None)
                    if name is not None and ty is not None:
                        cached.setdefault(name, ty)
            self._def_types = cached
        return cached.get(value.name)

    def _type_mismatch(
        self,
        label: str,
        inst: Instruction,
        what: str,
        expected,
        actual,
    ) -> None:
        self.report(
            ERROR,
            "type-mismatch",
            f"{what} has type {actual}, expected {expected}",
            block=label,
            inst=inst,
        )

    def check_types(self) -> None:
        fn = self.fn
        for label, block in fn.blocks.items():
            for inst in block.instructions:
                self._check_inst_types(label, inst)
        self._check_use_def_types()

    def _check_use_def_types(self) -> None:
        """Every register use must carry the type of its definition.

        The parser types a use from its annotation at the use site
        (``add i8 %w`` makes ``%w`` an i8 there), so a def/use width
        mismatch is invisible to the per-instruction checks above.
        """
        fn = self.fn
        def_types = {a.name: a.type for a in fn.args}
        for block in fn.blocks.values():
            for inst in block.instructions:
                name = getattr(inst, "name", None)
                ty = getattr(inst, "type", None)
                if name is not None and ty is not None:
                    def_types.setdefault(name, ty)
        for label, block in fn.blocks.items():
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    uses = [v for v, _ in inst.incoming]
                else:
                    uses = list(inst.operands)
                for op in uses:
                    if not isinstance(op, Register):
                        continue
                    declared = def_types.get(op.name)
                    if declared is not None and op.type != declared:
                        self._type_mismatch(
                            label, inst, f"operand %{op.name}", declared, op.type
                        )

    def _check_inst_types(self, label: str, inst: Instruction) -> None:
        fn = self.fn
        if isinstance(inst, (BinOp, FBinOp)):
            for what, op in (("lhs", inst.lhs), ("rhs", inst.rhs)):
                ty = self._operand_type(op)
                if ty is not None and ty != inst.type:
                    self._type_mismatch(
                        label, inst, f"{inst.opcode} {what} operand", inst.type, ty
                    )
            return
        if isinstance(inst, (ICmp, FCmp)):
            lhs_ty = self._operand_type(inst.lhs)
            rhs_ty = self._operand_type(inst.rhs)
            if lhs_ty is not None and rhs_ty is not None and lhs_ty != rhs_ty:
                self._type_mismatch(
                    label, inst, f"{inst.pred} rhs operand", lhs_ty, rhs_ty
                )
            if isinstance(inst, ICmp):
                if lhs_ty is not None and isinstance(lhs_ty, (FloatType, VoidType)):
                    self._type_mismatch(
                        label, inst, "icmp operand", "integer or pointer", lhs_ty
                    )
            return
        if isinstance(inst, Select):
            cond_ty = self._operand_type(inst.cond)
            if cond_ty is not None and cond_ty != IntType(1):
                self._type_mismatch(label, inst, "select condition", "i1", cond_ty)
            for what, op in (("true", inst.on_true), ("false", inst.on_false)):
                ty = self._operand_type(op)
                if ty is not None and ty != inst.type:
                    self._type_mismatch(
                        label, inst, f"select {what} arm", inst.type, ty
                    )
            return
        if isinstance(inst, Phi):
            for value, pred in inst.incoming:
                ty = self._operand_type(value)
                if ty is not None and ty != inst.type:
                    self._type_mismatch(
                        label, inst, f"phi entry from %{pred}", inst.type, ty
                    )
            return
        if isinstance(inst, Br):
            if inst.cond is not None:
                ty = self._operand_type(inst.cond)
                if ty is not None and ty != IntType(1):
                    self._type_mismatch(label, inst, "branch condition", "i1", ty)
            return
        if isinstance(inst, Switch):
            ty = self._operand_type(inst.value)
            if ty is not None and not isinstance(ty, IntType):
                self._type_mismatch(label, inst, "switch value", "integer", ty)
            return
        if isinstance(inst, Ret):
            want = fn.return_type
            if inst.value is None:
                if not isinstance(want, VoidType):
                    self._type_mismatch(label, inst, "return value", want, "void")
            else:
                ty = self._operand_type(inst.value)
                if isinstance(want, VoidType):
                    self._type_mismatch(label, inst, "return value", "void", ty)
                elif ty is not None and ty != want:
                    self._type_mismatch(label, inst, "return value", want, ty)
            return
        if isinstance(inst, (Load, Store, Gep)):
            ptr = inst.pointer
            # The parser annotates the use site as ptr regardless of the
            # operand's definition, so resolve the defined type first.
            ty = self._def_type(ptr) or self._operand_type(ptr)
            if ty is not None and not isinstance(ty, PointerType):
                if isinstance(inst, Gep):
                    # Dedicated memory-rule code: pointer arithmetic on a
                    # non-pointer has no block provenance at all.
                    self.report(
                        ERROR,
                        "gep-non-pointer",
                        f"gep pointer operand has type {ty}, expected ptr",
                        block=label,
                        inst=inst,
                    )
                else:
                    self._type_mismatch(
                        label, inst, "pointer operand", "ptr", ty
                    )
            if isinstance(inst, Gep):
                for i, idx in enumerate(inst.indices):
                    ity = self._operand_type(idx)
                    if ity is not None and not isinstance(ity, IntType):
                        self._type_mismatch(
                            label, inst, f"gep index {i}", "integer", ity
                        )
            return
        if isinstance(inst, Cast):
            src_ty = self._operand_type(inst.operand)
            if src_ty is None:
                return
            if inst.opcode in ("zext", "sext", "trunc"):
                if not isinstance(src_ty, IntType) or not isinstance(
                    inst.type, IntType
                ):
                    self._type_mismatch(
                        label, inst, f"{inst.opcode} operand", "integer", src_ty
                    )
                elif inst.opcode == "trunc":
                    if inst.type.width > src_ty.width:
                        self._type_mismatch(
                            label,
                            inst,
                            "trunc destination",
                            f"width <= {src_ty.width}",
                            inst.type,
                        )
                elif inst.type.width < src_ty.width:
                    self._type_mismatch(
                        label,
                        inst,
                        f"{inst.opcode} destination",
                        f"width >= {src_ty.width}",
                        inst.type,
                    )
            elif inst.opcode == "bitcast":
                try:
                    src_bits = src_ty.bit_width
                    dst_bits = inst.type.bit_width
                except ValueError:
                    return  # pointer widths are a memory-config choice
                if src_bits != dst_bits:
                    self._type_mismatch(
                        label,
                        inst,
                        "bitcast operand",
                        f"{dst_bits} bits",
                        f"{src_bits} bits",
                    )
            return

    # -- warnings ------------------------------------------------------------
    def check_warnings(self) -> None:
        fn = self.fn
        reachable = reachable_blocks(fn)
        for label, block in fn.blocks.items():
            if label not in reachable:
                self.report(
                    WARNING,
                    "unreachable-block",
                    f"block %{label} is unreachable from the entry",
                    block=label,
                )
            for inst in block.instructions:
                if not isinstance(inst, BinOp):
                    continue
                rhs = inst.rhs
                if not isinstance(rhs, ConstantInt):
                    continue
                if inst.opcode in ("udiv", "urem", "sdiv", "srem") and rhs.value == 0:
                    self.report(
                        WARNING,
                        "div-by-zero",
                        f"{inst.opcode} by constant zero is immediate UB",
                        block=label,
                        inst=inst,
                    )
                elif (
                    inst.opcode in ("shl", "lshr", "ashr")
                    and isinstance(inst.type, IntType)
                    and rhs.value >= inst.type.width
                ):
                    self.report(
                        WARNING,
                        "shift-overflow",
                        f"shift amount {rhs.value} is >= the bit width "
                        f"{inst.type.width}, so the result is always poison",
                        block=label,
                        inst=inst,
                    )

    # -- memory rules (points-to backed) -------------------------------------
    def check_memory(self) -> None:
        """Provenance-based rules over :mod:`repro.analysis.pointsto` facts.

        * ``access-oob`` (ERROR): a load/store whose width exceeds the
          declared size of *every* candidate pointee block — certain UB
          if executed.  Only reported for alloca/global provenance:
          pointer-argument blocks have a model-chosen size
          (``MemoryConfig.arg_block_bytes``), so an overflow there is a
          model artifact, not an IR defect.
        * ``dangling-local`` (WARNING): returning a pointer that can only
          point into the function's own allocas — the blocks' lifetime
          ends at the return, so the caller receives a dangling pointer.
          A warning, not an error: the IR is encodable (the paper's §8.5
          escaped-local scenarios rely on it).
        """
        from repro.analysis.memdf import analyze_memdf
        from repro.semantics.memory import MemoryConfig, build_layout
        from repro.ir.instructions import Alloca

        fn = self.fn
        try:
            pointer_args = [
                a.name for a in fn.args if isinstance(a.type, PointerType)
            ]
            num_allocas = sum(
                1 for i in fn.instructions() if isinstance(i, Alloca)
            )
            globals_ = dict(self.module.globals) if self.module else {}
            layout = build_layout(
                globals_, pointer_args, num_allocas, MemoryConfig()
            )
            mdf = analyze_memdf(fn, layout)
        except Exception:  # noqa: BLE001 — lint must not crash on odd IR
            return
        arg_bids = {
            info.bid
            for info in layout.shared_blocks
            if info.name.startswith("%")
        }
        first_local = layout.first_local_bid()
        for label, block in fn.blocks.items():
            for inst in block.instructions:
                if isinstance(inst, (Load, Store)):
                    fact = mdf.access.get(id(inst))
                    if (
                        fact is not None
                        and fact.oob
                        and fact.pts.bids is not None
                        and not (fact.pts.bids & arg_bids)
                    ):
                        self.report(
                            ERROR,
                            "access-oob",
                            f"{fact.nbytes}-byte access exceeds the "
                            "declared size of every block the pointer "
                            "can reference",
                            block=label,
                            inst=inst,
                        )
                elif isinstance(inst, Ret) and inst.value is not None:
                    fact = mdf.pointer_fact(inst.value)
                    if (
                        isinstance(
                            self._operand_type(inst.value), PointerType
                        )
                        and fact.bids is not None
                        and fact.bids
                        and all(b >= first_local for b in fact.bids)
                    ):
                        self.report(
                            WARNING,
                            "dangling-local",
                            "returned pointer can only reference this "
                            "function's own allocas, whose lifetime ends "
                            "at the return",
                            block=label,
                            inst=inst,
                        )


def lint_function(fn: Function, module: Optional[Module] = None) -> List[LintDiagnostic]:
    """All diagnostics for one function (empty for declarations).

    A sealed function is linted once per distinct set of ``module``
    globals (the only part of the module the rules read); every call
    counts in :data:`LINT_STATS` as if it had linted afresh.
    """
    LINT_STATS.functions += 1
    if fn.is_declaration:
        return []
    diags = fn.fact(("lint", _globals_key(module)), lambda: _lint(fn, module))
    LINT_STATS.errors += sum(1 for d in diags if d.level == ERROR)
    LINT_STATS.warnings += sum(1 for d in diags if d.level == WARNING)
    return list(diags)


def _globals_key(module: Optional[Module]) -> Optional[tuple]:
    """What ``check_memory``'s layout reads of the module's globals."""
    if module is None:
        return None
    return tuple(
        (name, g.value_type, g.is_constant)
        for name, g in sorted(module.globals.items())
    )


def _lint(fn: Function, module: Optional[Module]) -> Tuple[LintDiagnostic, ...]:
    linter = _FunctionLinter(fn, module)
    cfg_ok = linter.check_cfg()
    if cfg_ok:
        linter.check_ssa()
    linter.check_types()
    linter.check_warnings()
    if cfg_ok and not any(d.level == ERROR for d in linter.diags):
        # The provenance rules run the dataflow solver; only meaningful
        # (and safe) on IR that already passed the structural checks.
        linter.check_memory()
    return tuple(linter.diags)


def lint_module(module: Module) -> List[LintDiagnostic]:
    out: List[LintDiagnostic] = []
    for fn in module.functions.values():
        out.extend(lint_function(fn, module))
    return out


def errors_only(diags: List[LintDiagnostic]) -> List[LintDiagnostic]:
    return [d for d in diags if d.level == ERROR]


# -- console entry point (`alive-lint`) ---------------------------------------


def _lint_corpus() -> int:
    from repro.ir.parser import parse_module
    from repro.suite.unittests import build_corpus

    failures = 0
    for test in build_corpus():
        diags = lint_module(parse_module(test.ir))
        for diag in diags:
            print(f"{test.name}: {diag}")
        failures += sum(1 for d in diags if d.level == ERROR)
    print(
        f"linted {LINT_STATS.functions} functions: "
        f"{LINT_STATS.errors} errors, {LINT_STATS.warnings} warnings"
    )
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alive-lint",
        description="Static well-formedness checks for the IR dialect "
        "(SSA dominance, types, CFG shape).",
    )
    parser.add_argument("files", nargs="*", help="IR files to lint")
    parser.add_argument(
        "--corpus",
        action="store_true",
        help="lint the generated unit-test corpus instead of files",
    )
    parser.add_argument(
        "--werror",
        action="store_true",
        help="treat warnings as errors for the exit code",
    )
    args = parser.parse_args(argv)
    if not args.files and not args.corpus:
        parser.error("nothing to lint: pass IR files or --corpus")

    status = 0
    if args.corpus:
        status = max(status, _lint_corpus())
    if args.files:
        from repro.ir.parser import ParseError, parse_module

        for path in args.files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    module = parse_module(handle.read())
            except (OSError, ParseError) as exc:
                print(f"{path}: error: {exc}")
                status = 1
                continue
            for diag in lint_module(module):
                print(f"{path}: {diag}")
                if diag.level == ERROR or args.werror:
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
