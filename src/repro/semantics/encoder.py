"""Encoding of IR functions into SMT (§3 of the Alive2 paper).

The encoder works on the unrolled, loop-free CFG: one forward pass in
reverse postorder computes, per basic block, a *domain* (path condition),
a memory state, and symbolic values for every register.  Undefined
behaviour, noreturn exits, and unroll-sink reachability are accumulated
as disjunctions over path conditions.

Undef values follow §3.3: every register's value carries the set of its
quantified undef variables, and each *use* renames them to fresh
variables; ``freeze`` clears the set.  The per-register ``varies`` bit
implements the closed-form undef detection of §3.7 (used for
branch-on-undef UB and the return-undef refinement query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.pointsto import assign_alloca_bids
from repro.harness.deadline import Deadline
from repro.ir.cfg import remove_unreachable_blocks, reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    ExtractElement,
    ExtractValue,
    FBinOp,
    FCmp,
    FNeg,
    Freeze,
    Gep,
    ICmp,
    InsertElement,
    InsertValue,
    Load,
    Phi,
    Ret,
    Select,
    ShuffleVector,
    Store,
    Switch,
    Unreachable,
)
from repro.ir.module import Module
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    VectorType,
    VoidType,
    byte_size,
)
from repro.ir.unroll import UnrollError, unroll_function
from repro.ir.values import (
    ConstantAggregate,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalRef,
    PoisonValue,
    Register,
    UndefValue,
    Value,
)
from repro.semantics import softfloat as sf
from repro.semantics.memory import (
    MemoryConfig,
    MemoryLayout,
    SymByte,
    SymMemory,
    build_layout,
)
from repro.semantics.value import SymAggregate, SymValue
from repro.smt.exists_forall import QuantVar
from repro.smt.terms import (
    FALSE,
    TRUE,
    BoolTerm,
    BvTerm,
    bool_and,
    bool_ite,
    bool_not,
    bool_or,
    bool_to_bv,
    bv_add,
    bv_and,
    bv_ashr,
    bv_concat,
    bv_const,
    bv_eq,
    bv_extract,
    bv_ite,
    bv_lshr,
    bv_mul,
    bv_or,
    bv_sdiv,
    bv_sext,
    bv_shl,
    bv_sle,
    bv_slt,
    bv_srem,
    bv_sub,
    bv_udiv,
    bv_ule,
    bv_ult,
    bv_urem,
    bv_var,
    bv_xor,
    bv_zext,
    fresh_name,
    substitute,
)


class EncodeError(Exception):
    """Raised for features the encoder does not support (§3.8)."""

    def __init__(self, feature: str) -> None:
        super().__init__(f"unsupported feature: {feature}")
        self.feature = feature


@dataclass
class CallRecord:
    """One call site, for the §6 pairing constraints."""

    callee: str
    dom: BoolTerm
    args: List[SymValue]
    result: Optional[SymValue]
    out_value_name: Optional[str]
    out_poison_name: Optional[str]
    writes_memory: bool
    reads_memory: bool
    index: int
    # min/max number of preceding calls to the same callee (the §6
    # quadratic-pruning dataflow fact).
    min_prior: int = 0
    max_prior: int = 0
    # Memory havoc variables: (bid, byte offset) -> (value var, poison var).
    havoc: Dict[Tuple[int, int], Tuple[str, str]] = field(default_factory=dict)


@dataclass
class EncodedFunction:
    """The SMT summary of one function (its final state, §3.6)."""

    fn: Function
    prefix: str
    layout: MemoryLayout
    ret_value: Optional[object]  # SymValue | SymAggregate | None
    ret_domain: BoolTerm = TRUE
    ub: BoolTerm = FALSE
    noreturn: BoolTerm = FALSE
    sink: BoolTerm = FALSE
    pre: BoolTerm = TRUE
    undef_vars: List[QuantVar] = field(default_factory=list)
    nondet_vars: List[QuantVar] = field(default_factory=list)
    final_memory: Optional[SymMemory] = None
    calls: List[CallRecord] = field(default_factory=list)
    approx_vars: Set[str] = field(default_factory=set)
    origin: Dict[str, str] = field(default_factory=dict)
    # Final symbolic value per SSA register (SymValue | SymAggregate):
    # consumed by the relational analysis to translate IR-level
    # congruence into term-level union seeds for the e-graph rung.
    regs: Dict[str, object] = field(default_factory=dict)

    @property
    def nondet_all(self) -> List[QuantVar]:
        return self.undef_vars + self.nondet_vars


def encode_function(
    fn: Function,
    module: Module,
    prefix: str,
    layout: Optional[MemoryLayout] = None,
    unroll_factor: int = 4,
    config: Optional[MemoryConfig] = None,
) -> EncodedFunction:
    """Encode ``fn`` (a definition in ``module``) into an SMT summary.

    ``prefix`` namespaces function-local variables ("src"/"tgt"); the
    function arguments and global contents use shared (unprefixed) names
    so a source/target pair meets on the same inputs.
    """
    work = fn.clone()
    try:
        unroll_function(work, unroll_factor)
    except UnrollError as exc:
        raise EncodeError("irreducible-loop") from exc
    remove_unreachable_blocks(work)
    if layout is None:
        pointer_args = [
            a.name for a in work.args if isinstance(a.type, PointerType)
        ]
        num_allocas = sum(
            1 for inst in work.instructions() if isinstance(inst, Alloca)
        )
        layout = build_layout(module.globals, pointer_args, num_allocas, config)
    return _Encoder(work, module, prefix, layout).encode()


class _Encoder:
    def __init__(
        self,
        fn: Function,
        module: Module,
        prefix: str,
        layout: MemoryLayout,
        deadline: Optional[Deadline] = None,
        fold_known_bits: bool = False,
        memdf=None,
    ) -> None:
        self.fn = fn
        self.module = module
        self.prefix = prefix
        self.layout = layout
        self.deadline = deadline
        self.fold_known_bits = fold_known_bits
        # Memory dataflow facts (repro.analysis.memdf.MemDF) for this
        # function, or None: enables pruning the per-access ite chains
        # over blocks a points-to fact excludes.
        self.memdf = memdf
        self.regs: Dict[str, object] = {}
        self.reg_used: Set[str] = set()
        self.undef_vars: List[QuantVar] = []
        self.nondet_vars: List[QuantVar] = []
        self.pre_terms: List[BoolTerm] = [TRUE]
        self.ub_terms: List[BoolTerm] = []
        self.noret_terms: List[BoolTerm] = []
        self.sink_terms: List[BoolTerm] = []
        self.ret_records: List[Tuple[BoolTerm, Optional[object], SymMemory]] = []
        self.calls: List[CallRecord] = []
        self.approx_vars: Set[str] = set()
        self.origin: Dict[str, str] = {}
        self._undef_width: Dict[str, int] = {}  # undef_vars, by name
        self._alloca_bids = assign_alloca_bids(fn, layout)
        self._call_counts: Dict[str, int] = {}
        self._cur_name: Optional[str] = None

    # -- fresh variables --------------------------------------------------------
    def _fresh_undef(self, width: int, origin: Optional[str] = None) -> BvTerm:
        name = fresh_name(f"{self.prefix}.undef")
        self.undef_vars.append(QuantVar(name, width))
        self._undef_width[name] = width
        if origin is not None:
            self.origin[name] = origin
        return bv_var(name, width)

    def _fresh_nondet(self, width: int, tag: str = "nd") -> BvTerm:
        name = fresh_name(f"{self.prefix}.{tag}")
        self.nondet_vars.append(QuantVar(name, width))
        self.origin[name] = tag
        return bv_var(name, width)

    # -- argument encoding (§3.2) -------------------------------------------------
    def _scalar_width(self, ty: Type) -> int:
        if isinstance(ty, PointerType):
            return self.layout.ptr_bits
        return ty.bit_width

    def _encode_argument(self, name: str, ty: Type, attrs: frozenset) -> object:
        from repro.smt.terms import bool_var

        if isinstance(ty, (VectorType, ArrayType)):
            elems = tuple(
                self._encode_argument(f"{name}.e{i}", ty.elem, attrs)
                for i in range(ty.count)
            )
            return SymAggregate(elems)  # type: ignore[arg-type]
        if isinstance(ty, StructType):
            elems = tuple(
                self._encode_argument(f"{name}.f{i}", field_ty, attrs)
                for i, field_ty in enumerate(ty.fields)
            )
            return SymAggregate(elems)  # type: ignore[arg-type]
        width = self._scalar_width(ty)
        value = bv_var(f"arg_{name}", width)  # shared input
        isundef = bool_var(f"isundef_{name}")  # shared input
        ispoison = bool_var(f"ispoison_{name}")  # shared input
        undef = self._fresh_undef(width, origin=f"argundef_{name}")
        expr = bv_ite(isundef, undef, value)
        sv = SymValue(expr, ispoison, frozenset({undef.payload}), isundef)
        if "noundef" in attrs:
            self.ub_terms.append(bool_or(isundef, ispoison))
        if "nonnull" in attrs and isinstance(ty, PointerType):
            zero = bv_const(0, width)
            self.pre_terms.append(bool_not(bv_eq(value, zero)))
        if isinstance(ty, PointerType):
            # Constrain the defined value to null or the argument's block
            # at a caller-chosen offset (our pointer args do not alias each
            # other or globals; see DESIGN.md).
            block = self._block_for_arg(name)
            if block is None:
                # Element of an aggregate-of-pointers: unsupported for now.
                raise EncodeError("aggregate-of-pointers")
            bid = bv_extract(
                value, width - 1, self.layout.config.off_bits
            )
            valid = bool_or(
                bv_eq(value, bv_const(0, width)),
                bv_eq(bid, bv_const(block, bid.width)),
            )
            self.pre_terms.append(valid)
        return sv

    def _block_for_arg(self, name: str) -> Optional[int]:
        for info in self.layout.shared_blocks:
            if info.name == f"%{name}":
                return info.bid
        return None

    # -- operand reading (undef renaming, §3.3) -----------------------------------
    def _read(self, value: Value) -> object:
        if isinstance(value, Register):
            sv = self.regs.get(value.name)
            if sv is None:
                raise EncodeError(f"undefined-register-{value.name}")
            if value.name in self.reg_used:
                sv = self._rename_undef(sv)
            else:
                self.reg_used.add(value.name)
            return sv
        if isinstance(value, ConstantInt):
            return SymValue(bv_const(value.value, value.type.width))
        if isinstance(value, ConstantFloat):
            return SymValue(bv_const(value.bits, value.type.bit_width))
        if isinstance(value, ConstantNull):
            return SymValue(bv_const(0, self.layout.ptr_bits))
        if isinstance(value, PoisonValue):
            return self._poison_of_type(value.type)
        if isinstance(value, UndefValue):
            return self._undef_of_type(value.type)
        if isinstance(value, ConstantAggregate):
            return SymAggregate(tuple(self._read(e) for e in value.elems))
        if isinstance(value, GlobalRef):
            bid = self._bid_of_global(value.name)
            return SymValue(
                bv_concat(
                    bv_const(bid, self.layout.bid_bits),
                    bv_const(0, self.layout.config.off_bits),
                )
            )
        raise EncodeError(f"operand-{type(value).__name__}")

    def _bid_of_global(self, name: str) -> int:
        for info in self.layout.shared_blocks:
            if info.name == f"@{name}":
                return info.bid
        raise EncodeError(f"unknown-global-{name}")

    def _poison_of_type(self, ty: Type) -> object:
        if isinstance(ty, (VectorType, ArrayType)):
            return SymAggregate(
                tuple(self._poison_of_type(ty.elem) for _ in range(ty.count))
            )
        if isinstance(ty, StructType):
            return SymAggregate(
                tuple(self._poison_of_type(f) for f in ty.fields)
            )
        return SymValue(bv_const(0, self._scalar_width(ty)), TRUE)

    def _undef_of_type(self, ty: Type) -> object:
        if isinstance(ty, (VectorType, ArrayType)):
            return SymAggregate(
                tuple(self._undef_of_type(ty.elem) for _ in range(ty.count))
            )
        if isinstance(ty, StructType):
            return SymAggregate(
                tuple(self._undef_of_type(f) for f in ty.fields)
            )
        u = self._fresh_undef(self._scalar_width(ty))
        return SymValue(u, FALSE, frozenset({u.payload}), TRUE)

    def _rename_undef(self, sv: object) -> object:
        if isinstance(sv, SymAggregate):
            return SymAggregate(tuple(self._rename_undef(e) for e in sv.elems))
        assert isinstance(sv, SymValue)
        sv = sv.normalized()
        if not sv.undef_vars:
            return sv
        mapping: Dict[str, BvTerm] = {}
        new_names = set()
        for name in sv.undef_vars:
            fresh = self._fresh_undef(
                self._undef_width[name], origin=self.origin.get(name)
            )
            mapping[name] = fresh
            new_names.add(fresh.payload)
        return SymValue(
            substitute(sv.expr, mapping),
            substitute(sv.poison, mapping),
            frozenset(new_names),
            sv.varies,
        )

    # -- main walk ------------------------------------------------------------------
    def encode(self) -> EncodedFunction:
        fn = self.fn
        for arg in fn.args:
            self.regs[arg.name] = self._encode_argument(arg.name, arg.type, arg.attrs)

        order = reverse_postorder(fn)
        dom: Dict[str, BoolTerm] = {label: FALSE for label in order}
        dom[order[0]] = TRUE
        edge_cond: Dict[Tuple[str, str], BoolTerm] = {}
        mem_out: Dict[str, SymMemory] = {}
        init_mem = SymMemory.initial(self.layout, self.module.globals, self.prefix)
        predecessors = fn.predecessors()

        for label in order:
            # Cooperative checkpoint: unrolled functions can have thousands
            # of blocks, and encoding must stay inside the job deadline.
            if self.deadline is not None:
                self.deadline.check("encode")
            block = fn.blocks[label]
            block_dom = dom[label]
            # Merge memory from predecessors.
            preds = [
                p
                for p in predecessors[label]
                if p in mem_out and (p, label) in edge_cond
            ]
            if not preds:
                mem = init_mem.clone()
            else:
                mem = mem_out[preds[0]].clone()
                for p in preds[1:]:
                    cond = bool_and(dom[p], edge_cond[(p, label)])
                    mem = SymMemory.merge(cond, mem_out[p].clone(), mem)
            if label in fn.sink_labels:
                self.sink_terms.append(block_dom)
                mem_out[label] = mem
                continue
            # Phi nodes first (they read on the incoming edges).
            for phi in block.phis():
                self.regs[phi.name] = self._encode_phi(phi, label, dom, edge_cond)
                self._fold_reg(phi.name)
            alive = block_dom
            for inst in block.non_phi_instructions():
                if inst.is_terminator():
                    self._encode_terminator(
                        inst, label, alive, dom, edge_cond, mem
                    )
                    break
                alive = self._encode_instruction(inst, alive, mem)
                self._fold_reg(getattr(inst, "name", None))
                if alive is FALSE:
                    break
            mem_out[label] = mem

        return self._finalize(init_mem)

    def _finalize(self, init_mem: SymMemory) -> EncodedFunction:
        ub = bool_or(*self.ub_terms) if self.ub_terms else FALSE
        noreturn = bool_or(*self.noret_terms) if self.noret_terms else FALSE
        sink = bool_or(*self.sink_terms) if self.sink_terms else FALSE
        pre = bool_and(*self.pre_terms)

        ret_value: Optional[object] = None
        ret_domain = FALSE
        final_memory: Optional[SymMemory] = None
        for dom_b, value, mem in self.ret_records:
            ret_domain = bool_or(ret_domain, dom_b)
            if final_memory is None:
                final_memory = mem
                ret_value = value
            else:
                final_memory = SymMemory.merge(dom_b, mem, final_memory)
                if value is not None:
                    ret_value = _merge_values(dom_b, value, ret_value)
        if final_memory is None:
            final_memory = init_mem

        return EncodedFunction(
            fn=self.fn,
            prefix=self.prefix,
            layout=self.layout,
            ret_value=ret_value,
            ret_domain=ret_domain,
            ub=ub,
            noreturn=noreturn,
            sink=sink,
            pre=pre,
            undef_vars=self.undef_vars,
            nondet_vars=self.nondet_vars,
            final_memory=final_memory,
            calls=self.calls,
            approx_vars=self.approx_vars,
            origin=self.origin,
            regs=dict(self.regs),
        )

    # -- phi ------------------------------------------------------------------------
    def _encode_phi(
        self,
        phi: Phi,
        label: str,
        dom: Dict[str, BoolTerm],
        edge_cond: Dict[Tuple[str, str], BoolTerm],
    ) -> object:
        """``phi`` of block ``label``: its incoming values merged under
        the conditions of their edges into ``label``."""
        result: Optional[object] = None
        for value, pred in phi.incoming:
            cond = bool_and(dom.get(pred, FALSE), edge_cond.get((pred, label), FALSE))
            if cond is FALSE:
                continue
            sv = self._read(value)
            sv = _coerce_shape(sv, phi.type, self)
            if result is None:
                result = sv
            else:
                result = _merge_values(cond, sv, result)
        if result is None:
            result = self._poison_of_type(phi.type)
        return result

    # -- terminators ------------------------------------------------------------------
    def _encode_terminator(
        self,
        inst,
        label: str,
        alive: BoolTerm,
        dom: Dict[str, BoolTerm],
        edge_cond: Dict[Tuple[str, str], BoolTerm],
        mem: SymMemory,
    ) -> None:
        if isinstance(inst, Ret):
            value = None
            if inst.value is not None:
                value = self._read(inst.value)
            self.ret_records.append((alive, value, mem.clone()))
            return
        if isinstance(inst, Br):
            if inst.cond is None:
                self._add_edge(label, inst.true_label, TRUE, alive, dom, edge_cond)
                return
            sv = self._read(inst.cond)
            assert isinstance(sv, SymValue)
            # Branching on undef or poison is UB (§2).
            self.ub_terms.append(bool_and(alive, bool_or(sv.poison, sv.varies)))
            taken = bv_eq(sv.expr, bv_const(1, 1))
            self._add_edge(label, inst.true_label, taken, alive, dom, edge_cond)
            self._add_edge(
                label, inst.false_label, bool_not(taken), alive, dom, edge_cond
            )
            return
        if isinstance(inst, Switch):
            sv = self._read(inst.value)
            assert isinstance(sv, SymValue)
            self.ub_terms.append(bool_and(alive, bool_or(sv.poison, sv.varies)))
            not_any = TRUE
            for case_value, case_label in inst.cases:
                cv = self._read(case_value)
                assert isinstance(cv, SymValue)
                cond = bv_eq(sv.expr, cv.expr)
                self._add_edge(label, case_label, cond, alive, dom, edge_cond)
                not_any = bool_and(not_any, bool_not(cond))
            self._add_edge(label, inst.default_label, not_any, alive, dom, edge_cond)
            return
        if isinstance(inst, Unreachable):
            self.ub_terms.append(alive)
            return
        raise EncodeError(f"terminator-{type(inst).__name__}")

    def _add_edge(
        self,
        src: str,
        dst: str,
        cond: BoolTerm,
        alive: BoolTerm,
        dom: Dict[str, BoolTerm],
        edge_cond: Dict[Tuple[str, str], BoolTerm],
    ) -> None:
        prev = edge_cond.get((src, dst), FALSE)
        edge_cond[(src, dst)] = bool_or(prev, cond)
        if dst in dom:
            dom[dst] = bool_or(dom[dst], bool_and(alive, cond))

    # -- non-terminator instructions -----------------------------------------------
    def _encode_instruction(self, inst, alive: BoolTerm, mem: SymMemory) -> BoolTerm:
        """Encode one instruction; returns the (possibly reduced) domain."""
        self._cur_name = getattr(inst, "name", None)
        if isinstance(inst, BinOp):
            self.regs[inst.name] = self._map_binary(
                inst.type,
                self._read(inst.lhs),
                self._read(inst.rhs),
                lambda a, b, ty: self._int_binop(inst, a, b, ty, alive),
            )
            return alive
        if isinstance(inst, ICmp):
            op_ty = inst.lhs.type
            elem_ty = op_ty.elem if isinstance(op_ty, VectorType) else op_ty
            self.regs[inst.name] = self._map_binary(
                inst.type,
                self._read(inst.lhs),
                self._read(inst.rhs),
                lambda a, b, _ty: self._icmp(inst.pred, a, b, elem_ty),
            )
            return alive
        if isinstance(inst, FBinOp):
            self.regs[inst.name] = self._map_binary(
                inst.type,
                self._read(inst.lhs),
                self._read(inst.rhs),
                lambda a, b, ty: self._fp_binop(inst, a, b, ty),
            )
            return alive
        if isinstance(inst, FNeg):
            sv = self._read(inst.operand)
            ty = inst.type
            if isinstance(ty, VectorType):
                assert isinstance(sv, SymAggregate)
                self.regs[inst.name] = SymAggregate(
                    tuple(
                        SymValue(
                            sf.fp_neg(ty.elem, e.expr), e.poison, e.undef_vars, e.varies
                        )
                        for e in sv.elems
                    )
                )
            else:
                assert isinstance(sv, SymValue)
                self.regs[inst.name] = SymValue(
                    sf.fp_neg(ty, sv.expr), sv.poison, sv.undef_vars, sv.varies
                )
            return alive
        if isinstance(inst, FCmp):
            op_ty = inst.lhs.type
            elem_ty = op_ty.elem if isinstance(op_ty, VectorType) else op_ty
            self.regs[inst.name] = self._map_binary(
                inst.type,
                self._read(inst.lhs),
                self._read(inst.rhs),
                lambda a, b, _ty: self._fcmp(inst, a, b, elem_ty),
            )
            return alive
        if isinstance(inst, Select):
            cond = self._read(inst.cond)
            tv = self._read(inst.on_true)
            fv = self._read(inst.on_false)
            tv = _coerce_shape(tv, inst.type, self)
            fv = _coerce_shape(fv, inst.type, self)
            assert isinstance(cond, SymValue)
            taken = bv_eq(cond.expr, bv_const(1, 1))
            merged = _merge_values(taken, tv, fv)
            self.regs[inst.name] = _poison_if(
                cond.poison, _varies_or(merged, cond.varies)
            )
            return alive
        if isinstance(inst, Freeze):
            self.regs[inst.name] = self._freeze(self._read(inst.operand))
            return alive
        if isinstance(inst, Cast):
            self.regs[inst.name] = self._cast(inst)
            return alive
        if isinstance(inst, Alloca):
            # Bids come from the shared syntactic assignment so the
            # points-to facts and the encoding name the same blocks.
            bid = self._alloca_bids[inst.name]
            size = byte_size(inst.allocated_type)
            mem.add_local_block(bid, f"%{inst.name}", size)
            self.regs[inst.name] = SymValue(mem.make_pointer(bid, 0))
            return alive
        if isinstance(inst, Load):
            return self._load(inst, alive, mem)
        if isinstance(inst, Store):
            return self._store(inst, alive, mem)
        if isinstance(inst, Gep):
            self.regs[inst.name] = self._gep(inst, mem)
            return alive
        if isinstance(inst, Call):
            return self._call(inst, alive, mem)
        if isinstance(inst, ExtractValue):
            agg = self._read(inst.aggregate)
            for idx in inst.indices:
                assert isinstance(agg, SymAggregate), "extractvalue of scalar"
                agg = agg.elems[idx]
            self.regs[inst.name] = agg
            return alive
        if isinstance(inst, InsertValue):
            agg = self._read(inst.aggregate)
            elem = self._read(inst.element)
            self.regs[inst.name] = _insert_at(agg, elem, inst.indices)
            return alive
        if isinstance(inst, ExtractElement):
            return self._extractelement(inst, alive)
        if isinstance(inst, InsertElement):
            return self._insertelement(inst, alive)
        if isinstance(inst, ShuffleVector):
            return self._shufflevector(inst, alive)
        raise EncodeError(f"instruction-{type(inst).__name__}")

    def _fold_reg(self, name) -> None:
        """Replace fully-determined bits of a register with constants.

        Term-level known-bits facts (:mod:`repro.analysis.termfacts`)
        hold for *every* assignment, so swapping a fully-determined expr
        for its constant — or a decided poison bit for TRUE/FALSE —
        preserves the encoded semantics while shrinking what reaches the
        bit-blaster (the paper's §3.7 formula-shrinking idea).
        """
        if not self.fold_known_bits or name is None:
            return
        folded = _fold_value(self.regs.get(name))
        if folded is not None:
            self.regs[name] = folded

    # -- scalars ---------------------------------------------------------------------
    def _map_binary(self, ty: Type, lhs, rhs, fn) -> object:
        if isinstance(ty, (VectorType, ArrayType)):
            lhs_elems = _as_elems(lhs, ty.count, self)
            rhs_elems = _as_elems(rhs, ty.count, self)
            return SymAggregate(
                tuple(
                    fn(a, b, ty.elem) for a, b in zip(lhs_elems, rhs_elems)
                )
            )
        return fn(lhs, rhs, ty)

    def _int_binop(
        self, inst: BinOp, a: SymValue, b: SymValue, ty: IntType, alive: BoolTerm
    ) -> SymValue:
        op = inst.opcode
        w = ty.width
        x, y = a.expr, b.expr
        poison = bool_or(a.poison, b.poison)
        undef = a.undef_vars | b.undef_vars
        varies = bool_or(a.varies, b.varies)
        extra_poison = FALSE

        if op in ("udiv", "urem", "sdiv", "srem"):
            # udiv-ub (Fig. 3): divisor poison, undef-can-be-zero, or zero.
            zero = bv_const(0, w)
            self.ub_terms.append(
                bool_and(alive, bool_or(b.poison, bv_eq(y, zero)))
            )
            if op in ("sdiv", "srem"):
                int_min = bv_const(1 << (w - 1), w)
                minus1 = bv_const((1 << w) - 1, w)
                self.ub_terms.append(
                    bool_and(
                        alive,
                        bool_not(b.poison),
                        bool_not(a.poison),
                        bv_eq(x, int_min),
                        bv_eq(y, minus1),
                    )
                )
            poison = bool_or(a.poison, b.poison)

        if op == "add":
            expr = bv_add(x, y)
            if "nsw" in inst.flags:
                xs, ys = bv_sext(x, w + 1), bv_sext(y, w + 1)
                wide = bv_add(xs, ys)
                extra_poison = bool_or(
                    extra_poison, bool_not(bv_eq(wide, bv_sext(expr, w + 1)))
                )
            if "nuw" in inst.flags:
                xz, yz = bv_zext(x, w + 1), bv_zext(y, w + 1)
                wide = bv_add(xz, yz)
                extra_poison = bool_or(
                    extra_poison, bool_not(bv_eq(wide, bv_zext(expr, w + 1)))
                )
        elif op == "sub":
            expr = bv_sub(x, y)
            if "nsw" in inst.flags:
                wide = bv_sub(bv_sext(x, w + 1), bv_sext(y, w + 1))
                extra_poison = bool_or(
                    extra_poison, bool_not(bv_eq(wide, bv_sext(expr, w + 1)))
                )
            if "nuw" in inst.flags:
                extra_poison = bool_or(extra_poison, bv_ult(x, y))
        elif op == "mul":
            expr = bv_mul(x, y)
            if "nsw" in inst.flags:
                wide = bv_mul(bv_sext(x, 2 * w), bv_sext(y, 2 * w))
                extra_poison = bool_or(
                    extra_poison, bool_not(bv_eq(wide, bv_sext(expr, 2 * w)))
                )
            if "nuw" in inst.flags:
                wide = bv_mul(bv_zext(x, 2 * w), bv_zext(y, 2 * w))
                extra_poison = bool_or(
                    extra_poison, bool_not(bv_eq(wide, bv_zext(expr, 2 * w)))
                )
        elif op == "udiv":
            expr = bv_udiv(x, y)
            if "exact" in inst.flags:
                extra_poison = bool_or(
                    extra_poison,
                    bool_not(bv_eq(bv_urem(x, y), bv_const(0, w))),
                )
        elif op == "urem":
            expr = bv_urem(x, y)
        elif op == "sdiv":
            expr = bv_sdiv(x, y)
            if "exact" in inst.flags:
                extra_poison = bool_or(
                    extra_poison,
                    bool_not(bv_eq(bv_srem(x, y), bv_const(0, w))),
                )
        elif op == "srem":
            expr = bv_srem(x, y)
        elif op in ("shl", "lshr", "ashr"):
            # Shifting by >= bit-width yields poison (§2).
            too_far = bool_not(bv_ult(y, bv_const(w, w)))
            extra_poison = bool_or(extra_poison, too_far)
            if op == "shl":
                expr = bv_shl(x, y)
                if "nsw" in inst.flags:
                    back = bv_ashr(expr, y)
                    extra_poison = bool_or(extra_poison, bool_not(bv_eq(back, x)))
                if "nuw" in inst.flags:
                    back = bv_lshr(expr, y)
                    extra_poison = bool_or(extra_poison, bool_not(bv_eq(back, x)))
            elif op == "lshr":
                expr = bv_lshr(x, y)
                if "exact" in inst.flags:
                    back = bv_shl(expr, y)
                    extra_poison = bool_or(extra_poison, bool_not(bv_eq(back, x)))
            else:
                expr = bv_ashr(x, y)
                if "exact" in inst.flags:
                    back = bv_shl(expr, y)
                    extra_poison = bool_or(extra_poison, bool_not(bv_eq(back, x)))
        elif op == "and":
            expr = bv_and(x, y)
        elif op == "or":
            expr = bv_or(x, y)
        elif op == "xor":
            expr = bv_xor(x, y)
        else:
            raise EncodeError(f"binop-{op}")
        return SymValue(expr, bool_or(poison, extra_poison), undef, varies).normalized()

    def _icmp(self, pred: str, a: SymValue, b: SymValue, ty: Type) -> SymValue:
        x, y = a.expr, b.expr
        if isinstance(ty, PointerType) and pred not in ("eq", "ne"):
            raise EncodeError("pointer-relational-compare")
        table = {
            "eq": lambda: bv_eq(x, y),
            "ne": lambda: bool_not(bv_eq(x, y)),
            "ugt": lambda: bv_ult(y, x),
            "uge": lambda: bv_ule(y, x),
            "ult": lambda: bv_ult(x, y),
            "ule": lambda: bv_ule(x, y),
            "sgt": lambda: bv_slt(y, x),
            "sge": lambda: bv_sle(y, x),
            "slt": lambda: bv_slt(x, y),
            "sle": lambda: bv_sle(x, y),
        }
        return SymValue(
            bool_to_bv(table[pred]()),
            bool_or(a.poison, b.poison),
            a.undef_vars | b.undef_vars,
            bool_or(a.varies, b.varies),
        ).normalized()

    def _fp_binop(self, inst: FBinOp, a: SymValue, b: SymValue, ty: FloatType) -> SymValue:
        fmf = inst.fmf
        x, y = a.expr, b.expr
        if inst.opcode == "fadd":
            expr = sf.fp_add(ty, x, y)
        elif inst.opcode == "fsub":
            expr = sf.fp_sub(ty, x, y)
        elif inst.opcode == "fmul":
            expr = sf.fp_mul(ty, x, y)
        elif inst.opcode == "fdiv":
            expr = sf.fp_div(ty, x, y)
        else:
            raise EncodeError(f"fp-{inst.opcode}")  # frem: like Alive2 (§3.5)
        # A NaN result has a nondeterministic payload: semantically floats
        # carry a single NaN (SMT FPA / §3.5); the payload only becomes
        # observable through bitcast, where it is unconstrained.  Without
        # this, folds like `fmul x, 1.0 -> x` would be misreported because
        # our circuits canonicalize payloads.
        nan_nd = self._fresh_nondet(ty.bit_width, f"fpnan_{self._cur_name}")
        self.pre_terms.append(sf.fp_is_nan(ty, nan_nd))
        expr = bv_ite(sf.fp_is_nan(ty, expr), nan_nd, expr)
        poison = bool_or(a.poison, b.poison)
        if "nnan" in fmf or "fast" in fmf:
            poison = bool_or(
                poison,
                sf.fp_is_nan(ty, x),
                sf.fp_is_nan(ty, y),
                sf.fp_is_nan(ty, expr),
            )
        if "ninf" in fmf or "fast" in fmf:
            poison = bool_or(
                poison,
                sf.fp_is_inf(ty, x),
                sf.fp_is_inf(ty, y),
                sf.fp_is_inf(ty, expr),
            )
        if "nsz" in fmf or "fast" in fmf:
            # The result may be +/-0 nondeterministically when it is zero.
            sign_choice = self._fresh_nondet(1, f"nsz_{self._cur_name}")
            is_zero = sf.fp_is_zero(ty, expr)
            flipped = bv_xor(
                expr,
                bv_ite(
                    bool_and(is_zero, bv_eq(sign_choice, bv_const(1, 1))),
                    bv_const(1 << (ty.bit_width - 1), ty.bit_width),
                    bv_const(0, ty.bit_width),
                ),
            )
            expr = flipped
        return SymValue(
            expr, poison, a.undef_vars | b.undef_vars, bool_or(a.varies, b.varies)
        ).normalized()

    def _fcmp(self, inst: FCmp, a: SymValue, b: SymValue, ty: FloatType) -> SymValue:
        x, y = a.expr, b.expr
        pred = inst.pred
        lt = sf.fp_lt(ty, x, y)
        gt = sf.fp_lt(ty, y, x)
        eq = sf.fp_eq(ty, x, y)
        uno = sf.fp_unordered(ty, x, y)
        table = {
            "false": FALSE,
            "oeq": eq,
            "ogt": gt,
            "oge": bool_or(gt, eq),
            "olt": lt,
            "ole": bool_or(lt, eq),
            "one": bool_or(lt, gt),
            "ord": bool_not(uno),
            "ueq": bool_or(uno, eq),
            "ugt": bool_or(uno, gt),
            "uge": bool_or(uno, gt, eq),
            "ult": bool_or(uno, lt),
            "ule": bool_or(uno, lt, eq),
            "une": bool_or(uno, lt, gt),
            "uno": uno,
            "true": TRUE,
        }
        poison = bool_or(a.poison, b.poison)
        if "nnan" in inst.fmf or "fast" in inst.fmf:
            poison = bool_or(poison, uno)
        return SymValue(
            bool_to_bv(table[pred]),
            poison,
            a.undef_vars | b.undef_vars,
            bool_or(a.varies, b.varies),
        ).normalized()

    def _freeze(self, sv: object) -> object:
        if isinstance(sv, SymAggregate):
            return SymAggregate(tuple(self._freeze(e) for e in sv.elems))
        assert isinstance(sv, SymValue)
        if sv.poison is FALSE and not sv.undef_vars:
            return sv
        choice = self._fresh_nondet(sv.expr.width, f"freeze_{self._cur_name}")
        expr = bv_ite(sv.poison, choice, sv.expr)
        return SymValue(expr, FALSE, frozenset(), FALSE)

    def _cast(self, inst: Cast) -> object:
        sv = self._read(inst.operand)
        src_ty = inst.operand.type
        dst_ty = inst.type
        op = inst.opcode
        if op in ("ptrtoint", "inttoptr"):
            raise EncodeError("ptr-int-cast")
        if isinstance(dst_ty, VectorType) and isinstance(src_ty, VectorType):
            elems = _as_elems(sv, src_ty.count, self)
            return SymAggregate(
                tuple(
                    self._cast_scalar(op, e, src_ty.elem, dst_ty.elem)
                    for e in elems
                )
            )
        if isinstance(dst_ty, VectorType) != isinstance(src_ty, VectorType):
            # bitcast between vector and scalar of equal total width.
            if op != "bitcast":
                raise EncodeError(f"cast-shape-{op}")
            return self._bitcast_shape(sv, src_ty, dst_ty)
        assert isinstance(sv, SymValue)
        return self._cast_scalar(op, sv, src_ty, dst_ty)

    def _cast_scalar(self, op: str, sv: SymValue, src_ty: Type, dst_ty: Type) -> SymValue:
        x = sv.expr
        if op == "zext":
            expr = bv_zext(x, dst_ty.bit_width)
        elif op == "sext":
            expr = bv_sext(x, dst_ty.bit_width)
        elif op == "trunc":
            expr = bv_extract(x, dst_ty.bit_width - 1, 0)
        elif op == "bitcast":
            if isinstance(src_ty, FloatType) and isinstance(dst_ty, IntType):
                # NaN gets a nondeterministic payload (§3.5, semantics #2).
                nd = self._fresh_nondet(dst_ty.bit_width, f"nanbits_{self._cur_name}")
                fb, eb = src_ty.frac_bits, src_ty.exp_bits
                exp_ones = bv_const((1 << eb) - 1, eb)
                nd_exp = bv_extract(nd, fb + eb - 1, fb)
                nd_frac = bv_extract(nd, fb - 1, 0)
                is_nan_nd = bool_and(
                    bv_eq(nd_exp, exp_ones),
                    bool_not(bv_eq(nd_frac, bv_const(0, fb))),
                )
                self.pre_terms.append(is_nan_nd)
                expr = bv_ite(sf.fp_is_nan(src_ty, x), nd, x)
            else:
                if _bits_of(src_ty, self) != _bits_of(dst_ty, self):
                    raise EncodeError("bitcast-width-mismatch")
                expr = x
        elif op in ("fpext", "fptrunc", "fptoui", "fptosi", "uitofp", "sitofp"):
            expr = self._fp_convert(op, x, src_ty, dst_ty, sv)
            if isinstance(expr, SymValue):
                return expr
        else:
            raise EncodeError(f"cast-{op}")
        return SymValue(expr, sv.poison, sv.undef_vars, sv.varies).normalized()

    def _fp_convert(self, op: str, x: BvTerm, src_ty: Type, dst_ty: Type, sv: SymValue):
        # Conversions between our scaled formats are implemented by table
        # over the (small) source domain only for fpext/fptrunc; int<->fp
        # go through comparisons of exactly representable values.
        raise EncodeError(f"cast-{op}")

    def _bitcast_shape(self, sv: object, src_ty: Type, dst_ty: Type) -> object:
        # Concatenate source scalars and re-split for the destination.
        if isinstance(src_ty, VectorType):
            elems = _as_elems(sv, src_ty.count, self)
            expr = elems[0].expr
            poison = elems[0].poison
            undef = elems[0].undef_vars
            varies = elems[0].varies
            for e in elems[1:]:
                expr = bv_concat(e.expr, expr)
                poison = bool_or(poison, e.poison)
                undef = undef | e.undef_vars
                varies = bool_or(varies, e.varies)
            whole = SymValue(expr, poison, undef, varies)
        else:
            assert isinstance(sv, SymValue)
            whole = sv
        if isinstance(dst_ty, VectorType):
            width = dst_ty.elem.bit_width
            elems = tuple(
                SymValue(
                    bv_extract(whole.expr, (i + 1) * width - 1, i * width),
                    whole.poison,
                    whole.undef_vars,
                    whole.varies,
                )
                for i in range(dst_ty.count)
            )
            return SymAggregate(elems)
        return whole

    # -- memory instructions -------------------------------------------------------
    def _pointer_operand(self, value: Value) -> SymValue:
        sv = self._read(value)
        assert isinstance(sv, SymValue), "pointers are scalars"
        return sv

    def _candidate_bids(self, pointer, mem: SymMemory):
        """Points-to candidate bids for an access through ``pointer``.

        ``None`` (no restriction) without memdf facts or when the fact is
        ⊤.  Sound to restrict the access ite-chains to these blocks: the
        points-to contract pins the concrete bid of a defined pointer to
        the candidate set under the encoder precondition, every query
        conjoins that precondition, and poison/undef pointers take the
        access-UB path regardless.
        """
        if self.memdf is None:
            return None
        pts = self.memdf.pointer_fact(pointer)
        if pts.bids is None:
            return None
        from repro.analysis.memdf import STATS as _MEMDF_STATS

        skipped = sum(1 for b in mem.infos if b not in pts.bids)
        if skipped:
            _MEMDF_STATS.narrowed_accesses += 1
            _MEMDF_STATS.block_skips += skipped
        return pts.bids

    def _load(self, inst: Load, alive: BoolTerm, mem: SymMemory) -> BoolTerm:
        ptr = self._pointer_operand(inst.pointer)
        nbytes = byte_size(inst.type)
        bid, off = mem.decode_pointer(ptr.expr)
        cand = self._candidate_bids(inst.pointer, mem)
        ub = bool_or(
            ptr.poison,
            ptr.varies,
            bool_not(mem._valid_range(bid, off, nbytes, cand)),
        )
        self.ub_terms.append(bool_and(alive, ub))
        data = mem.load_bytes(bid, off, nbytes, cand)
        self.regs[inst.name] = self._value_from_bytes(data, inst.type)
        return alive

    def _value_from_bytes(self, data: List[SymByte], ty: Type) -> object:
        if isinstance(ty, (VectorType, ArrayType)):
            per = byte_size(ty.elem)
            return SymAggregate(
                tuple(
                    self._value_from_bytes(data[i * per : (i + 1) * per], ty.elem)
                    for i in range(ty.count)
                )
            )
        want_ptr = isinstance(ty, PointerType)
        poison = FALSE
        undef: frozenset = frozenset()
        expr: Optional[BvTerm] = None
        for byte in data:
            poison = bool_or(poison, byte.poison)
            mismatched = bool_not(byte.is_ptr) if want_ptr else byte.is_ptr
            poison = bool_or(poison, mismatched)
            undef = undef | byte.undef_vars
            expr = byte.value if expr is None else bv_concat(byte.value, expr)
        assert expr is not None
        width = self._scalar_width(ty)
        if width < expr.width:
            expr = bv_extract(expr, width - 1, 0)
        varies = TRUE if undef else FALSE
        return SymValue(expr, poison, undef, varies).normalized()

    def _store(self, inst: Store, alive: BoolTerm, mem: SymMemory) -> BoolTerm:
        ptr = self._pointer_operand(inst.pointer)
        value = self._read(inst.value)
        ty = inst.value.type
        nbytes = byte_size(ty)
        bid, off = mem.decode_pointer(ptr.expr)
        cand = self._candidate_bids(inst.pointer, mem)
        ub = bool_or(
            ptr.poison,
            ptr.varies,
            bool_not(mem._valid_range(bid, off, nbytes, cand)),
            bool_not(mem._writable(bid, cand)),
        )
        self.ub_terms.append(bool_and(alive, ub))
        data = self._bytes_of_value(value, ty)
        mem.store_bytes(alive, bid, off, data, cand)
        return alive

    def _bytes_of_value(self, sv: object, ty: Type) -> List[SymByte]:
        if isinstance(ty, (VectorType, ArrayType)):
            elems = _as_elems(sv, ty.count, self)
            out: List[SymByte] = []
            for e in elems:
                out.extend(self._bytes_of_value(e, ty.elem))
            return out
        assert isinstance(sv, SymValue)
        is_ptr = TRUE if isinstance(ty, PointerType) else FALSE
        nbytes = byte_size(ty)
        expr = sv.expr
        if expr.width < nbytes * 8:
            expr = bv_zext(expr, nbytes * 8)
        return [
            SymByte(
                bv_extract(expr, 8 * i + 7, 8 * i),
                sv.poison,
                is_ptr,
                sv.undef_vars,
            )
            for i in range(nbytes)
        ]

    def _gep(self, inst: Gep, mem: SymMemory) -> SymValue:
        ptr = self._pointer_operand(inst.pointer)
        ob = self.layout.config.off_bits
        bid, off = mem.decode_pointer(ptr.expr)
        poison = ptr.poison
        undef = ptr.undef_vars
        varies = ptr.varies
        total = off
        scale = byte_size(inst.source_type)
        src: Type = inst.source_type
        for idx_value in inst.indices:
            iv = self._read(idx_value)
            assert isinstance(iv, SymValue)
            poison = bool_or(poison, iv.poison)
            undef = undef | iv.undef_vars
            varies = bool_or(varies, iv.varies)
            idx = iv.expr
            if idx.width < ob:
                idx = bv_sext(idx, ob)
            elif idx.width > ob:
                idx = bv_extract(idx, ob - 1, 0)
            total = bv_add(total, bv_mul(idx, bv_const(scale, ob)))
            if isinstance(src, (ArrayType, VectorType)):
                src = src.elem
                scale = byte_size(src)
        if inst.inbounds:
            size = self._size_of_bid(
                bid, mem, self._candidate_bids(inst.pointer, mem)
            )
            in_bounds = bool_and(
                bv_sle(bv_const(0, ob), total),
                bv_sle(total, size),
                bv_sle(bv_const(0, ob), off),
                bv_sle(off, size),
            )
            poison = bool_or(poison, bool_not(in_bounds))
        return SymValue(
            bv_concat(bid, total), poison, undef, varies
        ).normalized()

    def _size_of_bid(self, bid: BvTerm, mem: SymMemory, cand=None) -> BvTerm:
        ob = self.layout.config.off_bits
        size = bv_const(0, ob)
        for info in mem.infos.values():
            if cand is not None and info.bid not in cand:
                continue
            size = bv_ite(
                bv_eq(bid, bv_const(info.bid, bid.width)),
                bv_const(min(info.size, (1 << (ob - 1)) - 1), ob),
                size,
            )
        return size

    # -- vectors ---------------------------------------------------------------------
    def _extractelement(self, inst: ExtractElement, alive: BoolTerm) -> BoolTerm:
        vec = self._read(inst.vector)
        idx = self._read(inst.index)
        assert isinstance(idx, SymValue)
        vec_ty = inst.vector.type
        assert isinstance(vec_ty, VectorType)
        elems = _as_elems(vec, vec_ty.count, self)
        width = self._scalar_width(vec_ty.elem)
        result = SymValue(bv_const(0, width), TRUE)  # OOB index -> poison
        for i, e in enumerate(elems):
            cond = bv_eq(idx.expr, bv_const(i, idx.expr.width))
            result = _merge_values(cond, e, result)  # type: ignore[assignment]
        result = _poison_if(idx.poison, result)
        self.regs[inst.name] = _varies_or(result, idx.varies)
        return alive

    def _insertelement(self, inst: InsertElement, alive: BoolTerm) -> BoolTerm:
        vec = self._read(inst.vector)
        elem = self._read(inst.element)
        idx = self._read(inst.index)
        assert isinstance(idx, SymValue) and isinstance(elem, SymValue)
        vec_ty = inst.type
        assert isinstance(vec_ty, VectorType)
        elems = list(_as_elems(vec, vec_ty.count, self))
        out = []
        for i, e in enumerate(elems):
            cond = bv_eq(idx.expr, bv_const(i, idx.expr.width))
            merged = _merge_values(cond, elem, e)
            out.append(_poison_if(idx.poison, merged))
        # Whole-vector poison if the index is OOB.
        oob = bool_not(bv_ult(idx.expr, bv_const(vec_ty.count, idx.expr.width)))
        out = [_poison_if(oob, e) for e in out]
        self.regs[inst.name] = SymAggregate(tuple(out))
        return alive

    def _shufflevector(self, inst: ShuffleVector, alive: BoolTerm) -> BoolTerm:
        v1 = self._read(inst.v1)
        v2 = self._read(inst.v2)
        v1_ty = inst.v1.type
        assert isinstance(v1_ty, VectorType)
        n = v1_ty.count
        pool = list(_as_elems(v1, n, self)) + list(_as_elems(v2, n, self))
        width = self._scalar_width(v1_ty.elem)
        out = []
        for m in inst.mask:
            if m is None:
                # Undef mask element: the result element is undef (the
                # semantics the community settled on, §8.3 "Vectors and UB").
                u = self._fresh_undef(width)
                out.append(SymValue(u, FALSE, frozenset({u.payload}), TRUE))
            elif m < len(pool):
                out.append(pool[m])
            else:
                out.append(SymValue(bv_const(0, width), TRUE))
        self.regs[inst.name] = SymAggregate(tuple(out))
        return alive

    # -- calls (§6) --------------------------------------------------------------------
    def _call(self, inst: Call, alive: BoolTerm, mem: SymMemory) -> BoolTerm:
        from repro.semantics.intrinsics import encode_intrinsic
        from repro.semantics.libfuncs import LIBRARY_SPECS

        if inst.callee.startswith("llvm."):
            handled = encode_intrinsic(self, inst, alive, mem)
            if handled is not None:
                return handled
            # Over-approximate an unknown intrinsic as an unknown call.
            return self._unknown_call(inst, alive, mem, approximate=True)
        callee_fn = self.module.get_function(inst.callee)
        spec = LIBRARY_SPECS.get(inst.callee)
        attrs = set(inst.attrs)
        if callee_fn is not None:
            attrs |= set(callee_fn.attrs)
        if spec is not None:
            attrs |= spec.attrs
        return self._unknown_call(inst, alive, mem, attrs=frozenset(attrs))

    def _unknown_call(
        self,
        inst: Call,
        alive: BoolTerm,
        mem: SymMemory,
        attrs: frozenset = frozenset(),
        approximate: bool = False,
    ) -> BoolTerm:
        if isinstance(inst.type, PointerType):
            raise EncodeError("call-returning-pointer")
        args: List[SymValue] = []
        for a in inst.args:
            sv = self._read(a)
            if isinstance(sv, SymAggregate):
                args.extend(sv.elems)
            else:
                args.append(sv)
        index = self._call_counts.get(inst.callee, 0)
        self._call_counts[inst.callee] = index + 1

        reads = not ("readnone" in attrs)
        writes = not ("readnone" in attrs or "readonly" in attrs)

        result: Optional[SymValue] = None
        out_value_name = out_poison_name = None
        if not isinstance(inst.type, VoidType):
            if isinstance(inst.type, (VectorType, ArrayType)):
                raise EncodeError("call-returning-aggregate")
            width = self._scalar_width(inst.type)
            value_var = self._fresh_nondet(width, f"call_{inst.callee}_{index}")
            from repro.smt.terms import bool_var

            poison_name = fresh_name(f"{self.prefix}.callp_{inst.callee}_{index}")
            self.nondet_vars.append(QuantVar(poison_name, 0))
            self.origin[poison_name] = f"callp_{inst.callee}_{index}"
            poison_var = bool_var(poison_name)
            result = SymValue(value_var, poison_var, frozenset(), FALSE)
            out_value_name = value_var.payload
            out_poison_name = poison_name
            if approximate:
                self.approx_vars.add(out_value_name)
                self.approx_vars.add(poison_name)
        havoc: Dict[Tuple[int, int], Tuple[str, str]] = {}
        if writes:
            # Havoc every non-local block (locals are not modified even when
            # escaped — the documented limitation shared with the paper).
            for bid in mem.non_local_bids():
                block = mem.blocks[bid]
                for j in range(len(block)):
                    hv = self._fresh_nondet(8, f"hv_{inst.callee}_{index}_{bid}_{j}")
                    from repro.smt.terms import bool_var

                    hp_name = fresh_name(f"{self.prefix}.hvp")
                    self.nondet_vars.append(QuantVar(hp_name, 0))
                    self.origin[hp_name] = f"hvp_{inst.callee}_{index}_{bid}_{j}"
                    if approximate:
                        self.approx_vars.add(hv.payload)
                        self.approx_vars.add(hp_name)
                    havoc[(bid, j)] = (hv.payload, hp_name)
                    new_byte = SymByte(hv, bool_var(hp_name), FALSE, frozenset())
                    cond = alive
                    old = block[j]
                    from repro.semantics.memory import _merge_byte

                    block[j] = _merge_byte(cond, new_byte, old)

        record = CallRecord(
            callee=inst.callee,
            dom=alive,
            args=args,
            result=result,
            out_value_name=out_value_name,
            out_poison_name=out_poison_name,
            writes_memory=writes,
            reads_memory=reads,
            index=index,
            min_prior=index,
            max_prior=index,
            havoc=havoc,
        )
        self.calls.append(record)
        if result is not None and inst.name is not None:
            self.regs[inst.name] = result

        if "noreturn" in attrs:
            self.noret_terms.append(alive)
            return FALSE
        return alive


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _insert_at(agg: object, elem: object, indices) -> object:
    assert isinstance(agg, SymAggregate)
    idx = indices[0]
    elems = list(agg.elems)
    if len(indices) == 1:
        elems[idx] = elem
    else:
        elems[idx] = _insert_at(elems[idx], elem, indices[1:])
    return SymAggregate(tuple(elems))


def _fold_value(value):
    """Constant-folded copy of a symbolic value, or None if unchanged."""
    from repro.analysis import termfacts

    if isinstance(value, SymAggregate):
        elems = [_fold_value(e) for e in value.elems]
        if all(e is None for e in elems):
            return None
        return SymAggregate(
            tuple(n if n is not None else o for n, o in zip(elems, value.elems))
        )
    if not isinstance(value, SymValue):
        return None
    expr, poison = value.expr, value.poison
    changed = False
    if expr.op != "const":
        const = termfacts.known_const(expr)
        if const is not None:
            expr = bv_const(const, expr.width)
            changed = True
    if poison.op != "const":
        fact = termfacts.term_fact(poison)
        if fact is True:
            poison, changed = TRUE, True
        elif fact is False:
            poison, changed = FALSE, True
    if not changed:
        return None
    return SymValue(expr, poison, value.undef_vars, value.varies).normalized()


def _merge_values(cond: BoolTerm, then: object, els: object) -> object:
    if isinstance(then, SymAggregate) or isinstance(els, SymAggregate):
        assert isinstance(then, SymAggregate) and isinstance(els, SymAggregate)
        return SymAggregate(
            tuple(
                _merge_values(cond, a, b)  # type: ignore[arg-type]
                for a, b in zip(then.elems, els.elems)
            )
        )
    assert isinstance(then, SymValue) and isinstance(els, SymValue)
    return SymValue(
        bv_ite(cond, then.expr, els.expr),
        bool_ite(cond, then.poison, els.poison),
        then.undef_vars | els.undef_vars,
        bool_ite(cond, then.varies, els.varies),
    ).normalized()


def _poison_if(cond: BoolTerm, sv: object) -> object:
    if isinstance(sv, SymAggregate):
        return SymAggregate(tuple(_poison_if(cond, e) for e in sv.elems))  # type: ignore[arg-type]
    assert isinstance(sv, SymValue)
    if cond is FALSE:
        return sv
    return SymValue(sv.expr, bool_or(sv.poison, cond), sv.undef_vars, sv.varies)


def _varies_or(sv: object, cond: BoolTerm) -> object:
    if isinstance(sv, SymAggregate):
        return SymAggregate(tuple(_varies_or(e, cond) for e in sv.elems))  # type: ignore[arg-type]
    assert isinstance(sv, SymValue)
    if cond is FALSE:
        return sv
    return SymValue(sv.expr, sv.poison, sv.undef_vars, bool_or(sv.varies, cond))


def _as_elems(sv: object, count: int, enc: "_Encoder") -> Tuple[SymValue, ...]:
    if isinstance(sv, SymAggregate):
        assert len(sv.elems) == count
        return sv.elems
    assert isinstance(sv, SymValue)
    # A scalar standing for an aggregate (poison/undef constant).
    return tuple(SymValue(sv.expr, sv.poison, sv.undef_vars, sv.varies) for _ in range(count))


def _coerce_shape(sv: object, ty: Type, enc: "_Encoder") -> object:
    if isinstance(ty, (VectorType, ArrayType)) and isinstance(sv, SymValue):
        return SymAggregate(tuple(_as_elems(sv, ty.count, enc)))
    return sv


def _bits_of(ty: Type, enc: "_Encoder") -> int:
    if isinstance(ty, PointerType):
        return enc.layout.ptr_bits
    return ty.bit_width
