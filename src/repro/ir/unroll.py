"""Bounded loop unrolling (§7 of the Alive2 paper).

Loops are unrolled inside-out by traversing the loop nesting forest in
post-order, so the number of copies is linear in (number of loops ×
unroll factor).  Backedges of the last copy are redirected to a *sink*
block; the encoder later negates the sink's reachability into the
function's precondition, which is what makes the validation *bounded*
without introducing false positives.

Values defined in a loop and used outside are handled with the paper's
three-case strategy, collapsed to two here:

* phi nodes in exit blocks are patched with one incoming per copy;
* any other outside use goes through a stack slot (the paper's memory
  fallback), avoiding general SSA reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.harness.deadline import Deadline
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    Br,
    Instruction,
    Load,
    Phi,
    Store,
    Switch,
)
from repro.ir.loops import LoopForest
from repro.ir.types import PTR
from repro.ir.values import Register, Value

SINK_LABEL = "__sink"


class UnrollError(Exception):
    """Raised when a function's loops cannot be unrolled (irreducible)."""


@dataclass
class UnrollStats:
    loops_unrolled: int = 0
    blocks_added: int = 0
    memory_fallbacks: int = 0


def unroll_function(
    fn: Function, factor: int, deadline: Optional[Deadline] = None
) -> UnrollStats:
    """Unroll every loop of ``fn`` in place by ``factor`` copies.

    ``factor`` is the total number of body copies kept (the paper's
    "unroll factor"); it must be >= 1.

    ``deadline`` is the whole-job budget: unrolling is O(loops × factor)
    and can dominate a job on deeply nested loops, so every loop and
    every body copy is a cooperative checkpoint (raises
    :class:`~repro.harness.deadline.DeadlineExceeded` when spent).
    """
    assert factor >= 1
    stats = UnrollStats()
    forest = LoopForest(fn)
    if not forest.loops:
        return stats
    if forest.has_irreducible():
        raise UnrollError(f"function @{fn.name} has an irreducible loop")

    # Map header -> current body set (updated as inner loops are unrolled).
    bodies: Dict[str, Set[str]] = {l.header: set(l.body) for l in forest.loops}
    ancestors: Dict[str, List[str]] = {}
    for loop in forest.loops:
        chain = []
        node = loop.parent
        while node is not None:
            chain.append(node.header)
            node = node.parent
        ancestors[loop.header] = chain

    for loop in forest.innermost_first():
        if deadline is not None:
            deadline.check("unroll")
        new_blocks = _unroll_one_loop(
            fn, loop.header, bodies[loop.header], factor, stats, deadline
        )
        for anc in ancestors[loop.header]:
            bodies[anc] |= new_blocks
        stats.loops_unrolled += 1
    return stats


def _ensure_sink(fn: Function) -> str:
    if SINK_LABEL not in fn.blocks:
        from repro.ir.instructions import Unreachable

        sink = BasicBlock(SINK_LABEL, [Unreachable()])
        fn.blocks[SINK_LABEL] = sink
        fn.sink_labels.add(SINK_LABEL)
    return SINK_LABEL


def _retarget(inst: Instruction, mapping: Dict[str, str]) -> None:
    if isinstance(inst, Br):
        inst.true_label = mapping.get(inst.true_label, inst.true_label)
        if inst.false_label is not None:
            inst.false_label = mapping.get(inst.false_label, inst.false_label)
    elif isinstance(inst, Switch):
        inst.default_label = mapping.get(inst.default_label, inst.default_label)
        inst.cases = [(v, mapping.get(l, l)) for v, l in inst.cases]


def _unroll_one_loop(
    fn: Function,
    header: str,
    body: Set[str],
    factor: int,
    stats: UnrollStats,
    deadline: Optional[Deadline] = None,
) -> Set[str]:
    """Unroll one loop; returns the labels of all newly created blocks."""
    sink = _ensure_sink(fn)
    # Defs inside the loop, in block order.
    loop_blocks = [label for label in fn.blocks if label in body]
    defs: List[str] = []
    for label in loop_blocks:
        for inst in fn.blocks[label].instructions:
            name = getattr(inst, "name", None)
            if name is not None:
                defs.append(name)
    def_set = set(defs)

    # Pristine snapshot of the loop body: later copies are cloned from this,
    # not from copy 0, whose backedges get patched as soon as copy 1 exists.
    pristine = {label: fn.blocks[label].clone() for label in loop_blocks}

    # Pick a suffix that cannot collide with labels/registers created by a
    # previous unroll round (nested loops unroll inside-out, so the outer
    # round re-duplicates blocks that already carry ".uN" suffixes).
    existing = set(fn.blocks)
    existing.update(fn.defined_names())
    salt = ""
    while any(
        f"{label}{salt}.u{i}" in existing
        for label in loop_blocks
        for i in range(1, factor)
    ):
        salt = f".s{len(salt)}"

    def unroll_name(base: str, i: int) -> str:
        return f"{base}{salt}.u{i}"

    # cumulative value map: original def name -> latest copy's name
    value_map: Dict[str, str] = {}
    # label of copy i of each loop block (copy 0 = original labels)
    label_of_copy: List[Dict[str, str]] = [{label: label for label in loop_blocks}]
    # per-copy register renames (copy 0 = identity)
    rename_of_copy: List[Dict[str, str]] = [{name: name for name in defs}]
    new_labels: Set[str] = set()

    def mapped_value(v: Value, vmap: Dict[str, str]) -> Value:
        if isinstance(v, Register) and v.name in vmap:
            return Register(v.type, vmap[v.name])
        return v

    # ---- create copies 1..factor-1 -----------------------------------------
    for i in range(1, factor):
        if deadline is not None:
            deadline.check("unroll")
        prev_labels = label_of_copy[i - 1]
        cur_labels = {label: unroll_name(label, i) for label in loop_blocks}
        label_of_copy.append(cur_labels)
        new_labels.update(cur_labels.values())
        prev_value_map = dict(value_map)
        # First pass: clone blocks and rename definitions.
        iteration_map: Dict[str, str] = {}
        clones: Dict[str, BasicBlock] = {}
        for label in loop_blocks:
            clone = BasicBlock(cur_labels[label])
            for inst in pristine[label].instructions:
                new_inst = inst.clone()
                name = getattr(new_inst, "name", None)
                if name is not None:
                    new_name = unroll_name(name, i)
                    new_inst.name = new_name
                    iteration_map[name] = new_name
                clone.instructions.append(new_inst)
            clones[label] = clone
        # Second pass: patch operands, phi incoming and jump targets.
        for label in loop_blocks:
            clone = clones[label]
            patched: List[Instruction] = []
            for inst in clone.instructions:
                if isinstance(inst, Phi):
                    if label == header:
                        # Header phi of copy i: values flow from copy i-1
                        # latches only.
                        incoming = []
                        for v, pred_label in inst.incoming:
                            if pred_label in body:
                                incoming.append(
                                    (
                                        mapped_value(v, prev_value_map),
                                        prev_labels[pred_label],
                                    )
                                )
                        inst.incoming = incoming
                    else:
                        incoming = []
                        for v, pred_label in inst.incoming:
                            new_v = v
                            if isinstance(v, Register):
                                if v.name in iteration_map:
                                    new_v = Register(v.type, iteration_map[v.name])
                                elif v.name in prev_value_map:
                                    new_v = Register(v.type, prev_value_map[v.name])
                            incoming.append(
                                (new_v, cur_labels.get(pred_label, pred_label))
                            )
                        inst.incoming = incoming
                else:
                    subst: Dict[str, Value] = {}
                    for operand in inst.operands:
                        _collect_regs(operand, subst, iteration_map, prev_value_map)
                    if subst:
                        inst.replace_operands(subst)
                # Jump targets: header -> next copy (patched later);
                # other loop blocks -> this copy; outside -> unchanged.
                target_map = dict(cur_labels)
                # A jump to the header from inside copy i is this copy's
                # backedge; it goes to copy i+1's header (patched at the end
                # of the iteration loop below) — mark it with a placeholder.
                target_map[header] = f"__backedge.u{i}"
                _retarget(inst, target_map)
                patched.append(inst)
            clone.instructions = patched
        for label in loop_blocks:
            fn.blocks[cur_labels[label]] = clones[label]
        # Redirect copy i-1 backedges (jumps to original header or to the
        # previous placeholder) into this copy's header.
        _patch_backedges(fn, label_of_copy[i - 1].values(), header, i - 1, cur_labels[header])
        rename_of_copy.append(iteration_map)
        value_map.update(iteration_map)

    # ---- final backedges go to the sink ------------------------------------
    _patch_backedges(fn, label_of_copy[-1].values(), header, factor - 1, sink)

    # Copy 0's header drops latch incoming (those edges now go to copy 1,
    # or to the sink when factor == 1).
    for phi in fn.blocks[header].phis():
        phi.incoming = [(v, b) for v, b in phi.incoming if b not in body]

    stats.blocks_added += len(new_labels)

    # ---- patch loop-exit values ---------------------------------------------
    _patch_exit_uses(fn, body, def_set, label_of_copy, rename_of_copy, stats, deadline)
    return new_labels


def _collect_regs(
    value: Value,
    subst: Dict[str, Value],
    iteration_map: Dict[str, str],
    prev_value_map: Dict[str, str],
) -> None:
    from repro.ir.values import ConstantAggregate

    if isinstance(value, Register):
        if value.name in iteration_map:
            subst[value.name] = Register(value.type, iteration_map[value.name])
        elif value.name in prev_value_map:
            subst[value.name] = Register(value.type, prev_value_map[value.name])
    elif isinstance(value, ConstantAggregate):
        for elem in value.elems:
            _collect_regs(elem, subst, iteration_map, prev_value_map)


def _patch_backedges(
    fn: Function,
    block_labels,
    header: str,
    copy_index: int,
    new_target: str,
) -> None:
    placeholder = f"__backedge.u{copy_index}" if copy_index > 0 else header
    for label in block_labels:
        block = fn.blocks.get(label)
        if block is None or block.terminator is None:
            continue
        _retarget(block.terminator, {placeholder: new_target})


def _patch_exit_uses(
    fn: Function,
    body: Set[str],
    def_set: Set[str],
    label_of_copy: List[Dict[str, str]],
    rename_of_copy: List[Dict[str, str]],
    stats: UnrollStats,
    deadline: Optional[Deadline] = None,
) -> None:
    all_copies: Set[str] = set()
    for labels in label_of_copy:
        all_copies.update(labels.values())

    # 1. Patch phis in exit blocks: add one incoming per copy.
    for label, block in list(fn.blocks.items()):
        if label in all_copies:
            continue
        for phi in block.phis():
            new_incoming = []
            for v, pred_label in phi.incoming:
                if pred_label in body:
                    for i, labels in enumerate(label_of_copy):
                        new_v = v
                        if isinstance(v, Register) and v.name in def_set and i > 0:
                            new_v = Register(v.type, rename_of_copy[i][v.name])
                        # Only add the edge if copy i of the pred still
                        # branches to this block.
                        pred_copy = labels[pred_label]
                        if label in fn.blocks[pred_copy].successors():
                            new_incoming.append((new_v, pred_copy))
                else:
                    new_incoming.append((v, pred_label))
            phi.incoming = new_incoming

    # 2. Any other outside use of a loop def goes through a stack slot.
    slots: Dict[str, str] = {}
    for label, block in list(fn.blocks.items()):
        if deadline is not None:
            deadline.check("unroll-exits")
        if label in all_copies:
            continue
        new_instructions: List[Instruction] = []
        for inst in block.instructions:
            if isinstance(inst, Phi):
                new_instructions.append(inst)
                continue
            used = [
                op.name
                for op in inst.operands
                if isinstance(op, Register) and op.name in def_set
            ]
            for reg_name in used:
                slot = slots.get(reg_name)
                if slot is None:
                    slot = _make_slot(fn, reg_name, label_of_copy, rename_of_copy, stats)
                    slots[reg_name] = slot
                reload_name = fn.fresh_register(f"{reg_name}.reload")
                reg_type = _type_of_def(fn, reg_name)
                new_instructions.append(
                    Load(reload_name, reg_type, Register(PTR, slot))
                )
                inst.replace_operands(
                    {reg_name: Register(reg_type, reload_name)}
                )
            new_instructions.append(inst)
        block.instructions = new_instructions


def _type_of_def(fn: Function, name: str):
    for inst in fn.instructions():
        if getattr(inst, "name", None) == name:
            return inst.type
    raise KeyError(name)


def _make_slot(
    fn: Function,
    reg_name: str,
    label_of_copy: List[Dict[str, str]],
    rename_of_copy: List[Dict[str, str]],
    stats: UnrollStats,
) -> str:
    """Create a stack slot for ``reg_name``; store after every definition."""
    stats.memory_fallbacks += 1
    reg_type = _type_of_def(fn, reg_name)
    slot_name = fn.fresh_register(f"{reg_name}.slot")
    entry = fn.entry
    entry.instructions.insert(0, Alloca(slot_name, reg_type))
    # Store after each copy's definition.
    for i, labels in enumerate(label_of_copy):
        copy_name = rename_of_copy[i][reg_name]
        for label in labels.values():
            block = fn.blocks[label]
            for idx, inst in enumerate(block.instructions):
                if getattr(inst, "name", None) == copy_name:
                    insert_at = idx + 1
                    if isinstance(inst, Phi):
                        # Keep the phi group contiguous at the block head.
                        while insert_at < len(block.instructions) and isinstance(
                            block.instructions[insert_at], Phi
                        ):
                            insert_at += 1
                    block.instructions.insert(
                        insert_at,
                        Store(Register(reg_type, copy_name), Register(PTR, slot_name)),
                    )
                    break
    return slot_name
