"""The structural IR clone (``Instruction/BasicBlock/Function/Module.clone``).

A clone shares every frozen value, type and frozenset with its original
and copies everything that can be mutated.  These tests check that a
clone prints exactly like its original, shares no mutable object with
it, and isolates every mutation; and they guard the invariant the clone
relies on: values and types are frozen dataclasses, and an instruction
field holds either an immutable value or a list.
"""

import dataclasses

import pytest

from repro.ir import instructions as ir_instructions
from repro.ir import types as ir_types
from repro.ir import values as ir_values
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.types import Type
from repro.ir.values import Argument, Value
from repro.suite.genir import GenConfig, generate_module
from repro.suite.unittests import build_corpus

# One instance of every instruction kind with a list-valued field.
EVERY_LIST_FIELD = """
declare i8 @ext(i8, i8)

define i8 @every_list_field(i8 %x, ptr %p, <2 x i8> %v) {
entry:
  %agg = insertvalue { i8, i1 } undef, i8 %x, 0
  %e = extractvalue { i8, i1 } %agg, 0
  %s = shufflevector <2 x i8> %v, <2 x i8> poison, <2 x i8> <i8 1, i8 0>
  %q = getelementptr i8, ptr %p, i8 1
  %c = call i8 @ext(i8 %x, i8 %e)
  switch i8 %x, label %a [ i8 0, label %b ]
a:
  br label %b
b:
  %r = phi i8 [ %c, %entry ], [ %e, %a ]
  ret i8 %r
}
"""

GEN_CONFIGS = (
    GenConfig(),
    GenConfig(width=4, allow_loops=True),
    GenConfig(allow_memory=True, allow_calls=True),
    GenConfig(allow_floats=True, allow_loops=True, allow_memory=True),
)


def _modules():
    out = [parse_module(EVERY_LIST_FIELD)]
    for test in build_corpus():
        out.append(parse_module(test.ir))
        if test.buggy_target is not None:
            out.append(parse_module(test.buggy_target))
    for seed, config in enumerate(GEN_CONFIGS):
        out.append(generate_module(100 + seed, 12, config))
    return out


MODULES = _modules()
FUNCTIONS = [fn for module in MODULES for fn in module.definitions()]


def _immutable(value) -> bool:
    if value is None or isinstance(value, (str, int, float)):
        return True
    if isinstance(value, (Value, Type)):
        return type(value).__dataclass_params__.frozen
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(v) for v in value)
    return False


def _mutable_objects(root) -> dict:
    """id -> object for every mutable object reachable from ``root``."""
    seen: dict = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if _immutable(obj) or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (list, set)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (Function, BasicBlock, Instruction, Argument)):
            stack.extend(vars(obj).values())
        else:
            raise AssertionError(f"unexpected object in the IR: {obj!r}")
    return seen


def test_corpus_covers_every_list_field():
    kinds = {type(i).__name__ for fn in FUNCTIONS for i in fn.instructions()}
    assert {
        "Phi", "Switch", "Call", "Gep", "ExtractValue", "InsertValue", "ShuffleVector",
    } <= kinds


@pytest.mark.parametrize("module", MODULES, ids=lambda m: ",".join(m.functions))
def test_clone_prints_identically(module):
    assert print_module(module.clone()) == print_module(module)
    for fn in module.definitions():
        assert print_function(fn.clone()) == print_function(fn)


def test_clone_shares_no_mutable_object():
    for fn in FUNCTIONS:
        original = _mutable_objects(fn)
        clone = _mutable_objects(fn.clone())
        assert len(clone) == len(original), fn.name
        assert not original.keys() & clone.keys(), fn.name


def test_mutating_the_clone_leaves_the_original_unchanged():
    for fn in FUNCTIONS:
        before = print_function(fn)
        sinks, dups = set(fn.sink_labels), list(fn.duplicate_labels)
        clone = fn.clone()
        for inst in clone.instructions():
            for value in vars(inst).values():
                if isinstance(value, list) and value:
                    value.append(value[0])
        for block in clone.blocks.values():
            block.instructions.pop()
        clone.blocks.pop(next(iter(clone.blocks)))
        clone.blocks["__added"] = BasicBlock("__added")
        clone.sink_labels.add("__added")
        clone.duplicate_labels.append("__added")
        clone.args.append(Argument("added", ir_types.I1))
        assert print_function(fn) == before
        assert fn.sink_labels == sinks and fn.duplicate_labels == dups


def test_module_clone_copies_globals():
    module = parse_module("@g = global i8 7\n" + EVERY_LIST_FIELD)
    clone = module.clone()
    assert clone.globals["g"] is not module.globals["g"]
    clone.globals["g"].align = 8
    del clone.functions["ext"]
    assert module.globals["g"].align == 1 and "ext" in module.functions


def _concrete_subclasses(base, module):
    return [
        cls for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, base) and cls is not base
    ]


def test_values_and_types_are_frozen_dataclasses():
    classes = _concrete_subclasses(Value, ir_values) + _concrete_subclasses(Type, ir_types)
    assert len(classes) >= 15
    for cls in classes:
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls


def test_instruction_fields_are_immutable_or_lists():
    # Declared types: a new mutable field kind (dict, set, nested list)
    # would need Instruction.clone to change.
    for cls in _concrete_subclasses(Instruction, ir_instructions):
        for f in dataclasses.fields(cls):
            annotation = str(f.type)
            if annotation.startswith("List["):
                annotation = annotation[len("List["):-1]
            for word in ("List", "Dict", "Set", "list", "dict", "set"):
                assert word not in annotation.replace("frozenset", ""), (cls, f.name)
    # Values actually held by parsed and generated IR.
    for fn in FUNCTIONS:
        for inst in fn.instructions():
            for name, value in vars(inst).items():
                items = value if isinstance(value, list) else [value]
                assert all(_immutable(v) for v in items), (type(inst).__name__, name)
