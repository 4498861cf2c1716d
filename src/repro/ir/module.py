"""IR modules: globals + functions."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.ir.values import GlobalVariable


@dataclass
class Module:
    functions: Dict[str, Function] = field(default_factory=dict)
    globals: Dict[str, GlobalVariable] = field(default_factory=dict)

    def add_function(self, fn: Function) -> None:
        self.functions[fn.name] = fn

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def definitions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def seal(self) -> "Module":
        """Seal every function (:meth:`Function.seal`) and make the
        function and global tables read-only; returns the module."""
        if not isinstance(self.functions, MappingProxyType):
            for fn in self.functions.values():
                fn.seal()
            self.functions = MappingProxyType(self.functions)
            self.globals = MappingProxyType(self.globals)
        return self

    def clone(self) -> "Module":
        """Structural copy, unsealed; used to snapshot IR before running
        optimization passes.  Globals hold only immutable fields, so a
        shallow copy of each is enough."""
        return Module(
            {name: fn.clone() for name, fn in self.functions.items()},
            {name: replace(g) for name, g in self.globals.items()},
        )

    def __str__(self) -> str:
        from repro.ir.printer import print_module

        return print_module(self)
