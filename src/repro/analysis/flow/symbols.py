"""Whole-program symbol table: modules, classes, functions, imports.

The table is built from source text alone (``ast.parse``; the analyzed
code is never imported), mirroring the simlint guarantee that linting a
broken or hostile tree is always safe.  Each parsed file becomes a
:class:`ModuleInfo` carrying its dotted module name, import aliases, and
the classes/functions defined at module scope; :class:`Program` owns the
set and answers the resolution queries every later pass is built on:
"what does the name ``MittsShaper`` mean inside ``repro.cloud.vm``?".

Nested functions and lambdas deliberately do *not* get symbols of their
own: callers cannot name them, so the passes treat their bodies as part
of the enclosing function.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..linter import Linter, Module

Symbol = Union["ModuleInfo", "ClassInfo", "FunctionInfo"]


class FunctionInfo:
    """One module-level function or class method."""

    __slots__ = ("qualname", "name", "module", "node", "owner")

    def __init__(self, qualname: str, name: str, module: "ModuleInfo",
                 node: ast.AST, owner: Optional["ClassInfo"] = None) -> None:
        self.qualname = qualname      # "pkg.mod.func" / "pkg.mod.Cls.meth"
        self.name = name
        self.module = module
        self.node = node              # FunctionDef | AsyncFunctionDef
        self.owner = owner            # defining class, if a method

    @property
    def is_method(self) -> bool:
        return self.owner is not None

    def param_names(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args
                 + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<func {self.qualname}>"


class ClassInfo:
    """One class: methods, base names, ``__slots__``, assigned attrs."""

    __slots__ = ("qualname", "name", "module", "node", "base_names",
                 "methods", "slots", "is_dataclass", "dataclass_slots",
                 "annotated_fields", "class_attrs", "decorator_names")

    def __init__(self, qualname: str, name: str, module: "ModuleInfo",
                 node: ast.ClassDef) -> None:
        self.qualname = qualname
        self.name = name
        self.module = module
        self.node = node
        #: raw dotted base-class names, resolved lazily via the program
        self.base_names: List[str] = [_dotted(b) for b in node.bases]
        self.methods: Dict[str, FunctionInfo] = {}
        #: names in __slots__, or None when the class defines no __slots__
        self.slots: Optional[Set[str]] = None
        self.is_dataclass = False
        self.dataclass_slots = False
        #: class-level annotated names (dataclass fields, declared attrs)
        self.annotated_fields: Dict[str, Optional[ast.expr]] = {}
        #: plain class-level assignments (constants, registries, ...)
        self.class_attrs: Set[str] = set()
        self.decorator_names: List[str] = [_dotted(d)
                                           for d in node.decorator_list]
        self._scan_body()

    def _scan_body(self) -> None:
        for deco in self.node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(target)
            if name.split(".")[-1] == "dataclass":
                self.is_dataclass = True
                if isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if (kw.arg == "slots"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True):
                            self.dataclass_slots = True
        for stmt in self.node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__slots__":
                        self.slots = _slot_names(stmt.value)
                    else:
                        self.class_attrs.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                if stmt.target.id == "__slots__" and stmt.value is not None:
                    self.slots = _slot_names(stmt.value)
                else:
                    self.annotated_fields[stmt.target.id] = stmt.annotation

    @property
    def has_slots(self) -> bool:
        return self.slots is not None or self.dataclass_slots

    def assigned_attrs(self) -> Set[str]:
        """Attributes ever assigned as ``self.x = ...`` in a method."""
        names: Set[str] = set()
        for method in self.methods.values():
            self_name = _self_param(method)
            if self_name is None:
                continue
            for node in ast.walk(method.node):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == self_name):
                        names.add(target.attr)
        return names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<class {self.qualname}>"


class ModuleInfo:
    """One parsed source file plus its name-resolution context."""

    __slots__ = ("name", "module", "imports", "functions", "classes",
                 "global_assigns")

    def __init__(self, name: str, module: Module) -> None:
        self.name = name              # dotted module name
        self.module = module          # the linter's Module (path/tree/lines)
        #: local alias -> fully dotted target ("pkg.mod" or "pkg.mod.attr")
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module-level ``NAME = ...`` assignments (registries, constants)
        self.global_assigns: Dict[str, ast.expr] = {}
        self._collect()

    @property
    def path(self) -> str:
        return self.module.path

    def _collect(self) -> None:
        # Imports are collected from the whole tree, not just module
        # scope: the codebase defers cycle-prone imports into functions
        # (``from .ooo_core import WindowCoreModel`` inside ``__init__``)
        # and those names must still resolve.  Folding them into one
        # module-level alias map is a harmless over-approximation.
        for stmt in ast.walk(self.module.tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports.setdefault(local, target)
            elif isinstance(stmt, ast.ImportFrom):
                base = self._resolve_from(stmt)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports.setdefault(
                        local,
                        f"{base}.{alias.name}" if base else alias.name)
        for stmt in self.module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{self.name}.{stmt.name}"
                self.functions[stmt.name] = FunctionInfo(
                    qualname, stmt.name, self, stmt)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{self.name}.{stmt.name}"
                info = ClassInfo(qualname, stmt.name, self, stmt)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        method = FunctionInfo(
                            f"{qualname}.{sub.name}", sub.name, self, sub,
                            owner=info)
                        info.methods[sub.name] = method
                self.classes[stmt.name] = info
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.global_assigns[target.id] = stmt.value

    def _resolve_from(self, stmt: ast.ImportFrom) -> str:
        """Absolute dotted base of a ``from X import ...`` statement."""
        if stmt.level == 0:
            return stmt.module or ""
        # relative import: peel `level` components off this module's
        # package (a module's package is its name minus the last part).
        parts = self.name.split(".")
        base_parts = parts[:-stmt.level] if stmt.level <= len(parts) else []
        if stmt.module:
            base_parts.append(stmt.module)
        return ".".join(base_parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<module {self.name} ({self.path})>"


class Program:
    """All parsed modules of one analysis run, with name resolution."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        #: every function/method by qualified name
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple class name -> defining classes (usually one)
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        for module in sorted(self.modules.values(),
                             key=lambda m: m.name):
            for func in sorted(module.functions.values(),
                               key=lambda f: f.qualname):
                self.functions[func.qualname] = func
            for cls in sorted(module.classes.values(),
                              key=lambda c: c.qualname):
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for method in sorted(cls.methods.values(),
                                     key=lambda m: m.qualname):
                    self.functions[method.qualname] = method

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_files(cls, files: Sequence[str]) -> "Program":
        sources = {}
        for path in files:
            with open(path, "r", encoding="utf-8",
                      errors="replace") as handle:
                sources[path] = handle.read()
        return cls.from_sources(sources)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Program":
        """Build a program from ``{path: source}`` (the test entry point).

        Files that fail to parse are skipped here; the per-file linter
        already reports them as SIM000.
        """
        modules: List[ModuleInfo] = []
        for path, source in sorted(sources.items()):
            display = path.replace(os.sep, "/")
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            module = Module(path=display, tree=tree,
                            lines=source.splitlines())
            modules.append(ModuleInfo(module_name_for(display), module))
        return cls(modules)

    @classmethod
    def from_paths(cls, paths: Sequence[str]) -> "Program":
        return cls.from_files(Linter.discover(paths))

    # ------------------------------------------------------------------
    # resolution

    def resolve_dotted(self, dotted: str) -> Optional[Symbol]:
        """Resolve an absolute dotted name to a module/class/function."""
        if dotted in self.modules:
            return self.modules[dotted]
        module_name, _, attr = dotted.rpartition(".")
        if not module_name:
            return None
        owner = self.modules.get(module_name)
        if owner is not None:
            return (owner.classes.get(attr) or owner.functions.get(attr)
                    or None)
        # could be module.Class.attr (e.g. an imported nested name)
        outer = self.resolve_dotted(module_name)
        if isinstance(outer, ClassInfo):
            return outer.methods.get(attr)
        return None

    def resolve(self, module: ModuleInfo,
                dotted: str) -> Optional[Symbol]:
        """Resolve ``dotted`` as written inside ``module``."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is not None:
            absolute = f"{target}.{rest}" if rest else target
            resolved = self.resolve_dotted(absolute)
            if resolved is not None:
                return resolved
            # ``import pkg`` followed by ``pkg.sub.attr``: retry treating
            # progressively longer prefixes as the module name.
            return self.resolve_dotted(absolute)
        if not rest:
            return (module.classes.get(head) or module.functions.get(head)
                    or None)
        local = module.classes.get(head)
        if local is not None:
            return local.methods.get(rest)
        return self.resolve_dotted(dotted)

    def resolve_class(self, module: ModuleInfo,
                      dotted: str) -> Optional[ClassInfo]:
        symbol = self.resolve(module, dotted)
        return symbol if isinstance(symbol, ClassInfo) else None

    # ------------------------------------------------------------------
    # class hierarchy

    def bases_of(self, cls: ClassInfo) -> List[ClassInfo]:
        bases = []
        for name in cls.base_names:
            base = self.resolve_class(cls.module, name)
            if base is not None:
                bases.append(base)
        return bases

    def mro_slots(self, cls: ClassInfo) -> Tuple[Optional[Set[str]], bool]:
        """(union of ``__slots__`` over known ancestors, all_known).

        ``all_known`` is False when some ancestor either lives outside
        the program or lacks ``__slots__`` -- in both cases instances may
        carry a ``__dict__`` and slot-consistency cannot be decided.
        """
        slots: Set[str] = set()
        all_known = True
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if current.slots is not None:
                slots |= current.slots
            elif current.dataclass_slots:
                slots |= set(current.annotated_fields)
            else:
                all_known = False
            for name in current.base_names:
                base = self.resolve_class(current.module, name)
                if base is None:
                    # Unknown external bases: object and Exception-family
                    # roots contribute no __dict__-free guarantees.
                    if name.split(".")[-1] not in ("object",):
                        all_known = False
                else:
                    stack.append(base)
        return slots, all_known

    def subclasses_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Program classes that (transitively) inherit from ``cls``."""
        out: List[ClassInfo] = []
        for module in self.modules.values():
            for candidate in module.classes.values():
                if candidate is cls:
                    continue
                if self._inherits(candidate, cls, set()):
                    out.append(candidate)
        return out

    def _inherits(self, cls: ClassInfo, ancestor: ClassInfo,
                  seen: Set[str]) -> bool:
        if cls.qualname in seen:
            return False
        seen.add(cls.qualname)
        for base in self.bases_of(cls):
            if base is ancestor or self._inherits(base, ancestor, seen):
                return True
        return False

    # ------------------------------------------------------------------
    # lookups used by the passes

    def classes(self) -> Iterable[ClassInfo]:
        for module in self.modules.values():
            yield from module.classes.values()

    def all_functions(self) -> Iterable[FunctionInfo]:
        return self.functions.values()

    def classes_named(self, name: str) -> List[ClassInfo]:
        return list(self.classes_by_name.get(name, ()))

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        for module in self.modules.values():
            if module.path == path:
                return module
        return None


# ----------------------------------------------------------------------
# helpers


def _dotted(node: ast.expr) -> str:
    """Dotted name of an expression, best effort (``a.b.c`` -> "a.b.c")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Subscript):
        # Optional[X] / List[X] heads resolve through their value
        return _dotted(node.value)
    return ".".join(reversed(parts))


def _slot_names(expr: ast.expr) -> Set[str]:
    names: Set[str] = set()
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return {expr.value}
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for element in expr.elts:
            if isinstance(element, ast.Constant) and isinstance(
                    element.value, str):
                names.add(element.value)
    return names


def _self_param(method: FunctionInfo) -> Optional[str]:
    node = method.node
    for deco in node.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "staticmethod":
            return None
    args = node.args.posonlyargs + node.args.args
    if not args:
        return None
    return args[0].arg


def module_name_for(path: str) -> str:
    """Dotted module name of a file path.

    Recognises ``src``-layout roots (``src/repro/sim/engine.py`` ->
    ``repro.sim.engine``); for loose files the stem is the module name.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for marker in ("src", "lib"):
        if marker in parts:
            index = len(parts) - 1 - parts[::-1].index(marker)
            tail = parts[index + 1:]
            if tail:
                return ".".join(tail)
    # fall back: the longest suffix starting at a known top-level package
    for anchor in ("repro", "tests"):
        if anchor in parts:
            index = parts.index(anchor)
            return ".".join(parts[index:])
    return ".".join(parts[-1:]) if parts else path
