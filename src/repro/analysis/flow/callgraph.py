"""Idiom-aware call graph over a :class:`~repro.analysis.flow.symbols.Program`.

Resolution is deliberately *typed* rather than name-matched: ``x.select(...)``
only links to ``TcmScheduler.select`` when the analysis can see that ``x``
holds a ``TcmScheduler`` -- through a constructor call, an annotated
parameter, or a ``self.x = Cls(...)`` assignment somewhere in the class.
That keeps the graph precise enough that reachability findings are real.

Beyond plain calls the builder understands the codebase's callback idioms:

* a function *reference* passed as an argument (``engine.schedule(when,
  self.llc.lookup, req)``) produces a ``callback`` edge from the caller;
* an instance of a class defining ``__call__`` passed as an argument
  (``engine.schedule_in(p, _PeriodicCallback(...))``) links to its
  ``__call__``;
* lambdas and nested ``def``\\ s have no symbols of their own -- their
  bodies are analyzed as part of the enclosing function;
* calls to ``schedule``/``schedule_in``/``every`` are additionally
  recorded as *schedule sites* (cycle argument + scheduled callbacks),
  the roots and sinks of the effect and cycle-unit passes;
* ``JobSpec.create``/``JobSpec(...)`` call sites are collected for the
  serialization-safety pass.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .symbols import (ClassInfo, FunctionInfo, ModuleInfo, Program, _dotted,
                      _self_param)

#: engine/scheduler methods that run their callback later, in event order
SCHEDULE_NAMES = frozenset({"schedule", "schedule_in", "every"})
#: of those, the ones whose first argument is a cycle count
CYCLE_ARG_NAMES = frozenset({"schedule", "schedule_in", "every"})


class CallSite:
    """One resolved edge: ``caller`` invokes (or schedules) ``callee``."""

    __slots__ = ("caller", "callee", "node", "kind")

    def __init__(self, caller: FunctionInfo, callee: FunctionInfo,
                 node: ast.AST, kind: str) -> None:
        self.caller = caller
        self.callee = callee
        self.node = node
        self.kind = kind              # "call" | "callback"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{self.kind} {self.caller.qualname} -> "
                f"{self.callee.qualname}>")


class ScheduleSite:
    """One ``schedule``/``schedule_in``/``every`` call."""

    __slots__ = ("caller", "node", "cycle", "callbacks", "name")

    def __init__(self, caller: FunctionInfo, node: ast.Call,
                 cycle: Optional[ast.expr],
                 callbacks: List[FunctionInfo], name: str) -> None:
        self.caller = caller
        self.node = node
        self.cycle = cycle
        self.callbacks = callbacks
        self.name = name


class JobSpecSite:
    """One ``JobSpec.create(...)`` / ``JobSpec(...)`` call."""

    __slots__ = ("caller", "node", "fn_expr", "via_create")

    def __init__(self, caller: FunctionInfo, node: ast.Call,
                 fn_expr: Optional[ast.expr], via_create: bool) -> None:
        self.caller = caller
        self.node = node
        self.fn_expr = fn_expr
        self.via_create = via_create


class CallGraph:
    """Edges, schedule sites, and per-class attribute types."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.sites: List[CallSite] = []
        self._out: Dict[str, List[CallSite]] = {}
        self._in: Dict[str, List[CallSite]] = {}
        self.schedule_sites: List[ScheduleSite] = []
        self.jobspec_sites: List[JobSpecSite] = []
        #: class qualname -> {attr: ClassInfo} inferred instance types
        self.attr_types: Dict[str, Dict[str, ClassInfo]] = {}
        #: caller qualname -> classes instantiated in its body
        self.instantiations: Dict[str, List[ClassInfo]] = {}
        self._infer_attr_types()
        for func in list(program.all_functions()):
            self._walk_function(func)

    # ------------------------------------------------------------------
    # public queries

    def calls_from(self, qualname: str) -> List[CallSite]:
        return self._out.get(qualname, [])

    def callers_of(self, qualname: str) -> List[CallSite]:
        return self._in.get(qualname, [])

    def scheduled_callbacks(self) -> List[Tuple[FunctionInfo, ScheduleSite]]:
        """Every (callback, site) pair scheduled anywhere in the program."""
        out = []
        for site in self.schedule_sites:
            for callback in site.callbacks:
                out.append((callback, site))
        return out

    def reachable_from(self, roots: Iterable[FunctionInfo]
                       ) -> Dict[str, Tuple[FunctionInfo,
                                            Optional[CallSite]]]:
        """BFS closure over call+callback edges.

        Returns ``{qualname: (function, entering_site)}`` where
        ``entering_site`` is the edge that first reached the function
        (``None`` for roots) -- enough to reconstruct a witness path.
        """
        seen: Dict[str, Tuple[FunctionInfo, Optional[CallSite]]] = {}
        queue: List[FunctionInfo] = []
        for root in roots:
            if root.qualname not in seen:
                seen[root.qualname] = (root, None)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for site in self.calls_from(current.qualname):
                callee = site.callee
                if callee.qualname not in seen:
                    seen[callee.qualname] = (callee, site)
                    queue.append(callee)
        return seen

    def witness_path(self, reachable: Dict[str, Tuple[FunctionInfo,
                                                      Optional[CallSite]]],
                     qualname: str) -> List[str]:
        """Root-to-function chain of qualnames for diagnostics."""
        chain: List[str] = []
        current: Optional[str] = qualname
        guard = 0
        while current is not None and guard < 1000:
            guard += 1
            chain.append(current)
            entry = reachable.get(current)
            if entry is None or entry[1] is None:
                break
            current = entry[1].caller.qualname
        return list(reversed(chain))

    # ------------------------------------------------------------------
    # attribute-type inference (phase 1)

    def _infer_attr_types(self) -> None:
        for cls in self.program.classes():
            types: Dict[str, ClassInfo] = {}
            for name, annotation in cls.annotated_fields.items():
                inferred = self._annotation_class(cls.module, annotation)
                if inferred is not None:
                    types[name] = inferred
            for method in cls.methods.values():
                self_name = _self_param(method)
                if self_name is None:
                    continue
                params = _annotated_params(self.program, method)
                for node in ast.walk(method.node):
                    target = None
                    value = None
                    if isinstance(node, ast.Assign) and len(
                            node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == self_name):
                        continue
                    inferred = None
                    if (isinstance(node, ast.AnnAssign)
                            and node.annotation is not None):
                        inferred = self._annotation_class(cls.module,
                                                          node.annotation)
                    if inferred is None and value is not None:
                        inferred = self._rhs_class(cls.module, value, params)
                    if inferred is not None:
                        types.setdefault(target.attr, inferred)
            self.attr_types[cls.qualname] = types

    def _annotation_class(self, module: ModuleInfo,
                          annotation: Optional[ast.expr]
                          ) -> Optional[ClassInfo]:
        if annotation is None:
            return None
        for cls in self.annotation_classes(module, annotation):
            return cls
        return None

    def annotation_classes(self, module: ModuleInfo,
                           annotation: ast.expr) -> List[ClassInfo]:
        """Every program class referenced anywhere in an annotation
        (handles ``Optional[X]``, ``List[X]``, ``"X"`` strings, unions)."""
        found: List[ClassInfo] = []
        stack: List[ast.expr] = [annotation]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                cls = self.program.resolve_class(module, node.value)
                if cls is not None:
                    found.append(cls)
                continue
            if isinstance(node, (ast.Name, ast.Attribute)):
                cls = self.program.resolve_class(module, _dotted(node))
                if cls is not None:
                    found.append(cls)
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    stack.append(child)
        return found

    def _rhs_class(self, module: ModuleInfo, value: ast.expr,
                   params: Dict[str, ClassInfo]) -> Optional[ClassInfo]:
        """Type of an assignment RHS: ``Cls(...)``, a typed param, or a
        list/comprehension of either."""
        if isinstance(value, ast.Call):
            cls = self.program.resolve_class(module, _dotted(value.func))
            return cls
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if isinstance(value, (ast.List, ast.Tuple)) and value.elts:
            return self._rhs_class(module, value.elts[0], params)
        if isinstance(value, ast.ListComp):
            return self._rhs_class(module, value.elt, params)
        return None

    # ------------------------------------------------------------------
    # expression typing (phase 2, per function)

    def _type_of(self, func: FunctionInfo, expr: ast.expr,
                 env: Dict[str, ClassInfo]) -> Optional[ClassInfo]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._type_of(func, expr.value, env)
            if owner is not None:
                attr_type = self._class_attr_type(owner, expr.attr)
                if attr_type is not None:
                    return attr_type
            symbol = self.program.resolve(func.module, _dotted(expr))
            if isinstance(symbol, ClassInfo):
                return symbol
            return None
        if isinstance(expr, ast.Call):
            target = self._callable_symbol(func, expr.func, env)
            if isinstance(target, ClassInfo):
                return target
            return None
        return None

    def _class_attr_type(self, cls: ClassInfo,
                         attr: str) -> Optional[ClassInfo]:
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            found = self.attr_types.get(current.qualname, {}).get(attr)
            if found is not None:
                return found
            stack.extend(self.program.bases_of(current))
        return None

    def _method_of(self, cls: ClassInfo,
                   name: str) -> Optional[FunctionInfo]:
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            method = current.methods.get(name)
            if method is not None:
                return method
            stack.extend(self.program.bases_of(current))
        return None

    def _callable_symbol(self, func: FunctionInfo, target: ast.expr,
                         env: Dict[str, ClassInfo]):
        """The FunctionInfo/ClassInfo a call target resolves to, if any."""
        if isinstance(target, ast.Name):
            local = env.get(target.id)
            if local is not None:
                # calling an instance -> its __call__
                return self._method_of(local, "__call__") or local
            return self.program.resolve(func.module, target.id)
        if isinstance(target, ast.Attribute):
            value_type = self._type_of(func, target.value, env)
            if value_type is not None:
                method = self._method_of(value_type, target.attr)
                if method is not None:
                    return method
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and func.owner is not None):
                return self._method_of(func.owner, target.attr)
            return self.program.resolve(func.module, _dotted(target))
        return None

    # ------------------------------------------------------------------
    # phase 2: walk every function body

    def _walk_function(self, func: FunctionInfo) -> None:
        env: Dict[str, ClassInfo] = _annotated_params(self.program, func)
        if func.owner is not None:
            self_name = _self_param(func)
            if self_name is not None:
                env[self_name] = func.owner
        # flow-insensitive local types: any `x = Cls(...)` / `x = typed`
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                inferred = self._type_of(func, node.value, env)
                if inferred is not None:
                    env.setdefault(node.targets[0].id, inferred)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                self._record_call(func, node, env)

    def _record_call(self, func: FunctionInfo, node: ast.Call,
                     env: Dict[str, ClassInfo]) -> None:
        target = self._callable_symbol(func, node.func, env)
        if isinstance(target, ClassInfo):
            self.instantiations.setdefault(func.qualname, []).append(target)
            init = self._method_of(target, "__init__")
            if init is not None:
                self._add_edge(func, init, node, "call")
        elif isinstance(target, FunctionInfo):
            self._add_edge(func, target, node, "call")

        callee_name = node.func.attr if isinstance(node.func,
                                                   ast.Attribute) else (
            node.func.id if isinstance(node.func, ast.Name) else "")

        # JobSpec sites (by name: the class need not be resolvable)
        dotted = _dotted(node.func)
        if dotted.endswith("JobSpec.create") or dotted == "JobSpec" \
                or dotted.endswith(".JobSpec"):
            self.jobspec_sites.append(JobSpecSite(
                func, node, _jobspec_fn_expr(node,
                                             dotted.endswith("create")),
                dotted.endswith("create")))

        # callback arguments -> "callback" edges
        callbacks: List[FunctionInfo] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            resolved = self._callback_target(func, arg, env)
            if resolved is not None:
                callbacks.append(resolved)
                self._add_edge(func, resolved, node, "callback")

        if callee_name in SCHEDULE_NAMES and isinstance(node.func,
                                                        ast.Attribute):
            cycle = _cycle_argument(node)
            self.schedule_sites.append(ScheduleSite(func, node, cycle,
                                                    callbacks, callee_name))

    def _callback_target(self, func: FunctionInfo, arg: ast.expr,
                         env: Dict[str, ClassInfo]
                         ) -> Optional[FunctionInfo]:
        """A function reference (or callable instance) passed by value."""
        if isinstance(arg, (ast.Name, ast.Attribute)):
            symbol = self._callable_symbol(func, arg, env)
            if isinstance(symbol, FunctionInfo):
                return symbol
            if isinstance(symbol, ClassInfo):
                return self._method_of(symbol, "__call__")
            return None
        if isinstance(arg, ast.Call):
            created = self._callable_symbol(func, arg.func, env)
            if isinstance(created, ClassInfo):
                return self._method_of(created, "__call__")
        return None

    def _add_edge(self, caller: FunctionInfo, callee: FunctionInfo,
                  node: ast.AST, kind: str) -> None:
        site = CallSite(caller, callee, node, kind)
        self.sites.append(site)
        self._out.setdefault(caller.qualname, []).append(site)
        self._in.setdefault(callee.qualname, []).append(site)


# ----------------------------------------------------------------------
# helpers


def _annotated_params(program: Program,
                      func: FunctionInfo) -> Dict[str, ClassInfo]:
    env: Dict[str, ClassInfo] = {}
    args = func.node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.annotation is None:
            continue
        symbol = _annotation_head_class(program, func.module,
                                        arg.annotation)
        if symbol is not None:
            env[arg.arg] = symbol
    return env


def _annotation_head_class(program: Program, module: ModuleInfo,
                           annotation: ast.expr) -> Optional[ClassInfo]:
    stack: List[ast.expr] = [annotation]
    while stack:
        node = stack.pop(0)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            cls = program.resolve_class(module, node.value)
            if cls is not None:
                return cls
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            cls = program.resolve_class(module, _dotted(node))
            if cls is not None:
                return cls
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                stack.append(child)
    return None


def _cycle_argument(node: ast.Call) -> Optional[ast.expr]:
    """The when/delay/period expression of a schedule-family call."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg in ("when", "delay", "period"):
            return keyword.value
    return None


def _jobspec_fn_expr(node: ast.Call,
                     via_create: bool) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == "fn":
            return keyword.value
    if via_create:
        return node.args[1] if len(node.args) >= 2 else None
    return node.args[1] if len(node.args) >= 2 else None
