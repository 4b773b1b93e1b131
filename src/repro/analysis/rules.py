"""The built-in SIM001-SIM008 and SIM015 rule set.

Every rule guards one clause of the simulator's determinism contract
(README "Determinism contract"): integer-cycle time, FIFO same-cycle event
order, seeded randomness, and no hidden wall-clock or ordering leaks --
or, for SIM015, keeps the contracts-off path free of contract calls.
Rules are pure AST analyses -- the linted code is never imported.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity
from .linter import Module
from .registry import Rule, rule

#: directories whose modules simulate (as opposed to drive experiments)
SIM_SCOPE = frozenset({"sim", "dram", "core", "sched", "workloads",
                       "tuning", "resilience", "validate"})
#: directories allowed to read wall-clock time (they report to humans)
WALL_CLOCK_EXEMPT = frozenset({"experiments", "benchmarks"})

#: methods that schedule events on the engine
_SCHEDULE_ATTRS = frozenset({"schedule", "schedule_in"})


def _walk(node: ast.AST) -> Iterator[ast.AST]:
    return ast.walk(node)


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target, best effort (``a.b.c`` -> "a.b.c")."""
    parts: List[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return ".".join(reversed(parts))


def _is_schedule_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCHEDULE_ATTRS)


def _cycle_argument(node: ast.Call) -> Optional[ast.expr]:
    """The ``when``/``delay`` expression of a schedule call, if present."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg in ("when", "delay"):
            return keyword.value
    return None


# ----------------------------------------------------------------------
# SIM001


@rule
class UnseededRandomRule(Rule):
    """Simulation code must only draw from explicitly seeded RNGs."""

    id = "SIM001"
    severity = Severity.ERROR
    title = "unseeded or module-level randomness in simulation code"
    fix_hint = ("use a seeded random.Random(seed) instance threaded through "
                "the component's constructor")
    scope_parts = SIM_SCOPE

    def check(self, module: Module) -> Iterable[Finding]:
        for node in _walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [alias.name for alias in node.names
                       if alias.name != "Random"]
                if bad:
                    yield module.finding(
                        self, node,
                        f"importing {', '.join(bad)} from random pulls in "
                        f"the shared module-level RNG")
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "random.Random":
                if not node.args and not node.keywords:
                    yield module.finding(
                        self, node,
                        "random.Random() without a seed expression is "
                        "nondeterministic across runs")
            elif name.startswith("random.") and name.count(".") == 1:
                yield module.finding(
                    self, node,
                    f"{name}() uses the process-global RNG; reproducibility "
                    f"then depends on call order across the whole program")
            elif name in ("np.random.default_rng", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    yield module.finding(
                        self, node,
                        "default_rng() without a seed is nondeterministic "
                        "across runs")
            elif (name.startswith("np.random.")
                  or name.startswith("numpy.random.")):
                yield module.finding(
                    self, node,
                    f"{name}() uses numpy's global RNG; use a seeded "
                    f"Generator instead")


# ----------------------------------------------------------------------
# SIM002


@rule
class WallClockRule(Rule):
    """Simulation results must not depend on when they were computed."""

    id = "SIM002"
    severity = Severity.ERROR
    title = "wall-clock time read outside experiments/benchmarks"
    fix_hint = ("derive time from Engine.now (simulated cycles); only the "
                "experiment/benchmark harnesses may measure wall time")
    exempt_parts = WALL_CLOCK_EXEMPT

    _TIME_ATTRS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                             "perf_counter", "perf_counter_ns",
                             "process_time", "process_time_ns"})
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def check(self, module: Module) -> Iterable[Finding]:
        for node in _walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [alias.name for alias in node.names
                       if alias.name in self._TIME_ATTRS]
                if bad:
                    yield module.finding(
                        self, node,
                        f"importing {', '.join(bad)} from time gives "
                        f"simulation code access to the wall clock")
                continue
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if (isinstance(value, ast.Name) and value.id == "time"
                    and node.attr in self._TIME_ATTRS):
                yield module.finding(
                    self, node,
                    f"time.{node.attr} reads the wall clock; simulation "
                    f"behaviour must depend only on cycle time")
            elif node.attr in self._DATETIME_ATTRS:
                base = value
                if isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in ("datetime",
                                                              "date"):
                    yield module.finding(
                        self, node,
                        f"datetime {node.attr}() reads the wall clock; "
                        f"simulation behaviour must depend only on cycle "
                        f"time")


# ----------------------------------------------------------------------
# SIM003


@rule
class FloatCycleRule(Rule):
    """Cycle arguments to the engine must stay integral."""

    id = "SIM003"
    severity = Severity.ERROR
    title = "float value flowing into an Engine.schedule cycle argument"
    fix_hint = ("keep cycle arithmetic integral: use // (and round "
                "ns-derived values inside repro.dram.timing), never / or "
                "float literals")

    def check(self, module: Module) -> Iterable[Finding]:
        for node in _walk(module.tree):
            if not _is_schedule_call(node):
                continue
            cycle = _cycle_argument(node)
            if cycle is None:
                continue
            reason = self._float_taint(cycle)
            if reason is not None:
                yield module.finding(
                    self, node,
                    f"cycle argument of {node.func.attr}() contains "
                    f"{reason}; simulated time is integer CPU cycles")

    @staticmethod
    def _float_taint(expr: ast.expr) -> Optional[str]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             float):
                return f"the float literal {node.value!r}"
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                return "a float() conversion"
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return "true division (/, which produces a float)"
        return None


# ----------------------------------------------------------------------
# SIM004


class _SelfMutationFinder(ast.NodeVisitor):
    """Does a loop body schedule events or mutate ``self`` state?"""

    _MUTATORS = frozenset({"add", "append", "appendleft", "extend", "insert",
                           "remove", "discard", "pop", "popleft", "clear",
                           "update", "setdefault", "push"})

    def __init__(self) -> None:
        self.reason: Optional[str] = None

    def _is_self_state(self, node: ast.expr) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def visit_Call(self, node: ast.Call) -> None:
        if self.reason is None and _is_schedule_call(node):
            self.reason = "schedules events"
        elif (self.reason is None and isinstance(node.func, ast.Attribute)
              and node.func.attr in self._MUTATORS
              and self._is_self_state(node.func.value)):
            self.reason = "mutates shared simulator state"
        self.generic_visit(node)

    def _check_targets(self, targets: Sequence[ast.expr]) -> None:
        if self.reason is None and any(self._is_self_state(t)
                                       for t in targets):
            self.reason = "mutates shared simulator state"

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_targets([node.target])
        self.generic_visit(node)


@rule
class UnsortedIterationRule(Rule):
    """Hash-ordered iteration must not drive scheduling or shared state."""

    id = "SIM004"
    severity = Severity.ERROR
    title = ("iteration over set/dict without sorted() in a loop that "
             "schedules events or mutates shared sim state")
    fix_hint = "wrap the iterable in sorted(...) to pin the visit order"

    _DICT_VIEWS = frozenset({"keys", "values", "items"})
    _WRAPPERS = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})

    def check(self, module: Module) -> Iterable[Finding]:
        for node in _walk(module.tree):
            if not isinstance(node, ast.For):
                continue
            what = self._unordered(node.iter)
            if what is None:
                continue
            finder = _SelfMutationFinder()
            for stmt in node.body:
                finder.visit(stmt)
            if finder.reason is None:
                continue
            yield module.finding(
                self, node,
                f"loop over {what} {finder.reason}; iteration order must "
                f"be made explicit")

    def _unordered(self, expr: ast.expr) -> Optional[str]:
        # peel order-preserving wrappers: list(x.items()) is still x-ordered
        while (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
               and expr.func.id in self._WRAPPERS and expr.args):
            expr = expr.args[0]
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in ("set",
                                                                    "frozenset"):
                return "a set"
            if (isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in self._DICT_VIEWS
                    and not expr.args):
                return f"a dict .{expr.func.attr}() view"
        return None


# ----------------------------------------------------------------------
# SIM005


@rule
class MutableDefaultRule(Rule):
    """Mutable default arguments alias state across instances and calls."""

    id = "SIM005"
    severity = Severity.WARNING
    title = "mutable default argument"
    fix_hint = "default to None and create the container inside the function"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in _walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._mutable(default):
                    yield module.finding(
                        self, default,
                        "mutable default argument is shared across every "
                        "call; state leaks between simulations")

    @staticmethod
    def _mutable(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("list", "dict", "set", "bytearray",
                                     "deque", "defaultdict", "Counter"))


# ----------------------------------------------------------------------
# SIM006


class _LambdaCaptureVisitor(ast.NodeVisitor):
    """Track loop-mutated names per function scope; flag schedule lambdas
    whose free variables are loop-mutated (late binding: the lambda sees
    the *last* value, silently reordering same-cycle behaviour)."""

    def __init__(self, rule_obj: Rule, module: Module) -> None:
        self.rule = rule_obj
        self.module = module
        self.findings: List[Finding] = []
        #: stack of per-loop sets of names rebound inside that loop
        self._loop_names: List[Set[str]] = []

    # -- scope management ------------------------------------------------

    def _enter_function(self, node: ast.AST) -> None:
        saved = self._loop_names
        self._loop_names = []
        for stmt in ast.iter_child_nodes(node):
            self.visit(stmt)
        self._loop_names = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    # -- loops -----------------------------------------------------------

    @staticmethod
    def _bound_names(target: ast.expr) -> Set[str]:
        # Only names actually rebound count: ``x = ...`` rebinds x, but
        # ``x.attr = ...`` / ``x[i] = ...`` mutate the object x refers to.
        names: Set[str] = set()
        stack: List[ast.expr] = [target]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.Tuple, ast.List)):
                stack.extend(node.elts)
            elif isinstance(node, ast.Starred):
                stack.append(node.value)
        return names

    def _loop_body_names(self, node: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    names |= self._bound_names(target)
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                names |= self._bound_names(child.target)
            elif isinstance(child, ast.For):
                names |= self._bound_names(child.target)
        return names

    def _enter_loop(self, node, iteration_target: Optional[ast.expr]) -> None:
        names = self._loop_body_names(node)
        if iteration_target is not None:
            names |= self._bound_names(iteration_target)
        self._loop_names.append(names)
        self.generic_visit(node)
        self._loop_names.pop()

    def visit_For(self, node: ast.For) -> None:
        self._enter_loop(node, node.target)

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(node, None)

    # -- the check -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if _is_schedule_call(node) and self._loop_names:
            rebound = set().union(*self._loop_names)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if not isinstance(arg, ast.Lambda):
                    continue
                captured = sorted(self._free_names(arg) & rebound)
                if captured:
                    self.findings.append(self.module.finding(
                        self.rule, arg,
                        f"lambda passed to {node.func.attr}() captures "
                        f"loop-rebound name(s) {', '.join(captured)} by "
                        f"reference; it will see the value from the last "
                        f"iteration"))
        self.generic_visit(node)

    @staticmethod
    def _free_names(lam: ast.Lambda) -> Set[str]:
        args = lam.args
        params = {a.arg for a in (args.args + args.posonlyargs
                                  + args.kwonlyargs)}
        if args.vararg:
            params.add(args.vararg.arg)
        if args.kwarg:
            params.add(args.kwarg.arg)
        return {child.id for child in ast.walk(lam.body)
                if isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)} - params


@rule
class ScheduleCallbackRule(Rule):
    """Schedule callbacks must not late-bind loop variables."""

    id = "SIM006"
    severity = Severity.ERROR
    title = "order-fragile lambda scheduled from inside a loop"
    fix_hint = ("bind the value as a lambda default (lambda r=request: ...) "
                "or pass a bound method / named function")

    def check(self, module: Module) -> Iterable[Finding]:
        visitor = _LambdaCaptureVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings


# ----------------------------------------------------------------------
# SIM007


@rule
class InlineTimingRule(Rule):
    """All ns->cycle conversion lives in repro.dram.timing."""

    id = "SIM007"
    severity = Severity.ERROR
    title = "inline ns->cycle arithmetic outside repro.dram.timing"
    fix_hint = ("express DRAM timing through repro.dram.timing (DramTiming "
                "fields / _mem_clocks) so rounding happens exactly once")

    #: names that look like a nanosecond quantity or a clock-ratio constant
    _NS_NAME = re.compile(r"(^ns$|_ns$|^ns_|_ns_|nanosecond)", re.IGNORECASE)
    _RATIO_NAMES = frozenset({"CPU_CYCLES_PER_MEM_CLOCK"})
    exempt_files = frozenset()

    def applies_to(self, module: Module) -> bool:
        if module.path.replace("\\", "/").endswith("dram/timing.py"):
            return False
        return super().applies_to(module)

    def check(self, module: Module) -> Iterable[Finding]:
        for node in _walk(module.tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name in self._RATIO_NAMES:
                    yield module.finding(
                        self, node,
                        f"{name} must only be used inside "
                        f"repro.dram.timing; call its conversion helpers "
                        f"instead")
            elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Mult, ast.Div, ast.FloorDiv)):
                for side in (node.left, node.right):
                    name = None
                    if isinstance(side, ast.Name):
                        name = side.id
                    elif isinstance(side, ast.Attribute):
                        name = side.attr
                    if name is not None and self._NS_NAME.search(name):
                        yield module.finding(
                            self, node,
                            f"arithmetic on nanosecond quantity "
                            f"'{name}' outside repro.dram.timing; inline "
                            f"conversions round differently at every site")
                        break


# ----------------------------------------------------------------------
# SIM008


@rule
class SwallowedExceptionRule(Rule):
    """Silently swallowed exceptions hide broken simulator state."""

    id = "SIM008"
    severity = Severity.WARNING
    title = "bare/broad except clause that swallows the exception"
    fix_hint = ("catch the specific exception you expect, or at minimum "
                "record the failure before continuing")

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module: Module) -> Iterable[Finding]:
        for node in _walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is not None and not (
                    isinstance(node.type, ast.Name)
                    and node.type.id in self._BROAD):
                continue
            if all(self._is_noop(stmt) for stmt in node.body):
                kind = "bare except" if node.type is None \
                    else f"except {node.type.id}"
                yield module.finding(
                    self, node,
                    f"{kind} with a pass-only body swallows failures that "
                    f"would otherwise expose corrupted simulator state")

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis)


# ----------------------------------------------------------------------
# SIM015


def _is_contracts_flag(test: ast.expr) -> bool:
    """``contracts.enabled``, alone or as one operand of an ``and``."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_is_contracts_flag(value) for value in test.values)
    return (isinstance(test, ast.Attribute) and test.attr == "enabled"
            and isinstance(test.value, ast.Name)
            and test.value.id == "contracts")


def _guarded_calls(node: ast.AST, guarded: bool = False,
                   function: Optional[str] = None,
                   ) -> Iterator[Tuple[ast.Call, bool, Optional[str]]]:
    """Every call under ``node``, with whether the body of an
    ``if contracts.enabled:`` encloses it and the name of its innermost
    enclosing function.  A ``def`` starts unguarded: its body runs where
    it is called, not where it is defined."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        guarded, function = False, node.name
    elif isinstance(node, ast.Call):
        yield node, guarded, function
    if isinstance(node, ast.If) and _is_contracts_flag(node.test):
        for stmt in node.body:
            yield from _guarded_calls(stmt, True, function)
        for stmt in node.orelse:
            yield from _guarded_calls(stmt, guarded, function)
        return
    for child in ast.iter_child_nodes(node):
        yield from _guarded_calls(child, guarded, function)


@rule
class UnguardedContractRule(Rule):
    """Runtime contracts cost nothing when off: every check is guarded."""

    id = "SIM015"
    severity = Severity.ERROR
    title = "contracts.check() call not inside an `if contracts.enabled:` block"
    fix_hint = ("write the contract as `if contracts.enabled: "
                "contracts.check(...)`, or move it into a private helper "
                "that is only called under that guard")

    scope_parts = frozenset({"sim", "core", "dram", "sched"})

    def check(self, module: Module) -> Iterable[Finding]:
        calls = list(_guarded_calls(module.tree))
        # A private helper counts as guarded when every call to it in
        # this module is (``CreditState._check_counters``).
        sites: Dict[str, List[bool]] = {}
        for call, guarded, _function in calls:
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name is not None:
                sites.setdefault(name, []).append(guarded)
        for call, guarded, function in calls:
            if guarded or _call_name(call) != "contracts.check":
                continue
            if function is not None and function.startswith("_") \
                    and all(sites.get(function, [False])):
                continue
            yield module.finding(
                self, call,
                "contracts.check() outside an `if contracts.enabled:` "
                "block computes its condition and makes a call even "
                "when contracts are off")
