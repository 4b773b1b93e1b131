"""Picklable, content-hashed job specifications.

A :class:`JobSpec` describes one unit of work -- "call this importable
function with these arguments" -- in a form that can cross a process
boundary (everything is plain data; the callable travels as its
``module:qualname`` path) and that can be *content-hashed* so the result
cache recognises identical work across runs.

The hash must be stable across processes and interpreter sessions, so it
is computed over a canonical recursive encoding rather than pickle bytes
(pickles of equal objects are not guaranteed byte-equal, and hash
randomisation makes set iteration order a trap).  Sets are rejected
outright: a spec containing one has no canonical order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple


class SpecError(ValueError):
    """A job spec is malformed (unresolvable callable, unhashable args)."""


# ----------------------------------------------------------------------
# callable <-> "module:qualname" paths


def callable_path(fn: Callable) -> str:
    """The importable ``module:qualname`` path of a top-level callable.

    Only module-level functions and classes round-trip through a process
    boundary by name; closures, lambdas, and bound methods are rejected
    early with a clear error instead of failing inside a worker.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise SpecError(f"{fn!r} has no importable module/qualname")
    if "<" in qualname or "." in qualname:
        raise SpecError(
            f"{fn!r} is not a top-level callable; workers can only "
            f"import module-level functions (got qualname {qualname!r})")
    path = f"{module}:{qualname}"
    if resolve_callable(path) is not fn:
        raise SpecError(f"{path} does not resolve back to {fn!r}")
    return path


def resolve_callable(path: str) -> Callable:
    """Import the callable named by a ``module:qualname`` path."""
    module_name, _, qualname = path.partition(":")
    if not module_name or not qualname:
        raise SpecError(f"malformed callable path {path!r} "
                        f"(expected 'module:qualname')")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, qualname)
    except AttributeError:
        raise SpecError(f"{module_name} has no attribute {qualname!r}"
                        ) from None
    if not callable(fn):
        raise SpecError(f"{path} resolves to non-callable {fn!r}")
    return fn


# ----------------------------------------------------------------------
# canonical content hashing


def _canonical(value: Any) -> Any:
    """A deterministic, order-pinned encoding of ``value`` for hashing."""
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return ("prim", type(value).__name__, repr(value))
    if isinstance(value, float):
        # repr() of a float is shortest-round-trip: stable across runs.
        return ("prim", "float", repr(value))
    if isinstance(value, (set, frozenset)):
        raise SpecError("sets have no canonical order and cannot appear "
                        "in a JobSpec; use a sorted tuple")
    if isinstance(value, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in value.items()]
        return ("map", tuple(sorted(items)))
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return ("ntup", type(value).__name__,
                tuple(_canonical(v) for v in value))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value)}
        return ("obj", type(value).__qualname__, _canonical(fields))
    if isinstance(value, type) or callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", repr(value))
        return ("ref", f"{module}:{qualname}")
    state = getattr(value, "__dict__", None)
    if state is not None:
        return ("obj", type(value).__qualname__, _canonical(state))
    raise SpecError(f"cannot canonically hash {type(value).__name__!r} "
                    f"value {value!r}")


def content_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``value``."""
    encoded = repr(_canonical(value)).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


# ----------------------------------------------------------------------
# the spec itself


@dataclass(frozen=True)
class JobSpec:
    """One independent unit of work for the runner.

    ``seed`` and ``scale`` are first-class fields (not buried in kwargs)
    because they are the two knobs every sweep varies and the results
    database keys on; they are informational here -- the callable still
    receives them through ``args``/``kwargs`` like any other argument.
    """

    job_id: str
    fn: str
    args: Tuple = ()
    kwargs: Tuple = ()
    seed: Optional[int] = None
    scale: Optional[str] = None
    #: per-job overrides of the runner's timeout/retry policy
    timeout: Optional[float] = None
    retries: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise SpecError("job_id must be non-empty")
        if ":" not in self.fn:
            raise SpecError(f"fn must be a 'module:qualname' path, "
                            f"got {self.fn!r}")

    @classmethod
    def create(cls, job_id: str, fn, *args, seed: Optional[int] = None,
               scale: Optional[str] = None, timeout: Optional[float] = None,
               retries: Optional[int] = None, **kwargs) -> "JobSpec":
        """Build a spec from a callable (or path) and its call arguments."""
        path = fn if isinstance(fn, str) else callable_path(fn)
        return cls(job_id=job_id, fn=path, args=tuple(args),
                   kwargs=tuple(sorted(kwargs.items())),
                   seed=seed, scale=scale, timeout=timeout, retries=retries)

    def spec_hash(self) -> str:
        """Content hash of the *work* (callable + arguments).

        Deliberately excludes ``job_id`` (a display name), ``timeout`` and
        ``retries`` (execution policy): none of them change the result.
        """
        return content_hash({"fn": self.fn, "args": self.args,
                             "kwargs": self.kwargs, "seed": self.seed,
                             "scale": self.scale})

    def resolve(self) -> Callable:
        return resolve_callable(self.fn)

    def call_kwargs(self) -> dict:
        return dict(self.kwargs)
