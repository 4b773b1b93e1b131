"""Runtime invariant contracts for the simulator's hot seams.

Static analysis (simlint) catches contract violations it can see in the
source; this module catches the ones that only appear at runtime -- a
refactored event queue that loses FIFO order, a scheduler bug that drives
a shaper bin negative, a float sneaking into cycle arithmetic through a
config value.  Checks are **off by default**.

Enable them:

* process-wide via the environment: ``REPRO_CONTRACTS=1 pytest``
* programmatically: ``contracts.set_enabled(True)`` / ``set_enabled(False)``
* scoped (tests): ``with contracts.enabled_scope(): ...``

Every runtime contract has one form, an inline guard on the live flag::

    if contracts.enabled:
        contracts.check(condition, "message %d", value)

Nothing captures or rebinds the flag, so a toggle takes effect at the
next guard (for the engine's event loop: at the next ``Engine.run``),
with no rebuild and no reload; a disabled guard costs one attribute read
and makes no call.  simlint's SIM015 keeps every ``contracts.check`` in
the simulator packages behind such a guard.  Contracts are *observers
only*: they never mutate simulator state, so enabling them cannot change
simulation results (pinned by ``tests/test_determinism.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, List


class ContractViolation(AssertionError):
    """A runtime invariant of the simulator was broken.

    Subclasses :class:`AssertionError` so harnesses that already treat
    assertion failures as fatal do the right thing, while still being
    catchable specifically.
    """


#: callables notified with each ContractViolation before it propagates
#: (fault-injection harnesses proving a contract actually fired)
_observers: List[Callable[[ContractViolation], None]] = []


def add_observer(observer: Callable[[ContractViolation], None]) -> None:
    """Register a callback invoked with every violation before it raises."""
    _observers.append(observer)


def remove_observer(observer: Callable[[ContractViolation], None]) -> None:
    """Unregister a callback; missing observers are ignored."""
    try:
        _observers.remove(observer)
    except ValueError:
        return


@contextmanager
def observing(observer: Callable[[ContractViolation], None]) -> Iterator[None]:
    """Scope an observer registration (always unregisters on exit)."""
    add_observer(observer)
    try:
        yield
    finally:
        remove_observer(observer)


def violate(error: ContractViolation) -> None:
    """Announce a pre-built violation to every observer, then raise it.

    Observers run *before* the raise so a harness can capture the
    violation even when an outer layer swallows the exception; an
    observer that itself raises does not mask the violation.  Runtime
    monitors that carry structured diagnostics (the bound checker's
    :class:`repro.validate.BoundViolation`) construct their own
    :class:`ContractViolation` subclass and hand it here, so one observer
    registration sees both kinds of failure.
    """
    for observer in list(_observers):
        try:
            observer(error)
        except Exception:
            # A broken observer must not mask the real violation.
            continue
    raise error


def _violate(message: str) -> None:
    """Build, announce, and raise a plain :class:`ContractViolation`."""
    violate(ContractViolation(message))


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_CONTRACTS", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


#: the live flag every guard reads; set it through :func:`set_enabled`
#: or :func:`enabled_scope`, never capture it
enabled: bool = _env_enabled()


def set_enabled(on: bool) -> bool:
    """Turn contracts on/off globally; returns the previous setting."""
    global enabled
    previous = enabled
    enabled = bool(on)
    return previous


@contextmanager
def enabled_scope(on: bool = True) -> Iterator[None]:
    """Context manager enabling (or disabling) contracts within a block."""
    previous = set_enabled(on)
    try:
        yield
    finally:
        set_enabled(previous)


def check(condition: bool, message: str, *args: object) -> None:
    """Raise :class:`ContractViolation` unless ``condition`` holds.

    A no-op while contracts are disabled.  The condition is evaluated by
    the *caller*, so simulator code guards the call with
    ``if contracts.enabled:`` to compute nothing when contracts are off.
    """
    if enabled and not condition:
        _violate(message % args if args else message)
