"""An ambient runner, so inner layers can share one process pool.

The experiment CLI owns the :class:`~repro.runner.engine.Runner`;
``experiments/common.py`` helpers (``measure_alone``, the GA's batch
evaluator) discover it here instead of threading a ``runner=`` argument
through every ``run(scale=..., seed=...)`` signature in the registry.

No runner installed (the default) means "run serially" -- callers must
treat ``get_runner() is None`` as the serial path.  Pool workers always
start with none: a forked worker inherits this module's state, so the
runner's pool initializer clears it, which keeps workers from fanning
out recursively onto the parent's pool.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .engine import Runner

_current: Optional[Runner] = None


def get_runner() -> Optional[Runner]:
    """The ambient runner, or None when execution should stay serial."""
    return _current


def set_runner(runner: Optional[Runner]) -> Optional[Runner]:
    """Install ``runner`` as ambient; returns the previous one."""
    global _current
    previous = _current
    _current = runner
    return previous


@contextmanager
def using_runner(runner: Optional[Runner]) -> Iterator[Optional[Runner]]:
    """Scope ``runner`` as the ambient runner for a ``with`` block."""
    previous = set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)
