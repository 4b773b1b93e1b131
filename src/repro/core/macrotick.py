"""Macro-tick eligibility: do a system's shapers share one ``T_r`` boundary?

MITTS resets every bin register at each ``T_r`` boundary (Algorithm 1).
The simulator applies that reset lazily: every shaper runs its
:class:`~repro.core.replenish.ResetReplenisher` clock inside
``earliest_issue``/``issue`` before reading credits, which is the only
replenishment path.  This module keeps the predicate that says whether a
system's shapers are *phase-aligned* -- all hybrid method 2, all on a plain
reset replenisher, sharing one period and one next boundary -- so that a
single per-window reset would cover them.  Workloads and traces use it to
classify configurations (aligned vs staggered vs unshaped).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .replenish import ResetReplenisher
from .shaper import MittsShaper


class MacroTickPump:
    """Namespace for :meth:`eligible` (no instances are built)."""

    __slots__ = ()

    @staticmethod
    def eligible(system) -> Optional[Tuple[int, int]]:
        """``(period, next_boundary)`` shared by all shapers, or ``None``."""
        period = None
        boundary = None
        for port in system.ports:
            limiter = port.limiter
            if type(limiter) is not MittsShaper:
                return None
            if limiter.method != MittsShaper.METHOD_DEDUCT_REFUND:
                return None
            replenisher = limiter.replenisher
            if type(replenisher) is not ResetReplenisher:
                return None
            if period is None:
                period = replenisher.period
                boundary = replenisher._next
            elif (replenisher.period != period
                  or replenisher._next != boundary):
                return None
        if period is None:
            return None
        return period, boundary
