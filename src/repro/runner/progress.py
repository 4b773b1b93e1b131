"""Progress and ETA reporting for sweeps.

Reports to ``stderr`` so stdout stays clean for experiment tables and
JSON.  The ETA is a deliberately simple estimate -- mean wall-clock per
finished job, scaled by remaining jobs over worker count -- which is
accurate for the homogeneous fan-outs the runner executes (same
experiment at the same scale, or one GA generation's genomes).

Wall-clock access goes through :mod:`repro.runner.wallclock` only; ETA
numbers are presentation, never results.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from . import wallclock


@dataclass
class ProgressReporter:
    """Line-per-update progress for one sweep."""

    total: int
    label: str = "sweep"
    enabled: bool = True
    jobs: int = 1
    #: minimum seconds between printed lines (final line always prints)
    min_interval: float = 0.5
    stream: Optional[object] = None

    done: int = field(default=0, init=False)
    failed: int = field(default=0, init=False)
    _seconds: float = field(default=0.0, init=False)
    _started: float = field(default=0.0, init=False)
    _last_print: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self._started = wallclock.now()

    # ------------------------------------------------------------------

    def job_done(self, failed: bool = False, duration: float = 0.0) -> None:
        """Record one finished job and maybe print a progress line."""
        self.done += 1
        if failed:
            self.failed += 1
        self._seconds += max(duration, 0.0)
        self._maybe_print(final=self.done >= self.total)

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion, or None when unknowable.

        Guarded against every degenerate shape a sweep can take: an
        empty or finished sweep is 0.0; nothing finished yet, or an
        observed total of zero seconds (timer resolution, all-instant
        jobs), is None -- not a division by zero, and not an eta of 0
        extrapolated for work that has not run.
        """
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if self._seconds <= 0.0:
            return None
        return self._seconds / self.done * remaining / max(1, self.jobs)

    # ------------------------------------------------------------------

    def _maybe_print(self, final: bool) -> None:
        if not self.enabled:
            return
        now = wallclock.now()
        if not final and now - self._last_print < self.min_interval:
            return
        self._last_print = now
        eta = self.eta_seconds()
        eta_text = "" if eta is None else f", eta {_format_seconds(eta)}"
        extra_text = f" ({self.failed} failed)" if self.failed else ""
        stream = self.stream if self.stream is not None else sys.stderr
        print(f"[{self.label}] {self.done}/{self.total} done"
              f"{extra_text}{eta_text}", file=stream, flush=True)


def _format_seconds(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, rest = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{rest:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
