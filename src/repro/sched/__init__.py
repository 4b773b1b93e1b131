"""Comparator memory schedulers and the MITTS+MISE hybrid.

The Section IV-D comparison set: FR-FCFS, FairQueue, TCM, FST, MemGuard
and MISE, plus the FCFS baseline.
"""

from .base import FcfsScheduler, FrFcfsScheduler, MemoryScheduler
from .fairqueue import FairQueueScheduler
from .fst import FstController
from .hybrid import build_hybrid
from .memguard import MemGuardScheduler
from .mise import MiseScheduler
from .tcm import TcmScheduler

__all__ = [
    "FairQueueScheduler",
    "FcfsScheduler",
    "FrFcfsScheduler",
    "FstController",
    "MemGuardScheduler",
    "MemoryScheduler",
    "MiseScheduler",
    "TcmScheduler",
    "build_hybrid",
]
