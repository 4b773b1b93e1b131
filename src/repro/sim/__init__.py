"""Multicore simulator substrate (the paper's SDSim equivalent)."""

from .cache import Cache, CacheGeometry
from .core_model import CoreModel, ShaperPort
from .engine import Engine
from .llc import SharedLLC
from .memctrl import MemoryController, MemorySchedulerProtocol
from .ooo_core import WindowCoreModel
from .request import MemoryRequest
from .stats import CoreStats, SystemStats
from .system import (LARGE_LLC_CONFIG, MULTI_PROGRAM_CONFIG,
                     SCALED_LARGE_LLC_CONFIG, SCALED_MULTI_CONFIG,
                     SCALED_SINGLE_CONFIG, SINGLE_PROGRAM_CONFIG, SimSystem, SystemConfig,
                     single_config)

__all__ = [
    "Cache",
    "CacheGeometry",
    "CoreModel",
    "CoreStats",
    "Engine",
    "LARGE_LLC_CONFIG",
    "MULTI_PROGRAM_CONFIG",
    "MemoryController",
    "MemoryRequest",
    "MemorySchedulerProtocol",
    "SCALED_LARGE_LLC_CONFIG",
    "SCALED_MULTI_CONFIG",
    "SCALED_SINGLE_CONFIG",
    "SINGLE_PROGRAM_CONFIG",
    "SharedLLC",
    "ShaperPort",
    "SimSystem",
    "SystemConfig",
    "SystemStats",
    "WindowCoreModel",
    "single_config",
]
