"""Analytic validation: bound oracle + property-based test harness.

Two halves (DESIGN.md section 13):

* :mod:`repro.validate.bounds` derives network-calculus arrival curves,
  a guaranteed-rate DRAM service model, and worst-case backlog/sojourn
  bounds from a MITTS configuration, and asserts them against a live
  simulation via :class:`BoundChecker` (raising structured, picklable
  :class:`BoundViolation` errors through the contracts observer hook).
* :mod:`repro.validate.properties` generates seeded random scenarios
  and checks differential properties across them -- kernel equivalence,
  checkpoint-resume, id-relabeling invariance, credit monotonicity,
  bounds-hold, and the closed-form shaper release time against a
  probe-walk oracle -- with shrinking of failures to minimal horizons.

``python -m repro.validate --scenarios N --seed S`` runs the harness
from the command line (see :mod:`repro.validate.__main__`).
"""

from .bounds import (ArrivalCurve, BoundChecker, BoundViolation,
                     ServiceModel, SystemBounds, arrival_curve,
                     attach_checker, derive_bounds, service_model)
from .properties import (PROPERTIES, Failure, PropertyFailure, Scenario,
                         build_system, generate_scenario, run_scenario,
                         shrink_cycles)

__all__ = [
    "ArrivalCurve",
    "BoundChecker",
    "BoundViolation",
    "ServiceModel",
    "SystemBounds",
    "arrival_curve",
    "attach_checker",
    "derive_bounds",
    "service_model",
    "PROPERTIES",
    "Failure",
    "PropertyFailure",
    "Scenario",
    "build_system",
    "generate_scenario",
    "run_scenario",
    "shrink_cycles",
]
