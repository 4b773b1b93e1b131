"""Static + dynamic guardrails for the simulator's determinism contract.

The MITTS reproduction depends on a contract the rest of the code merely
states in prose: simulation time is *integer CPU cycles*, same-cycle events
run in *FIFO scheduling order*, and every stochastic component draws from a
*seeded* ``random.Random``.  A silently nondeterministic or float-polluted
simulator invalidates every figure reproduction and every GA-tuned bin
configuration, so this package enforces the contract by machine:

``repro.analysis.simlint`` (:mod:`~repro.analysis.linter`,
:mod:`~repro.analysis.rules`)
    An AST-based static analyzer (stdlib only) with a pluggable rule
    registry and the SIM001-SIM008 and SIM015 rule set.  Run it as::

        python -m repro.analysis src
        python -m repro.analysis src --format json

    Findings can be suppressed per line with ``# simlint: disable=SIM001``
    and grandfathered through a committed baseline file (see
    :mod:`~repro.analysis.baseline`); the CLI exits nonzero on any
    non-baselined finding.

``repro.analysis.simflow`` (:mod:`~repro.analysis.flow`)
    The whole-program counterpart: a symbol table, an idiom-aware call
    graph, and the interprocedural SIM009-SIM014 rule set (effect
    inference, cycle-units dataflow, checkpoint/pickle safety).  Run it
    through the same CLI with ``--whole-program``; pragmas, baseline
    and JSON output are shared with simlint.

:mod:`repro.analysis.contracts`
    Runtime invariants wired into the simulator's hot seams -- engine
    time monotonicity and heap-FIFO order, shaper credits within
    ``[0, K_i]``, the 32-entry transaction-queue bound, DRAM row-buffer
    legality -- each written as ``if contracts.enabled:
    contracts.check(...)`` on the module's live flag.  Disabled by
    default; enable with the ``REPRO_CONTRACTS=1`` environment variable,
    :func:`repro.analysis.contracts.set_enabled` or
    :func:`repro.analysis.contracts.enabled_scope`.
"""

from __future__ import annotations

from .baseline import Baseline
from .contracts import ContractViolation, check
from .findings import Finding, Severity
from .linter import Linter, lint_paths
from .registry import all_rules, get_rule, rule

__all__ = [
    "Baseline",
    "ContractViolation",
    "Finding",
    "Linter",
    "Severity",
    "all_rules",
    "check",
    "get_rule",
    "lint_paths",
    "rule",
]
