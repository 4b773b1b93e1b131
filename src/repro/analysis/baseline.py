"""Baseline files: grandfather existing findings, fail only on new ones.

A baseline is a committed JSON file holding the fingerprints of known
findings.  ``python -m repro.analysis src --baseline simlint-baseline.json``
subtracts them, so a rule can be introduced (or tightened) without forcing
an immediate fix of every historical hit -- while any *new* violation still
fails the build.  This repo ships an empty baseline on purpose: all real
findings were fixed rather than grandfathered.

Fingerprints key on (path, rule, hash of the stripped source line), not on
line numbers, so unrelated edits to a file do not un-baseline its entries.
Duplicate identical lines are handled as a multiset.

Format version 2 partitions fingerprints by analysis pass::

    {"version": 2,
     "passes": {"simlint": ["src/a.py::SIM004::ab12..."],
                "simflow": ["src/b.py::SIM013::cd34..."]}}

``simlint`` holds the per-file rules (SIM001-SIM008 and SIM015),
``simflow`` the whole-program rules (SIM009-SIM014).  The partition is
derived from the rule id embedded in each fingerprint, so the two passes
can be re-baselined independently without clobbering each other.  Version-1 files (one flat
``fingerprints`` list) still load -- the shim migrates them in memory and
the next ``--write-baseline`` persists version 2.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from .findings import Finding

FORMAT_VERSION = 2

#: rule numbers of the whole-program pass; every other rule is per-file
WHOLE_PROGRAM_RULES = range(9, 15)

_FINGERPRINT_RULE = re.compile(r"::SIM(\d{3})::")


def pass_for_rule(rule_id: str) -> str:
    """Which analysis pass owns a rule id ('simlint' or 'simflow')."""
    match = re.match(r"^SIM(\d{3})$", rule_id)
    if match and int(match.group(1)) in WHOLE_PROGRAM_RULES:
        return "simflow"
    return "simlint"


def _pass_for_fingerprint(fingerprint: str) -> str:
    match = _FINGERPRINT_RULE.search(fingerprint)
    if match and int(match.group(1)) in WHOLE_PROGRAM_RULES:
        return "simflow"
    return "simlint"


class Baseline:
    """A multiset of grandfathered finding fingerprints."""

    def __init__(self, fingerprints: Iterable[str] = ()) -> None:
        self.fingerprints = Counter(fingerprints)

    # ------------------------------------------------------------------
    # persistence

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"{path} is not a simlint baseline")
        version = payload.get("version", 1)
        if version == FORMAT_VERSION:
            passes = payload.get("passes")
            if not isinstance(passes, dict):
                raise ValueError(f"{path} is a version-2 baseline without "
                                 f"a 'passes' section")
            merged: List[str] = []
            for name in sorted(passes):
                entries = passes[name]
                if not isinstance(entries, list):
                    raise ValueError(f"{path}: pass {name!r} must hold a "
                                     f"list of fingerprints")
                merged.extend(entries)
            return cls(merged)
        if version == 1:
            # migration shim: version-1 files carried one flat list
            if "fingerprints" not in payload:
                raise ValueError(f"{path} is not a simlint baseline "
                                 f"(missing 'fingerprints')")
            return cls(payload["fingerprints"])
        raise ValueError(f"{path} has unsupported baseline version "
                         f"{version!r}")

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(finding.fingerprint() for finding in findings)

    def save(self, path: str) -> None:
        passes: Dict[str, List[str]] = {"simlint": [], "simflow": []}
        for fingerprint in sorted(self.fingerprints.elements()):
            passes[_pass_for_fingerprint(fingerprint)].append(fingerprint)
        payload = {
            "version": FORMAT_VERSION,
            "passes": passes,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # ------------------------------------------------------------------
    # filtering

    def split(self, findings: Sequence[Finding]
              ) -> Tuple[List[Finding], List[Finding]]:
        """Partition ``findings`` into (new, grandfathered)."""
        remaining = Counter(self.fingerprints)
        new: List[Finding] = []
        old: List[Finding] = []
        for finding in findings:
            key = finding.fingerprint()
            if remaining[key] > 0:
                remaining[key] -= 1
                old.append(finding)
            else:
                new.append(finding)
        return new, old

    def __len__(self) -> int:
        return sum(self.fingerprints.values())
