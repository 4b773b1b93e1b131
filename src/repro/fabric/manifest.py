"""Campaign manifests: sweeps declared as data.

A manifest is a small YAML/JSON document that *declares* a sweep --
which callable to run, a parameter grid and/or zipped axes, seeds,
scales, and a per-job timeout/retry policy -- and expands
**deterministically** into content-hashed
:class:`~repro.runner.jobspec.JobSpec` lists with stable campaign and
job identities.  Declaring sweeps as data is what makes them portable
(submit on one machine, drain on several), resumable (the expansion is a
pure function of the manifest, so a re-submit finds the same jobs), and
queryable (the results database records the parameters each job was
expanded with).

Example::

    name: fig12-seeds
    fn: repro.experiments:run_experiment
    fixed:
      name: fig12
    grid:
      scale: [smoke]
      seed: [1, 2, 3]
    policy:
      timeout: 600
      retries: 2

Expansion order is pinned: grid axes are iterated in **sorted key
order** (last key fastest, like an odometer), zip rows after the grid,
in declared row order.  Two parameter conventions are special-cased:
``seed`` and ``scale`` values are copied into the spec's first-class
``seed``/``scale`` fields so the results database can key on them
without parsing kwargs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..runner.fingerprint import code_fingerprint
from ..runner.jobspec import JobSpec, content_hash

#: characters of the campaign content hash used as the campaign id
CAMPAIGN_ID_LENGTH = 12

#: manifest keys accepted at the top level (anything else is a typo)
_KNOWN_KEYS = frozenset({"name", "fn", "fixed", "grid", "zip", "policy"})
_KNOWN_POLICY_KEYS = frozenset({"timeout", "retries"})


class ManifestError(ValueError):
    """A campaign manifest is malformed."""


@dataclass(frozen=True)
class Policy:
    """Per-job execution policy applied to every expanded spec."""

    timeout: Optional[float] = None
    retries: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"timeout": self.timeout, "retries": self.retries}


@dataclass(frozen=True)
class Manifest:
    """A validated, normalised campaign declaration.

    ``grid`` maps parameter names to value lists (cartesian product);
    ``zip_axes`` maps parameter names to equal-length lists advanced in
    lockstep (one zipped row per position).  ``fixed`` parameters are
    passed to every job unchanged.
    """

    name: str
    fn: str
    fixed: Tuple[Tuple[str, Any], ...] = ()
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    zip_axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    policy: Policy = field(default_factory=Policy)

    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """The canonical JSON-able form (what the campaign id hashes)."""
        return {
            "name": self.name,
            "fn": self.fn,
            "fixed": {key: value for key, value in self.fixed},
            "grid": {key: list(values) for key, values in self.grid},
            "zip": {key: list(values) for key, values in self.zip_axes},
            "policy": self.policy.as_dict(),
        }

    def campaign_id(self) -> str:
        """Stable content-derived campaign identity.

        Two textually different manifests that normalise to the same
        declaration (reordered keys, JSON vs YAML) share a campaign; any
        change to the declared work, or to the source tree that runs it
        (:func:`~repro.runner.fingerprint.code_fingerprint`), produces a
        new campaign, so a re-submit never serves results computed by
        other code.
        """
        return content_hash({"manifest": self.as_dict(),
                             "code": code_fingerprint()}
                            )[:CAMPAIGN_ID_LENGTH]

    def num_jobs(self) -> int:
        total = 1
        for _key, values in self.grid:
            total *= len(values)
        if self.zip_axes:
            total *= len(self.zip_axes[0][1])
        return total

    # ------------------------------------------------------------------

    def expand(self) -> List[JobSpec]:
        """Deterministically expand into one :class:`JobSpec` per job.

        Job ids are ``<name>:<index>`` with a fixed-width zero-padded
        index, so filesystem listings, database ordering, and submission
        order all agree.
        """
        points = self._parameter_points()
        width = max(5, len(str(max(len(points) - 1, 0))))
        specs = []
        for index, params in enumerate(points):
            job_id = f"{self.name}:{index:0{width}d}"
            seed = params.get("seed")
            scale = params.get("scale")
            # Built directly (not via JobSpec.create) because "seed" and
            # "scale" legitimately appear both as call kwargs and as the
            # spec's first-class database-key fields.
            specs.append(JobSpec(
                job_id=job_id, fn=self.fn,
                kwargs=tuple(sorted(params.items())),
                seed=seed if isinstance(seed, int) else None,
                scale=scale if isinstance(scale, str) else None,
                timeout=self.policy.timeout,
                retries=self.policy.retries))
        return specs

    def _parameter_points(self) -> List[Dict[str, Any]]:
        """Every job's parameter dict, in pinned expansion order."""
        grid_points: List[Dict[str, Any]] = [{}]
        for key, values in self.grid:  # already sorted by key
            grid_points = [dict(point, **{key: value})
                           for point in grid_points for value in values]
        zip_rows: List[Dict[str, Any]] = [{}]
        if self.zip_axes:
            length = len(self.zip_axes[0][1])
            zip_rows = [{key: values[position]
                         for key, values in self.zip_axes}
                        for position in range(length)]
        fixed = dict(self.fixed)
        return [dict(fixed, **point, **row)
                for point in grid_points for row in zip_rows]


# ----------------------------------------------------------------------
# parsing / validation


def parse_manifest(document: Union[Dict[str, Any], str, Path]) -> Manifest:
    """Build a validated :class:`Manifest` from a dict or a file path.

    ``.yaml``/``.yml`` files need PyYAML; ``.json`` (and dicts) work
    everywhere.  Every structural error is reported as a
    :class:`ManifestError` naming the offending key.
    """
    if isinstance(document, (str, Path)):
        document = _load_document(Path(document))
    if not isinstance(document, dict):
        raise ManifestError(f"manifest must be a mapping, "
                            f"got {type(document).__name__}")
    unknown = sorted(set(document) - _KNOWN_KEYS)
    if unknown:
        raise ManifestError(f"unknown manifest key(s) {unknown}; "
                            f"known: {sorted(_KNOWN_KEYS)}")

    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise ManifestError("manifest needs a non-empty string 'name'")
    if any(ch in name for ch in "/\\: \t\n"):
        raise ManifestError(f"manifest name {name!r} must not contain "
                            f"path separators, colons, or whitespace")
    fn = document.get("fn")
    if not isinstance(fn, str) or ":" not in fn:
        raise ManifestError("manifest needs fn: 'module:qualname' "
                            f"(got {fn!r})")

    fixed = _require_mapping(document.get("fixed", {}), "fixed")
    grid_map = _require_mapping(document.get("grid", {}), "grid")
    zip_map = _require_mapping(document.get("zip", {}), "zip")

    grid = []
    for key in sorted(grid_map):
        values = grid_map[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise ManifestError(f"grid axis {key!r} must be a non-empty "
                                f"list (got {values!r})")
        grid.append((key, tuple(values)))

    zip_axes = []
    lengths = set()
    for key, values in zip_map.items():  # declared order is meaningful
        if not isinstance(values, (list, tuple)) or not values:
            raise ManifestError(f"zip axis {key!r} must be a non-empty "
                                f"list (got {values!r})")
        lengths.add(len(values))
        zip_axes.append((key, tuple(values)))
    if len(lengths) > 1:
        raise ManifestError(f"zip axes must share one length, got "
                            f"{sorted(lengths)}")

    overlap = ({key for key, _ in grid} & {key for key, _ in zip_axes}) \
        | (set(fixed) & ({key for key, _ in grid}
                         | {key for key, _ in zip_axes}))
    if overlap:
        raise ManifestError(f"parameter(s) {sorted(overlap)} declared in "
                            f"more than one of fixed/grid/zip")

    policy_map = _require_mapping(document.get("policy", {}), "policy")
    unknown = sorted(set(policy_map) - _KNOWN_POLICY_KEYS)
    if unknown:
        raise ManifestError(f"unknown policy key(s) {unknown}; "
                            f"known: {sorted(_KNOWN_POLICY_KEYS)}")
    timeout = policy_map.get("timeout")
    if timeout is not None and (not isinstance(timeout, (int, float))
                                or timeout <= 0):
        raise ManifestError(f"policy.timeout must be a positive number, "
                            f"got {timeout!r}")
    retries = policy_map.get("retries")
    if retries is not None and (not isinstance(retries, int) or retries < 0):
        raise ManifestError(f"policy.retries must be a non-negative "
                            f"integer, got {retries!r}")

    return Manifest(
        name=name, fn=fn,
        fixed=tuple(sorted(fixed.items())),
        grid=tuple(grid),
        zip_axes=tuple(zip_axes),
        policy=Policy(timeout=float(timeout) if timeout is not None
                      else None,
                      retries=retries))


def _require_mapping(value: Any, key: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ManifestError(f"manifest {key!r} must be a mapping, "
                            f"got {type(value).__name__}")
    for parameter in value:
        if not isinstance(parameter, str) or not parameter.isidentifier():
            raise ManifestError(f"{key} parameter {parameter!r} is not a "
                                f"valid keyword argument name")
    return value


def _load_document(path: Path) -> Dict[str, Any]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ManifestError(
                f"{path} is YAML but PyYAML is not installed; "
                f"convert the manifest to JSON") from None
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ManifestError(f"invalid YAML in {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ManifestError(f"invalid JSON in {path}: {exc}") from exc


def figure_manifest(experiments: Sequence[str], scale: str = "smoke",
                    seeds: Sequence[int] = (1,),
                    timeout: Optional[float] = None,
                    retries: Optional[int] = None,
                    name: Optional[str] = None) -> Manifest:
    """A manifest that routes registered experiment figures through the
    fabric (the ``python -m repro.experiments --campaign`` entry point
    and the docs' walkthrough both build their manifests here)."""
    if not experiments:
        raise ManifestError("need at least one experiment id")
    document = {
        "name": name or "figures",
        "fn": "repro.experiments:run_experiment",
        "fixed": {"scale": scale},
        "grid": {"name": sorted(experiments), "seed": [int(s) for s in seeds]},
        "policy": {"timeout": timeout, "retries": retries},
    }
    document["policy"] = {key: value
                          for key, value in document["policy"].items()
                          if value is not None}
    return parse_manifest(document)
