"""Result persistence: save experiment outputs, reload them, diff runs.

A reproduction is only useful if runs can be compared across code
revisions, seeds, and scales.  ``save_result``/``load_result`` serialise
:class:`~repro.experiments.common.Result` to JSON;
``diff_summaries`` reports relative changes between two runs'
summary metrics, which is what a regression check actually wants.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Union

from .common import Result

_FORMAT_VERSION = 1


def save_result(result: Result, path: Union[str, Path],
                metadata: Dict = None) -> Path:
    """Write a result (plus optional run metadata) as JSON."""
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "result": asdict(result),
        "metadata": dict(metadata or {}),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True),
                    encoding="utf-8")
    return path


def load_result(path: Union[str, Path]) -> Result:
    """Reload a result saved by :func:`save_result`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported result format {version!r}")
    return result_from_dict(payload["result"])


def result_from_dict(raw: Dict) -> Result:
    """Rebuild a :class:`Result` from its ``asdict`` form (a saved
    document's ``result``, or a campaign job's stored ``value_json``)."""
    return Result(experiment=raw["experiment"], title=raw["title"],
                  headers=raw["headers"], rows=raw["rows"],
                  notes=raw["notes"], summary=raw["summary"])


def load_metadata(path: Union[str, Path]) -> Dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return payload.get("metadata", {})


def diff_summaries(before: Result, after: Result,
                   tolerance: float = 0.02) -> List[Dict]:
    """Relative summary-metric changes between two runs.

    Returns one record per metric present in either run:
    ``{"metric", "before", "after", "relative_change", "significant"}``.
    ``significant`` flags changes beyond ``tolerance`` (and metrics that
    appeared or disappeared).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    records: List[Dict] = []
    keys = sorted(set(before.summary) | set(after.summary))
    for key in keys:
        old = before.summary.get(key)
        new = after.summary.get(key)
        if old is None or new is None:
            records.append({"metric": key, "before": old, "after": new,
                            "relative_change": None,
                            "significant": True})
            continue
        base = max(abs(old), 1e-12)
        change = (new - old) / base
        records.append({"metric": key, "before": old, "after": new,
                        "relative_change": change,
                        "significant": abs(change) > tolerance})
    return records


def diff_result_dirs(before_dir: Union[str, Path],
                     after_dir: Union[str, Path],
                     tolerance: float = 0.02) -> Dict:
    """Compare every ``<experiment>.json`` common to two result dirs.

    Returns ``{"experiments": {name: [diff records]}, "only_before":
    [...], "only_after": [...]}`` where the per-experiment records come
    from :func:`diff_summaries`.  This is the regression check behind
    ``python -m repro.experiments --diff BEFORE_DIR AFTER_DIR``.
    """
    before_dir, after_dir = Path(before_dir), Path(after_dir)
    before_files = {path.stem: path for path in before_dir.glob("*.json")}
    after_files = {path.stem: path for path in after_dir.glob("*.json")}
    common = sorted(set(before_files) & set(after_files))
    experiments = {}
    for name in common:
        experiments[name] = diff_summaries(
            load_result(before_files[name]), load_result(after_files[name]),
            tolerance=tolerance)
    return {
        "experiments": experiments,
        "only_before": sorted(set(before_files) - set(after_files)),
        "only_after": sorted(set(after_files) - set(before_files)),
    }


def save_all(results: List[Result], directory: Union[str, Path],
             metadata: Dict = None) -> List[Path]:
    """Save a batch of results as ``<experiment>.json`` files."""
    directory = Path(directory)
    paths = []
    for result in results:
        paths.append(save_result(
            result, directory / f"{result.experiment}.json", metadata))
    return paths
