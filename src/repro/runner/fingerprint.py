"""Code fingerprinting for campaign identity.

A stored result is only valid for the code that produced it.  The
fingerprint is a SHA-256 over the (path, content-hash) pairs of every
``*.py`` file in the installed ``repro`` package.  A fabric campaign's
id covers it (:meth:`repro.fabric.manifest.Manifest.campaign_id`,
:meth:`repro.fabric.queue.CampaignQueue.submit_specs`), so *any* source
change -- simulator, scheduler, experiment driver -- makes a re-run
submit a new campaign instead of resuming the old one's results.  That
is deliberately coarse: correctness beats result longevity.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def fingerprint_tree(root: Path) -> str:
    """SHA-256 over every ``*.py`` under ``root``, in sorted path order."""
    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        digest.update(relative.encode("utf-8"))
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Fingerprint of the currently importable ``repro`` source tree.

    Cached per process: the source tree is assumed immutable for the
    lifetime of a sweep (editing code mid-sweep voids the contract).
    """
    return fingerprint_tree(_package_root())
