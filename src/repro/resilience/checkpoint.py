"""Checkpoint/restore for a live :class:`~repro.sim.system.SimSystem`.

A checkpoint is the *entire* simulator object graph -- event heap,
core/cache/LLC/MC/DRAM state, shapers and credit counters, statistics,
and the per-system :class:`~repro.sim.request.RequestIdAllocator` --
pickled at a cycle boundary (between ``system.run`` calls, never
mid-event).  Whole-graph serialisation is what makes resume *bit-exact*:
there is no hand-written save/restore list to fall out of sync with a new
component, and the golden-fingerprint tests prove a resumed run
reproduces an uninterrupted one hash-for-hash
(``tests/test_resilience_checkpoint.py``).

On-disk format (versioned + checksummed)::

    repro-checkpoint-v13\n
    <sha256 hex of meta+body>\n
    <one-line JSON meta: version, cycle, cores, pending_events>\n
    <pickle body>

Writes are atomic (temp file + ``os.replace``), so a reader can only ever
observe a complete checkpoint; a truncated or bit-rotted file fails the
digest and raises :class:`CheckpointError` -- callers (the runner, the
chaos suite) treat that as "no checkpoint" and recompute from cycle 0.

A restore needs no fix-up: nothing in the graph captures the contracts
flag (every guard reads the live ``repro.analysis.contracts.enabled``),
so a checkpoint saved with contracts off resumes checked under
``REPRO_CONTRACTS=1``, and vice versa.

This module also hosts the *ambient job checkpoint path*: the runner
assigns each job a deterministic checkpoint file (keyed by spec hash) and
publishes it here; simulation entry points that opt into periodic
checkpointing call :func:`run_with_checkpoints`, which picks the path up
without threading it through every call signature.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


#: bump when the on-disk layout or the shape of the pickled object graph
#: changes (slots or config fields added/removed), so an old file fails
#: with :class:`CheckpointError` instead of a half-restored object
CHECKPOINT_VERSION = 13
_MAGIC_PREFIX = b"repro-checkpoint-v"
_MAGIC = _MAGIC_PREFIX + b"%d\n" % CHECKPOINT_VERSION

#: default cycles between periodic checkpoints in run_with_checkpoints
DEFAULT_CHECKPOINT_INTERVAL = 50_000


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or trusted."""


# ----------------------------------------------------------------------
# save / load


def save_checkpoint(system, path) -> None:
    """Atomically serialise ``system`` to ``path``.

    Call between ``system.run`` invocations (at a cycle boundary): the
    event heap is consistent there, and resuming replays the remaining
    events in exactly the order the uninterrupted run would have.
    """
    try:
        body = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        # Most commonly an unpicklable workload iterator (a generator
        # trace); surface *what* blocked the checkpoint, not a bare
        # pickle traceback deep inside the object graph.
        raise CheckpointError(
            f"system is not checkpointable: {type(exc).__name__}: {exc}"
        ) from exc
    meta = json.dumps(
        {"version": CHECKPOINT_VERSION,
         "cycle": system.engine.now,
         "cores": len(system.cores),
         "pending_events": system.engine.pending_events},
        sort_keys=True, separators=(",", ":")).encode("ascii")
    digest = hashlib.sha256(meta + b"\n" + body).hexdigest().encode("ascii")

    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(_MAGIC + digest + b"\n" + meta + b"\n" + body)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}"
                              ) from exc


def _parse(raw: bytes, path: str):
    if not raw.startswith(_MAGIC):
        head = raw.partition(b"\n")[0]
        if head.startswith(_MAGIC_PREFIX):
            version = head[len(_MAGIC_PREFIX):].decode("ascii", "replace")
            raise CheckpointError(
                f"{path!r} is checkpoint version {version}; this build "
                f"reads version {CHECKPOINT_VERSION}")
        raise CheckpointError(f"{path!r} is not a repro checkpoint "
                              f"(bad magic)")
    rest = raw[len(_MAGIC):]
    digest, separator, payload = rest.partition(b"\n")
    if not separator:
        raise CheckpointError(f"{path!r} is truncated (no digest line)")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise CheckpointError(f"{path!r} failed its integrity check "
                              f"(truncated or corrupted)")
    meta_line, separator, body = payload.partition(b"\n")
    if not separator:
        raise CheckpointError(f"{path!r} is truncated (no meta line)")
    try:
        meta = json.loads(meta_line)
    except ValueError as exc:
        raise CheckpointError(f"{path!r} has unreadable metadata: {exc}"
                              ) from exc
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path!r} is checkpoint version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION}")
    return meta, body


def read_checkpoint_meta(path) -> dict:
    """The checkpoint's metadata (version, cycle, cores, pending_events)
    without unpickling the body -- cheap enough for progress reporting."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}"
                              ) from exc
    meta, _body = _parse(raw, path)
    return meta


def load_checkpoint(path):
    """Restore a system saved with :func:`save_checkpoint`.

    Verifies magic, version, and integrity digest before unpickling.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}"
                              ) from exc
    meta, body = _parse(raw, path)
    try:
        system = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(
            f"{path!r} passed its digest but failed to unpickle "
            f"({type(exc).__name__}: {exc}); was it written by an "
            f"incompatible source tree?") from exc
    if system.engine.now != meta.get("cycle"):
        raise CheckpointError(
            f"{path!r} metadata says cycle {meta.get('cycle')} but the "
            f"restored engine is at {system.engine.now}")
    return system


def discard_checkpoint(path) -> None:
    """Best-effort removal of a checkpoint that is no longer needed."""
    if path is None:
        return
    try:
        os.unlink(os.fspath(path))
    except OSError:
        # Never written, already cleaned up, or unwritable directory --
        # in every case the job's result is already safe.
        return


# ----------------------------------------------------------------------
# ambient per-job checkpoint path (set by the runner, read by jobs)

_job_checkpoint_path: Optional[str] = None


def job_checkpoint_path() -> Optional[str]:
    """The checkpoint file assigned to the currently executing job, if
    the runner was configured with a checkpoint directory."""
    return _job_checkpoint_path


@contextmanager
def checkpoint_scope(path: Optional[str]) -> Iterator[None]:
    """Publish ``path`` as the ambient job checkpoint for a block.

    Used by the runner's worker (and inline path) around each job call;
    ``None`` is allowed and simply leaves the ambient path empty.
    """
    global _job_checkpoint_path
    previous = _job_checkpoint_path
    _job_checkpoint_path = path
    try:
        yield
    finally:
        _job_checkpoint_path = previous


# ----------------------------------------------------------------------
# periodic checkpointing driver


def run_with_checkpoints(make_system: Callable[[], object], cycles: int,
                         path: Optional[str] = None,
                         interval: int = DEFAULT_CHECKPOINT_INTERVAL):
    """Run a simulation to absolute cycle ``cycles`` with periodic saves.

    If ``path`` (default: the ambient :func:`job_checkpoint_path`) holds a
    valid checkpoint, the run resumes from it instead of calling
    ``make_system``; a corrupt or version-mismatched file is discarded
    and the run restarts from cycle 0.  The system is saved every
    ``interval`` simulated cycles, so a killed worker loses at most one
    interval of work.  Chunked execution is bit-identical to a single
    ``run(cycles)`` call: the engine's horizon is exclusive, so repeated
    runs with increasing horizons never execute an event twice.

    Returns the finished system (the checkpoint file, if any, is left for
    the caller -- the runner's worker deletes it on job success).
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    if path is None:
        path = job_checkpoint_path()

    system = None
    if path is not None and os.path.exists(path):
        try:
            system = load_checkpoint(path)
        except CheckpointError:
            discard_checkpoint(path)
    if system is None:
        system = make_system()

    while system.engine.now < cycles:
        chunk = min(interval, cycles - system.engine.now)
        system.run(chunk)
        if path is not None and system.engine.now < cycles:
            save_checkpoint(system, path)
    return system
