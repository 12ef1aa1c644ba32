"""Crash-safe persistence: atomic snapshots, checkpoints, watchdogs.

The training and defense phases of the reproduction are long loops over
expensive rounds; :mod:`repro.persist` makes both phases survivable:

* :mod:`repro.persist.atomic` — atomic durable file writes
  (write-temp → fsync → rename) and content checksums, so a crash can
  never leave a half-written snapshot that passes for a whole one.
* :mod:`repro.persist.checkpoint` — :class:`CheckpointManager`: a
  directory of checksummed snapshots plus a manifest;
  :meth:`~CheckpointManager.load_latest` skips torn or corrupted
  snapshots and falls back to the newest verifiable one.
* :mod:`repro.persist.state` — codecs between live run state (RNG
  streams, client-side mutable state, telemetry cursors) and the
  JSON-serializable form snapshots store, plus :func:`stitch_streams`
  for splicing the telemetry of a resumed run onto its predecessor's.
* :mod:`repro.persist.watchdog` — :class:`DivergenceWatchdog`: detects
  non-finite aggregates, exploding update norms and validation collapse
  so the round loop can roll back instead of training on garbage.

The package depends only on NumPy, the standard library and
:mod:`repro.nn`'s model codec, so every layer of the stack (``fl``,
``defense``, ``experiments``) can import it without cycles.
"""

from .atomic import (
    CorruptSnapshotError,
    atomic_write_bytes,
    atomic_write_json,
    read_verified_bytes,
    sha256_bytes,
)
from .checkpoint import CheckpointManager, Snapshot
from .state import (
    AGGREGATOR_PREFIX,
    DELTA_PREFIX,
    capture_client_states,
    model_arrays,
    pack_run_state,
    pack_state_arrays,
    restore_client_states,
    restore_run_state,
    rng_state_from_jsonable,
    rng_state_to_jsonable,
    shared_fault_model,
    stitch_streams,
    unpack_state_arrays,
)
from .watchdog import DivergenceWatchdog

__all__ = [
    "CorruptSnapshotError",
    "atomic_write_bytes",
    "atomic_write_json",
    "read_verified_bytes",
    "sha256_bytes",
    "CheckpointManager",
    "Snapshot",
    "AGGREGATOR_PREFIX",
    "DELTA_PREFIX",
    "capture_client_states",
    "model_arrays",
    "pack_run_state",
    "restore_run_state",
    "pack_state_arrays",
    "unpack_state_arrays",
    "restore_client_states",
    "rng_state_from_jsonable",
    "rng_state_to_jsonable",
    "shared_fault_model",
    "stitch_streams",
    "DivergenceWatchdog",
]
