"""Codecs between live run state and its snapshot-serializable form.

Snapshots store arrays (raw NumPy bytes in the snapshot container) and
a JSON metadata record; everything stateful that is *not* an array — RNG
streams, quarantine sets, telemetry cursors — must round-trip through
JSON.  The helpers here are deliberately duck-typed (they look at
``client.rng`` / ``client._last_delta`` attributes rather than
importing :mod:`repro.fl`), which keeps :mod:`repro.persist` free of
upward dependencies; the model codec comes from :mod:`repro.nn`, below
every package that checkpoints.

:func:`pack_run_state` / :func:`restore_run_state` are the closure every
snapshot writer shares — the model (parameters and prune masks), every
client's mutable state, and the population's shared fault schedule —
so each writer adds only its own ledgers on top.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..nn.serialization import apply_model_state, pack_model_state

__all__ = [
    "DELTA_PREFIX",
    "AGGREGATOR_PREFIX",
    "rng_state_to_jsonable",
    "rng_state_from_jsonable",
    "pack_state_arrays",
    "unpack_state_arrays",
    "capture_client_states",
    "restore_client_states",
    "shared_fault_model",
    "model_arrays",
    "pack_run_state",
    "restore_run_state",
    "stitch_streams",
]

# array names carrying FaultyClient stale-replay caches in a snapshot;
# consumers filter on it to separate client arrays from model arrays
DELTA_PREFIX = "client_delta."
_DELTA_PREFIX = DELTA_PREFIX

# array names carrying an Aggregator's state_dict arrays in a snapshot
AGGREGATOR_PREFIX = "aggregator_state."

_ARRAY_MARKER = "__array__"

# exact JSON scalar types _jsonable returns untouched
_PLAIN_TYPES = frozenset({int, str, float, bool, type(None)})


def rng_state_to_jsonable(rng: np.random.Generator | None):
    """A generator's full stream position as plain JSON types.

    ``None`` passes through (rng-less stubs).  The encoding is the
    ``bit_generator.state`` dict with any NumPy scalars/arrays coerced
    to Python ints/lists, so ``json.dumps`` round-trips it exactly.
    """
    if rng is None:
        return None
    return _jsonable(rng.bit_generator.state)


def rng_state_from_jsonable(rng: np.random.Generator, state) -> None:
    """Advance ``rng`` to a position captured by :func:`rng_state_to_jsonable`."""
    if state is not None:
        rng.bit_generator.state = state


def _jsonable(value):
    # exact-type fast path: an RNG state is a dict of ints, and every
    # snapshot encodes one per client
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def pack_state_arrays(
    state: dict, prefix: str
) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a nested ``state_dict`` into JSON metadata plus named arrays.

    Snapshots keep arrays as raw bytes in the snapshot container
    (byte-exact float64 round-trip) and everything else in JSON
    metadata.  This walks an arbitrary nesting of dicts/lists, hoists
    every ``np.ndarray`` leaf into the returned array mapping under
    ``prefix``-namespaced keys, and leaves an ``{"__array__": key}``
    marker in its place for :func:`unpack_state_arrays` to resolve.
    """
    arrays: dict[str, np.ndarray] = {}

    def walk(value, path):
        if isinstance(value, np.ndarray):
            key = prefix + ".".join(path)
            arrays[key] = value
            return {_ARRAY_MARKER: key}
        if isinstance(value, dict):
            return {
                str(k): walk(v, path + (str(k),)) for k, v in value.items()
            }
        if isinstance(value, (list, tuple)):
            return [walk(v, path + (str(i),)) for i, v in enumerate(value)]
        return _jsonable(value)

    return walk(state, ()), arrays


def unpack_state_arrays(meta: dict, arrays: Mapping[str, np.ndarray]) -> dict:
    """Rebuild a :func:`pack_state_arrays` state dict from a snapshot."""

    def walk(value):
        if isinstance(value, dict):
            if set(value) == {_ARRAY_MARKER}:
                key = value[_ARRAY_MARKER]
                if key not in arrays:
                    raise ValueError(
                        f"checkpoint meta references missing array {key!r}"
                    )
                return np.array(arrays[key], copy=True)
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return walk(meta)


def capture_client_states(clients: Iterable) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Snapshot every client's mutable state (RNG stream, replay cache).

    Returns ``(meta, arrays)``: per-client JSON records aligned with the
    iteration order, plus the arrays too big for JSON (a
    :class:`~repro.fl.faults.FaultyClient`'s ``_last_delta`` stale-replay
    cache).  Everything else a client owns (dataset, config, poisoned
    copy) is reconstructed from code + seed when the world is rebuilt,
    so it does not belong in a snapshot.
    """
    meta: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for client in clients:
        client_id = getattr(client, "client_id", None)
        record = {
            "client_id": client_id,
            "rng": rng_state_to_jsonable(getattr(client, "rng", None)),
        }
        last_delta = getattr(client, "_last_delta", None)
        if last_delta is not None:
            key = f"{_DELTA_PREFIX}{client_id}"
            arrays[key] = np.asarray(last_delta)
            record["last_delta"] = key
        meta.append(record)
    return meta, arrays


def restore_client_states(
    clients: Sequence,
    meta: Sequence[dict],
    arrays: Mapping[str, np.ndarray],
) -> None:
    """Apply a :func:`capture_client_states` snapshot to a rebuilt population.

    Clients are matched by ``client_id`` (falling back to position for
    id-less stubs); a population that no longer contains a snapshotted
    client id raises — resuming against a different world is a config
    error, not something to paper over.
    """
    by_id = {
        getattr(client, "client_id", None): client for client in clients
    }
    for position, record in enumerate(meta):
        client_id = record.get("client_id")
        client = by_id.get(client_id)
        if client is None:
            if client_id is None and position < len(clients):
                client = clients[position]
            else:
                raise ValueError(
                    f"checkpoint names client {client_id!r} but the rebuilt "
                    f"population has no such client — resuming against a "
                    f"different world?"
                )
        rng = getattr(client, "rng", None)
        if rng is not None and record.get("rng") is not None:
            rng_state_from_jsonable(rng, record["rng"])
        delta_key = record.get("last_delta")
        if delta_key is not None:
            if delta_key not in arrays:
                raise ValueError(
                    f"checkpoint meta references missing array {delta_key!r}"
                )
            client._last_delta = np.array(arrays[delta_key], copy=True)


def shared_fault_model(clients: Iterable):
    """The population's shared fault schedule, if clients carry one.

    :class:`~repro.fl.faults.FaultyClient` wrappers all reference one
    :class:`~repro.fl.faults.FaultModel`; snapshotting it once (rather
    than per client) keeps its draw counters consistent on restore.
    Returns ``None`` for fault-free populations.
    """
    for client in clients:
        faults = getattr(client, "faults", None)
        if faults is not None:
            return faults
    return None


def model_arrays(
    arrays: Mapping[str, np.ndarray], exclude: Sequence[str] = ()
) -> dict[str, np.ndarray]:
    """The model's arrays of a snapshot: client, aggregator and ``exclude``
    prefixed names filtered out."""
    skip = (DELTA_PREFIX, AGGREGATOR_PREFIX, *exclude)
    return {
        name: value for name, value in arrays.items() if not name.startswith(skip)
    }


def pack_run_state(
    model, clients: Sequence, extra_arrays: Mapping[str, np.ndarray] | None = None
) -> tuple[dict[str, np.ndarray], dict]:
    """``(arrays, meta)`` of the model/client/fault-model closure.

    Arrays are the model's, then ``extra_arrays`` (the caller's own,
    kept ahead of the client caches), then the clients'; ``meta``
    holds the client records under ``"clients"`` and, when the clients
    share one, the fault schedule under ``"fault_model"``.  The caller
    adds its ledgers to both and saves.
    """
    arrays = pack_model_state(model)
    if extra_arrays:
        arrays.update(extra_arrays)
    client_meta, client_arrays = capture_client_states(clients)
    arrays.update(client_arrays)
    meta = {"clients": client_meta}
    fault_model = shared_fault_model(clients)
    if fault_model is not None:
        meta["fault_model"] = fault_model.state_dict()
    return arrays, meta


def restore_run_state(
    model,
    clients: Sequence,
    arrays: Mapping[str, np.ndarray],
    meta: dict,
    exclude: Sequence[str] = (),
) -> None:
    """Apply a :func:`pack_run_state` closure; ``exclude`` names the
    caller's own array prefixes, which are not model parameters."""
    apply_model_state(model, model_arrays(arrays, exclude))
    restore_client_states(clients, meta["clients"], arrays)
    fault_model = shared_fault_model(clients)
    if fault_model is not None and "fault_model" in meta:
        fault_model.load_state_dict(meta["fault_model"])


def stitch_streams(
    segments: Sequence[Sequence[dict]],
    resume_seqs: Sequence[int],
) -> list[dict]:
    """Splice telemetry event streams across crash/resume boundaries.

    ``segments`` are the event lists of each run attempt in order (the
    killed run, then each resumed continuation); ``resume_seqs[i]`` is
    the telemetry sequence number attempt ``i+1`` resumed from (saved in
    the checkpoint it loaded).  Events an attempt emitted *past* the
    checkpoint its successor resumed from were replayed by that
    successor and are dropped; events a resuming attempt emitted
    *before* restoring the cursor (resume diagnostics on a fresh hub)
    are likewise dropped.  The result of stitching a killed-and-resumed
    run equals the stream of the uninterrupted run, record for record —
    that is the determinism contract the resume tests assert bytewise
    (after :func:`repro.obs.schema.canonical_events`).
    """
    if len(resume_seqs) != len(segments) - 1:
        raise ValueError(
            f"need one resume seq per boundary: {len(segments)} segments "
            f"but {len(resume_seqs)} resume seqs"
        )
    stitched: list[dict] = []
    for index, segment in enumerate(segments):
        low = resume_seqs[index - 1] if index > 0 else 0
        high = resume_seqs[index] if index < len(resume_seqs) else None
        stitched.extend(
            event
            for event in segment
            if event["seq"] >= low and (high is None or event["seq"] < high)
        )
    return stitched
