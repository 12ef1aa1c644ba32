"""Checksummed snapshot directories with a manifest and fallback loads.

A :class:`CheckpointManager` owns one directory.  Every
:meth:`~CheckpointManager.save` produces a single snapshot file — one
flat container holding a JSON header (the caller's metadata record plus
an index of the arrays) followed by the arrays' raw bytes — written
atomically (:mod:`repro.persist.atomic`) and indexed in
``MANIFEST.json`` alongside its SHA-256.  The manifest is the source of
truth: a snapshot file not listed there (a crash hit between the
snapshot rename and the manifest update, or between the manifest update
and the deletion of the snapshots retention evicted) is treated as if it
never existed, and a listed snapshot whose bytes fail the checksum or
the container checks is skipped by :meth:`~CheckpointManager.load_latest`,
which falls back to the newest snapshot that still verifies.

Snapshots are namespaced by ``kind`` (``"train"``, ``"defense"``,
``"fine_tune"``, ...) so one directory can persist a whole pipeline, and
:meth:`~CheckpointManager.scope` derives per-run subdirectories so one
``--checkpoint-dir`` can serve an experiment that builds several
federations.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Mapping

import numpy as np

from .atomic import (
    CorruptSnapshotError,
    atomic_write_bytes,
    atomic_write_json,
    read_verified_bytes,
    sha256_bytes,
)

__all__ = ["Snapshot", "CheckpointManager"]

_MANIFEST_NAME = "MANIFEST.json"
# version 1 directories hold .npz snapshots this decoder cannot read
_MANIFEST_VERSION = 2
_META_KEY = "__meta__"
_MAGIC = b"repro-snapshot\n"
_HEADER_LEN = struct.Struct("<Q")
_BODY_START = len(_MAGIC) + _HEADER_LEN.size


def _encode_snapshot(arrays: Mapping[str, np.ndarray], meta: dict) -> bytes:
    """Pack arrays + JSON meta into one deterministic flat container.

    Layout: the magic line, the header's length as a little-endian
    uint64, the header — ``json.dumps({"meta": meta, "arrays": index},
    sort_keys=True)`` where ``index`` lists ``[name, dtype.str, shape,
    offset, nbytes]`` per array in write order — and then every array's
    C-order bytes in the byte order ``dtype.str`` names, concatenated at
    those offsets.  Object dtypes and
    dtypes their ``dtype.str`` does not spell out (structured records)
    are refused: raw bytes could not bring them back.
    """
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    index = []
    chunks = []
    offset = 0
    for name, value in arrays.items():
        array = np.asarray(value)
        dtype = array.dtype
        if dtype.hasobject or np.dtype(dtype.str) != dtype:
            raise ValueError(f"array {name!r} has unsupported dtype {dtype}")
        chunk = array.tobytes()
        index.append([name, dtype.str, list(array.shape), offset, len(chunk)])
        chunks.append(chunk)
        offset += len(chunk)
    header = json.dumps({"arrays": index, "meta": meta}, sort_keys=True)
    header_bytes = header.encode("utf-8")
    return b"".join(
        [_MAGIC, _HEADER_LEN.pack(len(header_bytes)), header_bytes, *chunks]
    )


def _decode_snapshot(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`_encode_snapshot`; every array owns its memory.

    Any structural fault — wrong magic, a header length or index entry
    pointing past the body, a byte count that disagrees with the shape,
    an object dtype — raises :class:`CorruptSnapshotError`, which
    :meth:`CheckpointManager.load_latest` treats as a torn file.
    """
    if not data.startswith(_MAGIC):
        raise CorruptSnapshotError("snapshot payload lacks the container magic")
    if len(data) < _BODY_START:
        raise CorruptSnapshotError("snapshot header truncated")
    (header_len,) = _HEADER_LEN.unpack_from(data, len(_MAGIC))
    body_start = _BODY_START + header_len
    if body_start > len(data):
        raise CorruptSnapshotError(
            f"snapshot header length {header_len} runs past the payload"
        )
    try:
        header = json.loads(data[_BODY_START:body_start].decode("utf-8"))
        meta = header["meta"]
        index = header["arrays"]
        body = memoryview(data)[body_start:]
        arrays = {}
        expected = 0
        for name, dtype_str, shape, offset, nbytes in index:
            dtype = np.dtype(dtype_str)
            if dtype.hasobject:
                raise ValueError(f"array {name!r} has object dtype")
            if type(name) is not str or any(
                type(n) is not int or n < 0 for n in (*shape, offset, nbytes)
            ):
                raise ValueError(f"array {name!r} has a malformed index entry")
            if offset != expected or offset + nbytes > len(body):
                raise ValueError(
                    f"array {name!r} spans [{offset}, {offset + nbytes}) "
                    f"of a {len(body)}-byte body"
                )
            if nbytes != math.prod(shape) * dtype.itemsize:
                raise ValueError(
                    f"array {name!r}: {nbytes} bytes for shape {shape} "
                    f"of {dtype}"
                )
            if name in arrays:
                raise ValueError(f"array {name!r} listed twice")
            arrays[name] = (
                np.frombuffer(body, dtype, math.prod(shape), offset)
                .reshape(shape)
                .copy()
            )
            expected = offset + nbytes
        if expected != len(body):
            raise ValueError(
                f"{len(body) - expected} trailing bytes after the last array"
            )
    except (ValueError, KeyError, TypeError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise CorruptSnapshotError(f"snapshot payload undecodable: {exc}") from exc
    return arrays, meta


class Snapshot:
    """One verified, decoded checkpoint: arrays + metadata + identity."""

    __slots__ = ("kind", "step", "arrays", "meta", "path", "checksum")

    def __init__(
        self,
        kind: str,
        step: int,
        arrays: dict[str, np.ndarray],
        meta: dict,
        path: str | None = None,
        checksum: str | None = None,
    ) -> None:
        self.kind = kind
        self.step = step
        self.arrays = arrays
        self.meta = meta
        self.path = path
        self.checksum = checksum

    def __repr__(self) -> str:
        return (
            f"Snapshot(kind={self.kind!r}, step={self.step}, "
            f"arrays={len(self.arrays)}, path={self.path!r})"
        )


class CheckpointManager:
    """A directory of atomically-written, checksummed snapshots.

    Parameters
    ----------
    directory:
        Where snapshots and the manifest live (created on first save).
    keep:
        Retention per ``kind``: after a save, only the newest ``keep``
        snapshots of that kind survive (older files are deleted and
        dropped from the manifest).  At least 2 is recommended so a
        corrupted latest snapshot still has a fallback.
    """

    def __init__(self, directory: str | os.PathLike, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        # (file, reason) pairs the most recent load_latest skipped
        self.last_rejected: list[tuple[str, str]] = []

    # -- manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST_NAME)

    def _read_manifest(self) -> list[dict]:
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return []
        except (OSError, json.JSONDecodeError) as exc:
            # the manifest is written atomically, so an undecodable one
            # means external damage — refuse to guess
            raise CorruptSnapshotError(
                f"checkpoint manifest {self.manifest_path!r} unreadable: {exc}"
            ) from exc
        if manifest.get("version") != _MANIFEST_VERSION:
            raise CorruptSnapshotError(
                f"unsupported manifest version {manifest.get('version')!r} "
                f"in {self.manifest_path!r}"
            )
        return list(manifest.get("snapshots", []))

    def _write_manifest(self, entries: list[dict]) -> None:
        atomic_write_json(
            self.manifest_path,
            {"version": _MANIFEST_VERSION, "snapshots": entries},
        )

    def entries(self, kind: str | None = None) -> list[dict]:
        """Manifest entries (oldest first), optionally filtered by kind."""
        entries = self._read_manifest()
        if kind is None:
            return entries
        return [e for e in entries if e["kind"] == kind]

    def latest_entry(self, kind: str) -> dict | None:
        """The newest manifest entry of ``kind``, without decoding it.

        Cheap existence/identity probe: the streaming service reports
        *which* last-good snapshot it froze on (file, step) in its
        degraded-mode telemetry without paying for an array decode.
        ``None`` when no snapshot of the kind is registered.
        """
        entries = self.entries(kind)
        return dict(entries[-1]) if entries else None

    # -- save / load ---------------------------------------------------

    def save(
        self,
        kind: str,
        step: int,
        arrays: Mapping[str, np.ndarray],
        meta: dict,
    ) -> Snapshot:
        """Write one snapshot durably and register it in the manifest.

        Ordering matters for crash safety: the snapshot file is fully
        durable *before* the manifest points at it, so a crash at any
        instant leaves either the old manifest (new file ignored) or the
        new manifest over a complete file — never a dangling reference.
        Files retention evicts are deleted only after the new manifest
        is durable, for the same reason.
        """
        os.makedirs(self.directory, exist_ok=True)
        data = _encode_snapshot(arrays, meta)
        checksum = sha256_bytes(data)
        filename = f"{kind}-{step:08d}.ckpt"
        path = os.path.join(self.directory, filename)
        atomic_write_bytes(path, data)

        entries = [e for e in self._read_manifest() if e["file"] != filename]
        entries.append(
            {
                "file": filename,
                "kind": kind,
                "step": int(step),
                "sha256": checksum,
                "bytes": len(data),
            }
        )
        survivors, evicted = self._retention(entries)
        self._write_manifest(survivors)
        # unlink only once the manifest no longer names the evicted files:
        # a crash before this point leaves unlisted orphans, never a
        # manifest whose only entries are gone
        for entry in evicted:
            try:
                os.unlink(os.path.join(self.directory, entry["file"]))
            except OSError:
                pass  # already gone; the manifest drop is what matters
        return Snapshot(kind, int(step), dict(arrays), dict(meta), path, checksum)

    def _retention(self, entries: list[dict]) -> tuple[list[dict], list[dict]]:
        """``(survivors, evicted)``: the newest ``keep`` per kind and the rest."""
        by_kind: dict[str, list[dict]] = {}
        for entry in entries:
            by_kind.setdefault(entry["kind"], []).append(entry)
        evicted: list[dict] = []
        for kind_entries in by_kind.values():
            evicted.extend(kind_entries[: -self.keep])
        evicted_files = {e["file"] for e in evicted}
        survivors = [e for e in entries if e["file"] not in evicted_files]
        return survivors, evicted

    def load_latest(self, kind: str) -> Snapshot | None:
        """The newest snapshot of ``kind`` that passes verification.

        Walks the manifest newest-first; a snapshot whose bytes fail the
        checksum (torn write) or fail to decode is *skipped* and the
        next older one is tried, so one bad file costs at most
        ``checkpoint_every`` steps of progress, never the whole run.
        Returns ``None`` when no verifiable snapshot of the kind exists.
        The entries rejected along the way are recorded on
        :attr:`last_rejected` so callers can surface them.
        """
        self.last_rejected: list[tuple[str, str]] = []
        for entry in reversed(self.entries(kind)):
            path = os.path.join(self.directory, entry["file"])
            try:
                data = read_verified_bytes(path, entry["sha256"])
                arrays, meta = _decode_snapshot(data)
            except CorruptSnapshotError as exc:
                self.last_rejected.append((entry["file"], str(exc)))
                continue
            return Snapshot(
                entry["kind"], entry["step"], arrays, meta, path, entry["sha256"]
            )
        return None

    def scope(self, name: str) -> "CheckpointManager":
        """A manager over the ``name`` subdirectory (same retention).

        Experiments that build several federations under one
        ``--checkpoint-dir`` give each its own scope, so snapshots of
        different runs can never shadow each other.
        """
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
        return CheckpointManager(os.path.join(self.directory, safe), keep=self.keep)

    def __repr__(self) -> str:
        return f"CheckpointManager({self.directory!r}, keep={self.keep})"
