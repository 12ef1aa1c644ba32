"""Tests for the checkpoint directory: manifest, retention, fallback,
and the flat snapshot container."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.persist import CheckpointManager, CorruptSnapshotError
from repro.persist.checkpoint import _MAGIC, _decode_snapshot, _encode_snapshot


def arrays_for(step: int) -> dict:
    return {
        "weights": np.full((3, 2), float(step)),
        "mask": np.array([True, False, True]),
    }


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        saved = manager.save("train", 4, arrays_for(4), {"round": 4, "note": "x"})
        loaded = manager.load_latest("train")
        assert loaded is not None
        assert loaded.kind == "train" and loaded.step == 4
        assert loaded.meta == {"round": 4, "note": "x"}
        np.testing.assert_array_equal(loaded.arrays["weights"], saved.arrays["weights"])
        assert loaded.arrays["weights"].dtype == np.float64
        assert loaded.arrays["mask"].dtype == np.bool_
        assert loaded.checksum == saved.checksum

    def test_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest("train") is None

    def test_latest_wins(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for step in (1, 2, 3):
            manager.save("train", step, arrays_for(step), {"round": step})
        assert manager.load_latest("train").step == 3

    def test_kinds_are_namespaced(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 5, arrays_for(5), {})
        manager.save("defense", 1, arrays_for(1), {})
        assert manager.load_latest("train").step == 5
        assert manager.load_latest("defense").step == 1
        assert manager.load_latest("fine_tune") is None

    def test_reserved_meta_key_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(ValueError, match="reserved"):
            manager.save("train", 1, {"__meta__": np.zeros(2)}, {})

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(tmp_path, keep=0)


class TestRetention:
    def test_old_snapshots_evicted(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in range(1, 5):
            manager.save("train", step, arrays_for(step), {})
        entries = manager.entries("train")
        assert [e["step"] for e in entries] == [3, 4]
        files = {p.name for p in tmp_path.iterdir()}
        assert "train-00000001.ckpt" not in files
        assert "train-00000004.ckpt" in files

    def test_retention_is_per_kind(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save("train", 1, arrays_for(1), {})
        manager.save("defense", 1, arrays_for(1), {})
        manager.save("train", 2, arrays_for(2), {})
        assert manager.load_latest("defense") is not None
        assert [e["step"] for e in manager.entries("train")] == [2]

    def test_evicted_file_outlives_a_failed_manifest_update(self, tmp_path, monkeypatch):
        # a crash between retention and the manifest update must leave
        # the manifest's newest snapshot on disk
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save("train", 1, arrays_for(1), {"round": 1})

        def crash(entries):
            raise OSError("killed before the manifest update")

        monkeypatch.setattr(manager, "_write_manifest", crash)
        with pytest.raises(OSError, match="killed"):
            manager.save("train", 2, arrays_for(2), {"round": 2})
        loaded = CheckpointManager(tmp_path, keep=1).load_latest("train")
        assert loaded is not None and loaded.step == 1
        assert loaded.meta == {"round": 1}


class TestCorruptionFallback:
    def test_truncated_latest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 1, arrays_for(1), {"round": 1})
        manager.save("train", 2, arrays_for(2), {"round": 2})
        latest = tmp_path / "train-00000002.ckpt"
        latest.write_bytes(latest.read_bytes()[:64])  # torn write
        loaded = manager.load_latest("train")
        assert loaded.step == 1
        assert manager.last_rejected and manager.last_rejected[0][0] == (
            "train-00000002.ckpt"
        )

    def test_all_corrupt_returns_none(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 1, arrays_for(1), {})
        (tmp_path / "train-00000001.ckpt").write_bytes(b"garbage")
        assert manager.load_latest("train") is None
        assert len(manager.last_rejected) == 1

    def test_unlisted_snapshot_ignored(self, tmp_path):
        # a file the manifest doesn't know about (crash between the
        # snapshot rename and the manifest update) must not be loaded
        manager = CheckpointManager(tmp_path)
        manager.save("train", 1, arrays_for(1), {"round": 1})
        orphan = manager.save("train", 9, arrays_for(9), {"round": 9})
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        manifest["snapshots"] = [
            e for e in manifest["snapshots"] if e["step"] != 9
        ]
        (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
        assert os.path.exists(orphan.path)
        assert manager.load_latest("train").step == 1

    def test_corrupt_manifest_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 1, arrays_for(1), {})
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CorruptSnapshotError, match="manifest"):
            manager.load_latest("train")

    def test_unsupported_manifest_version(self, tmp_path):
        # version 1 directories hold .npz snapshots this decoder cannot
        # read: refusing them beats skipping every snapshot as corrupt
        manager = CheckpointManager(tmp_path)
        manager.save("train", 1, arrays_for(1), {})
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        for version in (1, 99):
            manifest["version"] = version
            (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
            with pytest.raises(CorruptSnapshotError, match="version"):
                manager.load_latest("train")


LAYOUTS = {
    "0-d": lambda a: np.array(a[0, 0]),
    "(0,)": lambda a: a[0, :0],
    "(0, 3)": lambda a: a[:0, :3],
    "strided": lambda a: a[::2, 1::2],
    "fortran": np.asfortranarray,
    "C": lambda a: a,
}
DTYPES = [np.float32, np.float64, np.int64, np.uint8, np.bool_]
array_cases = st.tuples(st.sampled_from(DTYPES), st.sampled_from(sorted(LAYOUTS))).flatmap(
    lambda case: hnp.arrays(case[0], (4, 6)).map(LAYOUTS[case[1]])
)
json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=6)


def payload_parts(data: bytes) -> tuple[dict, bytes]:
    """Split a container into its decoded header and its body."""
    start = len(_MAGIC) + 8
    (header_len,) = struct.unpack_from("<Q", data, len(_MAGIC))
    return json.loads(data[start : start + header_len]), data[start + header_len :]


def repack(header: dict, body: bytes) -> bytes:
    header_bytes = json.dumps(header).encode()
    return _MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body


def edit_index(position: int, field: int, value):
    def edit(data):
        header, body = payload_parts(data)
        header["arrays"][position][field] = value
        return repack(header, body)

    return edit


# arrays_for(1) writes weights (float64, (3, 2), 48 bytes) then mask
MALFORMED = {
    "bad magic": lambda d: b"X" + d[1:],
    "truncated header length": lambda d: d[: len(_MAGIC) + 4],
    "header length past the end": lambda d: (
        _MAGIC + struct.pack("<Q", len(d)) + d[len(_MAGIC) + 8 :]
    ),
    "header not JSON": lambda d: _MAGIC + struct.pack("<Q", 2) + b"{[",
    "offset past the body": edit_index(1, 3, 4096),
    "nbytes past the body": lambda d: edit_index(0, 4, 64)(edit_index(0, 2, [4, 2])(d)),
    "nbytes not matching the shape": edit_index(0, 2, [3, 3]),
    "negative nbytes": edit_index(0, 4, -48),
    "object dtype": edit_index(1, 1, "|O"),
    "duplicate name": edit_index(1, 0, "weights"),
    "unknown dtype": edit_index(1, 1, "<q9"),
    "truncated body": lambda d: d[:-1],
    "trailing bytes": lambda d: d + b"\0",
}


class TestContainer:
    @given(
        arrays=st.dictionaries(
            st.text(max_size=8).filter(lambda name: name != "__meta__"),
            array_cases,
            max_size=6,
        ),
        meta=st.dictionaries(st.text(max_size=6), json_scalars, max_size=4),
    )
    def test_round_trip_keeps_names_order_dtype_shape_and_bytes(self, arrays, meta):
        decoded, decoded_meta = _decode_snapshot(_encode_snapshot(arrays, meta))
        assert decoded_meta == meta
        assert list(decoded) == list(arrays)
        for name, original in arrays.items():
            assert decoded[name].dtype == original.dtype
            assert decoded[name].shape == original.shape
            assert decoded[name].tobytes() == original.tobytes()

    def test_decoded_arrays_are_writable_and_independent(self):
        arrays = {"a": np.arange(4.0), "b": np.arange(4.0), "c": np.array(7)}
        decoded, _ = _decode_snapshot(_encode_snapshot(arrays, {}))
        for array in decoded.values():
            assert array.flags.writeable and array.flags.owndata
        decoded["a"][:] = -1.0
        decoded["c"][()] = 0
        np.testing.assert_array_equal(decoded["b"], np.arange(4.0))
        np.testing.assert_array_equal(arrays["a"], np.arange(4.0))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_payload_raises_corrupt(self, case):
        data = _encode_snapshot(arrays_for(1), {"round": 1})
        with pytest.raises(CorruptSnapshotError):
            _decode_snapshot(MALFORMED[case](data))

    @pytest.mark.parametrize(
        "array",
        [np.array([{}, None], dtype=object), np.zeros(2, dtype=[("x", "<f8")])],
        ids=["object", "structured"],
    )
    def test_saving_an_unrepresentable_dtype_raises(self, tmp_path, array):
        with pytest.raises(ValueError, match="dtype"):
            CheckpointManager(tmp_path).save("train", 1, {"bad": array}, {})
        assert not os.path.exists(tmp_path / "MANIFEST.json")


class TestScope:
    def test_scopes_are_isolated(self, tmp_path):
        root = CheckpointManager(tmp_path, keep=5)
        a = root.scope("mnist-seed1")
        b = root.scope("mnist-seed2")
        a.save("train", 1, arrays_for(1), {"who": "a"})
        b.save("train", 7, arrays_for(7), {"who": "b"})
        assert a.load_latest("train").meta == {"who": "a"}
        assert b.load_latest("train").step == 7
        assert root.load_latest("train") is None
        assert a.keep == 5

    def test_scope_sanitizes_name(self, tmp_path):
        scoped = CheckpointManager(tmp_path).scope("a/b c:d")
        assert os.path.basename(scoped.directory) == "a_b_c_d"
