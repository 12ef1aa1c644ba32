"""Tests for state codecs: RNG streams, client state, stream stitching."""

import numpy as np
import pytest

from repro import nn
from repro.fl.faults import FaultModel
from repro.persist.state import (
    AGGREGATOR_PREFIX,
    DELTA_PREFIX,
    capture_client_states,
    model_arrays,
    pack_run_state,
    restore_client_states,
    restore_run_state,
    rng_state_from_jsonable,
    rng_state_to_jsonable,
    shared_fault_model,
    stitch_streams,
)


class StubClient:
    def __init__(self, client_id, rng=None, last_delta=None, faults=None):
        self.client_id = client_id
        if rng is not None:
            self.rng = rng
        if last_delta is not None:
            self._last_delta = last_delta
        if faults is not None:
            self.faults = faults


class TestRngCodec:
    def test_round_trip_continues_stream(self):
        rng = np.random.default_rng(7)
        rng.random(13)  # advance mid-stream
        state = rng_state_to_jsonable(rng)
        expected = rng.random(5)

        fresh = np.random.default_rng(0)
        rng_state_from_jsonable(fresh, state)
        np.testing.assert_array_equal(fresh.random(5), expected)

    def test_survives_json(self):
        import json

        rng = np.random.default_rng(3)
        rng.integers(0, 10, 20)
        state = json.loads(json.dumps(rng_state_to_jsonable(rng)))
        expected = rng.integers(0, 100, 8)

        fresh = np.random.default_rng(0)
        rng_state_from_jsonable(fresh, state)
        np.testing.assert_array_equal(fresh.integers(0, 100, 8), expected)

    def test_none_passes_through(self):
        assert rng_state_to_jsonable(None) is None
        rng_state_from_jsonable(np.random.default_rng(0), None)  # no-op


class TestClientStateCapture:
    def test_round_trip(self):
        rng_a = np.random.default_rng(1)
        rng_a.random(5)
        delta = np.arange(4.0)
        source = [
            StubClient(0, rng=rng_a, last_delta=delta),
            StubClient(1, rng=np.random.default_rng(2)),
        ]
        meta, arrays = capture_client_states(source)
        assert f"{DELTA_PREFIX}0" in arrays
        expected = source[0].rng.random(3)

        rebuilt = [
            StubClient(0, rng=np.random.default_rng(9)),
            StubClient(1, rng=np.random.default_rng(9)),
        ]
        restore_client_states(rebuilt, meta, arrays)
        np.testing.assert_array_equal(rebuilt[0].rng.random(3), expected)
        np.testing.assert_array_equal(rebuilt[0]._last_delta, delta)

    def test_unknown_client_raises(self):
        meta, arrays = capture_client_states([StubClient(3)])
        with pytest.raises(ValueError, match="different world"):
            restore_client_states([StubClient(4)], meta, arrays)

    def test_missing_delta_array_raises(self):
        meta, arrays = capture_client_states(
            [StubClient(0, last_delta=np.ones(2))]
        )
        with pytest.raises(ValueError, match="missing array"):
            restore_client_states([StubClient(0)], meta, {})


class TestSharedFaultModel:
    def test_finds_first_model(self):
        sentinel = object()
        clients = [StubClient(0), StubClient(1, faults=sentinel)]
        assert shared_fault_model(clients) is sentinel

    def test_none_for_plain_population(self):
        assert shared_fault_model([StubClient(0)]) is None


class TestRunState:
    @staticmethod
    def world(model_seed, client_seed, faults_drawn=0):
        model = nn.Sequential(
            nn.Linear(3, 2, rng=np.random.default_rng(model_seed))
        )
        faults = FaultModel(dropout_prob=0.5, seed=4)
        for _ in range(faults_drawn):
            faults.draw_dropout()
        clients = [
            StubClient(0, rng=np.random.default_rng(client_seed), faults=faults),
            StubClient(
                1,
                rng=np.random.default_rng(client_seed + 1),
                last_delta=np.full(3, float(client_seed)),
                faults=faults,
            ),
        ]
        return model, clients, faults

    def test_round_trip_restores_model_clients_and_fault_model(self):
        model, clients, faults = self.world(0, 10, faults_drawn=3)
        arrays, meta = pack_run_state(model, clients)
        assert meta["fault_model"] == faults.state_dict()
        expected_draws = [client.rng.random(2) for client in clients]

        model2, clients2, faults2 = self.world(1, 50)
        restore_run_state(model2, clients2, arrays, meta)
        np.testing.assert_array_equal(
            model2.flat_parameters(), model.flat_parameters()
        )
        for client, expected in zip(clients2, expected_draws):
            np.testing.assert_array_equal(client.rng.random(2), expected)
        np.testing.assert_array_equal(clients2[1]._last_delta, np.full(3, 10.0))
        assert faults2.state_dict() == faults.state_dict()

    def test_extra_arrays_sit_between_model_and_clients_and_stay_out(self):
        model, clients, _ = self.world(0, 10)
        extra = {"watch.ema": np.zeros(2)}
        arrays, meta = pack_run_state(model, clients, extra_arrays=extra)
        names = list(arrays)
        model_names = names[: names.index("watch.ema")]
        assert model_names == list(model_arrays(arrays, exclude=("watch.",)))
        assert names[names.index("watch.ema") + 1 :] == [f"{DELTA_PREFIX}1"]

        restore_run_state(model, clients, arrays, meta, exclude=("watch.",))
        with pytest.raises(ValueError, match="unexpected parameter 'watch.ema'"):
            restore_run_state(model, clients, arrays, meta)

    def test_model_arrays_filters_client_and_aggregator_prefixes(self):
        arrays = {
            "0.weight": np.ones(1),
            f"{DELTA_PREFIX}3": np.ones(1),
            f"{AGGREGATOR_PREFIX}momentum": np.ones(1),
            "mine.x": np.ones(1),
        }
        assert list(model_arrays(arrays)) == ["0.weight", "mine.x"]
        assert list(model_arrays(arrays, exclude=("mine.",))) == ["0.weight"]


def ev(seq):
    return {"seq": seq, "name": f"event-{seq}"}


class TestStitchStreams:
    def test_single_segment_passthrough(self):
        events = [ev(0), ev(1), ev(2)]
        assert stitch_streams([events], []) == events

    def test_drops_replayed_tail_and_resume_preamble(self):
        # killed run emitted 0..5 but its successor resumed from seq 4:
        # events 4..5 were replayed and must come from the second segment
        first = [ev(0), ev(1), ev(2), ev(3), ev(4), ev(5)]
        second = [ev(4), ev(5), ev(6)]
        stitched = stitch_streams([first, second], [4])
        assert [e["seq"] for e in stitched] == [0, 1, 2, 3, 4, 5, 6]
        assert stitched[4] is second[0]

    def test_two_boundaries(self):
        a = [ev(0), ev(1), ev(2)]
        b = [ev(2), ev(3), ev(4)]
        c = [ev(3), ev(4), ev(5)]
        stitched = stitch_streams([a, b, c], [2, 3])
        assert [e["seq"] for e in stitched] == [0, 1, 2, 3, 4, 5]

    def test_boundary_count_mismatch(self):
        with pytest.raises(ValueError, match="resume seq"):
            stitch_streams([[ev(0)], [ev(1)]], [])
