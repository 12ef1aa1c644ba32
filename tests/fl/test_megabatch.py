"""Parity tests for the vectorized megabatch execution engine.

The contract under test (see ``src/repro/nn/megabatch.py`` and
``MegabatchExecutor`` in ``src/repro/fl/executor.py``): running a wave
of homogeneous clients as one batched tensor pass produces **bitwise
identical** results to the serial per-client loop — per-client deltas,
advanced RNG streams, aggregated model parameters, history traces and
the canonical telemetry stream — across clean and faulty cohorts, and
degrades to the serial task path whenever a client or model is not
eligible for vectorization.
"""

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import Dataset
from repro.fl.client import Client, LocalTrainingConfig, megabatch_eligible
from repro.fl.executor import (
    MegabatchExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    collect_updates,
)
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.server import FederatedServer
from repro.nn.megabatch import supports_megabatch, train_wave
from repro.nn.serialization import clone_module
from repro.obs import RingBufferSink, Telemetry, dumps_canonical
from repro.obs.profile import LayerProfiler


def build_world(
    seed=5,
    num_clients=6,
    samples_per_client=17,  # deliberately not a batch multiple
    batch_size=7,
    local_epochs=2,
    dropout=0.0,
    last_conv_l2=0.0,
    weight_decay=0.0,
    tanh_avgpool=False,
    template_eval=False,
):
    """A fresh, fully seeded federation — identical on every call.

    Defaults pick awkward shapes on purpose: a trailing partial batch
    every epoch, several epochs of RNG consumption per client.
    ``tanh_avgpool`` swaps ReLU/MaxPool2d for Tanh/AvgPool2d;
    ``template_eval`` leaves the template model in eval mode.
    """
    total = num_clients * samples_per_client
    data_rng = np.random.default_rng(seed)
    images = data_rng.random((total, 1, 8, 8))
    labels = np.tile(np.arange(4), total // 4 + 1)[:total]
    dataset = Dataset(images, labels)
    config = LocalTrainingConfig(
        lr=0.05,
        momentum=0.9,
        batch_size=batch_size,
        local_epochs=local_epochs,
        last_conv_l2=last_conv_l2,
        weight_decay=weight_decay,
    )
    chunks = np.array_split(np.arange(total), num_clients)
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(100 + i))
        for i, chunk in enumerate(chunks)
    ]
    model_rng = np.random.default_rng(seed + 1)
    layers = [
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=model_rng),
        nn.Tanh() if tanh_avgpool else nn.ReLU(),
        nn.AvgPool2d(2) if tanh_avgpool else nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 4, rng=model_rng),
    ]
    if dropout:
        layers.insert(3, nn.Dropout(dropout, rng=np.random.default_rng(9)))
    model = nn.Sequential(*layers)
    if template_eval:
        model.eval()
    return model, clients, dataset


def _rng_states(clients):
    return [c.rng.bit_generator.state["state"] for c in clients]


def _wave(executor, **world_kwargs):
    """One collect_updates wave; (deltas, rng states after)."""
    model, clients, _ = build_world(**world_kwargs)
    outcomes = collect_updates(
        executor, clients, model, model.flat_parameters(), round_index=0
    )
    return [value for _, value in outcomes], _rng_states(clients)


class TestEligibility:
    def test_plain_client_is_eligible(self):
        _, clients, _ = build_world()
        assert all(megabatch_eligible(c) for c in clients)

    def test_fault_wrapped_client_is_not(self):
        _, clients, _ = build_world()
        wrapped = wrap_clients(clients, FaultModel(seed=3))
        assert not any(megabatch_eligible(c) for c in wrapped)

    def test_subclass_overriding_local_update_is_not(self):
        class Custom(Client):
            def local_update(self, global_params):  # pragma: no cover
                return super().local_update(global_params)

        _, clients, _ = build_world(num_clients=1)
        base = clients[0]
        custom = Custom(
            0, base.dataset, base.config, np.random.default_rng(1)
        )
        assert not megabatch_eligible(custom)

    def test_supported_and_unsupported_models(self):
        model, _, _ = build_world()
        assert supports_megabatch(model)
        with_norm = nn.Sequential(
            nn.Conv2d(1, 4, kernel_size=3, rng=np.random.default_rng(0)),
            nn.BatchNorm2d(4),
            nn.Flatten(),
        )
        assert not supports_megabatch(with_norm)

    def test_wave_size_validation(self):
        with pytest.raises(ValueError, match="wave_size"):
            MegabatchExecutor(wave_size=0)


class TestWaveParity:
    """Bitwise identity of one training wave, megabatch vs serial."""

    @pytest.mark.parametrize(
        "world_kwargs",
        [
            {},  # partial batches + momentum, the default world
            {"dropout": 0.3},  # per-client masks drawn from cloned rng
            {"last_conv_l2": 0.01, "weight_decay": 1e-4},
            {"batch_size": 64, "local_epochs": 1},  # single full batch
            {"tanh_avgpool": True},
            {"dropout": 0.3, "template_eval": True},  # the wave must train
        ],
        ids=["default", "dropout", "penalties", "one-batch", "tanh-avgpool",
             "eval-template"],
    )
    def test_deltas_and_rng_bitwise_identical(self, world_kwargs):
        serial_deltas, serial_rng = _wave(SerialExecutor(), **world_kwargs)
        mega_deltas, mega_rng = _wave(
            MegabatchExecutor(wave_size=64), **world_kwargs
        )
        assert len(mega_deltas) == len(serial_deltas)
        for a, b in zip(serial_deltas, mega_deltas):
            np.testing.assert_array_equal(a, b)
        assert mega_rng == serial_rng

    def test_wave_chunking_is_invisible(self):
        baseline, base_rng = _wave(MegabatchExecutor(wave_size=64))
        chunked, chunk_rng = _wave(MegabatchExecutor(wave_size=4))
        for a, b in zip(baseline, chunked):
            np.testing.assert_array_equal(a, b)
        assert chunk_rng == base_rng

    def test_gradient_slices_match_per_client_updates(self):
        """train_wave's batch-axis rows are the per-client deltas."""
        model, clients, _ = build_world(num_clients=4)
        global_params = model.flat_parameters()
        deltas = train_wave(model, clients, global_params)
        assert deltas.shape == (4, global_params.size)

        model2, clients2, _ = build_world(num_clients=4)
        for row, client in zip(deltas, clients2):
            np.testing.assert_array_equal(
                row, client.local_update(clone_module(model2), global_params)
            )

    def test_mixed_cohort_falls_back_per_client(self):
        """Faulty clients take the serial path inside a megabatch wave."""
        model, clients, _ = build_world()
        # zero-rate fault model: wrappers change eligibility, not math
        clients = (
            clients[:3] + wrap_clients(clients[3:], FaultModel(seed=11))
        )
        outcomes = collect_updates(
            MegabatchExecutor(wave_size=64),
            clients,
            model,
            model.flat_parameters(),
            round_index=0,
        )
        serial_deltas, serial_rng = _wave(SerialExecutor())
        for (_, value), expected in zip(outcomes, serial_deltas):
            np.testing.assert_array_equal(value, expected)
        assert _rng_states(clients) == serial_rng

    def test_non_finite_broadcast_raises_like_serial(self):
        model, clients, _ = build_world()
        broadcast = model.flat_parameters()
        broadcast[0] = np.nan
        for executor in (SerialExecutor(), MegabatchExecutor()):
            with pytest.raises(ValueError, match="non-finite"):
                collect_updates(
                    executor, clients, model, broadcast, round_index=0
                )

    def test_dtype_mismatch_falls_back_bitwise(self):
        """A float64 broadcast must not silently train in float64.

        ``load_flat_parameters`` casts the broadcast into the model's
        float32 parameters, but the serial delta is computed against the
        float64 broadcast — the vectorized path cannot reproduce that
        mixed precision, so such waves must degrade to the serial task
        path and stay bitwise identical to ``SerialExecutor``.
        """

        def run(executor):
            model, clients, _ = build_world()
            broadcast = model.flat_parameters().astype(np.float64)
            outcomes = collect_updates(
                executor, clients, model, broadcast, round_index=0
            )
            return [value for _, value in outcomes]

        serial = run(SerialExecutor())
        mega = run(MegabatchExecutor(wave_size=64))
        for a, b in zip(serial, mega):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestProfilerVisibility:
    def _profiled_keys(self, executor):
        with LayerProfiler() as prof:
            _wave(executor)
        assert all(entry["backward_calls"] for entry in prof.stats.values())
        return sorted(prof.stats)

    def test_megabatch_rows_match_serial_rows(self):
        """Waves of 4 and 2 fold into the serial per-layer rows."""
        serial = self._profiled_keys(SerialExecutor())
        assert "Conv2d(4,1,3,3)" in serial
        assert self._profiled_keys(MegabatchExecutor(wave_size=4)) == serial


class TestTrainingParity:
    """Multi-round server training across every engine."""

    def _train(self, executor, faults=None):
        model, clients, dataset = build_world()
        if faults is not None:
            clients = wrap_clients(clients, FaultModel(**faults))
        server = FederatedServer(model, clients, dataset, executor=executor)
        history = server.train(3)
        return model.flat_parameters(), [
            (r.round_index, r.test_acc, r.num_accepted) for r in history.rounds
        ]

    def test_clean_training_matches_all_engines(self):
        results = {}
        results["serial"] = self._train(SerialExecutor())
        results["megabatch"] = self._train(MegabatchExecutor(wave_size=4))
        with ThreadExecutor(num_workers=2) as thread:
            results["thread"] = self._train(thread)
        with ProcessExecutor(num_workers=2) as process:
            results["process"] = self._train(process)
        base_params, base_log = results["serial"]
        for name, (params, log) in results.items():
            np.testing.assert_array_equal(params, base_params, err_msg=name)
            assert log == base_log, name

    def test_faulty_training_matches_serial(self):
        faults = dict(
            dropout_prob=0.25,
            straggler_prob=0.2,
            corrupt_prob=0.15,
            stale_prob=0.1,
            seed=17,
        )
        base_params, base_log = self._train(SerialExecutor(), faults=faults)
        mega_params, mega_log = self._train(
            MegabatchExecutor(wave_size=64), faults=faults
        )
        np.testing.assert_array_equal(mega_params, base_params)
        assert mega_log == base_log


class TestTelemetryParity:
    def _traced_training(self, executor):
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        model, clients, dataset = build_world()
        faults = FaultModel(
            dropout_prob=0.2, corrupt_prob=0.15, stale_prob=0.1, seed=17
        )
        faults.telemetry = hub
        clients = wrap_clients(clients, faults)
        server = FederatedServer(
            model,
            clients,
            dataset,
            executor=executor,
            update_retries=1,
            max_client_strikes=2,
            telemetry=hub,
        )
        server.train(3)
        hub.close()
        return dumps_canonical(ring.events)

    def test_canonical_stream_byte_identical(self):
        serial = self._traced_training(SerialExecutor())
        mega = self._traced_training(MegabatchExecutor(wave_size=4))
        assert serial  # non-empty
        assert mega == serial
