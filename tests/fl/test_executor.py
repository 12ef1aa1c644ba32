"""Determinism tests for the pluggable client-execution engine.

The contract under test (see ``src/repro/fl/executor.py``): serial,
thread and process execution produce **bitwise identical** results —
model parameters, metric traces, and the full fault log — for training
rounds, defense report collection and federated fine-tuning, with and
without injected client faults.
"""

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import Dataset
from repro.defense.fine_tune import federated_fine_tune
from repro.defense.pipeline import DefenseConfig, DefensePipeline
from repro.defense.pruning import client_feedback_accuracy
from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    collect_updates,
)
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.server import FederatedServer
from repro.obs import RingBufferSink, RunContext, Telemetry, dumps_canonical


# pools are module-scoped: process spawn is expensive (seconds per
# worker on a busy box) and the pools are stateless between tests
@pytest.fixture(scope="module")
def thread_executor():
    with ThreadExecutor(num_workers=2) as executor:
        yield executor


@pytest.fixture(scope="module")
def process_executor():
    with ProcessExecutor(num_workers=2) as executor:
        yield executor


@pytest.fixture
def all_executors(thread_executor, process_executor):
    """(name, executor) trio; None exercises the default serial path."""
    return [
        ("serial", None),
        ("thread", thread_executor),
        ("process", process_executor),
    ]


def build_world(seed=5, num_clients=4):
    """A fresh, fully seeded federation — identical on every call."""
    data_rng = np.random.default_rng(seed)
    images = data_rng.random((48, 1, 8, 8))
    labels = np.repeat(np.arange(4), 12)
    dataset = Dataset(images, labels)
    config = LocalTrainingConfig(
        lr=0.05, momentum=0.5, batch_size=12, local_epochs=1
    )
    chunks = np.array_split(np.arange(len(dataset)), num_clients)
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(100 + i))
        for i, chunk in enumerate(chunks)
    ]
    model_rng = np.random.default_rng(seed + 1)
    model = nn.Sequential(
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=model_rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 4, rng=model_rng),
    )
    return model, clients, dataset


def run_training(executor, rounds=2, faults=None, **server_kwargs):
    model, clients, dataset = build_world()
    if faults is not None:
        clients = wrap_clients(clients, FaultModel(**faults))
    server = FederatedServer(
        model, clients, dataset, executor=executor, **server_kwargs
    )
    history = server.train(rounds)
    return model.flat_parameters(), history


def history_log(history):
    """Everything a TrainingHistory records, as comparable tuples."""
    return [
        (
            r.round_index,
            r.test_acc,
            r.num_selected,
            r.num_accepted,
            tuple(r.dropped),
            tuple(r.rejected),
            tuple(r.quarantined),
            r.skipped,
        )
        for r in history.rounds
    ]


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise RuntimeError("task three failed")
    return x


class TestMapClients:
    def test_results_in_item_order(self, all_executors):
        items = [5, 3, 8, 1, 9, 2]
        for name, executor in all_executors:
            executor = executor or SerialExecutor()
            assert executor.map_clients(_square, items) == [
                25, 9, 64, 1, 81, 4,
            ], name

    def test_exceptions_propagate(self, all_executors):
        for name, executor in all_executors:
            executor = executor or SerialExecutor()
            with pytest.raises(RuntimeError, match="task three"):
                executor.map_clients(_raise_on_three, [1, 2, 3, 4])

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_invalid_worker_count(self, cls):
        with pytest.raises(ValueError, match="num_workers"):
            cls(num_workers=0)

    def test_context_manager_closes_pool(self):
        with ThreadExecutor(num_workers=2) as executor:
            executor.map_clients(_square, [1, 2, 3])
            assert executor._pool is not None
        assert executor._pool is None


class TestTrainingDeterminism:
    def test_fault_free_bitwise_identical(self, all_executors):
        results = {
            name: run_training(executor) for name, executor in all_executors
        }
        baseline_params, baseline_history = results["serial"]
        for name, (params, history) in results.items():
            np.testing.assert_array_equal(params, baseline_params, err_msg=name)
            assert history_log(history) == history_log(baseline_history), name

    def test_faulty_bitwise_identical(self, all_executors):
        faults = dict(
            dropout_prob=0.25,
            straggler_prob=0.2,
            corrupt_prob=0.15,
            stale_prob=0.1,
            report_fault_prob=0.2,
            seed=17,
        )
        results = {
            name: run_training(
                executor,
                rounds=4,
                faults=faults,
                update_retries=1,
                max_client_strikes=2,
            )
            for name, executor in all_executors
        }
        baseline_params, baseline_history = results["serial"]
        # the seeded schedule actually exercised the fault paths
        assert baseline_history.num_dropouts > 0
        for name, (params, history) in results.items():
            np.testing.assert_array_equal(params, baseline_params, err_msg=name)
            assert history_log(history) == history_log(baseline_history), name

    def test_zero_rates_neutral_under_parallel(self, thread_executor):
        plain_params, plain_history = run_training(None)
        wrapped_params, wrapped_history = run_training(
            thread_executor, faults=dict(seed=17)
        )
        np.testing.assert_array_equal(wrapped_params, plain_params)
        assert history_log(wrapped_history) == history_log(plain_history)

    def test_collect_updates_rng_round_trip(self, process_executor):
        """Worker-side RNG consumption must advance the coordinator's copy."""
        model, clients, _ = build_world()
        states = []
        for _ in range(2):  # same call twice: streams must keep moving
            collect_updates(
                process_executor, clients, model, model.flat_parameters()
            )
            states.append([c.rng.bit_generator.state["state"] for c in clients])
        assert states[0] != states[1]


class TestDefenseDeterminism:
    @pytest.mark.parametrize("method", ["rap", "mvp"])
    def test_pipeline_bitwise_identical(self, method, all_executors):
        def run(executor):
            model, clients, dataset = build_world()
            clients = wrap_clients(
                clients, FaultModel(report_fault_prob=0.3, seed=23)
            )
            pipeline = DefensePipeline(
                clients,
                lambda m: 0.9,  # accuracy oracle that never stops pruning
                DefenseConfig(
                    method=method, fine_tune=True, fine_tune_rounds=2
                ),
                context=RunContext(executor=executor),
            )
            report = pipeline.run(model)
            return model.flat_parameters(), report, pipeline.events

        results = {name: run(executor) for name, executor in all_executors}
        base_params, base_report, base_events = results["serial"]
        for name, (params, report, events) in results.items():
            np.testing.assert_array_equal(params, base_params, err_msg=name)
            assert report.pruning.pruned_channels == base_report.pruning.pruned_channels
            assert events == base_events, name

    def test_fine_tune_bitwise_identical(self, all_executors):
        def run(executor):
            model, clients, dataset = build_world()
            result = federated_fine_tune(
                model,
                clients,
                lambda m: float(m.flat_parameters()[0]),
                max_rounds=2,
                executor=executor,
            )
            return model.flat_parameters(), result.accuracy_trace

        results = {name: run(executor) for name, executor in all_executors}
        base_params, base_trace = results["serial"]
        for name, (params, trace) in results.items():
            np.testing.assert_array_equal(params, base_params, err_msg=name)
            assert trace == base_trace, name

    def test_client_feedback_accuracy_parallel(
        self, tiny_cnn, all_executors
    ):
        model, clients, _ = build_world()
        values = {
            name: client_feedback_accuracy(clients, model, executor)
            for name, executor in all_executors
        }
        assert len(set(values.values())) == 1


class TestTelemetryParity:
    """The canonical event stream is part of the determinism contract:
    byte-identical (timestamps stripped) across every execution engine."""

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

    def test_training_stream_byte_identical(self, all_executors):
        streams = {
            name: self._traced_training(executor)
            for name, executor in all_executors
        }
        assert streams["serial"]  # non-empty
        assert streams["thread"] == streams["serial"]
        assert streams["process"] == streams["serial"]

    def test_defense_stream_byte_identical(self, all_executors):
        def run(executor):
            hub = Telemetry()
            ring = hub.add_sink(RingBufferSink())
            model, clients, _ = build_world()
            faults = FaultModel(report_fault_prob=0.3, seed=23)
            faults.telemetry = hub
            clients = wrap_clients(clients, faults)
            pipeline = DefensePipeline(
                clients,
                lambda m: 0.9,
                DefenseConfig(method="mvp", fine_tune=True, fine_tune_rounds=2),
                context=RunContext(telemetry=hub, executor=executor),
            )
            pipeline.run(model)
            hub.close()
            return dumps_canonical(ring.events)

        streams = {name: run(executor) for name, executor in all_executors}
        assert streams["serial"]
        assert streams["thread"] == streams["serial"]
        assert streams["process"] == streams["serial"]


# -- worker watchdog ---------------------------------------------------
#
# The task bodies below must be module-level (spawn pickles them by
# qualified name) and communicate across process boundaries through
# flag files: the first execution of a task dies or hangs, re-dispatch
# finds the flag and completes.


def _kill_once(task):
    import os
    import signal

    value, flag = task
    if not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _hang_once(task):
    import os
    import time

    value, flag = task
    if not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("hung")
        time.sleep(120)
    return value * 2


def _always_die(_task):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerWatchdog:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessExecutor(num_workers=1, task_timeout=0)
        with pytest.raises(ValueError, match="max_task_retries"):
            ProcessExecutor(num_workers=1, max_task_retries=-1)

    def test_killed_worker_recovers_completed_results(self, tmp_path):
        """SIGKILL mid-wave: survivors kept, casualty re-dispatched."""
        flag = str(tmp_path / "killed.flag")
        with ProcessExecutor(num_workers=2) as executor:
            results = executor.map_clients(
                _kill_once, [(i, flag) for i in range(4)]
            )
            assert results == [0, 2, 4, 6]
            assert executor.redispatches >= 1
            # the rebuilt pool keeps serving later waves
            assert executor.map_clients(_square, [3]) == [9]

    @pytest.mark.slow
    def test_hung_worker_past_deadline_is_re_dispatched(self, tmp_path):
        flag = str(tmp_path / "hung.flag")
        with ProcessExecutor(num_workers=2, task_timeout=3.0) as executor:
            results = executor.map_clients(
                _hang_once, [(i, flag) for i in range(2)]
            )
            assert results == [0, 2]
            assert executor.redispatches >= 1

    def test_gives_up_after_retry_budget(self):
        with ProcessExecutor(num_workers=1, max_task_retries=0) as executor:
            with pytest.raises(RuntimeError, match="re-dispatch"):
                executor.map_clients(_always_die, [1])
