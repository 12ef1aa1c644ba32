"""Golden digests: both round engines and the pipeline, pinned across commits.

The other determinism tests compare two runs of the *same* code (engine
vs engine, resumed vs uninterrupted).  These pin absolute output, so a
refactor of the round engines, the snapshot code or the executor fan-out
has to keep every byte:

* the canonical telemetry stream (:func:`repro.obs.schema.dumps_canonical`),
* the run's history (or, for the pipeline, its report) as sorted JSON,
* the final ``flat_parameters()`` bytes,
* every snapshot written: its ``meta`` as sorted JSON plus its arrays
  (names in write order, dtype, shape and bytes).

Three small scenarios cover the surfaces: a :class:`FederatedServer`
with faults, a lossy network, a sampler, a watchdog and a crash resumed
from a checkpoint; a :class:`DefenseService` with bursty traffic, a
lossy network, duplicate sends, live metrics, cleansing and a checkpoint
every round; and a checkpointed :class:`DefensePipeline` with
fine-tuning.  A digest changes only when output changes; a deliberate
change of output must update the constant and say why.

Run ``python tests/fl/test_engine_golden.py`` to print the current digests.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro import nn
from repro.attacks.poison import BackdoorTask
from repro.attacks.triggers import pixel_pattern
from repro.data.dataset import Dataset
from repro.defense.pipeline import DefenseConfig, DefensePipeline
from repro.eval.metrics import test_accuracy as accuracy_on
from repro.fl.aggregation import fedavg
from repro.fl.client import Client, LocalTrainingConfig, MaliciousClient
from repro.fl.executor import SerialExecutor
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.sampling import ParticipationSampler
from repro.fl.server import FederatedServer
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import make_schedule
from repro.fl.transport import make_network
from repro.fl.trust import TrustConfig
from repro.obs import RunContext, ServiceMetrics
from repro.obs.schema import dumps_canonical
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.persist import CheckpointManager, DivergenceWatchdog, stitch_streams

GOLDEN = {
    "server": {
        "stream": "d119d46e808a904b3c060bd72838b2f93298ce5c0e79d73f68b78507da98ab1a",
        "history": "c65a5891b9590a4eaf17925fcfe4dfc28c68de5aa5311b17a64958f3cf5aae54",
        "params": "e6212b87f889fc42cd7c8dde5e8a391c913c4d75b4eb3509d7be1f020192e794",
        "snapshots": "8756a7a12f2ccfe69ed22a75ffbf53be0503c9d494676b5986b7cdae05270785",
    },
    "service": {
        "stream": "7c118b24ced99aacff9803ff9513d316ac0c7354809d4a245313210453019fe2",
        "history": "f3c51d77be6a557838b63e67069821954e4211e59c7a3a491f199a4ef0710fde",
        "params": "b0a49eaa10f5d9d2a754d4a0128b4911831cac6055859ae82ec18da696040c15",
        "snapshots": "e999975b6738e77756f8e8b26d64ba990ad0d8c4ff472a81dd51a36c7ff93f9d",
    },
    "pipeline": {
        "stream": "53e416fdb4c0b645fc13f6a667f6a7da1ded85da0685db1790fad664f2b0cba9",
        "history": "0ac20c27131556203145230aba101c10eaa13bcdee42c3f10240c07fdd965671",
        "params": "c6fefcd1934c85419540b0127610b6a0030d6355b60befe2d44ebfdb04d08fce",
        "snapshots": "8ca920b2e42fb7dadaf35443a5e56cb385dae235a736fab575247c69a7fc6ffe",
    },
}

SIZE, CLASSES = 8, 4


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RecordingCheckpoints(CheckpointManager):
    """A checkpoint manager that digests every snapshot it writes."""

    def __init__(self, directory, records: list[str]) -> None:
        super().__init__(directory)
        self.records = records

    def save(self, kind, step, arrays, meta):
        record = hashlib.sha256()
        record.update(f"{kind}:{step}".encode())
        # wall-clock stage durations are the one non-deterministic field
        meta = {k: v for k, v in meta.items() if k != "stage_seconds"}
        record.update(json.dumps(meta, sort_keys=True).encode())
        for name, value in arrays.items():
            value = np.asarray(value)
            record.update(f"{name}|{value.dtype}|{value.shape}".encode())
            record.update(np.ascontiguousarray(value).tobytes())
        self.records.append(record.hexdigest())
        return super().save(kind, step, arrays, meta)


def digests(stream: bytes, history, params: np.ndarray, snapshots) -> dict:
    return {
        "stream": sha(stream),
        "history": sha(json.dumps(history, sort_keys=True).encode()),
        "params": sha(params.tobytes()),
        "snapshots": sha("\n".join(snapshots).encode()),
    }


def make_model(seed: int) -> nn.Sequential:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 6, kernel_size=3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * (SIZE // 4) ** 2, CLASSES, rng=rng),
    )


def make_world(num_clients: int, seed: int, faults: FaultModel, attackers=()):
    """A seeded federation: random images, IID shards, optional attackers."""
    total = 24 * num_clients
    data_rng = np.random.default_rng(seed)
    dataset = Dataset(
        data_rng.random((total, 1, SIZE, SIZE)),
        np.tile(np.arange(CLASSES), total // CLASSES),
    )
    config = LocalTrainingConfig(lr=0.05, momentum=0.9, batch_size=12)
    task = BackdoorTask(pixel_pattern(3, SIZE), victim_label=3, attack_label=0)
    clients = []
    for i, chunk in enumerate(np.array_split(np.arange(total), num_clients)):
        local, rng = dataset.subset(chunk), np.random.default_rng(seed + 100 + i)
        if i in attackers:
            clients.append(MaliciousClient(i, local, config, rng, task, gamma=3.0))
        else:
            clients.append(Client(i, local, config, rng))
    return make_model(seed + 1), wrap_clients(clients, faults), dataset, task


# -- scenario 1: the blocking server, killed and resumed ------------------


class SimulatedCrash(Exception):
    """Stands in for a kill mid-round."""


def crash_on_call(limit: int):
    calls = []

    def aggregate(updates: np.ndarray) -> np.ndarray:
        calls.append(1)
        if len(calls) == limit:
            raise SimulatedCrash
        return fedavg(updates)

    return aggregate


def server_attempt(directory, records, aggregator, resume):
    faults = FaultModel(dropout_prob=0.15, corrupt_prob=0.1, seed=17)
    model, clients, dataset, task = make_world(6, 21, faults, attackers=(5,))
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    RunContext(telemetry=hub, fault_model=faults)  # fault draws -> stream
    server = FederatedServer(
        model,
        clients,
        dataset,
        backdoor_task=task,
        sampler=ParticipationSampler(6, 5, seed=4),
        min_quorum=2,
        update_retries=1,
        max_client_strikes=2,
        executor=SerialExecutor(),
        telemetry=hub,
        watchdog=DivergenceWatchdog(max_update_norm=0.3, collapse_drop=0.5),
        aggregator=aggregator,
        network=make_network("lossy:corrupt=0.1,loss=0.2", seed=9),
    )
    checkpoint = RecordingCheckpoints(directory, records)
    try:
        history = server.train(
            6, checkpoint=checkpoint, checkpoint_every=2, resume=resume
        )
    except SimulatedCrash:
        history = None
    hub.close()
    return server, history, ring.events


def run_server(tmp_path) -> dict:
    records: list[str] = []
    _, _, first = server_attempt(tmp_path, records, crash_on_call(4), False)
    # the killed attempt's newest snapshot is where the resumed one starts
    resumed_from = CheckpointManager(tmp_path).load_latest("train")
    resume_seq = resumed_from.meta["telemetry"]["seq"]
    server, history, second = server_attempt(tmp_path, records, fedavg, True)
    stream = dumps_canonical(stitch_streams([first, second], [resume_seq]))
    return digests(
        stream, history.to_jsonable(), server.model.flat_parameters(), records
    )


# -- scenario 2: the deadline-scheduled service ---------------------------


def run_service(tmp_path) -> dict:
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 20.0),
        duplicate_prob=0.3,
        corrupt_prob=0.05,
        deadline_seconds=10.0,
        seed=31,
    )
    model, clients, dataset, task = make_world(8, 33, faults, attackers=(6, 7))
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    records: list[str] = []
    service = DefenseService(
        model,
        clients,
        dataset,
        ServiceConfig(
            round_deadline=10.0,
            quorum=4,
            degraded_after=1,
            max_pending=2,
            eval_every=2,
            checkpoint_every=1,
            trust=TrustConfig(smoothing=0.5, min_observations=2),
            cleanse_threshold=0.95,
            cleanse_cooldown=2,
            min_cleanse_clients=2,
        ),
        backdoor_task=task,
        traffic=make_schedule("bursty", seed=35),
        network=make_network("lossy", seed=36),
        sampler=ParticipationSampler(8, 7, seed=37),
        context=RunContext(
            telemetry=hub,
            executor=SerialExecutor(),
            fault_model=faults,
            checkpoint=RecordingCheckpoints(tmp_path, records),
            checkpoint_every=1,
        ),
        metrics=ServiceMetrics(),
    )
    history = service.run(8)
    hub.close()
    return digests(
        dumps_canonical(ring.events),
        history.to_jsonable(),
        model.flat_parameters(),
        records,
    )


# -- scenario 3: the one-shot defense pipeline ---------------------------


def run_pipeline(tmp_path) -> dict:
    faults = FaultModel(dropout_prob=0.1, report_fault_prob=0.2, seed=41)
    model, clients, dataset, _ = make_world(5, 43, faults, attackers=(4,))
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    records: list[str] = []
    pipeline = DefensePipeline(
        clients,
        lambda m: accuracy_on(m, dataset),
        DefenseConfig(
            method="mvp",
            fine_tune=True,
            fine_tune_rounds=3,
            fine_tune_patience=3,
            max_report_strikes=1,
            aw_delta_start=3.0,
        ),
        context=RunContext(
            telemetry=hub,
            executor=SerialExecutor(),
            fault_model=faults,
            checkpoint=RecordingCheckpoints(tmp_path, records),
            checkpoint_every=1,
        ),
    )
    report = pipeline.run(model)
    hub.close()
    outcome = {
        "pruning": report.pruning.to_jsonable(),
        "fine_tuning": report.fine_tuning.to_jsonable(),
        "adjusting": report.adjusting.to_jsonable(),
        "stages": sorted(report.stage_seconds),
        "events": [list(event) for event in pipeline.events],
        "quarantined": sorted(pipeline.quarantined),
    }
    return digests(
        dumps_canonical(ring.events), outcome, model.flat_parameters(), records
    )


def test_server_output_is_pinned(tmp_path):
    assert run_server(tmp_path) == GOLDEN["server"]


def test_service_output_is_pinned(tmp_path):
    assert run_service(tmp_path) == GOLDEN["service"]


def test_pipeline_output_is_pinned(tmp_path):
    assert run_pipeline(tmp_path) == GOLDEN["pipeline"]


if __name__ == "__main__":
    import pprint
    import tempfile

    current = {}
    for name, run in (
        ("server", run_server),
        ("service", run_service),
        ("pipeline", run_pipeline),
    ):
        with tempfile.TemporaryDirectory() as directory:
            current[name] = run(directory)
    pprint.pprint(current, sort_dicts=False)
