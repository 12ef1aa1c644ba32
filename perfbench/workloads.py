"""The three benchmark workloads.

Each workload is a closed loop in one process on one coordinator
thread: the next round or stage starts when the previous one returns.
``run_<workload>(seed, seconds, tracer, profile, reference, scratch)``
builds its inputs from ``seed``, measures, checks its outputs against
``reference`` where one is recorded, keeps any files under ``scratch``,
and returns a :class:`Result`.  Only ``cohort_round`` scales with
``seconds`` (one timed round per second); the other two are fixed
closed loops.

``tracer`` always records the few calls the end-to-end metrics need
(rounds, defense stages, one call per round at most).  With
``profile=True`` it also wraps every layer's public call site (see
``FINE``) and a :class:`~repro.obs.profile.LayerProfiler` times the
``repro.nn`` kernels; that is the traced run.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time
from contextlib import nullcontext

import numpy as np

import repro.defense.fine_tune
import repro.defense.pruning
import repro.experiments.common
import repro.fl.executor
import repro.fl.server
import repro.fl.service
from repro.defense.pipeline import DefenseConfig, DefensePipeline
from repro.experiments.common import build_setup, evaluate_modes
from repro.experiments.scale import BENCH
from repro.fl.aggregation import FedAvg, Median
from repro.fl.client import Client, MaliciousClient
from repro.fl.executor import MegabatchExecutor, SerialExecutor, collect_updates
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.sampling import ParticipationSampler
from repro.fl.server import FederatedServer
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import make_schedule
from repro.fl.transport import SimulatedNetwork, make_network
from repro.fl.trust import TrustTracker
from repro.obs import (
    LayerProfiler,
    MetricsAggregator,
    RunContext,
    ServiceMetrics,
    Telemetry,
    nearest_rank,
)
from repro.persist.checkpoint import CheckpointManager

import worlds

#: how many times each workload repeats its set-up; setup_s is the median
SETUP_REPEATS = {"table1_pair": 5, "cohort_round": 3, "service_stream": 5}

COHORT_CLIENTS = 2048
COHORT_WAVE = 64
SERVICE_CLIENTS = 1024
SERVICE_COHORT = 32
SERVICE_DEADLINE = 10.0
#: valid reports that commit a round: low enough that the first round,
#: with no deferred reports to draw on, still commits under the lossy mix
SERVICE_QUORUM = 12
#: share of the service population that boosts its delta (model replacement)
SERVICE_BOOSTED = 0.03
#: what a boosted client multiplies its delta by
BOOST_FACTOR = -12.0
#: every snapshot carries the whole round history, so a service round's
#: cost grows with its index: the stream length is part of the workload
SERVICE_ROUNDS = 150

#: where each layer's public call is looked up by its caller:
#: (owner, attribute, span name).  The traced run wraps all of them.
FINE = [
    (repro.experiments.common, "make_dataset", "data.make_dataset"),
    (FederatedServer, "run_round", "server.round"),
    (repro.fl.server, "collect_updates", "executor.collect"),
    (repro.defense.fine_tune, "collect_updates", "executor.collect"),
    (repro.fl.service, "dispatch_updates", "executor.collect"),
    (repro.fl.executor, "train_wave", "megabatch.train_wave"),
    (Client, "local_update", "client.local_update"),
    (MaliciousClient, "local_update", "client.local_update"),
    (FedAvg, "aggregate", "aggregation.aggregate"),
    (Median, "aggregate", "aggregation.aggregate"),
    (repro.defense.fine_tune, "fedavg", "aggregation.aggregate"),
    (repro.fl.server, "test_accuracy", "eval.test_accuracy"),
    (repro.fl.service, "test_accuracy", "eval.test_accuracy"),
    (repro.experiments.common, "test_accuracy", "eval.test_accuracy"),
    (repro.defense.pruning, "test_accuracy", "eval.test_accuracy"),
    (repro.fl.server, "attack_success_rate", "eval.attack_success_rate"),
    (repro.fl.service, "attack_success_rate", "eval.attack_success_rate"),
    (repro.experiments.common, "attack_success_rate", "eval.attack_success_rate"),
    (DefensePipeline, "global_prune_order", "defense.prune_order"),
    (repro.experiments.common, "prune_by_sequence", "defense.prune"),
    (repro.experiments.common, "adjust_extreme_weights", "defense.adjust_weights"),
    (repro.experiments.common, "federated_fine_tune", "defense.fine_tune"),
    (DefenseService, "run_round", "service.round"),
    (SimulatedNetwork, "transmit", "transport.transmit"),
    (TrustTracker, "score_round", "trust.score_round"),
    (MetricsAggregator, "emit", "obs.metrics_emit"),
    (DefenseService, "save_checkpoint", "persist.save_checkpoint"),
]

#: span names the untraced run records too (a handful of calls per round)
COARSE = {
    "table1_pair": {
        "server.round", "defense.prune", "defense.adjust_weights", "defense.fine_tune",
    },
    "cohort_round": {"aggregation.aggregate"},
    "service_stream": {"service.round", "executor.collect", "trust.score_round"},
}

DEFENSE_STAGES = ("defense.prune", "defense.adjust_weights", "defense.fine_tune")


class Result:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.checks: dict[str, bool] = {}
        self.details: dict = {}
        self.operations = 0
        self.operations_failed = 0
        #: the measured region's wall seconds (trace overhead baseline)
        self.wall_s = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks)

    @property
    def failed(self) -> int:
        return self.operations_failed + sum(not ok for ok in self.checks.values())


def patch_layers(tracer, workload: str, profile: bool, hooks=None) -> None:
    """Wrap the workload's coarse call sites, and with ``profile`` all of them.

    ``hooks`` maps ``(owner, attribute)`` to extra :meth:`Tracer.wrap`
    keyword arguments for that call site.
    """
    hooks = hooks or {}
    for owner, attr, name in FINE:
        if profile or name in COARSE[workload]:
            tracer.patch(owner, attr, name, **hooks.get((owner, attr), {}))


def params_sha256(flat: np.ndarray) -> str:
    return hashlib.sha256(flat.tobytes()).hexdigest()


def check_reference(result: Result, expected: dict | None, observed: dict) -> None:
    """Check the outputs recorded in ``reference.json`` for the run's seed.

    Every recorded value must match exactly: one seed drives the program
    through the same arithmetic on every run.  A seed with nothing
    recorded gets no reference check.
    """
    result.details["params_sha256"] = observed["params_sha256"]
    if expected is not None:
        result.check(
            "outputs_match_reference",
            all(observed.get(key) == value for key, value in expected.items()),
        )


def round_walls(starts: list[float], end: float) -> list[float]:
    """Round wall seconds: from one round's start to the next one's."""
    bounds = list(starts) + [end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def round_metrics(result: Result, walls: list[float], updates_per_round: float) -> None:
    median = statistics.median(walls)
    result.e2e["round_ms_p50"] = 1000.0 * median
    result.e2e["client_updates_per_s"] = updates_per_round / median
    # a tail of few rounds swings with the host's speed: per-layer, no bound
    result.layers["round_ms_p90"] = 1000.0 * nearest_rank(sorted(walls), 90)
    result.details["round_walls_ms"] = [round(1000.0 * wall, 1) for wall in walls]


class _SetupDone(Exception):
    """Raised at the first timed operation to end a set-up probe."""


def _stop_at(owner, attr):
    original = vars(owner)[attr]

    def stop(*args, **kwargs):
        raise _SetupDone

    setattr(owner, attr, stop)
    return lambda: setattr(owner, attr, original)


# -- table1_pair --------------------------------------------------------

#: Table I pair as the user runs it: MNIST at bench scale, victim 9 ->
#: attack label 0, model replacement, then FP -> AW and FP -> FT -> AW
TABLE1_KW = dict(victim_label=9, attack_label=0)
TABLE1_MODES = ("training", "fp_aw", "all")
#: the default MVP defense, except that fine-tuning always spends its whole
#: budget: with early stopping it ran 2 to 5 rounds depending on the seed,
#: which moved defense_s by 40% between seeds on an otherwise quiet host
TABLE1_DEFENSE = DefenseConfig(
    method="mvp",
    fine_tune=True,
    fine_tune_rounds=BENCH.fine_tune_rounds,
    fine_tune_patience=BENCH.fine_tune_rounds,
)


def _table1_setup_probe(seed: int) -> float:
    """Seconds build_setup spends before its first training round."""
    undo = _stop_at(FederatedServer, "run_round")
    start = time.perf_counter()
    try:
        build_setup("mnist", BENCH, seed=seed, **TABLE1_KW,
                    context=RunContext(executor=SerialExecutor()))
    except _SetupDone:
        return time.perf_counter() - start
    finally:
        undo()
    raise RuntimeError("build_setup returned without training")


def run_table1_pair(seed, seconds, tracer, profile, reference, scratch) -> Result:
    result = Result()
    setups = [_table1_setup_probe(seed) for _ in range(SETUP_REPEATS["table1_pair"] - 1)]

    patch_layers(tracer, "table1_pair", profile)
    context = RunContext(executor=SerialExecutor())
    train_profiler = LayerProfiler() if profile else None
    defense_profiler = LayerProfiler() if profile else None
    root = tracer.open("bench.run")
    begin = time.perf_counter()
    with train_profiler or nullcontext():
        setup = build_setup("mnist", BENCH, seed=seed, **TABLE1_KW, context=context)
    trained = time.perf_counter()
    stage_error = None
    modes = {}
    try:
        with defense_profiler or nullcontext():
            modes = evaluate_modes(
                setup, modes=TABLE1_MODES, config=TABLE1_DEFENSE, context=context
            )
    except Exception as exc:  # a raising stage is a failure, not a crash
        stage_error = repr(exc)
    end = time.perf_counter()
    tracer.close(root)
    result.wall_s = end - begin

    starts = [span[1] for span in tracer.named("server.round")]
    setups.append(starts[0] - begin)
    result.e2e["setup_s"] = statistics.median(setups)
    result.e2e["train_s"] = trained - starts[0]
    result.e2e["defense_s"] = end - trained
    round_metrics(result, round_walls(starts, trained), BENCH.num_clients)

    history = setup.history
    bad_rounds = set(history.skipped_rounds) | set(history.diverged_rounds)
    stages_run = sum(tracer.count(name) for name in DEFENSE_STAGES)
    stages_failed = sum(tracer.errors[name] for name in DEFENSE_STAGES)
    # FP, AW (fp_aw), FT and AW (all): stages never reached failed too
    stages_failed += max(0, 4 - stages_run)
    result.operations = len(history) + 4
    result.operations_failed = len(bad_rounds) + stages_failed

    result.details.update(
        modes={mode: list(pair) for mode, pair in modes.items()},
        stage_error=stage_error,
        skipped_rounds=history.skipped_rounds,
        diverged_rounds=history.diverged_rounds,
    )
    result.check("modes_complete", set(modes) == set(TABLE1_MODES))
    check_reference(result, reference.get(str(seed)), {
        "modes": result.details["modes"],
        "params_sha256": params_sha256(setup.model.flat_parameters()),
    })
    if profile:
        _nn_layers(result, "train", train_profiler)
        _nn_layers(result, "defense", defense_profiler)
    return result


# -- cohort_round ---------------------------------------------------------


def _cohort_parity(seed: int) -> bool:
    """One megabatch wave's deltas are bitwise equal to the serial engine's."""
    deltas = []
    for engine in (MegabatchExecutor(wave_size=COHORT_WAVE), SerialExecutor()):
        model, clients, _ = worlds.federation(COHORT_WAVE, seed)
        outcomes = collect_updates(engine, clients, model, model.flat_parameters(),
                                   round_index=0)
        deltas.append(np.stack([value for _, value in outcomes]))
    return deltas[0].shape == deltas[1].shape and bool(np.array_equal(deltas[0], deltas[1]))


def _cohort_server(seed: int):
    model, clients, test = worlds.federation(COHORT_CLIENTS, seed)
    return FederatedServer(
        model, clients, test,
        rng=np.random.default_rng(seed + 1),
        executor=MegabatchExecutor(wave_size=COHORT_WAVE),
        aggregator="median",
    )


def run_cohort_round(seed, seconds, tracer, profile, reference, scratch) -> Result:
    result = Result()
    result.check("megabatch_matches_serial", _cohort_parity(seed))
    setups = []
    for _ in range(SETUP_REPEATS["cohort_round"]):
        start = time.perf_counter()
        server = _cohort_server(seed)
        warm = server.run_round(0)
        setups.append(time.perf_counter() - start)
    result.e2e["setup_s"] = statistics.median(setups)

    patch_layers(tracer, "cohort_round", profile)
    profiler = LayerProfiler() if profile else None
    rounds = max(1, int(seconds))
    walls, history = [], []
    root = tracer.open("bench.run")
    with profiler or nullcontext():
        for index in range(1, rounds + 1):
            start = time.perf_counter()
            try:
                history.append(server.run_round(index))
            except Exception as exc:  # the round's updates all failed
                history.append(exc)
            walls.append(time.perf_counter() - start)
    tracer.close(root)
    result.wall_s = sum(walls)

    result.e2e["train_s"] = sum(walls)
    result.e2e["defense_s"] = sum(tracer.durations("aggregation.aggregate"))
    round_metrics(result, walls, COHORT_CLIENTS)
    result.operations = COHORT_CLIENTS * rounds
    result.operations_failed = sum(
        COHORT_CLIENTS if isinstance(m, Exception) else len(m.dropped) + len(m.rejected)
        for m in history
    )
    finished = [m for m in history if not isinstance(m, Exception)]
    result.details.update(
        warmup_test_acc=warm.test_acc,
        final_test_acc=finished[-1].test_acc if finished else None,
    )
    result.check("rounds_accept_every_update", all(
        m.num_accepted == COHORT_CLIENTS for m in finished
    ))
    # the final parameters depend on how many rounds ran
    check_reference(result, reference.get(f"{seed}/{rounds}"), {
        "final_test_acc": result.details["final_test_acc"],
        "params_sha256": params_sha256(server.model.flat_parameters()),
    })
    if profile:
        _nn_layers(result, "train", profiler)
    return result


# -- service_stream --------------------------------------------------------


class BoostedClient:
    """Wraps a client and scales its delta: a model-replacement attacker."""

    def __init__(self, base):
        self._base = base

    def __getattr__(self, name):
        return getattr(self.__dict__["_base"], name)

    def local_update(self, model, global_params, round_index=None):
        return self._base.local_update(model, global_params, round_index) * BOOST_FACTOR


def _service(seed: int, directory: str) -> DefenseService:
    model, clients, test = worlds.federation(SERVICE_CLIENTS, seed)
    rng = np.random.default_rng(seed + 7)
    boosted = set(rng.choice(
        SERVICE_CLIENTS, int(round(SERVICE_BOOSTED * SERVICE_CLIENTS)), replace=False
    ).tolist())
    clients = [BoostedClient(c) if c.client_id in boosted else c for c in clients]
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 2 * SERVICE_DEADLINE),
        deadline_seconds=SERVICE_DEADLINE,
        seed=seed + 1,
    )
    context = RunContext(
        telemetry=Telemetry(),
        executor=MegabatchExecutor(wave_size=COHORT_WAVE),
        fault_model=faults,
        checkpoint=CheckpointManager(directory),
        checkpoint_every=1,
    )
    return DefenseService(
        model,
        wrap_clients(clients, faults),
        test,
        ServiceConfig(
            round_deadline=SERVICE_DEADLINE,
            quorum=SERVICE_QUORUM,
            eval_every=4,
            checkpoint_every=1,
            cleanse_threshold=None,
        ),
        traffic=make_schedule("bursty", seed=seed + 3),
        network=make_network("lossy", seed=seed + 4),
        sampler=ParticipationSampler(SERVICE_CLIENTS, SERVICE_COHORT, seed=seed + 5),
        context=context,
        metrics=ServiceMetrics(),
    )


def run_service_stream(seed, seconds, tracer, profile, reference, scratch) -> Result:
    result = Result()
    # a traced run's baseline pass leaves its snapshots behind
    directory = os.path.join(scratch, "checkpoints")
    shutil.rmtree(directory, ignore_errors=True)
    setups = []
    for _ in range(SETUP_REPEATS["service_stream"]):
        start = time.perf_counter()
        service = _service(seed, directory)
        setups.append(time.perf_counter() - start)
    result.e2e["setup_s"] = statistics.median(setups)

    dispatched: list[int] = []
    snapshot_sizes: list[int] = []
    patch_layers(tracer, "service_stream", profile, hooks={
        (repro.fl.service, "dispatch_updates"): dict(
            on_call=lambda executor, clients, *a, **k: dispatched.append(len(clients))
        ),
        (DefenseService, "save_checkpoint"): dict(
            on_return=lambda snapshot: snapshot_sizes.append(os.path.getsize(snapshot.path))
        ),
    })
    profiler = LayerProfiler() if profile else None
    root = tracer.open("bench.run")
    begin = time.perf_counter()
    with profiler or nullcontext():
        history = service.run(SERVICE_ROUNDS)
    end = time.perf_counter()
    tracer.close(root)
    result.wall_s = end - begin

    starts = [span[1] for span in tracer.named("service.round")]
    result.e2e["train_s"] = end - begin
    result.e2e["defense_s"] = sum(tracer.durations("trust.score_round"))
    round_metrics(result, round_walls(starts, end), statistics.fmean(dispatched))
    result.operations = len(history)
    result.operations_failed = len(history) - len(history.committed_rounds)

    origins = history.aggregated_origins
    result.check("aggregated_origins_unique", len(origins) == len(set(origins)))
    live = service.model.flat_parameters().copy()
    checkpoint = service.context.checkpoint
    start = time.perf_counter()
    snapshot = checkpoint.load_latest("service")
    if snapshot is not None:
        service.restore_checkpoint(snapshot)
    restore_s = time.perf_counter() - start
    result.check(
        "last_snapshot_restores_live_params",
        snapshot is not None and np.array_equal(service.model.flat_parameters(), live),
    )

    counts = history.report_counts()
    network = history.network_counts()
    latency = history.latency_percentiles()
    result.details.update(
        rounds=len(history),
        committed=len(history.committed_rounds),
        quorum_failed=history.quorum_failed_rounds,
        degraded=history.degraded_rounds,
        sim_commit_latency_p50_s=latency["p50"],
        sim_commit_latency_p99_s=latency["p99"],
        reports=counts,
        network=network,
        trust_quarantines=len(history.trust_quarantine_events),
    )
    check_reference(result, reference.get(str(seed)), {
        "committed": len(history.committed_rounds),
        "params_sha256": params_sha256(live),
    })
    result.layers["service.sim_commit_latency_p99_s"] = latency["p99"]
    if profile:
        result.layers.update({
            "service.update_yield": counts["admitted"] / sum(dispatched),
            "transport.delivery_ratio":
                1.0 - network["lost"] / tracer.count("transport.transmit"),
            "transport.dedup_hits": network["dedup"],
            "persist.snapshot_bytes": statistics.fmean(snapshot_sizes),
            "persist.restore_s": restore_s,
        })
        _nn_layers(result, "train", profiler)
    return result


# -- per-layer tables ---------------------------------------------------------


def _nn_layers(result: Result, phase: str, profiler: LayerProfiler) -> None:
    """Group the LayerProfiler table into conv2d / maxpool2d / rest."""
    table = {
        f"nn.{phase}.{group}.{way}_s": 0.0
        for group in ("conv2d", "maxpool2d", "rest")
        for way in ("fwd", "bwd")
    }
    moved = 0
    for key, entry in profiler.stats.items():
        kind = key.split("(", 1)[0].lower()
        group = kind if kind in ("conv2d", "maxpool2d") else "rest"
        table[f"nn.{phase}.{group}.fwd_s"] += entry["forward_seconds"]
        table[f"nn.{phase}.{group}.bwd_s"] += entry["backward_seconds"]
        moved += entry["input_bytes"] + entry["output_bytes"] + entry["grad_bytes"]
    table[f"nn.{phase}.mb_moved"] = moved / 1e6
    result.layers.update(table)


WORKLOADS = {
    "table1_pair": run_table1_pair,
    "cohort_round": run_cohort_round,
    "service_stream": run_service_stream,
}
