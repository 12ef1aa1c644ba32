"""Tests for the coordinator core both round engines share.

:class:`~repro.fl.coordinator.Coordinator` keeps one copy of the books
:class:`~repro.fl.server.FederatedServer` and
:class:`~repro.fl.service.DefenseService` both need: quorum checks, the
checksum verdict, the strike ledger, the sequence counter and delivery
gate, the population checks, and save/restore of all of that.  These
tests exercise each piece directly; the engines' end-to-end output is
pinned by ``test_engine_golden.py``.
"""

import json

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import Dataset
from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.coordinator import (
    Coordinator,
    StrikeLedger,
    _resolve_quorum,
    check_quorum,
    checksum_problem,
)
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.sampling import ClientPool, ParticipationSampler
from repro.fl.server import FederatedServer
from repro.fl.service import DefenseService
from repro.fl.transport import Envelope, payload_checksum
from repro.persist import CheckpointManager

ONES = np.ones(4)


def make_world(num_clients: int = 4, faulty: bool = False):
    """A small, fully seeded federation (fresh copy per call)."""
    size, classes, total = 8, 4, 96
    data_rng = np.random.default_rng(3)
    dataset = Dataset(
        data_rng.random((total, 1, size, size)),
        np.tile(np.arange(classes), total // classes),
    )
    config = LocalTrainingConfig(lr=0.05, batch_size=16, local_epochs=1)
    chunks = np.array_split(np.arange(total), num_clients)
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(20 + i))
        for i, chunk in enumerate(chunks)
    ]
    if faulty:
        clients = wrap_clients(
            clients, FaultModel(dropout_prob=0.2, corrupt_prob=0.3, seed=9)
        )
    model_rng = np.random.default_rng(1)
    model = nn.Sequential(
        nn.Flatten(),
        nn.Linear(size * size, classes, rng=model_rng),
    )
    return model, clients, dataset


ENGINES = [
    pytest.param(
        lambda model, clients, data, **kw: FederatedServer(
            model, clients, data, **kw
        ),
        id="server",
    ),
    pytest.param(
        lambda model, clients, data, **kw: DefenseService(
            model, clients, data, **kw
        ),
        id="service",
    ),
]


class TestQuorum:
    @pytest.mark.parametrize("quorum", [1, 7, 0.25, 1.0])
    def test_valid_quorum_accepted(self, quorum):
        check_quorum(quorum, "min_quorum")

    @pytest.mark.parametrize("quorum", [0, -2, 0.0, 1.5])
    def test_invalid_quorum_names_the_field(self, quorum):
        with pytest.raises(ValueError, match="min_quorum"):
            check_quorum(quorum, "min_quorum")

    def test_resolve_rounds_fraction_up_and_floors_at_one(self):
        assert _resolve_quorum(0.5, 5) == 3
        assert _resolve_quorum(0.01, 5) == 1
        assert _resolve_quorum(1.0, 8) == 8
        assert _resolve_quorum(3, 10) == 3
        assert _resolve_quorum(0, 10) == 1


class TestChecksumVerdict:
    def test_intact_and_unstamped_payloads_pass(self):
        stamped = Envelope(0, 0, 1.0, ONES, seq=0, checksum=payload_checksum(ONES))
        unstamped = Envelope(0, 0, 1.0, ONES)
        assert checksum_problem(stamped) is None
        assert checksum_problem(unstamped) is None

    def test_corrupted_payload_gets_the_verdict(self):
        env = Envelope(0, 0, 1.0, ONES * 2, seq=0, checksum=payload_checksum(ONES))
        assert checksum_problem(env) == "checksum mismatch (corrupted in transit)"


class TestStrikeLedger:
    def test_trips_quarantine_once_at_the_limit(self):
        ledger = StrikeLedger(limit=2)
        assert [ledger.record(5) for _ in range(4)] == [False, True, False, False]
        assert ledger.counts == {5: 4}
        assert ledger.quarantined == {5}

    def test_no_limit_counts_nothing(self):
        ledger = StrikeLedger(limit=None)
        assert not any(ledger.record(1) for _ in range(10))
        assert ledger.counts == {}
        assert ledger.quarantined == set()

    def test_meta_survives_json_under_the_callers_key(self):
        ledger = StrikeLedger(limit=2)
        for client_id in (3, 3, 8):
            ledger.record(client_id)
        meta = json.loads(json.dumps(ledger.to_meta("strike_quarantined")))
        assert meta == {"strikes": {"3": 2, "8": 1}, "strike_quarantined": [3]}

        restored = StrikeLedger(limit=2)
        restored.load_meta(meta, "strike_quarantined")
        assert restored.counts == ledger.counts
        assert restored.quarantined == ledger.quarantined


class TestCoordinatorBooks:
    @pytest.mark.parametrize("build", ENGINES)
    def test_engines_share_the_core(self, build):
        model, clients, data = make_world()
        engine = build(model, clients, data)
        assert isinstance(engine, Coordinator)
        assert isinstance(engine.strikes, StrikeLedger)

    @pytest.mark.parametrize("build", ENGINES)
    def test_population_checks(self, build):
        model, clients, data = make_world()
        with pytest.raises(ValueError, match="at least one client"):
            build(model, [], data)
        with pytest.raises(ValueError, match="does not match"):
            build(model, clients, data, sampler=ParticipationSampler(5, 2))
        pool = ClientPool(len(clients), lambda i: clients[i])
        with pytest.raises(ValueError, match="requires a ParticipationSampler"):
            build(model, pool, data)

    @pytest.mark.parametrize("build", ENGINES)
    def test_client_pool_checkpoint_refused(self, build, tmp_path):
        model, clients, data = make_world()
        pool = ClientPool(len(clients), lambda i: clients[i])
        engine = build(
            model, pool, data, sampler=ParticipationSampler(len(clients), 2)
        )
        with pytest.raises(ValueError, match="lazily materialized ClientPool"):
            engine._pack_state(0, None)

    def test_sequence_counter_is_per_kind_and_client(self):
        model, clients, data = make_world()
        server = FederatedServer(model, clients, data)
        taken = [
            server._take_seq("update", 1),
            server._take_seq("update", 1),
            server._take_seq("update", 2),
            server._take_seq("solicit", 1),
            server._take_seq("update", 1),
        ]
        assert taken == [0, 1, 0, 0, 2]
        assert server._seq == {"update:1": 3, "update:2": 1, "solicit:1": 1}

    def test_cohort_draw_skips_excluded_and_announces(self):
        model, clients, data = make_world(num_clients=6)
        sampler = ParticipationSampler(6, 4, seed=2)
        server = FederatedServer(model, clients, data, sampler=sampler)
        drawn = [int(i) for i in sampler.draw(0)]
        events = []
        server.telemetry.event = lambda name, **attrs: events.append((name, attrs))

        cohort = server._draw_cohort(0, exclude={drawn[0]})
        assert [c.client_id for c in cohort] == drawn[1:]
        assert events == [
            (
                "fl.cohort_sampled",
                {"round": 0, "population": 6, "drawn": 4, "cohort": 3},
            )
        ]

    def test_shared_state_round_trips_through_a_checkpoint(self, tmp_path):
        model, clients, data = make_world(faulty=True)
        server = FederatedServer(
            model, clients, data, max_client_strikes=2, aggregator="median"
        )
        checkpoint = CheckpointManager(tmp_path)
        history = server.train(3, checkpoint=checkpoint)
        server._take_seq("update", 0)
        server.strikes.record(1)
        server.save_checkpoint(checkpoint, 3, history)

        model2, clients2, data2 = make_world(faulty=True)
        fresh = FederatedServer(
            model2, clients2, data2, max_client_strikes=2, aggregator="median"
        )
        fresh.restore_checkpoint(checkpoint.load_latest(FederatedServer.KIND))
        assert fresh.strikes.counts == server.strikes.counts
        assert fresh.strikes.quarantined == server.strikes.quarantined
        assert fresh._seq == server._seq
        assert fresh.gate.state_dict() == server.gate.state_dict()
        np.testing.assert_array_equal(
            fresh.model.flat_parameters(), server.model.flat_parameters()
        )
        assert (
            clients2[0].faults.state_dict() == clients[0].faults.state_dict()
        )
