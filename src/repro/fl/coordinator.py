"""The coordinator core both round engines share.

:class:`~repro.fl.server.FederatedServer` (the paper's blocking loop)
and :class:`~repro.fl.service.DefenseService` (deadline-scheduled
streaming rounds) run different round loops and emit different
telemetry, but they keep the same books.  :class:`Coordinator` owns
those books once:

* population checks — a non-empty population, a sampler matching it,
  and a lazy :class:`~repro.fl.sampling.ClientPool` only behind a
  sampler — plus the sampler's ``fl.cohort_sampled`` draw;
* the aggregation rule, built from a name, spec, callable or instance;
* the :class:`StrikeLedger` of invalid payloads and the quarantine it
  trips (the defense pipeline keeps its report strikes in one too);
* the transport books: the per-sender ``kind:client_id`` sequence
  counter, the idempotent :class:`~repro.fl.transport.DeliveryGate`, and
  the checksum verdict on a delivered payload;
* checkpointing of all of the above plus the model/client/fault-model
  closure, and the resume prologue that reopens the loop span under its
  checkpointed identity.

Each engine keeps its own round loop, its own snapshot kind and meta
keys, and whatever state only it has (the server's sampling RNG and
watchdog; the service's clock, backoff, trust and pending queue).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..persist.checkpoint import CheckpointManager, Snapshot
from ..persist.state import (
    AGGREGATOR_PREFIX,
    pack_run_state,
    pack_state_arrays,
    restore_run_state,
    unpack_state_arrays,
)
from .aggregation import build_aggregator
from .sampling import ClientPool
from .transport import DeliveryGate, Envelope, payload_checksum

__all__ = ["Coordinator", "StrikeLedger", "check_quorum"]


def check_quorum(quorum: int | float, name: str) -> None:
    """Reject a quorum that is neither a count >= 1 nor a fraction in (0, 1]."""
    if isinstance(quorum, float):
        if not 0.0 < quorum <= 1.0:
            raise ValueError(f"fractional {name} must be in (0, 1], got {quorum}")
    elif quorum < 1:
        raise ValueError(f"{name} must be >= 1, got {quorum}")


def _resolve_quorum(min_quorum: int | float, num_selected: int) -> int:
    """Absolute quorum from an int count or a float fraction of selected."""
    if isinstance(min_quorum, float):
        return max(1, math.ceil(min_quorum * num_selected))
    return max(1, min_quorum)


def checksum_problem(env: Envelope) -> str | None:
    """The verdict on a delivered payload that no longer matches its stamp."""
    if env.checksum is not None and payload_checksum(env.payload) != env.checksum:
        return "checksum mismatch (corrupted in transit)"
    return None


class StrikeLedger:
    """Invalid submissions per client; quarantine at ``limit`` strikes.

    ``limit=None`` counts nothing and never quarantines.
    """

    def __init__(self, limit: int | None) -> None:
        self.limit = limit
        self.counts: dict[int, int] = {}
        self.quarantined: set[int] = set()

    def record(self, client_id: int) -> bool:
        """Count one strike; True when it trips quarantine."""
        if self.limit is None:
            return False
        strikes = self.counts.get(client_id, 0) + 1
        self.counts[client_id] = strikes
        if strikes >= self.limit and client_id not in self.quarantined:
            self.quarantined.add(client_id)
            return True
        return False

    def to_meta(self, quarantine_key: str) -> dict:
        return {
            "strikes": {str(k): int(v) for k, v in self.counts.items()},
            quarantine_key: sorted(int(c) for c in self.quarantined),
        }

    def load_meta(self, meta: dict, quarantine_key: str) -> None:
        self.counts = {int(k): int(v) for k, v in meta["strikes"].items()}
        self.quarantined = {int(c) for c in meta[quarantine_key]}


class Coordinator:
    """Population, aggregator, strike and transport books of one engine.

    Subclasses set the snapshot ``KIND``, the meta keys their loop span
    id and strike quarantine are saved under, and the attributes their
    ``persist.*`` events carry.
    """

    KIND: str
    _SPAN_KEY: str
    _QUARANTINE_KEY: str
    _PERSIST_ATTRS: dict = {}

    def __init__(
        self,
        model,
        clients: Sequence,
        test_set,
        backdoor_task,
        *,
        sampler,
        aggregator,
        network,
        max_client_strikes: int | None,
        telemetry,
        executor,
    ) -> None:
        if not len(clients):
            raise ValueError("need at least one client")
        if sampler is not None and sampler.population != len(clients):
            raise ValueError(
                f"sampler population {sampler.population} does not match "
                f"{len(clients)} clients"
            )
        if isinstance(clients, ClientPool) and sampler is None:
            raise ValueError(
                "a ClientPool population requires a ParticipationSampler "
                "(anything else would materialize every client)"
            )
        self.model = model
        self.clients = clients if isinstance(clients, ClientPool) else list(clients)
        self.test_set = test_set
        self.backdoor_task = backdoor_task
        self.sampler = sampler
        self.aggregator = build_aggregator(
            aggregator if aggregator is not None else "fedavg"
        )
        self.network = network
        self.telemetry = telemetry
        self.executor = executor
        self.strikes = StrikeLedger(max_client_strikes)
        self.gate = DeliveryGate()
        self._seq: dict[str, int] = {}  # "kind:client_id" -> next seq

    def _draw_cohort(
        self, round_index: int, exclude=(), announce: bool = True
    ) -> list:
        """The sampler's cohort for a round, ``exclude``d ids left out.

        Only the drawn clients are touched (materialized, for a
        :class:`~repro.fl.sampling.ClientPool`), never the population.
        """
        drawn = self.sampler.draw(round_index)
        cohort = [
            client
            for client in (self.clients[int(i)] for i in drawn)
            if client.client_id not in exclude
        ]
        if announce:
            self.telemetry.event(
                "fl.cohort_sampled",
                round=round_index,
                population=self.sampler.population,
                drawn=int(drawn.size),
                cohort=len(cohort),
            )
        return cohort

    def _strike(self, client_id: int, quarantined_now: list[int]) -> None:
        """Count an invalid payload; announce the quarantine it may trip."""
        if self.strikes.record(client_id):
            quarantined_now.append(client_id)
            self.telemetry.event(
                "fl.quarantine",
                client=client_id,
                strikes=self.strikes.counts[client_id],
            )
            self.telemetry.count("fl.quarantines")

    def _take_seq(self, kind: str, client_id: int) -> int:
        """Next per-sender sequence number for one wire message."""
        key = f"{kind}:{int(client_id)}"
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    # -- persistence ---------------------------------------------------

    def _pack_state(
        self, round_cursor: int, history, extra_arrays=None
    ) -> tuple[dict, dict]:
        """Announce a checkpoint and pack the state every engine saves.

        The ``persist.checkpoint`` event goes out *before* the telemetry
        cursor is captured, so it sits below the resume boundary and
        appears exactly once in a stitched stream.  ``extra_arrays`` are
        the subclass's own, kept ahead of the aggregator's.
        """
        if isinstance(self.clients, ClientPool):
            raise ValueError(
                "checkpointing a lazily materialized ClientPool is not "
                "supported: unmaterialized clients have no state to "
                "capture, so a restore could not be bitwise faithful"
            )
        tel = self.telemetry
        tel.event("persist.checkpoint", **self._PERSIST_ATTRS, round=round_cursor)
        arrays, meta = pack_run_state(self.model, self.clients)
        if extra_arrays:
            arrays.update(extra_arrays)
        aggregator_meta, aggregator_arrays = pack_state_arrays(
            self.aggregator.state_dict(), AGGREGATOR_PREFIX
        )
        arrays.update(aggregator_arrays)
        meta.update(self.strikes.to_meta(self._QUARANTINE_KEY))
        meta.update(
            round_cursor=int(round_cursor),
            aggregator=aggregator_meta,
            transport={
                "gate": self.gate.state_dict(),
                "seq": {str(k): int(v) for k, v in self._seq.items()},
            },
            history=history.to_jsonable(),
            telemetry=tel.state_dict(),
        )
        meta[self._SPAN_KEY] = (
            tel.current_span.span_id if tel.current_span is not None else None
        )
        return arrays, meta

    def _restore_state(self, snapshot: Snapshot, exclude: Sequence[str] = ()) -> None:
        """Apply the :meth:`_pack_state` part of a snapshot.

        Subclasses restore their own state first and call this last: the
        telemetry cursor is restored at the very end, so diagnostics
        emitted while restoring stay on the dropped side of the stream.
        ``exclude`` names the subclass's non-model array prefixes.
        """
        meta = snapshot.meta
        restore_run_state(self.model, self.clients, snapshot.arrays, meta, exclude)
        if "aggregator" in meta:
            self.aggregator.load_state_dict(
                unpack_state_arrays(meta["aggregator"], snapshot.arrays)
            )
        # .get: snapshots written before the transport layer have no
        # gate/seq cursors — start those ledgers empty
        transport_meta = meta.get("transport")
        if transport_meta is not None:
            self.gate.load_state_dict(transport_meta["gate"])
            self._seq = {str(k): int(v) for k, v in transport_meta["seq"].items()}
        self.strikes.load_meta(meta, self._QUARANTINE_KEY)
        self.telemetry.load_state_dict(meta.get("telemetry"))

    def _resume(
        self, checkpoint: CheckpointManager | None, resume: bool, span: str, **attrs
    ):
        """``(start_round, loop span, restored)`` for a (possibly resumed) run.

        With ``resume`` and a verifiable snapshot of this engine's kind,
        the snapshot is restored (``restored`` is what
        ``restore_checkpoint`` returned) and the loop span reopens under
        its checkpointed id; otherwise the run starts fresh at round 0.
        """
        tel = self.telemetry
        snapshot = checkpoint.load_latest(self.KIND) if resume else None
        if snapshot is None:
            return 0, tel.span(span, **attrs), None
        # resume diagnostics go out on the *fresh* cursor, before the
        # restore rewinds it to the snapshot's — the stream stitcher
        # drops them, keeping the spliced stream identical to an
        # uninterrupted run's
        tel.event(
            "persist.resume",
            **self._PERSIST_ATTRS,
            step=snapshot.step,
            path=snapshot.path,
            rejected=[f for f, _ in checkpoint.last_rejected],
        )
        restored = self.restore_checkpoint(snapshot)
        span_id = snapshot.meta.get(self._SPAN_KEY)
        loop_span = (
            tel.resume_span(span, span_id, **attrs)
            if span_id is not None
            else tel.span(span, **attrs)
        )
        return snapshot.step, loop_span, restored
