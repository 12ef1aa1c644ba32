"""Federated fine-tuning of the pruned model (Algorithm 1, "Fine-tuning").

The server sends the pruned model back to the clients for a few more
FedAvg rounds to recover benign accuracy.  Attackers participate (the
server cannot exclude them), so the attack success rate climbs back up
during this stage — the subsequent adjust-extreme-weights pass is what
knocks it back down.

Pruned channels stay dead throughout: their ``out_mask`` zeroes both the
forward contribution and the gradients, so no amount of fine-tuning
resurrects them.

Like the training loop, fine-tuning does not assume reliable clients:
per-round, non-responders (:class:`~repro.fl.faults.ClientDropout`) are
skipped, invalid deltas (wrong shape / dtype / non-finite) are rejected,
and a round with fewer than ``min_quorum`` surviving updates leaves the
model untouched.  Fault counts are reported on the result.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..fl.aggregation import fedavg
from ..fl.coordinator import _resolve_quorum, check_quorum
from ..fl.executor import ClientExecutor, collect_updates
from ..fl.faults import validate_update
from ..nn.layers import Sequential
from ..obs.telemetry import Telemetry, ensure_telemetry
from ..persist.checkpoint import CheckpointManager
from ..persist.state import pack_run_state, restore_run_state

__all__ = ["FineTuneResult", "federated_fine_tune"]

# snapshot array slot for the best-round parameters (distinct from the
# model's own parameter names and the client_delta.* namespace)
_BEST_KEY = "fine_tune.best_params"


class FineTuneResult:
    """Outcome of the fine-tuning stage.

    Attributes
    ----------
    rounds_run:
        Number of FedAvg rounds executed.
    accuracy_trace:
        Validation accuracy after each round.
    improved:
        Whether the final accuracy beats the pre-fine-tuning baseline.
    num_dropped, num_rejected:
        Client responses lost to dropouts / rejected as invalid,
        summed over all rounds.
    skipped_rounds:
        Rounds that aggregated nothing for lack of quorum.
    """

    def __init__(
        self,
        rounds_run: int,
        accuracy_trace: list[float],
        baseline_accuracy: float,
        *,
        num_dropped: int = 0,
        num_rejected: int = 0,
        skipped_rounds: Sequence[int] = (),
    ) -> None:
        self.rounds_run = rounds_run
        self.accuracy_trace = accuracy_trace
        self.baseline_accuracy = baseline_accuracy
        self.num_dropped = num_dropped
        self.num_rejected = num_rejected
        self.skipped_rounds = list(skipped_rounds)

    @property
    def final_accuracy(self) -> float:
        return self.accuracy_trace[-1] if self.accuracy_trace else self.baseline_accuracy

    @property
    def improved(self) -> bool:
        return self.final_accuracy > self.baseline_accuracy

    def to_jsonable(self) -> dict:
        """A plain-JSON form for checkpoint metadata."""
        return {
            "rounds_run": int(self.rounds_run),
            "accuracy_trace": [float(a) for a in self.accuracy_trace],
            "baseline_accuracy": float(self.baseline_accuracy),
            "num_dropped": int(self.num_dropped),
            "num_rejected": int(self.num_rejected),
            "skipped_rounds": [int(r) for r in self.skipped_rounds],
        }

    @classmethod
    def from_jsonable(cls, record: dict) -> "FineTuneResult":
        """Rebuild a result from :meth:`to_jsonable` output."""
        return cls(
            int(record["rounds_run"]),
            [float(a) for a in record["accuracy_trace"]],
            float(record["baseline_accuracy"]),
            num_dropped=int(record.get("num_dropped", 0)),
            num_rejected=int(record.get("num_rejected", 0)),
            skipped_rounds=[int(r) for r in record.get("skipped_rounds", ())],
        )

    def __repr__(self) -> str:
        return (
            f"FineTuneResult(rounds={self.rounds_run}, "
            f"baseline={self.baseline_accuracy:.3f}, "
            f"final={self.final_accuracy:.3f})"
        )


def federated_fine_tune(
    model: Sequential,
    clients: Sequence,
    accuracy_fn: Callable[[Sequential], float],
    max_rounds: int = 10,
    patience: int = 3,
    min_improvement: float = 1e-3,
    min_quorum: int | float = 1,
    executor: ClientExecutor | None = None,
    telemetry: Telemetry | None = None,
    checkpoint: CheckpointManager | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> FineTuneResult:
    """Run FedAvg rounds on the pruned model until accuracy plateaus.

    Stopping rule: stop after ``max_rounds``, or earlier once the best
    accuracy has not improved by ``min_improvement`` for ``patience``
    consecutive rounds (the paper stops "when the accuracy does not
    improve any further"; about ten rounds in their experiments).  The
    model is left at the *best* round's parameters, not the last.

    ``min_quorum`` (an absolute count, or a float fraction of the
    population) is the minimum number of validated updates a round
    needs; a below-quorum round is skipped — it still consumes a round
    of the budget and counts toward patience, since a stalled
    population should not fine-tune forever.

    ``executor`` selects the client-execution engine (see
    :mod:`repro.fl.executor`); ``None`` runs clients serially.  Results
    are bitwise identical across executors.

    ``telemetry`` records a ``defense.fine_tune_round`` span per round
    (attrs: round, accuracy, aggregated) plus quorum-skip events.

    ``checkpoint`` (a :class:`~repro.persist.checkpoint.CheckpointManager`)
    makes the stage crash-safe: every ``checkpoint_every`` completed
    rounds a ``"fine_tune"`` snapshot captures the model, the best
    parameters seen, the accuracy trace, the early-stop counters and
    every client's mutable state.  ``resume=True`` restarts from the
    newest verifiable snapshot (a no-op when none exists), and the
    resumed stage produces the same final parameters and result an
    uninterrupted stage would.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint manager")
    if not clients:
        raise ValueError("need at least one client to fine-tune")
    check_quorum(min_quorum, "min_quorum")
    quorum = _resolve_quorum(min_quorum, len(clients))

    tel = ensure_telemetry(telemetry)
    start_round = 0
    snapshot = checkpoint.load_latest("fine_tune") if resume else None
    if snapshot is not None:
        tel.event(
            "persist.resume",
            kind="fine_tune",
            step=snapshot.step,
            path=snapshot.path,
            rejected=[f for f, _ in checkpoint.last_rejected],
        )
        meta = snapshot.meta
        restore_run_state(model, clients, snapshot.arrays, meta, (_BEST_KEY,))
        baseline = float(meta["baseline_accuracy"])
        best_accuracy = float(meta["best_accuracy"])
        best_params = np.array(snapshot.arrays[_BEST_KEY], copy=True)
        stale_rounds = int(meta["stale_rounds"])
        trace = [float(a) for a in meta["accuracy_trace"]]
        num_dropped = int(meta["num_dropped"])
        num_rejected = int(meta["num_rejected"])
        skipped_rounds = [int(r) for r in meta["skipped_rounds"]]
        start_round = snapshot.step
    else:
        baseline = accuracy_fn(model)
        best_accuracy = baseline
        best_params = model.flat_parameters()
        stale_rounds = 0
        trace = []
        num_dropped = num_rejected = 0
        skipped_rounds = []

    for round_index in range(start_round, max_rounds):
        # a resumed snapshot may already have exhausted its patience
        if stale_rounds >= patience:
            break
        with tel.span("defense.fine_tune_round", round=round_index) as round_span:
            global_params = model.flat_parameters()
            deltas: list[np.ndarray] = []
            outcomes = collect_updates(
                executor, clients, model, global_params, telemetry=tel
            )
            for status, value in outcomes:
                if status == "dropped":
                    num_dropped += 1
                elif validate_update(value, global_params.size) is not None:
                    num_rejected += 1
                else:
                    deltas.append(value)
            aggregated = len(deltas) >= quorum
            if not aggregated:
                skipped_rounds.append(round_index)
                tel.event(
                    "defense.fine_tune_skipped",
                    round=round_index,
                    accepted=len(deltas),
                    quorum=quorum,
                )
            else:
                model.load_flat_parameters(global_params + fedavg(np.stack(deltas)))
                # masks survive load_flat_parameters (they live on the layer, not
                # in the parameter vector), but zero the dead weights defensively:
                # an attacker's update could write into masked slots.
                for conv in model.conv_layers():
                    conv.apply_mask()

            accuracy = accuracy_fn(model)
            trace.append(accuracy)
            round_span.set(accuracy=accuracy, aggregated=aggregated)
        if accuracy > best_accuracy + min_improvement:
            best_accuracy = accuracy
            best_params = model.flat_parameters()
            stale_rounds = 0
        else:
            stale_rounds += 1
        if checkpoint is not None and (round_index + 1) % checkpoint_every == 0:
            _save_fine_tune_checkpoint(
                checkpoint,
                tel,
                model,
                clients,
                round_index + 1,
                baseline=baseline,
                best_accuracy=best_accuracy,
                best_params=best_params,
                stale_rounds=stale_rounds,
                trace=trace,
                num_dropped=num_dropped,
                num_rejected=num_rejected,
                skipped_rounds=skipped_rounds,
            )
        if stale_rounds >= patience:
            break

    model.load_flat_parameters(best_params)
    return FineTuneResult(
        len(trace),
        trace,
        baseline,
        num_dropped=num_dropped,
        num_rejected=num_rejected,
        skipped_rounds=skipped_rounds,
    )


def _save_fine_tune_checkpoint(
    checkpoint: CheckpointManager,
    tel: Telemetry,
    model: Sequential,
    clients: Sequence,
    round_cursor: int,
    *,
    baseline: float,
    best_accuracy: float,
    best_params: np.ndarray,
    stale_rounds: int,
    trace: list[float],
    num_dropped: int,
    num_rejected: int,
    skipped_rounds: list[int],
) -> None:
    """Durably snapshot the fine-tuning loop after ``round_cursor`` rounds."""
    tel.event("persist.checkpoint", kind="fine_tune", step=round_cursor)
    arrays, meta = pack_run_state(
        model, clients, {_BEST_KEY: np.asarray(best_params)}
    )
    meta.update(
        baseline_accuracy=float(baseline),
        best_accuracy=float(best_accuracy),
        stale_rounds=int(stale_rounds),
        accuracy_trace=[float(a) for a in trace],
        num_dropped=int(num_dropped),
        num_rejected=int(num_rejected),
        skipped_rounds=[int(r) for r in skipped_rounds],
    )
    checkpoint.save("fine_tune", round_cursor, arrays, meta)
