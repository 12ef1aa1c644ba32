"""Loss functions with analytic gradients.

Each loss exposes ``forward(predictions, targets) -> float`` and
``backward() -> ndarray`` (gradient with respect to the predictions of
the most recent forward call).  Losses average over the batch, so
gradients already carry the ``1/n`` factor.

:class:`CrossEntropyLoss` optionally adds a per-layer L2 penalty, which
implements the paper's Fig 10 study: regularizing *only the last
convolutional layer* hardens the model against backdoors with less
benign-accuracy cost than whole-network weight decay.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Conv2d, Linear
from .module import Module

__all__ = ["CrossEntropyLoss", "MSELoss", "LayerL2Penalty"]


class LayerL2Penalty:
    """L2 penalty ``lambda * ||W||^2`` restricted to chosen layers.

    Parameters
    ----------
    layers:
        Layers whose weights are penalized (biases are exempt, matching
        common practice and the paper's setup).
    coefficient:
        The strength λ; Fig 10 sweeps this on the last conv layer.
    """

    def __init__(self, layers: list[Module], coefficient: float) -> None:
        if coefficient < 0:
            raise ValueError(f"L2 coefficient must be >= 0, got {coefficient}")
        for layer in layers:
            if not isinstance(layer, (Conv2d, Linear)):
                raise TypeError(f"cannot L2-penalize layer of type {type(layer)!r}")
        self.layers = layers
        self.coefficient = coefficient

    def value(self) -> float:
        """The penalty term added to the loss."""
        total = sum(float((layer.weight.data**2).sum()) for layer in self.layers)
        return self.coefficient * total

    def add_gradients(self) -> None:
        """Accumulate ``2 * lambda * W`` into each penalized layer's grad."""
        for layer in self.layers:
            layer.weight.grad += 2.0 * self.coefficient * layer.weight.data


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    ``forward`` consumes raw logits ``(n, num_classes)`` and labels
    ``(n,)``; ``backward`` returns ``(softmax - onehot) / n``.  For a
    wave of K clients (see :mod:`repro.nn.layers`) the labels are
    ``(K, b)`` with ``K*b == n``, and the gradient divides by each
    client's own batch size ``b``.
    """

    def __init__(self, l2_penalty: LayerL2Penalty | None = None) -> None:
        self.l2_penalty = l2_penalty
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        if labels.ndim not in (1, 2) or labels.size != logits.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} does not match batch "
                f"{logits.shape[0]}"
            )
        probs = F.softmax(logits, axis=1)
        self._cache = (probs, labels)
        loss = F.stable_cross_entropy(logits, labels.reshape(-1))
        if self.l2_penalty is not None:
            loss += self.l2_penalty.value()
        return loss

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, labels = self._cache
        grad = probs.copy()
        grad[np.arange(probs.shape[0]), labels.reshape(-1)] -= 1.0
        if self.l2_penalty is not None:
            self.l2_penalty.add_gradients()
        return grad / labels.shape[-1]

    __call__ = forward


class MSELoss:
    """Mean squared error over arbitrary-shaped targets."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: predictions {predictions.shape}, "
                f"targets {targets.shape}"
            )
        self._cache = (predictions, targets)
        return float(((predictions - targets) ** 2).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        predictions, targets = self._cache
        return 2.0 * (predictions - targets) / predictions.size

    __call__ = forward
