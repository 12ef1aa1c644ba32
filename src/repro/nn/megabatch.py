"""Vectorized K-client local training: the megabatch hot path.

:class:`~repro.fl.executor.MegabatchExecutor` runs a wave of K
homogeneous benign clients as *single* batched tensor ops instead of K
Python-level training loops.  There is no second implementation of the
layers: :func:`train_wave` clones the template once, gives it a client
axis of width K (the contract in :mod:`repro.nn.layers` — parameters
stacked ``(K,) + shape``, activations flattened ``(K*b, ...)``), and
runs the very loop :meth:`~repro.fl.client.Client.local_update` runs:
:class:`~repro.nn.losses.CrossEntropyLoss` →
:meth:`~repro.nn.optim.SGD.zero_grad` → ``model.backward`` →
:meth:`~repro.nn.optim.SGD.step`, through ``Module.__call__`` and
``Sequential.backward``, so :class:`~repro.obs.profile.LayerProfiler`
sees every layer call.

**The contract is bitwise identity with the serial path**, and it holds
because serial training is the K=1 case of the same formulas:

* Matmuls run as one :func:`numpy.matmul` over the ``(K, ...)`` stack,
  one GEMM per client slice with the single-model shapes; reductions
  (``bias.grad``) reduce per client along axis 1.
* The loss divides by the *per-client* batch size (labels ``(K, b)``),
  and the last-conv L2 penalty and SGD momentum/weight decay are
  elementwise on the stacks.
* Per-epoch shuffles draw ``rng.permutation(n)`` from each client's own
  generator, so the generators end in the state serial training leaves
  them in.
* :class:`~repro.nn.layers.Dropout` masks come from the clone's copy of
  the template layer's generator and are tiled across the wave — what
  per-client ``clone_module`` copies draw serially.

The template model is read-only: its architecture and prune masks are
cloned, and the weights come from the broadcast ``global_params``.
"""

from __future__ import annotations

import numpy as np

from .layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
)
from .losses import CrossEntropyLoss, LayerL2Penalty
from .optim import SGD
from .serialization import clone_module

__all__ = ["supports_megabatch", "train_wave"]

#: layer types whose forward/backward honour the client axis; rows of
#: the K*b batch never mix in any of them (BatchNorm's batch statistics
#: would)
_WAVE_LAYERS = (AvgPool2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU, Tanh)


def supports_megabatch(model) -> bool:
    """True when every layer of ``model`` supports the client axis.

    The check is on *exact* types: a subclass may override forward or
    backward semantics that do not keep clients apart, so it falls back
    to the serial path.
    """
    if type(model) is not Sequential:
        return False
    return all(type(layer) in _WAVE_LAYERS for layer in model.layers)


def train_wave(model, clients, global_params: np.ndarray) -> np.ndarray:
    """Run local SGD for a wave of eligible clients as batched ops.

    Parameters
    ----------
    model:
        The coordinator's template model (architecture + masks; its
        parameter values are ignored in favour of ``global_params``).
    clients:
        K :class:`~repro.fl.client.Client` instances with identical
        training signatures (dataset shape, batch size, epochs, SGD
        hyper-parameters) — the executor's grouping guarantees this.
    global_params:
        The flat broadcast vector every client trains from.

    Returns the ``(K, dim)`` delta matrix; row ``k`` is bitwise equal to
    ``clients[k].local_update(clone, global_params)``.  Each client's
    generator is advanced exactly as serial training advances it.
    """
    k_clients = len(clients)
    config = clients[0].config
    datasets = [client._training_data() for client in clients]
    images = np.stack([d.images for d in datasets])  # (K, n, c, h, w)
    labels = np.stack([d.labels for d in datasets])  # (K, n)
    num_samples = images.shape[1]

    wave = clone_module(model)
    offset = 0
    for param in wave.parameters():
        segment = global_params[offset : offset + param.size].reshape(param.shape)
        offset += param.size
        stacked = (k_clients,) + param.shape if k_clients > 1 else param.shape
        param.data = np.broadcast_to(segment, stacked).copy()
        param.grad = np.zeros_like(param.data)
    for module in wave.modules():
        module.clients = k_clients
    wave.train()

    penalty = None
    if config.last_conv_l2 > 0:
        penalty = LayerL2Penalty([wave.last_conv()], config.last_conv_l2)
    loss_fn = CrossEntropyLoss(l2_penalty=penalty)
    optimizer = SGD(
        wave.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    rows = np.arange(k_clients)[:, None]
    for _ in range(config.local_epochs):
        orders = np.stack(
            [client.rng.permutation(num_samples) for client in clients]
        )
        for start in range(0, num_samples, config.batch_size):
            index = orders[:, start : start + config.batch_size]  # (K, b)
            batch = images[rows, index]
            batch = batch.reshape((-1,) + batch.shape[2:])
            loss_fn(wave(batch), labels[rows, index])
            optimizer.zero_grad()
            wave.backward(loss_fn.backward())
            optimizer.step()
    final = [param.data.reshape(k_clients, -1) for param in wave.parameters()]
    return np.concatenate(final, axis=1) - global_params
