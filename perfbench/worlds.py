"""Seeded inputs for the cohort_round and service_stream workloads.

Everything here is built from the workload seed and fixed constants,
through the program's public constructors, so two runs with one seed
feed the program identical inputs.  The table1_pair workload needs none
of this: ``build_setup`` generates its world from the seed itself.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.client import Client, LocalTrainingConfig
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential

#: per-client shape shared by both federation workloads
SAMPLES_PER_CLIENT = 16
IMAGE_SIZE = 8
NUM_CLASSES = 4
CONV_WIDTH = 4
TEST_SAMPLES = 256
#: one initialisation for every seed: a seeded one left some seeds with
#: dead ReLU channels, whose all-zero deltas made the median aggregation
#: a fifth cheaper on exactly those seeds
MODEL_SEED = 0


def _images(rng: np.random.Generator, prototypes: np.ndarray, labels: np.ndarray):
    """Class prototype plus noise, clipped to [0, 1]: learnable, not trivial."""
    noise = rng.normal(0.0, 0.35, (labels.size,) + prototypes.shape[1:])
    return np.clip(prototypes[labels] + noise, 0.0, 1.0)


def two_conv_net(rng: np.random.Generator) -> Sequential:
    """The 2-conv, width-4 net over 8x8x1 inputs: 468 parameters."""
    width = CONV_WIDTH
    side = IMAGE_SIZE // 4
    return Sequential(
        Conv2d(1, width, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(width, 2 * width, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(2 * width * side * side, NUM_CLASSES, rng=rng),
    )


def federation(num_clients: int, seed: int):
    """(model, clients, test set) for a population of ``num_clients``.

    ``seed`` draws the class prototypes, the images and every client's
    RNG stream.  Every client holds ``SAMPLES_PER_CLIENT`` samples with
    balanced labels and trains one local epoch at batch size 16, so all
    clients share one megabatch signature.
    """
    rng = np.random.default_rng(seed)
    prototypes = rng.random((NUM_CLASSES, 1, IMAGE_SIZE, IMAGE_SIZE))
    per_client = np.tile(np.arange(NUM_CLASSES), SAMPLES_PER_CLIENT // NUM_CLASSES)
    labels = np.concatenate(
        [rng.permutation(per_client) for _ in range(num_clients)]
    )
    train = Dataset(_images(rng, prototypes, labels), labels)
    test_labels = np.tile(np.arange(NUM_CLASSES), TEST_SAMPLES // NUM_CLASSES)
    test = Dataset(_images(rng, prototypes, test_labels), test_labels)

    config = LocalTrainingConfig(
        lr=0.05, momentum=0.9, batch_size=SAMPLES_PER_CLIENT, local_epochs=1
    )
    client_seeds = rng.integers(0, 2**31, size=num_clients)
    clients = [
        Client(
            i,
            train.subset(np.arange(i * SAMPLES_PER_CLIENT, (i + 1) * SAMPLES_PER_CLIENT)),
            config,
            np.random.default_rng(int(client_seeds[i])),
        )
        for i in range(num_clients)
    ]
    model = two_conv_net(np.random.default_rng(MODEL_SEED))
    return model, clients, test
