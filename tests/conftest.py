"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import nn
from repro.data.dataset import Dataset

# every run draws the same Hypothesis examples: a tier-1 failure then
# reproduces on the next run instead of vanishing with a fresh seed
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_images(rng) -> np.ndarray:
    """A small NCHW image batch."""
    return rng.random((6, 1, 8, 8))


@pytest.fixture
def tiny_dataset(rng) -> Dataset:
    """60 random 8x8 grayscale images over 5 classes."""
    images = rng.random((60, 1, 8, 8))
    labels = np.repeat(np.arange(5), 12)
    return Dataset(images, labels)


@pytest.fixture
def tiny_cnn(rng) -> nn.Sequential:
    """A minimal conv net for 8x8 single-channel inputs, 5 classes."""
    return nn.Sequential(
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 6, kernel_size=3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * 2 * 2, 5, rng=rng),
    )


def train_tiny(model, dataset, epochs=8, lr=0.1, seed=0):
    """Quickly fit a tiny model to a tiny dataset (shared helper)."""
    train_rng = np.random.default_rng(seed)
    loss_fn = nn.CrossEntropyLoss()
    optimizer = nn.SGD(model.parameters(), lr=lr, momentum=0.9)
    from repro.data.dataset import DataLoader

    loader = DataLoader(dataset, batch_size=16, shuffle=True, rng=train_rng)
    for _ in range(epochs):
        for images, labels in loader:
            loss_fn(model(images), labels)
            optimizer.zero_grad()
            model.backward(loss_fn.backward())
            optimizer.step()
    return model
