"""Hypothesis property tests over the NN framework's core invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.gradcheck import check_layer_gradients

GRAD_TOL = 1e-5


class TestConvGradientProperties:
    @given(
        in_channels=st.integers(1, 3),
        out_channels=st.integers(1, 4),
        kernel=st.sampled_from([1, 3]),
        size=st.sampled_from([4, 6]),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=15, deadline=None)
    @example(in_channels=3, out_channels=3, kernel=1, size=6, seed=408)
    def test_conv_gradients_hold_for_any_shape(
        self, in_channels, out_channels, kernel, size, seed
    ):
        rng = np.random.default_rng(seed)
        layer = nn.Conv2d(
            in_channels, out_channels, kernel, padding=kernel // 2, rng=rng
        )
        x = rng.standard_normal((2, in_channels, size, size))
        # conv is linear in its input and weights, so a larger step adds
        # no truncation error and shrinks the difference quotient's
        # rounding noise below GRAD_TOL on near-zero gradient elements
        errors = check_layer_gradients(layer, x, rng, eps=1e-5)
        assert max(errors.values()) < GRAD_TOL

    @given(
        in_features=st.integers(1, 12),
        out_features=st.integers(1, 8),
        batch=st.integers(1, 5),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=15, deadline=None)
    def test_linear_gradients_hold_for_any_shape(
        self, in_features, out_features, batch, seed
    ):
        rng = np.random.default_rng(seed)
        layer = nn.Linear(in_features, out_features, rng=rng)
        errors = check_layer_gradients(
            layer, rng.standard_normal((batch, in_features)), rng
        )
        assert max(errors.values()) < GRAD_TOL


class TestFlatParameterProperties:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_flat_roundtrip_identity(self, seed):
        rng = np.random.default_rng(seed)
        model = nn.Sequential(
            nn.Conv2d(1, 2, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(2 * 16, 3, rng=rng),
        )
        flat = model.flat_parameters()
        perturbed = flat + rng.standard_normal(flat.shape).astype(flat.dtype)
        model.load_flat_parameters(perturbed)
        np.testing.assert_allclose(
            model.flat_parameters(), perturbed, rtol=1e-6
        )


class TestMaskInvariants:
    @given(
        channels=st.integers(2, 8),
        seed=st.integers(0, 100),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_masked_channels_always_silent(self, channels, seed, data):
        """Whatever subset of channels is masked, their outputs are 0 and
        unmasked channels equal the unmasked computation."""
        rng = np.random.default_rng(seed)
        layer = nn.Conv2d(1, channels, 3, padding=1, rng=rng)
        x = rng.standard_normal((2, 1, 5, 5))
        reference = layer(x).copy()

        dead = data.draw(
            st.sets(st.integers(0, channels - 1), min_size=1, max_size=channels - 1)
        )
        for channel in dead:
            layer.out_mask[channel] = False
        out = layer(x)
        for channel in range(channels):
            if channel in dead:
                assert (out[:, channel] == 0).all()
            else:
                np.testing.assert_allclose(out[:, channel], reference[:, channel])

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_training_cannot_resurrect_masked_channel(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Conv2d(1, 4, 3, padding=1, rng=rng)
        layer.out_mask[2] = False
        layer.apply_mask()
        optimizer = nn.SGD([layer.weight, layer.bias], lr=0.5)
        for _ in range(3):
            out = layer(rng.standard_normal((2, 1, 5, 5)))
            layer.zero_grad()
            layer.backward(np.ones_like(out))
            optimizer.step()
        assert (layer.weight.data[2] == 0).all()
        assert layer.bias.data[2] == 0


class TestSoftmaxCrossEntropyProperties:
    @given(
        batch=st.integers(1, 6),
        classes=st.integers(2, 8),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=20, deadline=None)
    def test_loss_nonnegative_and_grad_bounded(self, batch, classes, seed):
        rng = np.random.default_rng(seed)
        loss_fn = nn.CrossEntropyLoss()
        logits = rng.standard_normal((batch, classes)) * 5
        labels = rng.integers(0, classes, batch)
        loss = loss_fn(logits, labels)
        assert loss >= 0.0
        grad = loss_fn.backward()
        # each row of the CE gradient has L1 norm <= 2/batch
        assert np.abs(grad).sum(axis=1).max() <= 2.0 / batch + 1e-9
