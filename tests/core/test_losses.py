"""Tests for the four-part counterfactual loss."""

import numpy as np
import pytest

from repro.constraints import ConstraintSet, MonotonicIncreaseConstraint
from repro.core import CFTrainingConfig, FourPartLoss, sparsity_penalty
from repro.data import load_dataset
from repro.models import BlackBoxClassifier, train_classifier
from tests.helpers.parity import assert_bit_identical


class TestSparsityPenalty:
    def test_zero_delta_zero_penalty(self):
        value, _ = sparsity_penalty(np.zeros((3, 4)), 1.0, 1.0, 0.05)
        assert value == 0.0

    def test_grows_with_changes(self):
        small, _ = sparsity_penalty(np.full((2, 4), 0.01), 1.0, 1.0, 0.05)
        large, _ = sparsity_penalty(np.full((2, 4), 0.5), 1.0, 1.0, 0.05)
        assert large > small

    def test_l0_counts_features_not_magnitude(self):
        # one large change vs many small ones with same L1 mass
        one_big = np.zeros((1, 10))
        one_big[0, 0] = 1.0
        spread = np.full((1, 10), 0.1)
        l0_big, _ = sparsity_penalty(one_big, 0.0, 1.0, 0.01)
        l0_spread, _ = sparsity_penalty(spread, 0.0, 1.0, 0.01)
        assert l0_spread > l0_big  # more features changed => larger smooth-L0

    def test_weights_disable_terms(self):
        value, pullback = sparsity_penalty(np.full((2, 3), 0.2), 0.0, 0.0, 0.05)
        assert value == 0.0
        assert pullback(1.0) is None

    def test_differentiable(self):
        _, pullback = sparsity_penalty(np.full((2, 3), 0.2), 1.0, 1.0, 0.05)
        assert (pullback(1.0) > 0.0).all()


def fitted_pieces(n=300):
    bundle = load_dataset("adult", n_instances=n, seed=0)
    x, y = bundle.split("train")
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=5, rng=np.random.default_rng(0))
    constraints = ConstraintSet(
        [MonotonicIncreaseConstraint(bundle.encoder, "age")])
    return bundle, x, blackbox, constraints


class TestFourPartLoss:
    def test_parts_reported(self):
        _, x, blackbox, constraints = fitted_pieces()
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig())
        desired = 1 - blackbox.predict(x)
        total, parts, _ = loss_fn(x, x.copy(), desired)
        assert set(parts) >= {"validity", "proximity", "feasibility", "sparsity", "total"}
        assert total == pytest.approx(parts["total"])

    def test_identity_cf_has_zero_proximity_and_sparsity(self):
        _, x, blackbox, constraints = fitted_pieces()
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig())
        desired = 1 - blackbox.predict(x)
        _, parts, _ = loss_fn(x, x.copy(), desired)
        assert parts["proximity"] == 0.0
        assert parts["sparsity"] == 0.0
        assert parts["feasibility"] == 0.0
        assert parts["validity"] > 0.0  # same input cannot satisfy flipped class

    def test_kl_included_when_stats_given(self):
        _, x, blackbox, constraints = fitted_pieces()
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig(kl_weight=0.1))
        desired = 1 - blackbox.predict(x)
        mu = np.random.default_rng(0).random((len(x), 4))
        log_var = np.zeros((len(x), 4))
        _, parts, _ = loss_fn(x, x.copy(), desired, mu, log_var)
        assert "kl" in parts and parts["kl"] > 0

    def test_blackbox_frozen(self):
        # gradients flow through the classifier, never into it: the loss
        # and its pullback leave every flag, gradient and weight alone
        _, x, blackbox, constraints = fitted_pieces()
        parameters = [p for _, p in blackbox.named_parameters(include_frozen=True)]
        before = [(p.requires_grad, p.grad, p.data) for p in parameters]
        grads = [None if p.grad is None else p.grad.copy() for p in parameters]
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig())
        _, _, pullback = loss_fn(x, x + 0.01, 1 - blackbox.predict(x))
        pullback()
        for (flag, grad, data), saved, p in zip(before, grads, parameters):
            assert p.requires_grad is flag and p.grad is grad and p.data is data
            assert_bit_identical(p.grad, saved)

    def test_gradients_flow_to_cf(self):
        _, x, blackbox, constraints = fitted_pieces()
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig())
        desired = 1 - blackbox.predict(x)
        _, _, pullback = loss_fn(x, x.copy() + 0.01, desired)
        grad, add_kl = pullback()
        assert grad.shape == x.shape
        assert np.abs(grad).sum() > 0
        assert add_kl is None  # no posterior stats, no KL term

    def test_violating_cf_pays_feasibility(self):
        bundle, x, blackbox, constraints = fitted_pieces()
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig())
        desired = 1 - blackbox.predict(x)
        x_cf = x.copy()
        x_cf[:, bundle.encoder.column_of("age")] -= 0.2  # get younger
        _, parts, _ = loss_fn(x, x_cf, desired)
        assert parts["feasibility"] > 0
