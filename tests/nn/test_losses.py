"""Unit tests for loss functions, including stability and gradient flow.

The training losses (BCE, hinge, MSE, Gaussian KL) are closed forms on
ndarrays; ``tests/nn/test_train_parity.py`` pins their gradients to the
tape and to finite differences.
"""

import numpy as np

from repro.nn import (
    Tensor,
    bce_with_logits,
    cross_entropy,
    gaussian_kl,
    hinge_loss,
    hinge_loss_grad,
    l1_loss,
    logsumexp,
    mse_loss,
    softmax,
)


class TestBCEWithLogits:
    def test_matches_reference(self):
        logits = np.array([0.5, -1.2, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        got, _ = bce_with_logits(logits, targets)
        assert abs(got - expected) < 1e-10

    def test_stable_for_huge_logits(self):
        out, pullback = bce_with_logits(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(out)
        assert out < 1e-6
        assert np.isfinite(pullback()).all()

    def test_gradient_flows(self):
        _, pullback = bce_with_logits(np.array([0.3, -0.7]), np.array([1.0, 0.0]))
        grad = pullback()
        assert grad[0] < 0 < grad[1]  # push the logits toward their targets


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor([[10.0, -10.0], [-10.0, 10.0]])
        assert cross_entropy(logits, [0, 1]).item() < 1e-6

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((4, 3)))
        assert abs(cross_entropy(logits, [0, 1, 2, 0]).item() - np.log(3)) < 1e-10

    def test_gradient_shape(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 2)), requires_grad=True)
        cross_entropy(logits, [0, 1, 1, 0, 1]).backward()
        assert logits.grad.shape == (5, 2)


class TestHinge:
    def test_zero_when_margin_satisfied(self):
        # desired class 1 => want logit >= margin
        assert hinge_loss(np.array([2.0, 3.0]), np.array([1, 1]), margin=1.0) == 0.0

    def test_penalises_wrong_side(self):
        assert hinge_loss(np.array([-1.0]), np.array([1]), margin=1.0) == 2.0

    def test_desired_zero_flips_sign(self):
        assert hinge_loss(np.array([-2.0]), np.array([0]), margin=1.0) == 0.0
        assert hinge_loss(np.array([2.0]), np.array([0]), margin=1.0) == 3.0

    def test_gradient_flows_only_from_violations(self):
        grad = hinge_loss_grad(np.array([-1.0, 5.0]), np.array([1, 1]))
        assert grad[0] != 0.0
        assert grad[1] == 0.0


class TestDistancesAndKL:
    def test_l1(self):
        out = l1_loss(Tensor([1.0, 3.0]), Tensor([0.0, 1.0]))
        assert out.item() == 1.5

    def test_mse(self):
        out, pullback = mse_loss(np.array([2.0]), np.array([0.0]))
        assert out == 4.0
        assert pullback()[0] == 4.0

    def test_kl_zero_at_standard_normal(self):
        kl, pullback = gaussian_kl(np.zeros((3, 4)), np.zeros((3, 4)))
        assert abs(kl) < 1e-12
        grad_mu, grad_log_var = pullback(1.0, 0.0, 0.0)
        assert not grad_mu.any() and not grad_log_var.any()  # the minimum

    def test_kl_positive_elsewhere(self):
        kl, _ = gaussian_kl(np.ones((2, 3)), np.zeros((2, 3)))
        assert kl > 0

    def test_kl_matches_closed_form(self):
        mu_val = np.array([[0.5, -0.2]])
        lv_val = np.array([[0.1, -0.3]])
        expected = -0.5 * np.sum(1 + lv_val - mu_val ** 2 - np.exp(lv_val))
        got, _ = gaussian_kl(mu_val, lv_val)
        assert abs(got - expected) < 1e-10


class TestSoftmaxLogsumexp:
    def test_softmax_sums_to_one(self):
        out = softmax(Tensor(np.random.default_rng(1).normal(size=(4, 5))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_logsumexp_stable(self):
        out = logsumexp(Tensor([[1000.0, 1000.0]]))
        assert np.isfinite(out.data).all()
        assert abs(out.data[0, 0] - (1000.0 + np.log(2))) < 1e-9

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as scipy_lse

        x = np.random.default_rng(2).normal(size=(3, 4))
        got = logsumexp(Tensor(x), axis=1).data.ravel()
        np.testing.assert_allclose(got, scipy_lse(x, axis=1), atol=1e-12)
