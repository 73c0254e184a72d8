"""Graph-free pullbacks: ``Module.forward_vjp`` and ``hinge_loss_grad``.

The REVISE and CEM searches differentiate a frozen decoder and black
box through these instead of an autograd tape.  Pinned here:

1. Every covered layer (``Linear``, ``ReLU``, ``Sigmoid``, identity
   ``Dropout``) and ``Sequential`` returns ``forward_array``'s output and
   a pullback bit-identical to ``Tensor.backward`` through ``forward``.
2. The model-level pullbacks ``ConditionalVAE.decode_vjp`` and
   ``BlackBoxClassifier.logits_vjp`` are bit-identical to autograd and
   agree with central finite differences.
3. ``hinge_loss_grad`` is bit-identical to backpropagating through
   ``scale * hinge_loss``, including at batch sizes where
   ``n * (1 / n) != 1``.
4. Training-mode ``Dropout(p > 0)`` replays the mask it drew; layers
   without a pullback raise.
5. The one-exponential ``sigmoid_forward`` kernel (shared by every
   sigmoid, graph or graph-free) is bit-identical to the three-exp
   two-branch formula it replaced.
"""

import numpy as np
import pytest

from repro.models import BlackBoxClassifier, ConditionalVAE
from repro.nn import (
    Dropout,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    hinge_loss_grad,
)
from tests.helpers.parity import assert_grad_matches_fd
from tests.helpers.training import hinge_loss


def _autograd_vjp(forward, x, grad):
    """``grad`` pulled back through ``forward`` by the autograd tape."""
    tensor = Tensor(x.copy(), requires_grad=True)
    forward(tensor).backward(grad)
    return tensor.grad


def _layers(rng):
    return {
        "linear": Linear(6, 4, rng),
        "relu": ReLU(),
        "sigmoid": Sigmoid(),
        "dropout_eval": Dropout(0.3, rng).eval(),
        "dropout_p0": Dropout(0.0, rng),
        "sequential": Sequential(Linear(6, 5, rng), ReLU(), Dropout(0.0, rng),
                                 Linear(5, 3, rng, init="xavier"), Sigmoid()),
    }


@pytest.mark.parametrize("name", sorted(_layers(np.random.default_rng(0))))
def test_layer_pullback_is_bit_identical_to_autograd(name):
    rng = np.random.default_rng(3)
    layer = _layers(rng)[name]
    x = rng.normal(size=(7, 6))
    out, pullback = layer.forward_vjp(x)
    np.testing.assert_array_equal(out, layer.forward_array(x))
    grad = rng.normal(size=out.shape)
    np.testing.assert_array_equal(pullback(grad), _autograd_vjp(layer, x, grad))


def test_pullback_forms_no_parameter_gradient():
    rng = np.random.default_rng(4)
    layer = Sequential(Linear(6, 4, rng), ReLU(), Linear(4, 1, rng))
    _, pullback = layer.forward_vjp(rng.normal(size=(5, 6)))
    pullback(np.ones((5, 1)))
    assert all(parameter.grad is None for parameter in layer.parameters())


def test_training_dropout_pullback_replays_mask():
    # a training-mode forward_vjp draws the same mask from the same rng
    # as the tape forward, and its pullback replays it
    def network(seed):
        rng = np.random.default_rng(seed)
        return Sequential(Linear(6, 5, rng), ReLU(), Dropout(0.3, rng),
                          Linear(5, 4, rng), Dropout(0.5, rng))

    graph_free, tape = network(21), network(21)
    rng = np.random.default_rng(22)
    for accumulate in (False, True, False):  # consecutive draws stay in step
        x = rng.normal(size=(7, 6))
        grad = rng.normal(size=(7, 4))
        out, pullback = graph_free.forward_vjp(x, accumulate)
        tensor = Tensor(x.copy(), requires_grad=True)
        expected = tape(tensor)
        expected.backward(grad)
        np.testing.assert_array_equal(out, expected.data)
        np.testing.assert_array_equal(pullback(grad), tensor.grad)
    assert (out == 0.0).any()


def test_uncovered_layer_raises():
    with pytest.raises(NotImplementedError, match="Tanh"):
        Tanh().forward_vjp(np.ones((2, 3)))


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(8)
    vae = ConditionalVAE(9, rng, dropout=0.0)
    vae.eval()
    return vae, BlackBoxClassifier(9, rng)


def test_decode_vjp_is_bit_identical_to_autograd(models):
    vae, _ = models
    rng = np.random.default_rng(9)
    z = rng.normal(size=(11, vae.latent_dim))
    labels = rng.integers(0, 2, 11)
    features, pullback = vae.decode_vjp(z, labels)
    np.testing.assert_array_equal(features, vae.decode_array(z, labels))
    grad = rng.normal(size=features.shape)
    np.testing.assert_array_equal(
        pullback(grad), _autograd_vjp(lambda t: vae.decode(t, labels), z, grad))


def test_logits_vjp_is_bit_identical_to_autograd(models):
    _, blackbox = models
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(11, 9))
    logits, pullback = blackbox.logits_vjp(x)
    np.testing.assert_array_equal(logits, blackbox.predict_logits(x))
    grad = rng.normal(size=logits.shape)
    np.testing.assert_array_equal(
        pullback(grad), _autograd_vjp(blackbox.forward, x, grad))


def test_decode_vjp_matches_finite_differences(models):
    vae, _ = models
    rng = np.random.default_rng(12)
    z = rng.uniform(size=(4, vae.latent_dim))
    labels = np.zeros(4)
    weights = rng.normal(size=(4, vae.n_features))
    assert_grad_matches_fd(
        lambda t: (vae.decode(t, labels) * weights).sum(), z,
        grad_fn=lambda value: vae.decode_vjp(value, labels)[1](weights),
        context="decode_vjp vs finite difference")


def test_logits_vjp_matches_finite_differences(models):
    _, blackbox = models
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(5, 9))
    weights = rng.normal(size=5)
    assert_grad_matches_fd(
        lambda t: (blackbox.forward(t) * weights).sum(), x,
        grad_fn=lambda value: blackbox.logits_vjp(value)[1](weights),
        context="logits_vjp vs finite difference")


@pytest.mark.parametrize("n", [1, 7, 49, 98, 103])
@pytest.mark.parametrize("scaled", [False, True])
def test_hinge_loss_grad_is_bit_identical_to_autograd(n, scaled):
    rng = np.random.default_rng(n)
    logits = rng.normal(size=n)
    desired = rng.integers(0, 2, n)
    scale = n if scaled else 1.0

    tensor = Tensor(logits.copy(), requires_grad=True)
    loss = hinge_loss(tensor, desired, margin=0.3)
    (loss * n if scaled else loss).backward()
    np.testing.assert_array_equal(
        hinge_loss_grad(logits, desired, margin=0.3, scale=scale), tensor.grad)


def test_hinge_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(14)
    logits = rng.normal(size=9)
    desired = rng.integers(0, 2, 9)
    assert_grad_matches_fd(
        lambda t: hinge_loss(t, desired, margin=0.5), logits,
        grad_fn=lambda value: hinge_loss_grad(value, desired, margin=0.5),
        context="hinge_loss_grad vs finite difference")


def _sigmoid_three_exp(x):
    """The historical two-branch sigmoid: three exponentials per call."""
    clipped = np.clip(x, -500, 500)
    return np.where(x >= 0,
                    1.0 / (1.0 + np.exp(-clipped)),
                    np.exp(clipped) / (1.0 + np.exp(clipped)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_kernel_bit_identical_to_three_exp_formula(dtype):
    from repro.nn.functional import sigmoid_forward

    rng = np.random.default_rng(15)
    unsigned = np.uint32 if dtype is np.float32 else np.uint64
    random_bits = rng.integers(
        0, np.iinfo(unsigned).max, 200_000, dtype=unsigned).view(dtype)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 500.0, -500.0, 710.0, -710.0,
                      1e-300, -1e-300, 88.0, -88.0, 104.0, -104.0], dtype=dtype)
    x = np.concatenate([edges, rng.normal(0.0, 30.0, 50_000).astype(dtype),
                        random_bits[np.isfinite(random_bits)]])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _sigmoid_three_exp(x)
    actual = sigmoid_forward(x)
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))
