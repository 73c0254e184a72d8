"""Shared numpy kernels for the graph and graph-free paths.

Every kernel here is used twice: the forward kernels by the
:class:`~repro.nn.tensor.Tensor` autograd ops (which wrap them with a
backward closure) and by the graph-free ``Module.forward_array``
inference path; the backward kernels by those closures and by the
graph-free ``Module.forward_vjp`` pullbacks.  Keeping a single
implementation is what makes the fast paths *numerically identical* to
the training path — there is no second formula to drift.

All kernels are dtype-preserving: they compute in whatever float dtype
the inputs carry (float64 by default, float32 in fast mode — see
:func:`repro.nn.tensor.set_default_dtype`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["linear_forward", "linear_backward", "relu_forward", "sigmoid_forward", "tanh_forward",
           "relu_backward", "sigmoid_backward",
           "reparameterize_forward", "reparameterize_backward"]

#: Floor on ``0.5 * log_var`` before the exponential: sigma >= e^-10.
LOG_SIGMA_FLOOR = -10.0


def linear_forward(x, weight, bias):
    """Fused affine kernel ``x @ weight + bias`` with one allocation.

    The bias add happens in place on the fresh matmul output, so the
    fused op allocates a single array where the ``matmul`` + ``add``
    chain allocated two.
    """
    out = x @ weight
    out += bias
    return out


def linear_backward(grad, x, weight):
    """Gradients of ``x @ weight + bias``: ``(in x, in weight, in bias)``.

    ``grad @ weight.T``, ``x.T @ grad`` and the batch sum of ``grad``;
    a single row ``x`` of shape ``(in,)`` takes the outer product.
    """
    if grad.ndim == 1:
        return grad @ weight.T, np.outer(x, grad), grad
    return grad @ weight.T, x.T @ grad, grad.sum(axis=0)


def relu_forward(x):
    """``max(x, 0)`` elementwise."""
    return np.maximum(x, 0.0)


def sigmoid_forward(x):
    """Numerically stable logistic sigmoid (split at 0 to avoid overflow).

    ``1 / (1 + e^-x)`` for ``x >= 0`` and ``e^x / (1 + e^x)`` below,
    with ``|x|`` capped at 500.  Both branches share the one exponential
    ``e^-|x|``.
    """
    tail = np.exp(np.maximum(-np.abs(x), -500.0))
    denominator = 1.0 + tail
    return np.where(x >= 0, 1.0 / denominator, tail / denominator)


def tanh_forward(x):
    """Hyperbolic tangent."""
    return np.tanh(x)


def relu_backward(grad, out):
    """Pull ``grad`` back through a ReLU whose forward output was ``out``."""
    return grad * (out > 0)


def sigmoid_backward(grad, out):
    """Pull ``grad`` back through a sigmoid whose forward output was ``out``."""
    return grad * out * (1.0 - out)


def reparameterize_forward(mu, log_var, eps):
    """Reparameterised sample ``z = mu + sigma * eps``.

    ``sigma = exp(max(0.5 * log_var, -10))``; the floor keeps sigma away
    from zero for numerical safety.  Returns ``(z, sigma, keep)`` where
    ``keep`` marks the entries above the floor, the two arrays
    :func:`reparameterize_backward` needs.
    """
    half = log_var * 0.5
    keep = half >= LOG_SIGMA_FLOOR
    sigma = np.exp(np.where(keep, half, LOG_SIGMA_FLOOR))
    return mu + sigma * eps, sigma, keep


def reparameterize_backward(grad, eps, sigma, keep):
    """Pull ``grad`` (in ``z``) back to ``log_var`` through the sample.

    The gradient in ``mu`` is ``grad`` itself.  The ops run in the order
    of the autograd chain ``mul(eps) -> exp -> maximum -> mul(0.5)``.
    """
    return grad * eps * sigma * keep * 0.5
