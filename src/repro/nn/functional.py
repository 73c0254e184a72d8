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

__all__ = ["linear_forward", "relu_forward", "sigmoid_forward", "tanh_forward",
           "relu_backward", "sigmoid_backward"]


def linear_forward(x, weight, bias):
    """Fused affine kernel ``x @ weight + bias`` with one allocation.

    The bias add happens in place on the fresh matmul output, so the
    fused op allocates a single array where the ``matmul`` + ``add``
    chain allocated two.
    """
    out = x @ weight
    out += bias
    return out


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
