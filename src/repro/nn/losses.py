"""Loss functions used across the reproduction.

The training losses — binary cross-entropy for the black box, the
reconstruction ELBO (MSE plus Gaussian KL) for the VAEs and the hinge
validity term of the paper's four-part counterfactual loss (Eq. 3) — are
closed forms on plain ndarrays: each returns its value together with a
pullback (or, for the hinge, a gradient function) whose ops run in the
order ``Tensor.backward`` ran them through the per-op graph, so training
on them is bit-identical to training on the tape.  ``l1_loss``,
``cross_entropy``, ``logsumexp`` and ``softmax`` stay
:class:`~repro.nn.Tensor` ops for the surrogates that still build a
graph.
"""

from __future__ import annotations

import numpy as np

from .tensor import as_tensor

__all__ = [
    "bce_with_logits",
    "cross_entropy",
    "hinge_loss",
    "hinge_loss_grad",
    "l1_loss",
    "mse_loss",
    "gaussian_kl",
    "logsumexp",
    "softmax",
]


def _as_float(values):
    values = np.asarray(values)
    return values if values.dtype.kind == "f" else values.astype(np.float64)


def bce_with_logits(logits, targets, weights=None):
    """Binary cross-entropy on raw logits (numerically stable) and its pullback.

    Uses the identity ``max(z, 0) - z*y + log(1 + exp(-|z|))`` so large
    logits never overflow.  Optional per-element ``weights`` rescale each
    example's contribution (used for class balancing): the loss is then
    their weighted mean.

    Returns ``(loss, pullback)``; ``pullback(scale=1.0)`` is the
    gradient of ``scale * loss`` in ``logits``.
    """
    logits = _as_float(logits)
    targets = _as_float(targets)
    mask = logits > 0.0
    sign = np.sign(logits)
    tail = np.exp(-np.abs(logits))
    shifted = tail + 1.0
    per_element = np.maximum(logits, 0.0) - logits * targets + np.log(shifted)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        norm = 1.0 / weights.sum()
        loss = (per_element * weights).sum() * norm
    else:
        norm = 1.0 / per_element.size
        loss = per_element.sum() * norm

    def pullback(scale=1.0):
        grad = scale * norm
        if weights is not None:
            grad = grad * weights
        # the three uses of the logits, summed in the tape's arrival order:
        # max(z, 0), then z * y, then |z| through the softplus
        softplus_grad = -((grad / shifted) * tail) * sign
        return (grad * mask + (-grad) * targets) + softplus_grad

    return loss, pullback


def logsumexp(logits, axis=-1):
    """Differentiable log-sum-exp with max-shift stabilisation."""
    logits = as_tensor(logits)
    shift = np.max(logits.data, axis=axis, keepdims=True)
    shifted = logits - shift
    return (shifted.exp().sum(axis=axis, keepdims=True)).log() + shift


def softmax(logits, axis=-1):
    """Differentiable softmax along ``axis``."""
    logits = as_tensor(logits)
    return (logits - logsumexp(logits, axis=axis)).exp()


def cross_entropy(logits, labels):
    """Multi-class cross-entropy between logits and integer labels.

    Parameters
    ----------
    logits:
        Tensor of shape (batch, classes).
    labels:
        Integer array of shape (batch,).
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=int)
    batch = logits.shape[0]
    log_probs = logits - logsumexp(logits, axis=1)
    picked = log_probs[np.arange(batch), labels]
    return -picked.mean()


def hinge_loss(logits, desired, margin=1.0):
    """Hinge loss pushing binary ``logits`` toward the ``desired`` class.

    This is the validity term of the paper's Eq. 3: with the desired class
    encoded as a sign ``s in {-1, +1}``, the per-example loss is
    ``max(0, margin - s * logit)``, averaged over the batch.  Its gradient
    is :func:`hinge_loss_grad`.

    Parameters
    ----------
    logits:
        Raw scores of shape (batch,) — positive means class 1.
    desired:
        Array of 0/1 desired classes.
    margin:
        Decision margin; the paper uses the standard hinge (margin 1).
    """
    logits = np.asarray(logits)
    desired = np.asarray(desired, dtype=np.float64)
    margins = (logits * -(2.0 * desired - 1.0)) + margin
    return np.maximum(margins, 0.0).sum() * (1.0 / logits.size)


def hinge_loss_grad(logits, desired, margin=1.0, scale=1.0):
    """Gradient of ``scale * hinge_loss(logits, desired, margin)`` in ``logits``.

    The ops of backpropagating a mean hinge on the tape, in the same
    order (the mean's ``scale * (1 / n)`` kept on the rows inside the
    margin, times ``-sign``), so the result is bit-identical to the
    autograd gradient.  Note ``scale * (1 / n)``
    is not exactly 1 for ``scale = n`` at some ``n`` (49, 98, ...); a
    caller scaling by the batch size must pass ``scale`` rather than
    drop the mean.
    """
    logits = np.asarray(logits)
    desired = np.asarray(desired, dtype=np.float64)
    negated_signs = -(2.0 * desired - 1.0)
    inside = (logits * negated_signs) + margin > 0.0
    return (scale * (1.0 / logits.size)) * inside * negated_signs


def l1_loss(prediction, target):
    """Mean absolute error — the proximity term ``d(x, x')`` of Eq. 3."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    return (prediction - target).abs().mean()


def mse_loss(prediction, target):
    """Mean squared error and its pullback (the VAE reconstruction term).

    Returns ``(loss, pullback)``; ``pullback(scale=1.0)`` is the gradient
    of ``scale * loss`` in ``prediction``.
    """
    difference = np.asarray(prediction) - np.asarray(target)
    norm = 1.0 / difference.size
    loss = (difference ** 2).sum() * norm

    def pullback(scale=1.0):
        return scale * norm * 2 * difference

    return loss, pullback


def gaussian_kl(mu, log_var):
    """KL divergence ``KL(N(mu, sigma) || N(0, 1))`` averaged over the batch.

    The standard VAE regulariser (Kingma & Welling):
    ``-0.5 * sum(1 + log_var - mu^2 - exp(log_var))``.

    Returns ``(kl, pullback)``.  ``pullback(scale, grad_mu, grad_log_var)``
    adds the gradient of ``scale * kl`` onto the gradients ``mu`` and
    ``log_var`` already receive (from the reparameterised sample) and
    returns the sums.  The additions run in the tape's order:
    ``(grad_mu + t) + t`` for the two factors of ``mu * mu``, and the
    ``log_var`` term before the ``exp(log_var)`` one.
    """
    mu = np.asarray(mu)
    log_var = np.asarray(log_var)
    exp_log_var = np.exp(log_var)
    per_dim = (log_var + 1.0 - mu * mu - exp_log_var) * (-0.5)
    norm = 1.0 / len(mu)
    kl = per_dim.sum(axis=1).sum() * norm

    def pullback(scale, grad_mu, grad_log_var):
        half = scale * norm * (-0.5)
        square_grad = (-half) * mu
        grad_mu = grad_mu + square_grad + square_grad
        grad_log_var = grad_log_var + half + (-half) * exp_log_var
        return grad_mu, grad_log_var

    return kl, pullback
