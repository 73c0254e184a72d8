"""The paper's counterfactual loss (Eq. 3 + Section III-C), extensible to six parts.

``total = validity (hinge) + proximity (L1) + feasibility (constraint
penalties) + sparsity (L0/L1 on the feature delta)``, plus the VAE's KL
regulariser.  When the config sets ``density_weight_inloss`` /
``causal_weight_inloss`` and a fitted surrogate is attached, two more
differentiable terms join the objective: a density pull toward the
reference population (:mod:`repro.density.differentiable`) and a causal
residual penalty built from the structural equations
(:mod:`repro.causal.differentiable`).  Each term is weighted by the
training config and reported separately so experiments can inspect the
trade-offs.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, fused, gaussian_kl, hinge_loss, hinge_loss_grad

__all__ = ["sparsity_penalty", "FourPartLoss"]


def sparsity_penalty(delta, l1_weight, l0_weight, tau):
    """The ``g(x' - x)`` sparsity term and its pullback: ``(value, pullback)``.

    Both pieces are *per-row sums averaged over the batch*, so their scale
    is independent of the encoded width: ``l1_weight`` scales the summed
    absolute delta, ``l0_weight`` scales a smooth L0 surrogate
    ``sum(1 - exp(-|delta| / tau))`` that approximates the number of
    changed features (``tau`` controls how sharply "changed" saturates).
    ``pullback(scale)`` is the gradient of ``scale * value`` in
    ``delta``, or ``None`` when both weights are zero.
    """
    delta = np.asarray(delta)
    absolute = np.abs(delta)
    norm = 1.0 / len(delta)
    value = 0.0
    if l1_weight:
        value = value + absolute.sum(axis=1).sum() * norm * l1_weight
    if l0_weight:
        decay = np.exp(absolute * (-1.0 / tau))
        value = value + (1.0 - decay).sum(axis=1).sum() * norm * l0_weight

    def pullback(scale):
        grad = None
        if l1_weight:
            grad = scale * l1_weight * norm
        if l0_weight:
            l0_grad = -(scale * l0_weight * norm) * decay * (-1.0 / tau)
            grad = l0_grad if grad is None else grad + l0_grad
        return None if grad is None else grad * np.sign(delta)

    return value, pullback


class FourPartLoss:
    """Callable bundling the loss components against a trained classifier.

    Historically four parts (validity, proximity, feasibility, sparsity);
    with in-loss surrogates attached and their config weights non-zero it
    grows to six.  The four-part path is bit-identical whenever both
    in-loss weights are zero, regardless of attached surrogates.

    The four parts and the KL term are closed forms whose gradient is
    written in the order backpropagating their per-op autograd form
    would run (so the CF-VAE trains bit-identically to that tape); the
    classifier is differentiated through its graph-free
    :meth:`~repro.models.BlackBoxClassifier.logits_vjp`, which forms no
    parameter gradient and touches no ``requires_grad`` flag.  Only the
    in-loss surrogates, which need the counterfactual batch on an
    autograd graph, build one.

    Parameters
    ----------
    blackbox:
        Trained :class:`repro.models.BlackBoxClassifier`; gradients flow
        through it to the counterfactual, never into it.
    constraints:
        :class:`repro.constraints.ConstraintSet` providing the
        feasibility penalty.
    config:
        :class:`repro.core.config.CFTrainingConfig` with the term weights.
    density_model:
        Optional fitted in-loss density surrogate exposing
        ``penalty(x_cf, desired) -> Tensor`` (see
        :mod:`repro.density.differentiable`).
    causal_model:
        Optional fitted in-loss causal surrogate exposing
        ``penalty(x, x_cf) -> Tensor`` (see
        :mod:`repro.causal.differentiable`).
    """

    def __init__(self, blackbox, constraints, config, density_model=None,
                 causal_model=None):
        self.blackbox = blackbox
        self.constraints = constraints
        self.config = config
        self.density_model = density_model
        self.causal_model = causal_model

    def __call__(self, x, x_cf, desired, mu=None, log_var=None):
        """Compute the weighted total, the individual parts and the pullback.

        Parameters
        ----------
        x:
            Original encoded inputs (ndarray).
        x_cf:
            Generated counterfactuals (ndarray).
        desired:
            0/1 array of desired classes per row.
        mu, log_var:
            Optional VAE posterior stats (ndarrays) for the KL term.

        Returns
        -------
        (total, parts, pullback):
            ``total`` is the weighted scalar; ``parts`` maps each
            component name to its unweighted float value.
            ``pullback(scale=1.0)`` returns ``(grad_x_cf, add_kl)``:
            the gradient of ``scale * total`` in ``x_cf`` and, when the
            KL term is on, a function adding its gradient onto the
            ``(grad_mu, grad_log_var)`` the sample passed back (else
            ``None``).
        """
        x = np.asarray(x)
        x_cf = np.asarray(x_cf)
        cfg = self.config
        norm = 1.0 / len(x_cf)

        logits, logits_pullback = self.blackbox.logits_vjp(x_cf)
        validity = hinge_loss(logits, desired, margin=cfg.hinge_margin)
        # per-row distance (summed over columns, averaged over the batch)
        # so the proximity pressure does not shrink with encoded width.
        # Our method uses L1 (Eq. 3); Mahajan et al.'s ELBO-style objective
        # corresponds to the squared (l2) variant, which tolerates many
        # small drifts and is what costs it sparsity in Table IV.
        difference = x_cf - x
        if cfg.proximity_metric == "l2":
            proximity = (difference ** 2).sum(axis=1).sum() * norm
        else:
            proximity = np.abs(difference).sum(axis=1).sum() * norm
        feasibility, feasibility_pullback = self.constraints.penalty(x, x_cf)
        sparsity, sparsity_pullback = sparsity_penalty(
            difference, cfg.sparsity_l1_weight, cfg.sparsity_l0_weight,
            cfg.sparsity_l0_tau)

        total = (validity * cfg.validity_weight
                 + proximity * cfg.proximity_weight
                 + feasibility * cfg.feasibility_weight
                 + sparsity)
        parts = {
            "validity": float(validity),
            "proximity": float(proximity),
            "feasibility": float(feasibility),
            "sparsity": float(sparsity),
        }

        def four_part_pullback(scale):
            grad = logits_pullback(hinge_loss_grad(
                logits, desired, margin=cfg.hinge_margin,
                scale=scale * cfg.validity_weight))
            proximity_scale = scale * cfg.proximity_weight * norm
            if cfg.proximity_metric == "l2":
                difference_grad = proximity_scale * 2 * difference
            else:
                difference_grad = proximity_scale * np.sign(difference)
            sparsity_grad = sparsity_pullback(scale)
            # the tape summed the uses of x_cf in the order it first
            # reached them: through the sparsity term when it is on,
            # else through the constraints after the proximity term
            if sparsity_grad is None:
                grad += difference_grad
                feasibility_pullback(scale * cfg.feasibility_weight, grad)
            else:
                feasibility_pullback(scale * cfg.feasibility_weight, grad)
                grad += difference_grad + sparsity_grad
            return grad

        # the in-loss surrogates differentiate the batch on a graph of
        # their own, which the four parts join as one fused node; the
        # tape then sums the terms' gradients in its usual order
        graph = leaf = None
        density_on = cfg.density_weight_inloss and self.density_model is not None
        causal_on = cfg.causal_weight_inloss and self.causal_model is not None
        if density_on or causal_on:
            leaf = Tensor(x_cf, requires_grad=True)
            graph = fused(total, leaf, four_part_pullback)
        if density_on:
            density = self.density_model.penalty(leaf, desired)
            graph = graph + density * cfg.density_weight_inloss
            parts["density"] = density.item()
        if causal_on:
            causal = self.causal_model.penalty(x, leaf)
            graph = graph + causal * cfg.causal_weight_inloss
            parts["causal"] = causal.item()
        if graph is not None:
            total = graph.item()
        kl_pullback = None
        if mu is not None and log_var is not None and cfg.kl_weight:
            kl, kl_pullback = gaussian_kl(mu, log_var)
            total = total + kl * cfg.kl_weight
            parts["kl"] = float(kl)
        parts["total"] = float(total)

        def pullback(scale=1.0):
            if graph is None:
                grad = four_part_pullback(scale)
            else:
                graph.backward(np.asarray(scale))
                grad = leaf.grad
            if kl_pullback is None:
                return grad, None
            kl_scale = scale * cfg.kl_weight
            return grad, lambda grad_mu, grad_log_var: kl_pullback(
                kl_scale, grad_mu, grad_log_var)

        return total, parts, pullback
