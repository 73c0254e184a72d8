"""Autograd references for the REVISE and CEM gradient searches.

``ReviseExplainer`` and ``CEMExplainer`` differentiate a frozen decoder
and black box through the graph-free pullbacks
(:meth:`repro.models.ConditionalVAE.decode_vjp`,
:meth:`repro.models.BlackBoxClassifier.logits_vjp`).  The functions here
are the same searches written on the :class:`repro.nn.Tensor` autograd
tape, one graph per step; the tests pin the explainers' ``propose``
outputs to them bit for bit.

Each takes a fitted explainer (for its models and hyperparameters) plus
the ``x`` rows and resolved ``desired`` classes ``propose`` would pass to
``_generate``, and returns the raw counterfactual rows.
"""

import numpy as np

from repro.nn import Adam, Tensor, no_grad
from tests.helpers.training import freeze_parameters, hinge_loss, restore_parameters


def revise_search_autograd(explainer, x, desired):
    """REVISE's latent Adam search with one autograd graph per step."""
    flags = freeze_parameters(explainer.vae, explainer.blackbox)
    try:
        vae = explainer.vae
        vae.eval()
        zeros = np.zeros(len(x))
        with no_grad():
            mu, _ = vae.encode(Tensor(x), zeros)
        z = Tensor(mu.data.copy(), requires_grad=True)
        optimizer = Adam([z], lr=explainer.lr)
        x_tensor = Tensor(x)
        for _ in range(explainer.steps):
            optimizer.zero_grad()
            decoded = vae.decode(z, zeros)
            validity = hinge_loss(explainer.blackbox.forward(decoded), desired,
                                  margin=0.5)
            distance = (decoded - x_tensor).abs().mean()
            (validity + distance * explainer.distance_weight).backward()
            optimizer.step()
        with no_grad():
            return vae.decode(Tensor(z.data), zeros).data
    finally:
        restore_parameters(flags)


def cem_search_autograd(explainer, x, desired):
    """CEM's ISTA search with one autograd graph and one predict per step."""
    flags = freeze_parameters(explainer.blackbox)
    try:
        delta = np.zeros_like(x)
        mutable = ~explainer.projector.mask
        best = x.copy()
        best_found = np.zeros(len(x), dtype=bool)
        for _ in range(explainer.steps):
            delta_tensor = Tensor(delta, requires_grad=True)
            candidate = Tensor(x) + delta_tensor
            hinge = hinge_loss(explainer.blackbox.forward(candidate), desired,
                               margin=explainer.kappa) * len(x)
            ridge = (delta_tensor ** 2).sum(axis=1).sum() * explainer.l2_weight
            (hinge + ridge).backward()
            gradient = delta_tensor.grad

            stepped = delta - explainer.lr * gradient
            threshold = explainer.beta * explainer.lr
            delta = np.sign(stepped) * np.maximum(np.abs(stepped) - threshold, 0.0)
            delta[:, ~mutable] = 0.0
            delta = np.clip(x + delta, 0.0, 1.0) - x

            hits = explainer.blackbox.predict(x + delta) == desired
            improved = hits & (
                ~best_found
                | (np.abs(delta).sum(axis=1) < np.abs(best - x).sum(axis=1)))
            best[improved] = (x + delta)[improved]
            best_found |= hits
        best[~best_found] = (x + delta)[~best_found]
        return best
    finally:
        restore_parameters(flags)
