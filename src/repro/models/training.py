"""Reconstruction training for the conditional VAE.

The paper's CF-VAE training (validity + proximity + feasibility +
sparsity) lives in :mod:`repro.core.generator`.  This module provides the
plain data-fidelity objective — reconstruction + KL — that the REVISE and
C-CHVAE baselines need (both search the latent space of an ordinary VAE)
and that is also useful for warm-starting the CF model.
"""

from __future__ import annotations

import numpy as np

from ..nn import Adam, gaussian_kl, mse_loss
from ..utils.validation import check_2d

__all__ = ["train_reconstruction_vae"]


def train_reconstruction_vae(vae, x, labels, epochs=30, lr=1e-3, batch_size=256,
                             rng=None, beta=0.5, verbose=False):
    """Fit ``vae`` to reconstruct ``x`` conditioned on ``labels``.

    Loss per batch: ``MSE(x_hat, x) + beta * KL(q(z|x) || N(0, I))``.
    Returns the per-epoch loss history.  Each step runs the VAE's
    graph-free pullbacks with ``accumulate=True`` and the closed-form
    ELBO, bit-identical to one autograd graph per batch.
    """
    x = check_2d(x, "x")
    labels = np.asarray(labels, dtype=np.float64)
    if len(labels) != len(x):
        raise ValueError(f"labels ({len(labels)}) and x ({len(x)}) row counts differ")
    rng = rng or np.random.default_rng(0)

    optimizer = Adam(vae.parameters(), lr=lr)
    vae.train()
    history = []
    n_rows = len(x)
    for _ in range(epochs):
        order = rng.permutation(n_rows)
        losses = []
        for start in range(0, n_rows, batch_size):
            batch = order[start:start + batch_size]
            optimizer.zero_grad()
            mu, log_var, encode_pullback = vae.encode_vjp(
                x[batch], labels[batch], accumulate=True)
            z, reparameterize_pullback = vae.reparameterize_vjp(mu, log_var)
            reconstruction, decode_pullback = vae.decode_vjp(
                z, labels[batch], accumulate=True)
            reconstruction_loss, mse_pullback = mse_loss(reconstruction, x[batch])
            kl, kl_pullback = gaussian_kl(mu, log_var)
            grad_mu, grad_log_var = reparameterize_pullback(
                decode_pullback(mse_pullback()))
            encode_pullback(*kl_pullback(beta, grad_mu, grad_log_var))
            optimizer.step()
            losses.append(float(reconstruction_loss + kl * beta))
        history.append(float(np.mean(losses)))
        if verbose:
            print(f"vae loss {history[-1]:.5f}")
    vae.eval()
    return history
