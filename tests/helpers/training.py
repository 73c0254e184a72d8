"""Autograd-tape references for the graph-free trainers.

``train_classifier``, ``train_reconstruction_vae`` and the four-part
``CFVAEGenerator.fit`` train through hand-written pullbacks
(``Module.forward_vjp(..., accumulate=True)``, the closed-form losses of
:mod:`repro.nn.losses`, :class:`repro.core.FourPartLoss`).  The code
here is the same training written on the :class:`repro.nn.Tensor` tape,
one graph per mini-batch, op for op as the package ran it before the
pullbacks: the parity tests pin the trained weights and loss histories
to it with ``np.array_equal``.

Also here, because only the references use them: the ``Tensor`` forms
of the losses (BCE, MSE, Gaussian KL, hinge), of the constraint
penalties, of the immutable projection and of the four-part loss, and
the ``requires_grad`` freeze the tape needs so that no gradient reaches
a shared black box.
"""

import numpy as np

from repro.constraints import (
    ConstraintSet,
    ImmutablesRespected,
    MonotonicIncreaseConstraint,
    OrdinalImplicationConstraint,
)
from repro.nn import SGD, Adam, Tensor, as_tensor
from repro.utils.validation import check_2d, check_binary_labels, resolve_desired


# -- black-box freeze ----------------------------------------------------------
def freeze_parameters(*modules):
    """Switch off ``requires_grad`` on every parameter of ``modules``.

    Returns the prior ``(tensor, flag)`` pairs for
    :func:`restore_parameters`.
    """
    flags = [
        (tensor, tensor.requires_grad)
        for module in modules
        for _, tensor in module.named_parameters(include_frozen=True)
    ]
    for tensor, _ in flags:
        tensor.requires_grad = False
    return flags


def restore_parameters(flags):
    """Restore the ``requires_grad`` flags :func:`freeze_parameters` recorded."""
    for tensor, flag in flags:
        tensor.requires_grad = flag


# -- losses on the tape ----------------------------------------------------------
def bce_with_logits(logits, targets, weights=None):
    """Binary cross-entropy on raw logits (scalar Tensor)."""
    logits = as_tensor(logits)
    targets = as_tensor(targets)
    relu_part = logits.clip_min(0.0)
    abs_logits = logits.abs()
    softplus = ((-abs_logits).exp() + 1.0).log()
    per_element = relu_part - logits * targets + softplus
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        return (per_element * weights).sum() * (1.0 / weights.sum())
    return per_element.mean()


def mse_loss(prediction, target):
    """Mean squared error (scalar Tensor)."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    return ((prediction - target) ** 2).mean()


def gaussian_kl(mu, log_var):
    """``KL(N(mu, sigma) || N(0, 1))`` averaged over the batch (scalar Tensor)."""
    mu = as_tensor(mu)
    log_var = as_tensor(log_var)
    per_dim = (log_var + 1.0 - mu * mu - log_var.exp()) * (-0.5)
    return per_dim.sum(axis=1).mean()


def hinge_loss(logits, desired, margin=1.0):
    """Mean ``max(0, margin - s * logit)`` with ``s = 2 * desired - 1``."""
    logits = as_tensor(logits)
    desired = np.asarray(desired, dtype=np.float64)
    signs = 2.0 * desired - 1.0
    margins = (logits * (-signs)) + margin
    return margins.clip_min(0.0).mean()


def sparsity_penalty(delta, l1_weight, l0_weight, tau):
    """Per-row L1 plus smooth L0 of ``delta``, averaged over the batch."""
    delta = as_tensor(delta)
    absolute = delta.abs()
    term = Tensor(0.0)
    if l1_weight:
        term = term + absolute.sum(axis=1).mean() * l1_weight
    if l0_weight:
        soft_l0 = 1.0 - (absolute * (-1.0 / tau)).exp()
        term = term + soft_l0.sum(axis=1).mean() * l0_weight
    return term


def constraint_penalty(constraint, x, x_cf):
    """The scalar-Tensor penalty of one constraint (or a ``ConstraintSet``)."""
    x = np.asarray(x)
    x_cf = as_tensor(x_cf)
    if isinstance(constraint, ConstraintSet):
        total = Tensor(0.0)
        for member in constraint:
            total = total + constraint_penalty(member, x, x_cf)
        return total
    if isinstance(constraint, MonotonicIncreaseConstraint):
        column = constraint.column
        decrease = Tensor(x[:, column]) - x_cf[:, column]
        return decrease.clip_min(0.0).mean()
    if isinstance(constraint, OrdinalImplicationConstraint):
        cause_before = constraint._cause_values_np(x)
        if constraint._cause_is_categorical:
            cause_after = (x_cf[:, constraint._cause_block]
                           @ Tensor(constraint._rank_weights))
        else:
            cause_after = x_cf[:, constraint._cause_column]
        effect = constraint._effect_column
        delta_cause = cause_after - Tensor(cause_before)
        delta_effect = x_cf[:, effect] - Tensor(x[:, effect])
        required = delta_cause.clip_min(0.0) * constraint.slope
        if constraint.margin:
            gate = (delta_cause * 50.0).sigmoid()
            required = required + gate * constraint.margin
        shortfall = (required - delta_effect).clip_min(0.0)
        return shortfall.mean()
    if isinstance(constraint, ImmutablesRespected):
        if not constraint.mask.any():
            return Tensor(0.0)
        columns = np.flatnonzero(constraint.mask)
        drift = x_cf[:, columns] - Tensor(x[:, columns])
        return drift.abs().mean()
    raise TypeError(f"no tape penalty for {type(constraint).__name__}")


def project(projector, x, x_cf):
    """Immutable projection as a tape op: immutable columns become constants."""
    x_cf = as_tensor(x_cf)
    cond = np.broadcast_to(projector.mask, x_cf.shape)
    return Tensor.where(cond, Tensor(np.asarray(x)), x_cf)


class FourPartLoss:
    """The four-part (plus in-loss surrogates and KL) objective on the tape.

    Construction freezes the black box, so the tape reaches it only as a
    constant; :meth:`release` restores its flags.
    """

    def __init__(self, blackbox, constraints, config, density_model=None,
                 causal_model=None):
        self.blackbox = blackbox
        self.constraints = constraints
        self.config = config
        self.density_model = density_model
        self.causal_model = causal_model
        self._flags = freeze_parameters(blackbox)

    def release(self):
        restore_parameters(self._flags)

    def __call__(self, x, x_cf, desired, mu=None, log_var=None):
        x = np.asarray(x)
        x_cf = as_tensor(x_cf)
        cfg = self.config

        logits = self.blackbox.forward(x_cf)
        validity = hinge_loss(logits, desired, margin=cfg.hinge_margin)
        difference = x_cf - Tensor(x)
        if cfg.proximity_metric == "l2":
            proximity = (difference ** 2).sum(axis=1).mean()
        else:
            proximity = difference.abs().sum(axis=1).mean()
        feasibility = constraint_penalty(self.constraints, x, x_cf)
        sparsity = sparsity_penalty(
            difference, cfg.sparsity_l1_weight, cfg.sparsity_l0_weight,
            cfg.sparsity_l0_tau)

        total = (validity * cfg.validity_weight
                 + proximity * cfg.proximity_weight
                 + feasibility * cfg.feasibility_weight
                 + sparsity)
        parts = {
            "validity": validity.item(),
            "proximity": proximity.item(),
            "feasibility": feasibility.item(),
            "sparsity": sparsity.item(),
        }
        if cfg.density_weight_inloss and self.density_model is not None:
            density = self.density_model.penalty(x_cf, desired)
            total = total + density * cfg.density_weight_inloss
            parts["density"] = density.item()
        if cfg.causal_weight_inloss and self.causal_model is not None:
            causal = self.causal_model.penalty(x, x_cf)
            total = total + causal * cfg.causal_weight_inloss
            parts["causal"] = causal.item()
        if mu is not None and log_var is not None and cfg.kl_weight:
            kl = gaussian_kl(mu, log_var)
            total = total + kl * cfg.kl_weight
            parts["kl"] = kl.item()
        parts["total"] = total.item()
        return total, parts


# -- the VAE on the tape --------------------------------------------------------
def reparameterize(vae, mu, log_var):
    """``z = mu + sigma * eps`` as the op chain the tape recorded."""
    eps = vae._noise_rng.standard_normal(mu.shape).astype(mu.data.dtype, copy=False)
    floor = Tensor(np.full(log_var.shape, -10.0, dtype=log_var.data.dtype))
    sigma = (log_var * 0.5).maximum(floor).exp()
    return mu + sigma * eps


# -- trainers ---------------------------------------------------------------------
def train_classifier(model, x, y, epochs=30, lr=0.05, batch_size=256,
                     rng=None, optimizer="adam", balanced=False):
    """Mini-batch BCE training of a black box, one tape per batch."""
    x = check_2d(x, "x")
    y = check_binary_labels(y, "y").astype(np.float64)
    rng = rng or np.random.default_rng(0)

    sample_weights = None
    if balanced:
        positive_rate = float(y.mean())
        if 0.0 < positive_rate < 1.0:
            weight_pos = 0.5 / positive_rate
            weight_neg = 0.5 / (1.0 - positive_rate)
            sample_weights = np.where(y == 1.0, weight_pos, weight_neg)

    if optimizer == "adam":
        opt = Adam(model.parameters(), lr=lr)
    else:
        opt = SGD(model.parameters(), lr=lr, momentum=0.9)

    model.train()
    history = []
    n_rows = len(x)
    for _ in range(epochs):
        order = rng.permutation(n_rows)
        losses = []
        for start in range(0, n_rows, batch_size):
            batch = order[start:start + batch_size]
            opt.zero_grad()
            logits = model.forward(x[batch])
            batch_weights = None if sample_weights is None else sample_weights[batch]
            loss = bce_with_logits(logits, y[batch], weights=batch_weights)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    model.eval()
    return history


def train_reconstruction_vae(vae, x, labels, epochs=30, lr=1e-3, batch_size=256,
                             rng=None, beta=0.5):
    """Reconstruction + ``beta`` KL training of a VAE, one tape per batch."""
    x = check_2d(x, "x")
    labels = np.asarray(labels, dtype=np.float64)
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
            mu, log_var = vae.encode(Tensor(x[batch]), labels[batch])
            z = reparameterize(vae, mu, log_var)
            reconstruction = vae.decode(z, labels[batch])
            loss = mse_loss(reconstruction, x[batch]) + gaussian_kl(mu, log_var) * beta
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    vae.eval()
    return history


def fit_generator(generator, x, desired=None):
    """:meth:`repro.core.CFVAEGenerator.fit` on the tape.

    Trains ``generator.vae`` in place with the generator's config, rng,
    constraints, projector and attached in-loss surrogates, and returns
    the per-epoch history of loss-part averages.  The black box is frozen
    for the whole fit and released afterwards.
    """
    x = check_2d(x, "x")
    cfg = generator.config.scaled_for(len(x))
    desired = resolve_desired(generator.blackbox, x, desired)
    vae = generator.vae
    rng = generator.rng
    if cfg.density_weight_inloss and generator.inloss_density is None:
        from repro.density.differentiable import build_inloss_density

        generator.inloss_density = build_inloss_density(
            cfg.loss_density, vae=vae).fit(x)
    loss_fn = FourPartLoss(generator.blackbox, generator.constraints, generator.config,
                           density_model=generator.inloss_density,
                           causal_model=generator.inloss_causal)
    try:
        if cfg.warmstart_epochs:
            train_reconstruction_vae(
                vae, x, desired, epochs=cfg.warmstart_epochs, lr=3e-3,
                batch_size=cfg.batch_size, beta=0.02, rng=rng)
            vae.train()
        if cfg.optimizer == "adam":
            optimizer = Adam(vae.parameters(), lr=cfg.learning_rate)
        else:
            optimizer = SGD(vae.parameters(), lr=cfg.learning_rate,
                            momentum=cfg.momentum)
        vae.train()
        history = []
        n_rows = len(x)
        for _ in range(cfg.epochs):
            order = rng.permutation(n_rows)
            epoch_parts = []
            for start in range(0, n_rows, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                optimizer.zero_grad()
                mu, log_var = vae.encode(Tensor(x[batch]), desired[batch])
                z = reparameterize(vae, mu, log_var)
                if cfg.latent_noise:
                    z = z + rng.normal(0.0, cfg.latent_noise, size=z.shape)
                decoded = vae.decode(z, desired[batch])
                x_cf = project(generator.projector, x[batch], decoded)
                total, parts = loss_fn(x[batch], x_cf, desired[batch], mu, log_var)
                total.backward()
                optimizer.step()
                epoch_parts.append(parts)
            history.append({
                key: float(np.mean([p[key] for p in epoch_parts]))
                for key in epoch_parts[0]
            })
    finally:
        loss_fn.release()
    vae.eval()
    return history
