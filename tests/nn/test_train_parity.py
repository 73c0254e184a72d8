"""Graph-free training is bit-identical to the autograd tape.

``train_classifier``, ``train_reconstruction_vae`` and the four-part
``CFVAEGenerator.fit`` train through pullbacks and closed-form losses.
Pinned here:

1. Each trainer's weights and loss history are ``np.array_equal`` to
   its tape reference in ``tests/helpers/training.py`` (black box over
   optimiser x class balancing x dtype; reconstruction VAE with and
   without dropout; the four-part loop over constraint kind x proximity
   x optimiser x latent noise x warm-up, plus the constraint shapes the
   catalog does not build; ensemble members).
2. So is the six-part fit, whose surrogates still differentiate the
   batch on the tape with the four parts joined as one fused node.
3. Every closed-form gradient agrees with central finite differences.
4. None of the three trainers creates a single ``Tensor`` node.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.causal import fit_causal
from repro.constraints import (
    ConstraintSet,
    ImmutableProjector,
    ImmutablesRespected,
    MonotonicIncreaseConstraint,
    OrdinalImplicationConstraint,
    build_constraints,
)
from repro.core import (
    CFTrainingConfig,
    CFVAEGenerator,
    DensityLossConfig,
    FourPartLoss,
    fast_config,
    inloss_config,
    sparsity_penalty,
)
from repro.data import load_dataset
from repro.models import (
    BlackBoxClassifier,
    ConditionalVAE,
    train_classifier,
    train_ensemble,
)
from repro.models import ensemble as ensemble_module
from repro.models.training import train_reconstruction_vae
from repro.nn import Tensor, bce_with_logits, dtype_scope, gaussian_kl, mse_loss
from repro.nn.functional import reparameterize_backward, reparameterize_forward
from tests.helpers import training as tape
from tests.helpers.parity import assert_bit_identical, assert_grad_matches_fd


@pytest.fixture(scope="module")
def adult():
    bundle = load_dataset("adult", n_instances=400, seed=0)
    x, y = bundle.split("train")
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=3, rng=np.random.default_rng(0))
    return bundle, x, y, blackbox


def assert_same_training(module_a, module_b, history_a, history_b):
    assert_bit_identical(history_a, history_b, context="loss history")
    assert_bit_identical(module_a.state_dict(), module_b.state_dict(),
                         context="trained weights")


# -- black box -----------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("balanced", [False, True])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_train_classifier_matches_tape(adult, optimizer, balanced, dtype):
    bundle, x, y, _ = adult
    models = []
    for _ in range(2):
        with dtype_scope(dtype):
            models.append(BlackBoxClassifier(
                bundle.encoder.n_encoded, np.random.default_rng(1)))
    kwargs = dict(epochs=3, batch_size=64, optimizer=optimizer, balanced=balanced)
    history = train_classifier(models[0], x, y, rng=np.random.default_rng(2), **kwargs)
    reference = tape.train_classifier(models[1], x, y, rng=np.random.default_rng(2),
                                      **kwargs)
    assert models[0].network[0].weight.data.dtype == np.dtype(dtype)
    assert_same_training(models[0], models[1], history, reference)


@pytest.mark.parametrize("mode", ["seed", "bootstrap"])
def test_ensemble_members_match_tape(adult, mode, monkeypatch):
    _, x, y, _ = adult
    kwargs = dict(n_members=3, mode=mode, seed=5, epochs=2, batch_size=128)
    ensemble = train_ensemble(x, y, **kwargs)
    monkeypatch.setattr(ensemble_module, "train_classifier", tape.train_classifier)
    reference = train_ensemble(x, y, **kwargs)
    for member, expected in zip(ensemble.members, reference.members):
        assert_bit_identical(member.state_dict(), expected.state_dict(),
                             context="ensemble member")


# -- reconstruction VAE ------------------------------------------------------------
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_train_reconstruction_vae_matches_tape(adult, dropout):
    bundle, x, y, _ = adult
    vaes = [ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(5),
                           dropout=dropout) for _ in range(2)]
    labels = np.asarray(y, dtype=np.float64)
    kwargs = dict(epochs=3, lr=3e-3, beta=0.02, batch_size=64)
    history = train_reconstruction_vae(vaes[0], x, labels,
                                       rng=np.random.default_rng(6), **kwargs)
    reference = tape.train_reconstruction_vae(vaes[1], x, labels,
                                              rng=np.random.default_rng(6), **kwargs)
    assert_same_training(vaes[0], vaes[1], history, reference)


# -- the four-part CF-VAE ------------------------------------------------------------
def make_generator(bundle, blackbox, config, constraints):
    vae = ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3))
    return CFVAEGenerator(vae, blackbox, constraints, ImmutableProjector(bundle.encoder),
                          config, rng=np.random.default_rng(4))


def assert_fit_matches_tape(bundle, blackbox, x, config, constraints):
    fitted = make_generator(bundle, blackbox, config, constraints).fit(x)
    reference = make_generator(bundle, blackbox, config, constraints)
    history = tape.fit_generator(reference, x)
    assert_same_training(fitted.vae, reference.vae, fitted.history, history)


@pytest.mark.parametrize("warmstart", [0, 2])
@pytest.mark.parametrize("latent_noise", [0.0, 0.1])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("metric", ["l1", "l2"])
@pytest.mark.parametrize("kind", ["unary", "binary"])
def test_four_part_fit_matches_tape(adult, kind, metric, optimizer, latent_noise,
                                    warmstart):
    bundle, x, _, blackbox = adult
    config = replace(fast_config(epochs=1), proximity_metric=metric,
                     optimizer=optimizer, latent_noise=latent_noise,
                     warmstart_epochs=warmstart)
    assert_fit_matches_tape(bundle, blackbox, x[:120], config,
                            build_constraints(bundle.encoder, kind))


@pytest.mark.parametrize("case", ["mahajan", "margin_and_immutables", "no_constraints"])
def test_four_part_fit_matches_tape_beyond_catalog(adult, case):
    # Mahajan et al.'s objective (no sparsity term) sums the uses of x_cf
    # in another order; a margin gate and the immutable-drift penalty
    # are constraint shapes the catalog does not build
    bundle, x, _, blackbox = adult
    encoder = bundle.encoder
    config = replace(fast_config(epochs=2), warmstart_epochs=1)
    constraints = build_constraints(encoder, "binary")
    if case == "mahajan":
        config = replace(config, sparsity_l1_weight=0.0, sparsity_l0_weight=0.0,
                         proximity_metric="l2", feasibility_weight=2.0)
    elif case == "margin_and_immutables":
        constraints = ConstraintSet([
            OrdinalImplicationConstraint(encoder, "education", "age", slope=0.02,
                                         margin=0.01),
            ImmutablesRespected(encoder),
            MonotonicIncreaseConstraint(encoder, "age"),
        ])
    else:
        constraints = ConstraintSet([])
    assert_fit_matches_tape(bundle, blackbox, x[:120], config, constraints)


def test_four_part_fit_matches_tape_continuous_cause():
    bundle = load_dataset("law_school", n_instances=300, seed=0)
    x, y = bundle.split("train")
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=2, rng=np.random.default_rng(0))
    config = replace(fast_config(epochs=2), warmstart_epochs=1)
    assert_fit_matches_tape(bundle, blackbox, x[:120], config,
                            build_constraints(bundle.encoder, "binary"))


@pytest.mark.parametrize("density,causal", [("kde", True), ("latent", True),
                                            ("kde", False), (None, True)])
def test_six_part_fit_matches_tape(adult, density, causal):
    # the surrogates still build a graph; the four parts join it as one
    # fused node, so the tape sums the terms' gradients in the order the
    # fully per-op graph did
    bundle, x, y, blackbox = adult
    config = inloss_config(
        replace(fast_config(epochs=2), warmstart_epochs=1),
        density_weight=None if density else 0.0,
        causal_weight=None if causal else 0.0,
        loss_density=DensityLossConfig(kind=density or "kde"))
    generators = []
    for _ in range(2):
        generator = make_generator(bundle, blackbox, config,
                                   build_constraints(bundle.encoder, "binary"))
        generator.prepare_inloss(reference=x[np.asarray(y) == 1],
                                 causal=fit_causal("scm", bundle.encoder, x, y))
        generators.append(generator)
    generators[0].fit(x[:120])
    history = tape.fit_generator(generators[1], x[:120])
    assert_same_training(generators[0].vae, generators[1].vae,
                         generators[0].history, history)
    assert ("density" in history[0]) == bool(density)
    assert ("causal" in history[0]) == bool(causal)


# -- closed-form gradients against finite differences ------------------------------------
def _closed_form(value_fn):
    """Wrap an ndarray -> float function as the Tensor -> Tensor form the
    finite-difference helper evaluates."""
    return lambda tensor: Tensor(value_fn(tensor.data))


@pytest.mark.parametrize("weighted", [False, True])
def test_bce_gradient_matches_finite_differences(weighted):
    rng = np.random.default_rng(30)
    logits = rng.normal(0.0, 2.0, size=12)
    targets = rng.integers(0, 2, 12).astype(np.float64)
    weights = rng.uniform(0.5, 2.0, size=12) if weighted else None
    assert_grad_matches_fd(
        _closed_form(lambda v: bce_with_logits(v, targets, weights)[0]), logits,
        grad_fn=lambda v: bce_with_logits(v, targets, weights)[1](),
        context="bce_with_logits")


def test_elbo_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    prediction = rng.uniform(size=(5, 4))
    target = rng.uniform(size=(5, 4))
    assert_grad_matches_fd(
        _closed_form(lambda v: mse_loss(v, target)[0]), prediction,
        grad_fn=lambda v: mse_loss(v, target)[1](), context="mse_loss")

    mu = rng.uniform(size=(5, 3))
    log_var = rng.normal(0.0, 0.5, size=(5, 3))
    zeros = np.zeros_like(mu)
    assert_grad_matches_fd(
        _closed_form(lambda v: gaussian_kl(v, log_var)[0] * 0.3), mu,
        grad_fn=lambda v: gaussian_kl(v, log_var)[1](0.3, zeros, zeros)[0],
        context="gaussian_kl in mu")
    assert_grad_matches_fd(
        _closed_form(lambda v: gaussian_kl(mu, v)[0] * 0.3), log_var,
        grad_fn=lambda v: gaussian_kl(mu, v)[1](0.3, zeros, zeros)[1],
        context="gaussian_kl in log_var")

    # the reparameterised sample with its noise held fixed, including
    # entries below the log-variance floor (no gradient there)
    eps = rng.normal(size=(5, 3))
    weights = rng.normal(size=(5, 3))
    log_var[0, 0] = -25.0

    def sample(v):
        return float((reparameterize_forward(mu, v, eps)[0] * weights).sum())

    def sample_grad(v):
        _, sigma, keep = reparameterize_forward(mu, v, eps)
        return reparameterize_backward(weights, eps, sigma, keep)

    grad = assert_grad_matches_fd(_closed_form(sample), log_var, grad_fn=sample_grad,
                                  context="reparameterize in log_var")
    assert grad[0, 0] == 0.0


FOUR_PART_TERMS = {
    "validity": dict(proximity_weight=0.0, feasibility_weight=0.0,
                     sparsity_l1_weight=0.0, sparsity_l0_weight=0.0),
    "proximity_l1": dict(validity_weight=0.0, feasibility_weight=0.0,
                         sparsity_l1_weight=0.0, sparsity_l0_weight=0.0),
    "proximity_l2": dict(validity_weight=0.0, feasibility_weight=0.0,
                         sparsity_l1_weight=0.0, sparsity_l0_weight=0.0,
                         proximity_metric="l2"),
    "feasibility": dict(validity_weight=0.0, proximity_weight=0.0,
                        sparsity_l1_weight=0.0, sparsity_l0_weight=0.0),
    "sparsity": dict(validity_weight=0.0, proximity_weight=0.0,
                     feasibility_weight=0.0),
}


@pytest.mark.parametrize("term", sorted(FOUR_PART_TERMS))
def test_four_part_term_gradient_matches_finite_differences(adult, term):
    bundle, x, _, blackbox = adult
    config = replace(CFTrainingConfig(), **FOUR_PART_TERMS[term])
    loss_fn = FourPartLoss(blackbox, build_constraints(bundle.encoder, "binary"), config)
    rng = np.random.default_rng(32)
    rows = x[:16]
    # unclipped noise: a clip to [0, 1] would park rows on the hinge kinks
    x_cf = rows + rng.normal(0.0, 0.1, size=rows.shape)
    desired = 1 - blackbox.predict(rows)
    assert_grad_matches_fd(
        _closed_form(lambda v: loss_fn(rows, v, desired)[0]), x_cf,
        grad_fn=lambda v: loss_fn(rows, v, desired)[2]()[0], context=term)


def test_four_part_kl_gradient_matches_finite_differences(adult):
    bundle, x, _, blackbox = adult
    loss_fn = FourPartLoss(blackbox, build_constraints(bundle.encoder, "unary"),
                           CFTrainingConfig(kl_weight=0.5))
    rng = np.random.default_rng(33)
    rows, desired = x[:6], 1 - blackbox.predict(x[:6])
    mu = rng.uniform(size=(6, 4))
    log_var = rng.normal(0.0, 0.5, size=(6, 4))
    zeros = np.zeros_like(mu)

    def kl_grads(m, v):
        return loss_fn(rows, rows, desired, m, v)[2]()[1](zeros, zeros)

    assert_grad_matches_fd(
        _closed_form(lambda m: loss_fn(rows, rows, desired, m, log_var)[0]), mu,
        grad_fn=lambda m: kl_grads(m, log_var)[0], context="kl in mu")
    assert_grad_matches_fd(
        _closed_form(lambda v: loss_fn(rows, rows, desired, mu, v)[0]), log_var,
        grad_fn=lambda v: kl_grads(mu, v)[1], context="kl in log_var")


def test_sparsity_gradient_matches_finite_differences():
    rng = np.random.default_rng(34)
    delta = rng.normal(0.0, 0.1, size=(6, 5))

    def grad_fn(v):
        return sparsity_penalty(v, 0.3, 0.7, 0.05)[1](1.0)

    assert_grad_matches_fd(_closed_form(lambda v: sparsity_penalty(v, 0.3, 0.7, 0.05)[0]),
                           delta, grad_fn=grad_fn, context="sparsity_penalty")


def _constraints(bundle_name):
    """Every constraint shape on a dataset: the catalog's unary and binary
    constraints, the binary one with a margin, and the immutable drift."""
    bundle = load_dataset(bundle_name, n_instances=200, seed=0)
    encoder = bundle.encoder
    unary, binary = build_constraints(encoder, "binary")
    cases = {
        "unary": unary,
        "binary": binary,
        "binary_margin": OrdinalImplicationConstraint(
            encoder, binary.cause, binary.effect, slope=binary.slope, margin=0.05),
        "immutables": ImmutablesRespected(encoder),
        "set": ConstraintSet([unary, binary, ImmutablesRespected(encoder)]),
    }
    return bundle, cases


@pytest.mark.parametrize("dataset", ["adult", "law_school"])
def test_constraint_penalty_gradients_match_tape_and_finite_differences(dataset):
    bundle, cases = _constraints(dataset)
    x = bundle.split("train")[0][:20]
    rng = np.random.default_rng(35)
    x_cf = x + rng.normal(0.0, 0.15, size=x.shape)
    for name, constraint in sorted(cases.items()):
        value, pullback = constraint.penalty(x, x_cf)
        grad = np.zeros_like(x_cf)
        pullback(1.7, grad)
        # the closed form against the per-op tape form, value and gradient
        tensor = Tensor(x_cf.copy(), requires_grad=True)
        reference = tape.constraint_penalty(constraint, x, tensor) * 1.7
        reference.backward()
        assert value * 1.7 == reference.item(), name
        np.testing.assert_array_equal(grad, tensor.grad, err_msg=name)

        def grad_fn(v, constraint=constraint):
            out = np.zeros_like(v)
            constraint.penalty(x, v)[1](1.0, out)
            return out

        assert_grad_matches_fd(
            _closed_form(lambda v, constraint=constraint: constraint.penalty(x, v)[0]),
            x_cf, grad_fn=grad_fn, context=f"{dataset} {name}")


def test_immutable_projection_pullback_matches_tape(adult):
    bundle, x, _, _ = adult
    projector = ImmutableProjector(bundle.encoder)
    rng = np.random.default_rng(36)
    decoded = rng.uniform(size=x[:9].shape)
    grad = rng.normal(size=decoded.shape)
    projected, pullback = projector.project_vjp(x[:9], decoded)
    tensor = Tensor(decoded.copy(), requires_grad=True)
    reference = tape.project(projector, x[:9], tensor)
    reference.backward(grad)
    np.testing.assert_array_equal(projected, reference.data)
    np.testing.assert_array_equal(pullback(grad), tensor.grad)


# -- no tape ----------------------------------------------------------------------------
@pytest.fixture
def tensor_count(monkeypatch):
    """Number of :class:`repro.nn.Tensor` objects created since the fixture ran."""
    created = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return lambda: len(created)


def test_trainers_build_no_tensor_nodes(adult, tensor_count):
    bundle, x, y, blackbox = adult
    classifier = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(1))
    vae = ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(2))
    generator = make_generator(bundle, blackbox,
                               replace(fast_config(epochs=1), warmstart_epochs=1),
                               build_constraints(bundle.encoder, "binary"))
    start = tensor_count()
    train_classifier(classifier, x, y, epochs=1, rng=np.random.default_rng(3))
    train_reconstruction_vae(vae, x, y, epochs=1, rng=np.random.default_rng(4))
    generator.fit(x[:120])
    assert tensor_count() == start
