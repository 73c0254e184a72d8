"""REVISE and CEM ``propose`` stay bit-identical to their autograd searches.

Both explainers differentiate the frozen decoder and black box through
graph-free pullbacks.  The autograd-tape searches they replaced live in
:mod:`tests.helpers.baselines`; every case here pins ``propose`` to them
with exact equality, over batch sizes where ``n * (1 / n) != 1`` (49),
mixed per-row desired classes, ``steps=0`` and two seeds.
"""

import numpy as np
import pytest

from repro.baselines import CEMExplainer, ReviseExplainer
from repro.utils.validation import resolve_desired
from tests.helpers.baselines import cem_search_autograd, revise_search_autograd

SEEDS = (0, 1)
BATCH_SIZES = (1, 7, 32, 49)
REFERENCES = {"revise": revise_search_autograd, "cem": cem_search_autograd}


@pytest.fixture(scope="module")
def explainers(adult_setup):
    bundle, blackbox, x_train, y_train, _ = adult_setup
    fitted = {}
    for seed in SEEDS:
        fitted["revise", seed] = ReviseExplainer(
            bundle.encoder, blackbox, seed=seed, vae_epochs=3).fit(x_train, y_train)
        fitted["cem", seed] = CEMExplainer(
            bundle.encoder, blackbox, seed=seed).fit(x_train, y_train)
    return fitted


def _rows(adult_setup, n, seed):
    bundle, _, _, _, _ = adult_setup
    x_test, _ = bundle.split("test")
    rng = np.random.default_rng(100 + seed)
    index = rng.choice(len(x_test), size=n, replace=False)
    return x_test[index], rng.integers(0, 2, size=n)


def _assert_propose_matches_reference(explainer, x, desired):
    proposed = explainer.propose(x, desired).candidates[:, 0, :]
    resolved = resolve_desired(explainer.blackbox, x, desired)
    reference = REFERENCES[explainer.name](explainer, x, resolved)
    assert np.array_equal(proposed, reference), (
        f"{explainer.name}: max |diff| {np.abs(proposed - reference).max()}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("method", sorted(REFERENCES))
def test_propose_bit_identical_to_autograd(adult_setup, explainers, method, n, seed):
    x, desired = _rows(adult_setup, n, seed)
    _assert_propose_matches_reference(explainers[method, seed], x, desired)


@pytest.mark.parametrize("method", sorted(REFERENCES))
def test_flipped_desired_bit_identical_to_autograd(adult_setup, explainers, method):
    x, _ = _rows(adult_setup, 32, 0)
    _assert_propose_matches_reference(explainers[method, 0], x, None)


@pytest.mark.parametrize("method", sorted(REFERENCES))
def test_zero_steps_bit_identical_to_autograd(adult_setup, explainers, method):
    x, desired = _rows(adult_setup, 7, 1)
    explainer = explainers[method, 1]
    steps = explainer.steps
    explainer.steps = 0
    try:
        _assert_propose_matches_reference(explainer, x, desired)
    finally:
        explainer.steps = steps


@pytest.mark.parametrize("method", sorted(REFERENCES))
def test_propose_leaves_model_parameters_untouched(adult_setup, explainers, method):
    x, desired = _rows(adult_setup, 7, 0)
    explainer = explainers[method, 0]
    models = [explainer.blackbox] + ([explainer.vae] if method == "revise" else [])
    parameters = [tensor for model in models
                  for _, tensor in model.named_parameters(include_frozen=True)]
    before = [(tensor.requires_grad, tensor.grad) for tensor in parameters]
    explainer.propose(x, desired)
    after = [(tensor.requires_grad, tensor.grad) for tensor in parameters]
    assert all(flag == flag_after and grad is grad_after
               for (flag, grad), (flag_after, grad_after) in zip(before, after))
