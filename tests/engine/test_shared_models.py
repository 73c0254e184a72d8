"""Strategies never mutate the models they share or own.

Every Table IV strategy is fitted on, and may differentiate through,
the one trained black box the runner, the service and a rollover
retrain also use.  After ``fit`` plus two ``runner.run`` calls the black
box keeps its ``requires_grad`` flags and its weights, and it still
retrains; the strategy's own CF-VAE or VAE (where it has one) keeps its
trained weights and the shared encoder keeps its fitted state.
"""

import copy

import numpy as np
import pytest

from repro.core import fast_config
from repro.data import load_dataset
from repro.engine import STRATEGY_NAMES, EngineRunner, build_strategy
from repro.models import BlackBoxClassifier, train_classifier
from repro.serve import fingerprint_state

#: Cheap fitting recipes; strategies not listed fit on their defaults.
FAST_PARAMS = {
    "mahajan_unary": {"min_epochs": 2},
    "mahajan_binary": {"min_epochs": 2},
    "revise": {"vae_epochs": 2, "steps": 10},
    "cchvae": {"vae_epochs": 2, "n_candidates": 10, "max_radius": 1.0},
    "cem": {"steps": 10},
    "dice_random": {"max_attempts": 10},
}

#: Strategies that train their own CF-VAE or VAE.
VAE_METHODS = {"mahajan_unary", "mahajan_binary", "revise", "cchvae", "ours_unary", "ours_binary"}


@pytest.fixture(scope="module")
def data():
    bundle = load_dataset("adult", n_instances=800, seed=4)
    x_train, y_train = bundle.split("train")
    x_test, _ = bundle.split("test")
    return bundle, x_train, y_train, x_test[:12]


def _flags(module):
    return [tensor.requires_grad
            for _, tensor in module.named_parameters(include_frozen=True)]


def _own_vae(strategy):
    """The strategy's trained CF-VAE/VAE, or ``None`` when it has none."""
    owner = getattr(strategy, "explainer", strategy)
    generator = getattr(owner, "generator", None)
    return generator.vae if generator is not None else getattr(owner, "vae", None)


@pytest.mark.parametrize("method", STRATEGY_NAMES)
def test_strategy_leaves_shared_blackbox_untouched(data, method):
    bundle, x_train, y_train, rows = data
    blackbox = BlackBoxClassifier(
        bundle.encoder.n_encoded, np.random.default_rng(4))
    train_classifier(blackbox, x_train, y_train, epochs=3,
                     rng=np.random.default_rng(4))
    flags = _flags(blackbox)
    fingerprint = fingerprint_state(blackbox.state_dict())

    params = dict(FAST_PARAMS.get(method, {}))
    if method.startswith(("mahajan", "ours")):
        params["config"] = fast_config(epochs=1)
    strategy = build_strategy(
        method, bundle.encoder, blackbox, seed=4, **params)
    strategy.fit(x_train, y_train)
    vae = _own_vae(strategy)
    assert (vae is not None) == (method in VAE_METHODS)
    vae_fingerprint = None if vae is None else fingerprint_state(vae.state_dict())
    encoder_state = copy.deepcopy(bundle.encoder.get_state())
    runner = EngineRunner(bundle.encoder, blackbox)
    runner.run(strategy, rows)
    runner.run(strategy, rows)

    assert _flags(blackbox) == flags
    assert fingerprint_state(blackbox.state_dict()) == fingerprint
    if vae is not None:
        assert fingerprint_state(vae.state_dict()) == vae_fingerprint
    assert bundle.encoder.get_state() == encoder_state
    train_classifier(blackbox, x_train, y_train, epochs=1,
                     rng=np.random.default_rng(5))  # must not raise
    assert fingerprint_state(blackbox.state_dict()) != fingerprint
