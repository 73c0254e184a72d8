"""Six-part in-objective training: black-box hygiene, parity and wiring.

Covers the training-loop regressions fixed earlier (the permanent
blackbox freeze, the duplicated delta subtraction, the scalar ``desired``
crash, zero-row fits, re-fit history clobbering), the invariant that a
fit never touches the shared black box, plus the six-part contract: with
both in-loss weights at zero, training and generation are bit-identical
to the four-part path — even with surrogates attached.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.causal import ScmLossSurrogate, fit_causal
from repro.constraints import (
    ConstraintSet,
    ImmutableProjector,
    MonotonicIncreaseConstraint,
)
from repro.core import (
    CFTrainingConfig,
    CFVAEGenerator,
    FourPartLoss,
    fast_config,
    inloss_config,
)
from repro.data import load_dataset
from repro.density import DifferentiableKde
from repro.models import BlackBoxClassifier, ConditionalVAE, train_classifier
from repro.nn import Tensor
from repro.utils.validation import resolve_desired
from tests.helpers.parity import assert_bit_identical
from tests.helpers.training import sparsity_penalty


@pytest.fixture(scope="module")
def pieces():
    bundle = load_dataset("adult", n_instances=300, seed=0)
    x, y = bundle.split("train")
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=5, rng=np.random.default_rng(0))
    constraints = ConstraintSet([MonotonicIncreaseConstraint(bundle.encoder, "age")])
    return bundle, x, y, blackbox, constraints


def make_generator(bundle, x, y, config=None, attach_surrogates=False):
    """A fully deterministic generator; every rng is freshly seeded."""
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=5, rng=np.random.default_rng(0))
    constraints = ConstraintSet([MonotonicIncreaseConstraint(bundle.encoder, "age")])
    vae = ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3))
    config = config or replace(fast_config(epochs=2), warmstart_epochs=2)
    generator = CFVAEGenerator(
        vae, blackbox, constraints, ImmutableProjector(bundle.encoder),
        config, rng=np.random.default_rng(4))
    if attach_surrogates:
        generator.inloss_density = DifferentiableKde(max_reference=64).fit(x)
        generator.inloss_causal = ScmLossSurrogate(
            fit_causal("scm", bundle.encoder, x, y))
    return generator


class TestFreezeLifecycle:
    def test_blackbox_untouched_by_fit(self, pieces):
        # the fit differentiates through the shared black box graph-free:
        # its requires_grad flags and .grad stay as they were, before,
        # during (checked on every batch) and after the fit
        bundle, x, y, _, _ = pieces
        generator = make_generator(bundle, x, y)
        blackbox = generator.blackbox
        parameters = [p for _, p in blackbox.named_parameters(include_frozen=True)]
        parameters[0].requires_grad = False  # a caller's own flag survives too
        expected = [(p.requires_grad, p.grad) for p in parameters]
        seen = []
        logits_vjp = blackbox.logits_vjp

        def recording_logits_vjp(x_cf):
            seen.append([(p.requires_grad, p.grad) for p in parameters])
            return logits_vjp(x_cf)

        blackbox.logits_vjp = recording_logits_vjp
        generator.fit(x[:120])
        assert len(seen) == generator.config.epochs * 8
        for state in seen + [[(p.requires_grad, p.grad) for p in parameters]]:
            assert state == expected

    def test_blackbox_retrainable_after_fit(self, pieces):
        # the historical bug: FourPartLoss froze the classifier forever,
        # so a serving rollover's train_classifier() raised
        # "optimizer received no parameters"
        bundle, x, y, _, _ = pieces
        generator = make_generator(bundle, x, y)
        generator.fit(x[:120])
        assert list(generator.blackbox.parameters())
        train_classifier(generator.blackbox, x, y, epochs=1,
                         rng=np.random.default_rng(1))  # must not raise

    def test_from_trained_releases(self, pieces):
        bundle, x, y, _, _ = pieces
        trained = make_generator(bundle, x, y)
        trained.fit(x[:120])
        warm = CFVAEGenerator.from_trained(
            trained.vae, trained.blackbox, trained.constraints,
            trained.projector, trained.config)
        assert list(warm.blackbox.parameters())


class TestDifferenceReuse:
    def test_parts_match_two_subtraction_reference(self, pieces):
        # the fixed duplication: proximity and sparsity built
        # ``x_cf - Tensor(x)`` independently; the shared delta must be
        # bit-identical to recomputing it per term on the tape
        _, x, _, blackbox, constraints = pieces
        cfg = CFTrainingConfig()
        loss_fn = FourPartLoss(blackbox, constraints, cfg)
        rng = np.random.default_rng(5)
        x_cf = np.clip(x + rng.normal(0.0, 0.05, size=x.shape), 0.0, 1.0)
        desired = 1 - blackbox.predict(x)
        _, parts, _ = loss_fn(x, x_cf.copy(), desired)

        proximity = (Tensor(x_cf) - Tensor(x)).abs().sum(axis=1).mean()
        sparsity = sparsity_penalty(
            Tensor(x_cf) - Tensor(x), cfg.sparsity_l1_weight,
            cfg.sparsity_l0_weight, cfg.sparsity_l0_tau)
        assert parts["proximity"] == proximity.item()
        assert parts["sparsity"] == sparsity.item()


class TestDesiredClasses:
    @pytest.fixture(scope="class")
    def generator(self, pieces):
        bundle, x, y, _, _ = pieces
        return make_generator(bundle, x, y).fit(x[:120])

    def test_scalar_broadcasts(self, pieces, generator):
        _, x, _, _, _ = pieces
        desired = resolve_desired(generator.blackbox, x[:7], 1)
        assert desired.tolist() == [1] * 7
        assert resolve_desired(generator.blackbox, x[:3], np.int64(0)).tolist() == [0, 0, 0]

    def test_generate_accepts_scalar_desired(self, pieces, generator):
        # the historical crash: len() of unsized object on a scalar
        _, x, _, _, _ = pieces
        out = generator.generate(x[:5], desired=0)
        assert out.shape == x[:5].shape

    def test_matrix_desired_rejected(self, pieces, generator):
        _, x, _, _, _ = pieces
        with pytest.raises(ValueError, match="scalar or 1-D"):
            generator.generate(x[:4], desired=np.zeros((4, 1)))

    def test_length_mismatch_rejected(self, pieces, generator):
        _, x, _, _, _ = pieces
        with pytest.raises(ValueError, match="row counts differ"):
            generator.generate(x[:4], desired=np.zeros(3))

    def test_none_flips_blackbox_prediction(self, pieces, generator):
        _, x, _, _, _ = pieces
        desired = resolve_desired(generator.blackbox, x[:10], None)
        assert desired.tolist() == (
            1 - generator.blackbox.predict(x[:10])).tolist()


class TestFitGuards:
    def test_zero_row_fit_rejected(self, pieces):
        bundle, x, y, _, _ = pieces
        generator = make_generator(bundle, x, y)
        with pytest.raises(ValueError, match="non-empty"):
            generator.fit(x[:0])

    def test_refit_segments_history(self, pieces):
        bundle, x, y, _, _ = pieces
        generator = make_generator(bundle, x, y)
        generator.fit(x[:120])
        first = list(generator.history)
        generator.fit(x[:120])
        assert generator.history_segments == [first]
        assert len(generator.history) == generator.config.epochs
        assert generator.history is not first

    def test_causal_weight_without_surrogate_rejected(self, pieces):
        bundle, x, y, _, _ = pieces
        config = inloss_config(
            replace(fast_config(epochs=1), warmstart_epochs=1),
            density_weight=0.0)
        generator = make_generator(bundle, x, y, config=config)
        with pytest.raises(RuntimeError, match="prepare_inloss"):
            generator.fit(x[:64])


class TestSixPartTraining:
    def test_history_reports_density_and_causal(self, pieces):
        bundle, x, y, _, _ = pieces
        config = inloss_config(replace(fast_config(epochs=1), warmstart_epochs=1))
        generator = make_generator(bundle, x, y, config=config)
        desired_class = int(bundle.encoder.schema.desired_class)
        generator.prepare_inloss(
            reference=x[np.asarray(y) == desired_class],
            causal=fit_causal("scm", bundle.encoder, x, y),
            desired_class=desired_class)
        generator.fit(x[:120])
        assert {"density", "causal"} <= set(generator.history[0])

    def test_standalone_density_fallback_fits_on_x(self, pieces):
        bundle, x, y, _, _ = pieces
        config = inloss_config(
            replace(fast_config(epochs=1), warmstart_epochs=1),
            causal_weight=0.0)
        generator = make_generator(bundle, x, y, config=config)
        generator.fit(x[:120])
        assert generator.inloss_density is not None
        assert generator.inloss_density.n_reference > 0
        assert "density" in generator.history[0]


class TestZeroWeightParity:
    def test_loss_is_bit_identical_with_surrogates_attached(self, pieces):
        bundle, x, y, blackbox, constraints = pieces
        cfg = CFTrainingConfig()  # both in-loss weights default to 0
        plain = FourPartLoss(blackbox, constraints, cfg)
        loaded = FourPartLoss(
            blackbox, constraints, cfg,
            density_model=DifferentiableKde(max_reference=64).fit(x),
            causal_model=ScmLossSurrogate(fit_causal("scm", bundle.encoder, x, y)))
        desired = 1 - blackbox.predict(x)
        rng = np.random.default_rng(6)
        x_cf = np.clip(x + rng.normal(0.0, 0.05, size=x.shape), 0.0, 1.0)
        total_a, parts_a, pullback_a = plain(x, x_cf.copy(), desired)
        total_b, parts_b, pullback_b = loaded(x, x_cf.copy(), desired)
        assert total_a == total_b
        assert_bit_identical(parts_a, parts_b, context="zero-weight loss parts")
        np.testing.assert_array_equal(pullback_a()[0], pullback_b()[0])

    def test_training_is_bit_identical_with_surrogates_attached(self, pieces):
        # the acceptance contract: weights at zero => the six-part path
        # trains and generates exactly like the four-part one
        bundle, x, y, _, _ = pieces
        four = make_generator(bundle, x, y)
        six = make_generator(bundle, x, y, attach_surrogates=True)
        four.fit(x[:120])
        six.fit(x[:120])
        assert_bit_identical(six.history, four.history,
                             context="zero-weight training history")
        np.testing.assert_array_equal(six.generate(x[120:160]),
                                      four.generate(x[120:160]))


class TestFingerprints:
    def test_pipeline_fingerprint_tracks_inloss_config(self, pieces):
        from repro.serve.pipeline import pipeline_fingerprint

        bundle, _, _, _, _ = pieces
        base = fast_config(epochs=2)

        def fingerprint(config):
            return pipeline_fingerprint(
                dataset="adult", n_instances=300, seed=0,
                constraint_kind="unary", config=config,
                schema=bundle.encoder.schema, blackbox_epochs=5)

        assert fingerprint(base) != fingerprint(inloss_config(base))
        assert fingerprint(inloss_config(base)) != fingerprint(
            inloss_config(base, density_weight=0.5))
        assert fingerprint(base) == fingerprint(fast_config(epochs=2))
