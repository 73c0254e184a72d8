"""Tests for the Figure 3 candidate sweep and density-aware selection.

The sweep is a multi-candidate :class:`repro.engine.CoreCFStrategy` run
through :class:`repro.engine.EngineRunner`; density-aware selection is
the same run with a fitted density model hosted on the runner.
"""

import numpy as np
import pytest

from repro.core import FeasibleCFExplainer, fast_config
from repro.data import load_dataset
from repro.density import KnnDensity
from repro.engine import CoreCFStrategy, EngineRunner
from repro.engine.runner import _select_candidates_density
from tests.helpers.serving import run_sweep


@pytest.fixture(scope="module")
def fitted():
    bundle = load_dataset("adult", n_instances=2500, seed=0)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=10), seed=0)
    explainer.fit(x_train, y_train)
    x_test, _ = bundle.split("test")
    negatives = x_test[explainer.blackbox.predict(x_test) == 0][:15]
    return bundle, explainer, x_train, negatives


def fit_reference(explainer, x_reference, k_neighbors):
    """The feasible reference population recipe of ``docs/density.md``."""
    result = explainer.explain(x_reference)
    return KnnDensity(k_neighbors=k_neighbors).fit(
        result.x_cf[result.valid & result.feasible])


def density_runner(explainer, density, density_weight=1.0):
    return EngineRunner(explainer.encoder, explainer.blackbox, density=density,
                        density_weight=density_weight)


class TestGenerateCandidates:
    """Candidate generation: the multi-candidate sweep's shape and content."""

    def test_requires_fitted_explainer(self, fitted):
        bundle, _, _, negatives = fitted
        unfitted = FeasibleCFExplainer(bundle.encoder, seed=0)
        runner = EngineRunner(bundle.encoder, unfitted.blackbox)
        with pytest.raises(RuntimeError, match="not fitted"):
            runner.run(CoreCFStrategy(unfitted, n_candidates=4), negatives)

    def test_candidate_count_and_shape(self, fitted):
        _, explainer, _, negatives = fitted
        diagnostics = run_sweep(explainer, negatives, 8)
        assert diagnostics["n_candidates"] == 8
        assert diagnostics["candidates"].shape == (len(negatives), 8, negatives.shape[1])
        assert diagnostics["valid"].shape == (len(negatives), 8)
        assert diagnostics["feasible"].shape == (len(negatives), 8)
        np.testing.assert_array_equal(
            diagnostics["n_usable"], (diagnostics["valid"] & diagnostics["feasible"]).sum(axis=1))

    def test_first_candidate_is_deterministic(self, fitted):
        _, explainer, _, negatives = fitted
        diagnostics = run_sweep(explainer, negatives[:3], 5)
        deterministic = explainer.explain(negatives[:3]).x_cf
        np.testing.assert_allclose(diagnostics["candidates"][:, 0], deterministic, atol=1e-9)

    def test_candidates_are_diverse(self, fitted):
        _, explainer, _, negatives = fitted
        diagnostics = run_sweep(explainer, negatives[:2], 10, noise_scale=0.3)
        for candidates in diagnostics["candidates"]:
            assert candidates.std(axis=0).max() > 1e-4

    def test_immutables_projected_in_candidates(self, fitted):
        bundle, explainer, _, negatives = fitted
        x = negatives[:2]
        diagnostics = run_sweep(explainer, x, 6)
        mask = bundle.encoder.immutable_mask()
        np.testing.assert_array_equal(
            diagnostics["candidates"][:, :, mask],
            np.broadcast_to(x[:, None, mask], (2, 6, mask.sum())))

    def test_rejects_bad_count(self, fitted):
        _, explainer, _, _ = fitted
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_candidates must be >= 1"):
                CoreCFStrategy(explainer, n_candidates=bad)


class TestDensityCFSelector:
    """Density-aware counterfactual selection over the sweep."""

    def test_requires_reference(self, fitted):
        _, explainer, _, negatives = fitted
        runner = density_runner(explainer, KnnDensity())
        with pytest.raises(RuntimeError, match="not fitted"):
            runner.run(CoreCFStrategy(explainer, n_candidates=4), negatives)

    def test_fit_reference_builds_population(self, fitted):
        _, explainer, x_train, _ = fitted
        assert fit_reference(explainer, x_train[:300], 5).n_reference >= 5

    def test_fit_reference_shrinks_tiny_population(self, fitted):
        _, explainer, x_train, negatives = fitted
        density = fit_reference(explainer, x_train[:100], 10_000)
        # k is clamped to the population at query time
        assert 0 < density.n_reference < 10_000
        assert density.score(x_train[:5]).shape == (5,)
        # and selection runs end to end on the tiny population
        result = density_runner(explainer, density).run(
            CoreCFStrategy(explainer, n_candidates=4), negatives[:3])
        assert result.x_cf.shape == (3, negatives.shape[1])

    def test_density_score_orders_by_closeness(self, fitted):
        _, explainer, x_train, _ = fitted
        density = fit_reference(explainer, x_train[:300], 5)
        reference_point = density.reference_[0]
        scores = density.score(np.vstack([reference_point, reference_point + 5.0]))
        assert scores[0] < scores[1]

    def test_select_prefers_usable(self, fitted):
        d = fitted[1].encoder.n_encoded
        x = np.full((1, d), 0.5)
        candidates = np.stack([x + 0.01, x + 0.02, x + 0.03], axis=1)
        chosen = _select_candidates_density(
            x, candidates, np.array([[False, True, True]]),
            np.array([[False, False, True]]), np.array([[0.0, 1.0, 2.0]]), 1.0)
        assert chosen[0] == 2  # the only valid & feasible one

    def test_select_falls_back_to_valid(self, fitted):
        d = fitted[1].encoder.n_encoded
        x = np.full((1, d), 0.5)
        candidates = np.stack([x + 0.01, x + 0.5], axis=1)
        chosen = _select_candidates_density(
            x, candidates, np.array([[False, True]]), np.array([[False, False]]),
            np.array([[0.0, 1.0]]), 1.0)
        assert chosen[0] == 1

    def test_explain_batch(self, fitted):
        _, explainer, x_train, negatives = fitted
        runner = density_runner(explainer, fit_reference(explainer, x_train[:300], 5))
        result, diagnostics = runner.run(
            CoreCFStrategy(explainer, n_candidates=8), negatives[:5], return_diagnostics=True)
        assert result.x_cf.shape == (5, negatives.shape[1])
        assert ((0 <= diagnostics["chosen"]) & (diagnostics["chosen"] < 8)).all()
        assert (diagnostics["n_usable"] <= diagnostics["valid"].sum(axis=1)).all()

    def test_density_weight_changes_choice_pressure(self, fitted):
        _, explainer, x_train, negatives = fitted
        density = fit_reference(explainer, x_train[:300], 5)
        picks = {}
        for weight in (1e-6, 100.0):
            strategy = CoreCFStrategy(explainer, n_candidates=12)
            picks[weight] = density_runner(explainer, density, weight).run(
                strategy, negatives[:8]).x_cf
        # the dense selector's picks sit in (weakly) denser regions
        assert (density.score(picks[100.0]).mean()
                <= density.score(picks[1e-6]).mean() + 1e-9)
