"""Density-aware Figure 3 selection: parity, single score pass, reference.

Selection is :class:`repro.engine.EngineRunner` hosting a density model
over a :class:`repro.engine.CoreCFStrategy` sweep; the reference
population is the valid & feasible part of the explainer's one-shot
output.  The runner's pick is pinned to the independent per-row
reference :func:`tests.helpers.serving.density_pick` on every registry
dataset, for both the k-NN and the KDE estimator.
"""

import numpy as np
import pytest

from repro.core import FeasibleCFExplainer, fast_config
from repro.data import load_dataset
from repro.density import GaussianKdeDensity, KnnDensity
from repro.engine import CoreCFStrategy, EngineRunner
from repro.experiments.perfbench import _density_select_loop
from repro.utils.validation import SchemaMismatchError
from tests.helpers.parity import DATASETS
from tests.helpers.serving import density_pick, sweep_sets


def _fit_explainer(dataset, seed=0):
    bundle = load_dataset(dataset, n_instances=900, seed=seed)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=2), seed=seed)
    explainer.fit(x_train, y_train)
    x_test, _ = bundle.split("test")
    rows = x_test[:10]
    return explainer, x_train, rows


@pytest.fixture(scope="module", params=DATASETS)
def fitted(request):
    return _fit_explainer(request.param)


def fit_reference(explainer, x_reference, model):
    """Fit ``model`` on the valid & feasible counterfactuals of ``x_reference``."""
    result = explainer.explain(x_reference)
    return model.fit(result.x_cf[result.valid & result.feasible])


def density_run(explainer, rows, model, n_candidates, weight=1.0, seed=3):
    runner = EngineRunner(explainer.encoder, explainer.blackbox, density=model,
                          density_weight=weight)
    strategy = CoreCFStrategy(explainer, n_candidates=n_candidates,
                              rng=np.random.default_rng(seed))
    return runner.run(strategy, rows, return_diagnostics=True)


def assert_matches_per_row_pick(result, diagnostics, model, weight):
    sets = sweep_sets(result.x, diagnostics)
    chosen = np.array([density_pick(s, model, weight) for s in sets])
    np.testing.assert_array_equal(diagnostics["chosen"], chosen)
    np.testing.assert_array_equal(
        result.x_cf, np.stack([s.candidates[c] for s, c in zip(sets, chosen)]))
    np.testing.assert_array_equal(
        result.feasible, [s.feasible[c] for s, c in zip(sets, chosen)])
    np.testing.assert_array_equal(
        diagnostics["n_usable"], [s.usable_mask.sum() for s in sets])


class TestBatchLoopParity:
    """The runner's density pick must reproduce the per-row reference exactly."""

    def test_explain_bit_identical_to_loop(self, fitted):
        explainer, x_train, rows = fitted
        model = fit_reference(explainer, x_train[:150], KnnDensity(k_neighbors=6))
        result, diagnostics = density_run(explainer, rows, model, 7, weight=2.0)
        assert_matches_per_row_pick(result, diagnostics, model, 2.0)

    def test_kde_estimator_selects_equivalently(self, fitted):
        explainer, x_train, rows = fitted
        model = fit_reference(explainer, x_train[:150], GaussianKdeDensity())
        result, diagnostics = density_run(explainer, rows[:6], model, 5)
        assert_matches_per_row_pick(result, diagnostics, model, 1.0)


class _CountingKnn(KnnDensity):
    """KnnDensity that counts backend score passes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.score_calls = 0
        self.tiled_calls = 0

    def score(self, candidates):
        self.score_calls += 1
        return super().score(candidates)

    def score_tiled(self, candidates):
        self.tiled_calls += 1
        return super().score_tiled(candidates)


class TestSingleScorePass:
    def test_explain_scores_each_batch_once(self, fitted):
        explainer, x_train, rows = fitted
        model = fit_reference(explainer, x_train[:150], _CountingKnn(k_neighbors=6))
        density_run(explainer, rows, model, 6)
        # one tiled pass for the whole batch; score() only as its backend
        assert model.tiled_calls == 1
        assert model.score_calls == 1

    def test_loop_reference_scored_twice_per_row(self, fitted):
        # the historical per-row selector the perfbench density section
        # times the runner against scores every candidate set twice
        explainer, x_train, rows = fitted
        model = fit_reference(explainer, x_train[:150], _CountingKnn(k_neighbors=6))
        _, diagnostics = density_run(explainer, rows, model, 6)
        model.score_calls = 0
        chosen, _ = _density_select_loop(
            model, rows, diagnostics["candidates"], diagnostics["valid"],
            diagnostics["feasible"], 1.0)
        assert model.score_calls == 2 * len(rows)
        np.testing.assert_array_equal(chosen, diagnostics["chosen"])


class TestFitReferenceContract:
    def test_wrong_width_raises_schema_error(self, fitted):
        explainer, x_train, _ = fitted
        with pytest.raises(SchemaMismatchError):
            fit_reference(explainer, x_train[:50, :-1], KnnDensity())

    def test_zero_feasible_references_raise(self, fitted, monkeypatch):
        explainer, x_train, _ = fitted
        real = explainer.explain

        def no_feasible(x, desired=None):
            result = real(x, desired)
            result.feasible[:] = False
            return result

        monkeypatch.setattr(explainer, "explain", no_feasible)
        with pytest.raises(ValueError, match="non-empty"):
            fit_reference(explainer, x_train[:40], KnnDensity())

    def test_unfitted_explain_raises(self, fitted):
        explainer, _, rows = fitted
        with pytest.raises(RuntimeError, match="not fitted"):
            density_run(explainer, rows[:2], KnnDensity(), 3)
