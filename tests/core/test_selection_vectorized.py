"""The batched Figure 3 sweep must reproduce the per-row loop.

A multi-candidate :class:`repro.engine.CoreCFStrategy` run through
:class:`repro.engine.EngineRunner` decodes all ``n_rows * n_candidates``
latents in one batched pass with a single black-box validity call and a
single feasibility kernel pass.  These tests pin its sweep diagnostics
against :func:`tests.helpers.serving.generate_candidates_loop` — the
independent per-row reference — given identically seeded rngs: same
candidates (up to BLAS blocking, 1e-12), same valid/feasible flags.
"""

import numpy as np
import pytest

from repro.core import FeasibleCFExplainer, fast_config
from repro.data import load_dataset
from repro.engine import CoreCFStrategy
from tests.helpers.serving import generate_candidates_loop, run_sweep


@pytest.fixture(scope="module")
def fitted():
    bundle = load_dataset("adult", n_instances=1200, seed=3)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=4), seed=3)
    explainer.fit(x_train, y_train)
    x_test, _ = bundle.split("test")
    negatives = x_test[explainer.blackbox.predict(x_test) == 0][:9]
    return explainer, negatives


def _pair(explainer, x, n_candidates, noise_scale=None, desired=None, rng_seed=42):
    batched = run_sweep(explainer, x, n_candidates, desired, noise_scale=noise_scale,
                        rng=np.random.default_rng(rng_seed))
    looped = generate_candidates_loop(
        explainer, x, n_candidates=n_candidates, noise_scale=noise_scale,
        desired=desired, rng=np.random.default_rng(rng_seed))
    return batched, looped


def assert_candidates_match(batched, looped):
    assert len(batched["candidates"]) == len(looped)
    for candidates, loop_set in zip(batched["candidates"], looped):
        np.testing.assert_allclose(candidates, loop_set.candidates, rtol=0, atol=1e-12)


class TestVectorizedMatchesLoop:
    def test_candidates_identical(self, fitted):
        explainer, negatives = fitted
        batched, looped = _pair(explainer, negatives, n_candidates=12)
        assert len(looped) == len(negatives)
        for loop_set, row in zip(looped, negatives):
            np.testing.assert_array_equal(loop_set.x, row)
        assert_candidates_match(batched, looped)

    def test_valid_and_feasible_flags_identical(self, fitted):
        explainer, negatives = fitted
        batched, looped = _pair(explainer, negatives, n_candidates=12)
        np.testing.assert_array_equal(batched["valid"], np.stack([s.valid for s in looped]))
        np.testing.assert_array_equal(
            batched["feasible"], np.stack([s.feasible for s in looped]))
        np.testing.assert_array_equal(
            batched["n_usable"], [s.usable_mask.sum() for s in looped])

    def test_explicit_desired_and_noise(self, fitted):
        explainer, negatives = fitted
        desired = np.ones(len(negatives), dtype=int)
        batched, looped = _pair(explainer, negatives, n_candidates=7,
                                noise_scale=0.3, desired=desired)
        assert_candidates_match(batched, looped)
        np.testing.assert_array_equal(batched["valid"], np.stack([s.valid for s in looped]))

    def test_single_row(self, fitted):
        explainer, negatives = fitted
        batched, looped = _pair(explainer, negatives[:1], n_candidates=5)
        assert_candidates_match(batched, looped)

    def test_single_candidate(self, fitted):
        explainer, negatives = fitted
        batched, looped = _pair(explainer, negatives[:3], n_candidates=1)
        assert_candidates_match(batched, looped)

    def test_first_candidate_deterministic(self, fitted):
        explainer, negatives = fitted
        diagnostics = run_sweep(explainer, negatives[:4], 6, rng=np.random.default_rng(0))
        deterministic = explainer.explain(negatives[:4]).x_cf
        np.testing.assert_allclose(diagnostics["candidates"][:, 0], deterministic, atol=1e-9)

    def test_rng_stream_consumed_identically(self, fitted):
        """After proposing, the strategy's rng and the loop's are in the same state."""
        explainer, negatives = fitted
        rng_vec = np.random.default_rng(5)
        rng_loop = np.random.default_rng(5)
        CoreCFStrategy(explainer, n_candidates=4, rng=rng_vec).propose(negatives[:3])
        generate_candidates_loop(explainer, negatives[:3], n_candidates=4, rng=rng_loop)
        assert rng_vec.random() == rng_loop.random()
