"""Service answers pinned to references built from the pipeline's parts.

``ExplanationService`` answers ``explain_batch`` and ``flush`` through
one :meth:`repro.engine.EngineRunner.run` call.  These tests rebuild
each answer without the runner and require bit-identical outputs:

* ``explain_batch`` on the core path equals ``generator.generate`` plus
  one fresh black-box predict and one compiled-kernel feasibility pass;
* ``flush`` on the core path equals ``generate_candidates`` with the
  closest-L1 valid & feasible pick (:func:`tests.helpers.serving.pick_candidate`);
* a causal-only service (one candidate per row) equals the same
  one-shot decode, causally repaired;
* a density service (``density_candidates`` per row) equals the same
  ``generate_candidates`` sweep ranked by :class:`DensityCFSelector`.
"""

import numpy as np
import pytest

from repro.causal import ScmCausalModel
from repro.core import generate_candidates
from repro.core.selection import DensityCFSelector
from repro.density import KnnDensity
from repro.serve import ExplanationService
from tests.helpers.serving import pick_candidate

N_ROWS = 37
DENSITY_CANDIDATES = 6


@pytest.fixture(scope="module")
def rows(tiny_pipeline):
    x_test, _ = tiny_pipeline.bundle.split("test")
    return x_test[:N_ROWS]


@pytest.fixture(scope="module")
def density(tiny_pipeline):
    x_train, y_train = tiny_pipeline.bundle.split("train")
    desired_class = int(tiny_pipeline.bundle.schema.desired_class)
    return KnnDensity(k_neighbors=5).fit(x_train[y_train == desired_class][:150])


def flip(explainer, rows):
    return 1 - explainer.blackbox.predict(rows)


def one_shot(explainer, rows, desired, causal=None):
    """``generator.generate`` (+ causal repair) + predict + feasibility."""
    x_cf = explainer.generator.generate(rows, desired)
    if causal is not None:
        x_cf = causal.repair_batch(rows, x_cf[:, None, :])[:, 0]
    predicted = explainer.blackbox.predict(x_cf)
    feasible = explainer.compiled_constraints.satisfied(rows, x_cf)
    return x_cf, predicted, feasible


def flush_all(service, rows, **flush_kwargs):
    tickets = [service.submit(row) for row in rows]
    service.flush(**flush_kwargs)
    return [ticket.result() for ticket in tickets]


def assert_batch_equals(result, x_cf, predicted, feasible):
    np.testing.assert_array_equal(result.x_cf, x_cf)
    np.testing.assert_array_equal(result.predicted, predicted)
    np.testing.assert_array_equal(result.feasible, feasible)


class TestCoreService:
    def test_explain_batch_equals_one_shot_generate(self, tiny_pipeline, rows):
        service = ExplanationService(tiny_pipeline, cache_size=0)
        explainer = service.explainer
        desired = flip(explainer, rows)
        assert_batch_equals(service.explain_batch(rows),
                            *one_shot(explainer, rows, desired))

    @pytest.mark.parametrize("n_tickets", [1, 3, N_ROWS])
    def test_flush_equals_candidate_sweep_and_closest_pick(self, tiny_pipeline,
                                                           rows, n_tickets):
        service = ExplanationService(tiny_pipeline, cache_size=0)
        explainer = service.explainer
        batch = rows[:n_tickets]
        answers = flush_all(service, batch, n_candidates=8,
                            rng=np.random.default_rng(5))
        candidate_sets = generate_candidates(
            explainer, batch, n_candidates=8, desired=flip(explainer, batch),
            rng=np.random.default_rng(5))
        for answer, candidate_set in zip(answers, candidate_sets):
            index = pick_candidate(candidate_set)
            np.testing.assert_array_equal(answer["x_cf"], candidate_set.candidates[index])
            assert answer["chosen"] == index
            assert answer["valid"] == bool(candidate_set.valid[index])
            assert answer["feasible"] == bool(candidate_set.feasible[index])
            assert answer["n_usable"] == int(candidate_set.usable_mask.sum())

    def test_flush_default_rng_matches_default_sweep(self, tiny_pipeline, rows):
        service = ExplanationService(tiny_pipeline, cache_size=0)
        batch = rows[:5]
        answers = flush_all(service, batch)
        candidate_sets = generate_candidates(
            service.explainer, batch, n_candidates=8,
            desired=flip(service.explainer, batch))
        for answer, candidate_set in zip(answers, candidate_sets):
            assert answer["chosen"] == pick_candidate(candidate_set)


class TestCausalOnlyService:
    def test_explain_batch_and_flush_equal_repaired_one_shot(self, tiny_pipeline, rows):
        causal = ScmCausalModel(tiny_pipeline.encoder)
        service = ExplanationService(tiny_pipeline, cache_size=0, causal=causal)
        explainer = service.explainer
        desired = flip(explainer, rows)
        x_cf, predicted, feasible = one_shot(explainer, rows, desired, causal=causal)
        assert_batch_equals(service.explain_batch(rows), x_cf, predicted, feasible)

        answers = flush_all(service, rows)
        for i, answer in enumerate(answers):
            np.testing.assert_array_equal(answer["x_cf"], x_cf[i])
            assert answer["predicted"] == predicted[i]
            assert answer["feasible"] == feasible[i]
            assert answer["chosen"] == 0
            assert answer["n_usable"] == int(
                (predicted[i] == desired[i]) and feasible[i])


class TestDensityService:
    def test_explain_batch_and_flush_equal_density_ranked_sweep(self, tiny_pipeline,
                                                                rows, density):
        service = ExplanationService(
            tiny_pipeline, cache_size=0, density=density,
            density_candidates=DENSITY_CANDIDATES)
        explainer = service.explainer
        desired = flip(explainer, rows)
        candidate_sets = generate_candidates(
            explainer, rows, n_candidates=DENSITY_CANDIDATES, desired=desired)
        selector = DensityCFSelector(explainer, density_weight=1.0, density_model=density)
        x_cf, diagnostics = selector.select_batch(candidate_sets)
        chosen = [d["chosen"] for d in diagnostics]
        feasible = [cs.feasible[c] for cs, c in zip(candidate_sets, chosen)]
        predicted = explainer.blackbox.predict(x_cf)
        assert_batch_equals(service.explain_batch(rows), x_cf, predicted, feasible)

        answers = flush_all(service, rows)
        for i, answer in enumerate(answers):
            np.testing.assert_array_equal(answer["x_cf"], x_cf[i])
            assert answer["chosen"] == chosen[i]
            assert answer["feasible"] == feasible[i]
            assert answer["n_usable"] == diagnostics[i]["n_usable"]
