"""Property tests for the exact k-NN path of ``KnnDensity.score``.

The exact backend scores through a blocked GEMM shortlist, an exact
recompute in the kd-tree's summation order and a certificate that sends
any row it cannot vouch for to the ``cKDTree``.  The contract is
bit-parity with a direct tree query, so every comparison here is
``np.array_equal`` against ``cKDTree(reference).query(q, k)[0]``:

* widths d = 1..40 (tail-only, multiples of 4 and mixed), k = 1,
  k >= n_reference, one reference row and one-row queries;
* duplicated and binary-tied references, and large common offsets whose
  GEMM keys cancel catastrophically (the certificate must catch them);
* any block size, ``score`` and ``score_tiled`` alike.

Exactness alone would also pass if the certificate sent every row to
the tree, so a guard pins the fallback rate on an adult-like one-hot +
numeric reference, and a refit test pins that the cached GEMM operands
never outlive the reference they were built from.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.density import KnnDensity, LatentDensity
from repro.density import estimators

KINDS = ("normal", "binary", "grid", "duplicates", "offset")


def tree_scores(reference, points, k):
    """The historical score: mean distance of a direct ``cKDTree`` query."""
    k = min(k, len(reference))
    distances, _ = cKDTree(reference).query(points, k=k)
    return distances if k == 1 else distances.mean(axis=1)


def draw_rows(rng, kind, n, d):
    if kind == "binary":
        return rng.integers(0, 2, (n, d)).astype(np.float64)
    if kind == "grid":
        return rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, d))
    return rng.normal(size=(n, d))


@st.composite
def problems(draw):
    """``(reference, queries, k)`` for one random exact-kNN problem."""
    kind = draw(st.sampled_from(KINDS))
    n_reference = draw(st.integers(1, 80))
    d = draw(st.integers(1, 40))
    k = draw(st.integers(1, n_reference + 3))
    n_queries = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = draw_rows(rng, kind, n_reference, d)
    queries = draw_rows(rng, kind, n_queries, d)
    if kind == "duplicates":
        reference = reference[rng.integers(0, max(1, n_reference // 4), n_reference)]
        queries[: n_queries // 2] = reference[rng.integers(0, n_reference, n_queries // 2)]
    if kind == "offset":
        reference += 1e6
        queries += 1e6
    return reference, queries, k


class CountingTree:
    """Stands in for the estimator's private tree and counts fallback rows."""

    def __init__(self, reference):
        self.tree = cKDTree(reference)
        self.rows = 0

    def query(self, points, k):
        self.rows += len(points)
        return self.tree.query(points, k=k)


def adult_like(rng, n):
    """Five numeric columns plus four one-hot blocks: 29 encoded columns."""
    blocks = [rng.uniform(0.0, 1.0, (n, 5))]
    for width in (8, 7, 6, 3):
        one_hot = np.zeros((n, width))
        one_hot[np.arange(n), rng.integers(0, width, n)] = 1.0
        blocks.append(one_hot)
    return np.hstack(blocks)


class TestExactParity:
    @settings(max_examples=300, deadline=None)
    @given(problems(), st.sampled_from([1, 7, 100, None]))
    def test_score_equals_tree(self, problem, budget):
        reference, queries, k = problem
        budget = budget or estimators._SHORTLIST_BLOCK_ELEMENTS
        with mock.patch.object(estimators, "_SHORTLIST_BLOCK_ELEMENTS", budget):
            scores = KnnDensity(k_neighbors=k).fit(reference).score(queries)
        assert np.array_equal(scores, tree_scores(reference, queries, k))

    @settings(max_examples=100, deadline=None)
    @given(problems(), st.integers(1, 4))
    def test_score_tiled_equals_tree(self, problem, m):
        reference, queries, k = problem
        n = len(queries) // m
        if n == 0:
            return
        sweep = queries[: n * m].reshape(n, m, -1)
        model = KnnDensity(k_neighbors=k).fit(reference)
        expected = tree_scores(reference, sweep.reshape(n * m, -1), k).reshape(n, m)
        assert np.array_equal(model.score_tiled(sweep), expected)
        assert np.array_equal(model.score_tiled_loop(sweep), expected)

    def test_widths_around_the_unrolled_groups(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 4, 5, 7, 8, 9, 28, 29, 31, 32, 40):
            reference = rng.normal(size=(300, d))
            queries = rng.normal(size=(50, d))
            model = KnnDensity(k_neighbors=10).fit(reference)
            assert np.array_equal(model.score(queries), tree_scores(reference, queries, 10)), d

    def test_one_reference_row_and_one_query(self):
        reference = np.array([[0.5, -1.0, 2.0]])
        query = np.array([[0.1, 0.2, 0.3]])
        for k in (1, 5):
            model = KnnDensity(k_neighbors=k).fit(reference)
            assert np.array_equal(model.score(query), tree_scores(reference, query, k))

    def test_latent_density_inherits_the_path(self):
        rng = np.random.default_rng(4)
        weights = rng.normal(size=(6, 3))

        class StubVAE:
            def encode_array(self, x, labels):
                mu = np.asarray(x) @ weights + np.asarray(labels)[:, None]
                return mu, np.zeros_like(mu)

        reference = rng.normal(size=(200, 6))
        queries = rng.normal(size=(40, 6))
        model = LatentDensity(vae=StubVAE(), k_neighbors=7).fit(reference)
        encoded_reference = reference @ weights + 1.0
        encoded_queries = queries @ weights + 1.0
        assert np.array_equal(
            model.score(queries), tree_scores(encoded_reference, encoded_queries, 7))


class TestCertificate:
    def test_fallback_rate_on_adult_like_reference(self):
        rng = np.random.default_rng(5)
        reference = adult_like(rng, 1500)
        # CF-VAE candidates are continuous decodes near encoded rows
        queries = adult_like(rng, 2000) + rng.normal(0.0, 0.1, (2000, 29))
        model = KnnDensity(k_neighbors=10).fit(reference)
        model._tree = counting = CountingTree(reference)
        scores = model.score(queries)
        assert np.array_equal(scores, tree_scores(reference, queries, 10))
        assert counting.rows < 0.01 * len(queries), counting.rows

    def test_uncertified_rows_go_to_the_tree(self):
        # 40 copies of one row tie the k-th distance with the excluded key
        rng = np.random.default_rng(6)
        reference = np.vstack([np.zeros((40, 4)), rng.normal(size=(20, 4))])
        queries = np.vstack([np.zeros((3, 4)), rng.normal(size=(5, 4))])
        model = KnnDensity(k_neighbors=10).fit(reference)
        model._tree = counting = CountingTree(reference)
        assert np.array_equal(model.score(queries), tree_scores(reference, queries, 10))
        assert counting.rows >= 3

    def test_cancelling_keys_fall_back(self):
        rng = np.random.default_rng(7)
        reference = rng.normal(size=(200, 6)) + 1e8
        queries = rng.normal(size=(30, 6)) + 1e8
        model = KnnDensity(k_neighbors=5).fit(reference)
        model._tree = counting = CountingTree(reference)
        assert np.array_equal(model.score(queries), tree_scores(reference, queries, 5))
        assert counting.rows == len(queries)

    def test_references_above_the_cut_over_use_the_tree(self):
        rng = np.random.default_rng(10)
        reference = rng.normal(size=(120, 5))
        queries = rng.normal(size=(30, 5))
        model = KnnDensity(k_neighbors=4).fit(reference)
        model._tree = counting = CountingTree(reference)
        with mock.patch.object(estimators, "_SHORTLIST_MAX_REFERENCE", 119):
            assert np.array_equal(model.score(queries), tree_scores(reference, queries, 4))
        assert counting.rows == len(queries)
        assert model._gemm is None


class TestCachedOperands:
    def test_refit_scores_like_a_fresh_fit(self):
        rng = np.random.default_rng(8)
        reference_a = rng.normal(size=(300, 7))
        reference_b = rng.normal(size=(250, 7)) * 3.0 + 1.0
        queries = rng.normal(size=(64, 7))
        refit = KnnDensity(k_neighbors=6).fit(reference_a)
        refit.score(queries)
        refit.query(queries, 3)
        refit.fit(reference_b)
        fresh = KnnDensity(k_neighbors=6).fit(reference_b)
        assert np.array_equal(refit.score(queries), fresh.score(queries))
        assert np.array_equal(refit.score(queries), tree_scores(reference_b, queries, 6))
        assert np.array_equal(refit.query(queries, 3)[1], fresh.query(queries, 3)[1])

    def test_scoring_leaves_state_and_fingerprint_alone(self):
        rng = np.random.default_rng(9)
        model = KnnDensity(k_neighbors=4).fit(rng.normal(size=(100, 5)))
        state, fingerprint = model.get_state(), model.fingerprint()
        model.score(rng.normal(size=(20, 5)))
        assert model.get_state().keys() == state.keys()
        assert model.fingerprint() == fingerprint
