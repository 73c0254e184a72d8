"""Property tests for the runner's per-row candidate selection.

Random ``(n, m, d)`` sweeps and random validity/feasibility masks pin the
Figure 3 selection contract independently of any trained model:

* closest-L1 selection returns the minimum-L1 valid & feasible candidate
  when one exists, else the minimum-L1 valid one, else candidate 0 (the
  deterministic decode), taking the first candidate on ties;
* density-aware selection always picks inside the first non-empty pool;
* immutable projection never changes an immutable column.

Candidate coordinates come from a four-value grid so distance ties are
common and the first-occurrence tie-break is exercised.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.constraints import ImmutableProjector
from repro.data import load_dataset
from repro.engine.runner import _select_candidates, _select_candidates_density
from tests.helpers.parity import DATASETS

GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0])
FINITE = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def sweeps(draw):
    """``(x, candidates, valid, feasible, robust)`` for one random batch."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    d = draw(st.integers(1, 4))
    x = draw(hnp.arrays(np.float64, (n, d), elements=GRID))
    candidates = draw(hnp.arrays(np.float64, (n, m, d), elements=GRID))
    valid = draw(hnp.arrays(np.bool_, (n, m)))
    feasible = draw(hnp.arrays(np.bool_, (n, m)))
    robust = draw(st.none() | hnp.arrays(np.bool_, (n, m)))
    return x, candidates, valid, feasible, robust


def first_pool(pools, i):
    """Row ``i``'s first non-empty pool, or ``None`` when all are empty."""
    for pool in pools:
        if pool[i].any():
            return pool[i]
    return None


class TestClosestSelection:
    @settings(max_examples=200, deadline=None)
    @given(sweeps())
    def test_minimum_l1_in_preferred_pool(self, sweep):
        x, candidates, valid, feasible, _ = sweep
        chosen = _select_candidates(x, candidates, valid, feasible)
        distances = np.abs(candidates - x[:, None, :]).sum(axis=2)
        for i in range(len(x)):
            pool = first_pool((valid & feasible, valid), i)
            if pool is None:
                assert chosen[i] == 0
                continue
            assert pool[chosen[i]]
            best = distances[i][pool].min()
            assert distances[i, chosen[i]] == best
            # first occurrence on ties
            assert not (pool[: chosen[i]] & (distances[i, : chosen[i]] == best)).any()

    @settings(max_examples=100, deadline=None)
    @given(sweeps())
    def test_robust_pool_leads_when_hosted(self, sweep):
        x, candidates, valid, feasible, robust = sweep
        if robust is None:
            robust = np.ones_like(valid)
        chosen = _select_candidates(x, candidates, valid, feasible, robust=robust)
        for i in range(len(x)):
            pool = first_pool((valid & feasible & robust, valid & feasible, valid), i)
            if pool is None:
                assert chosen[i] == 0
            else:
                assert pool[chosen[i]]


class TestDensitySelection:
    @settings(max_examples=200, deadline=None)
    @given(sweeps(), st.data())
    def test_pick_is_inside_first_nonempty_pool(self, sweep, data):
        x, candidates, valid, feasible, robust = sweep
        n, m = valid.shape
        density = data.draw(hnp.arrays(np.float64, (n, m), elements=FINITE))
        weight = data.draw(st.floats(1e-6, 100.0))
        chosen = _select_candidates_density(
            x, candidates, valid, feasible, density, weight, robust=robust)
        assert chosen.shape == (n,)
        pools = (valid & feasible, valid)
        if robust is not None:
            pools = (valid & feasible & robust,) + pools
        for i in range(n):
            assert 0 <= chosen[i] < m
            pool = first_pool(pools, i)
            if pool is not None:
                assert pool[chosen[i]]


@lru_cache(maxsize=None)
def _encoder(dataset):
    return load_dataset(dataset, n_instances=200, seed=0).encoder


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DATASETS), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_projection_never_changes_an_immutable_column(dataset, n, m, seed):
    encoder = _encoder(dataset)
    projector = ImmutableProjector(encoder)
    rng = np.random.default_rng(seed)
    d = encoder.n_encoded
    x = rng.random((n, d))
    sweep = rng.random((n, m, d))
    projected = projector.project(x, sweep)
    mask = encoder.immutable_mask()
    assert mask.any()
    np.testing.assert_array_equal(
        projected[:, :, mask], np.broadcast_to(x[:, None, mask], (n, m, mask.sum())))
    np.testing.assert_array_equal(projected[:, :, ~mask], sweep[:, :, ~mask])
    flat = projector.project(x, sweep[:, 0, :])
    np.testing.assert_array_equal(flat[:, mask], x[:, mask])
