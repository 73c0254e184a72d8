"""Property tests: quorum robustness is monotone in the quorum.

Model multiplicity (Tan et al.) judges a counterfactual robust when at
least a quorum ``q`` of an ensemble's members agree it reaches the
desired class.  Raising ``q`` may only shrink what counts as robust:

* ``BlackBoxEnsemble.agreement(x, desired) >= q`` is monotone
  non-increasing in ``q``, and agreement is always a member-vote
  fraction ``j / K``;
* through the runner, the sweep's ``candidate_robustness`` never rises
  with ``q``, and a row whose chosen counterfactual is robust at a
  higher quorum is robust at every lower one (the robust pool only
  shrinks, so the selection can only fall back further).
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_dataset
from repro.engine import CandidateBatch, CFStrategy, EngineRunner
from repro.models import train_ensemble

N_MEMBERS = 4
QUORUMS = st.lists(
    st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    min_size=2, max_size=5)


@lru_cache(maxsize=None)
def models():
    bundle = load_dataset("adult", n_instances=800, seed=4)
    x_train, y_train = bundle.split("train")
    ensemble = train_ensemble(x_train, y_train, n_members=N_MEMBERS, seed=4, epochs=3)
    return bundle, ensemble


class NoisySweep(CFStrategy):
    """Deterministic strategy: a seeded noisy sweep around each row."""

    name = "noisy-sweep"

    def __init__(self, m, scale, seed):
        self.m, self.scale, self.seed = m, scale, seed

    def fit(self, x_train, y_train=None):
        return self

    def propose(self, x, desired=None):
        rng = np.random.default_rng(self.seed)
        noise = rng.normal(0.0, self.scale, (len(x), self.m, x.shape[1]))
        return CandidateBatch(x=x, desired=np.asarray(desired, dtype=int),
                              candidates=np.clip(x[:, None, :] + noise, 0.0, 1.0))


@st.composite
def batches(draw):
    """``(x, desired)``: registry rows with a per-row desired class."""
    bundle, _ = models()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 16))
    x = bundle.encoded[rng.choice(len(bundle.encoded), size=n, replace=False)]
    return x, rng.integers(0, 2, n)


class TestQuorumMonotone:
    @settings(max_examples=100, deadline=None)
    @given(batches(), st.floats(0.0, 0.5), QUORUMS)
    def test_agreement_mask_shrinks_with_quorum(self, batch, scale, quorums):
        _, ensemble = models()
        x, desired = batch
        rows = np.clip(x + np.random.default_rng(0).normal(0.0, scale, x.shape), 0.0, 1.0)
        agreement = ensemble.agreement(rows, desired)
        votes = agreement * N_MEMBERS
        assert np.array_equal(votes, np.round(votes))
        masks = [agreement >= q for q in sorted(quorums)]
        for looser, stricter in zip(masks, masks[1:]):
            assert not (stricter & ~looser).any()

    @settings(max_examples=40, deadline=None)
    @given(batches(), st.integers(1, 6), st.integers(0, 2**16), QUORUMS)
    def test_runner_robustness_shrinks_with_quorum(self, batch, m, seed, quorums):
        bundle, ensemble = models()
        x, desired = batch
        strategy = NoisySweep(m=m, scale=0.2, seed=seed)
        runs = []
        for quorum in sorted(quorums):
            runner = EngineRunner(bundle.encoder, ensemble.members[0],
                                  ensemble=ensemble, robust_quorum=quorum)
            _, diagnostics = runner.run(strategy, x, desired, return_diagnostics=True)
            runs.append(diagnostics)
        for looser, stricter in zip(runs, runs[1:]):
            assert stricter["candidate_robustness"] <= looser["candidate_robustness"]
            assert not (stricter["row_robust"] & ~looser["row_robust"]).any()
