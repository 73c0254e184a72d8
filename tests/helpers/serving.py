"""Per-row references for the Figure 3 sweep and its selection policies.

The engine answers every request through
:meth:`repro.engine.EngineRunner.run`, which proposes, projects, checks
and selects a whole ``(n, m, d)`` candidate sweep at once.  The helpers
here are the independent per-row ground truth the tests pin it to:

* :func:`generate_candidates_loop` — the CF-VAE latent-perturbation
  sweep built one input row at a time, with its own noise defaults,
  projection, black-box validity and constraint-loop feasibility;
* :func:`pick_candidate` — the closest-L1 serving pick for one row;
* :func:`density_pick` — the Figure 3 proximity+density pick for one
  row.

None of them calls into the batched path they check; :func:`run_sweep`
runs that path and :func:`sweep_sets` splits its diagnostics per row.
"""

from dataclasses import dataclass

import numpy as np

from repro.constraints import ImmutableProjector


@dataclass
class CandidateSet:
    """One input row's candidate sweep and its per-candidate flags."""

    x: np.ndarray
    candidates: np.ndarray
    valid: np.ndarray
    feasible: np.ndarray

    @property
    def usable_mask(self):
        """Valid AND feasible candidates (the paper's acceptance set)."""
        return self.valid & self.feasible


def generate_candidates_loop(explainer, x, n_candidates=20, noise_scale=None,
                             desired=None, rng=None):
    """Per-row Figure 3 sweep: one :class:`CandidateSet` per row of ``x``.

    Candidate 0 is the zero-noise decode of the posterior mean; the rest
    add Gaussian latent noise drawn row by row (``seed + 500`` rng and
    ``max(latent_noise, 0.05)`` scale unless given).  Immutable columns
    are copied from the input, validity is one black-box call per row
    and feasibility the explainer's per-constraint loop evaluator.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = rng or np.random.default_rng(explainer.seed + 500)
    if noise_scale is None:
        noise_scale = max(explainer.generator.config.latent_noise, 0.05)
    if desired is None:
        desired = 1 - explainer.blackbox.predict(x)
    desired = np.asarray(desired, dtype=int)
    vae = explainer.generator.vae
    vae.eval()
    mu, _ = vae.encode_array(x, desired)
    projector = ImmutableProjector(explainer.encoder)

    sets = []
    for i in range(len(x)):
        noise = rng.normal(0.0, noise_scale, size=(n_candidates, mu.shape[1]))
        noise[0] = 0.0
        z = mu[i][None, :] + noise
        labels = np.full(n_candidates, desired[i], dtype=np.float64)
        inputs = np.repeat(x[i][None, :], n_candidates, axis=0)
        decoded = projector.project(inputs, vae.decode_latent(z, labels))
        sets.append(CandidateSet(
            x=x[i],
            candidates=decoded,
            valid=explainer.blackbox.predict(decoded) == desired[i],
            feasible=explainer.constraints.satisfied(inputs, decoded),
        ))
    return sets


def pick_candidate(candidate_set):
    """Closest-by-L1 candidate, preferring valid & feasible, then valid.

    Index 0 is the deterministic (zero-noise) decode, so the final
    fallback degrades to exactly the one-shot explain output.
    """
    distances = np.abs(candidate_set.candidates - candidate_set.x[None, :]).sum(axis=1)
    for mask in (candidate_set.usable_mask, candidate_set.valid):
        if mask.any():
            pool = np.flatnonzero(mask)
            return int(pool[np.argmin(distances[pool])])
    return 0


def _standardize(values):
    spread = values.std()
    if spread < 1e-12:
        return np.zeros_like(values)
    return (values - values.mean()) / spread


def density_pick(candidate_set, density, weight):
    """Figure 3 pick for one row: best standardized proximity+density.

    Every candidate scores ``-z(L1 to the input) - weight * z(density
    cost)``, z-scored within the set; the best-scoring candidate inside
    the first non-empty pool (valid & feasible, valid, any) wins, the
    first one on ties.
    """
    proximity = np.abs(candidate_set.candidates - candidate_set.x[None, :]).sum(axis=1)
    scores = (-_standardize(proximity)
              - weight * _standardize(density.score(candidate_set.candidates)))
    for mask in (candidate_set.usable_mask, candidate_set.valid):
        if mask.any():
            pool = np.flatnonzero(mask)
            return int(pool[np.argmax(scores[pool])])
    return int(np.argmax(scores))


def run_sweep(explainer, x, n_candidates, desired=None, **strategy_kwargs):
    """Diagnostics of one batched ``CoreCFStrategy`` sweep on the explainer's runner."""
    from repro.engine import CoreCFStrategy

    strategy = CoreCFStrategy(explainer, n_candidates=n_candidates, **strategy_kwargs)
    _, diagnostics = explainer._engine_runner().run(
        strategy, x, desired, return_diagnostics=True)
    return diagnostics


def sweep_sets(x, diagnostics):
    """Per-row :class:`CandidateSet` views of a runner's sweep diagnostics."""
    return [
        CandidateSet(x=x[i], candidates=diagnostics["candidates"][i],
                     valid=diagnostics["valid"][i], feasible=diagnostics["feasible"][i])
        for i in range(len(x))
    ]
