"""Reference selection policy for the serving tests.

The serving layer answers every request through
:meth:`repro.engine.EngineRunner.run`.  :func:`pick_candidate` is the
per-row policy it reproduces, applied to one
:class:`repro.core.CandidateSet` at a time: the tests pin the runner's
vectorized selection and the service's tickets to it.
"""

import numpy as np


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
