"""Batch-first engine runner shared by every strategy and the serving layer.

Before the engine existed, the evaluation plumbing around counterfactual
generation was forked three ways: ``core/explainer.py`` ran its own
project/predict/feasibility loop, every baseline re-implemented immutable
projection and validity checks inside ``BaseCFExplainer``, and the
serving layer only knew how to drive the core path.  ``EngineRunner``
hosts that plumbing exactly once:

1. ask a :class:`~repro.engine.strategy.CFStrategy` for raw candidates,
2. project immutable attributes for the whole ``(n, m, d)`` batch in one
   broadcast assignment,
3. causally repair the projected batch in one ``repair_batch`` pass when
   the runner hosts a fitted :class:`repro.causal.CausalModel`,
4. run ONE black-box validity call and ONE compiled-kernel feasibility
   pass over all candidates,
5. select a winner per row (closest valid & feasible, mirroring the
   serving policy — or the Figure 3 proximity+density score when the
   runner hosts a fitted :class:`repro.density.DensityModel`) and
6. optionally score the batch into a Table IV :class:`MethodReport`
   (including the density and causal-plausibility columns when the
   matching models are hosted).

:meth:`EngineRunner.run` is the one explain execution path: scenarios,
the Table IV harness and every serving answer (``explain_batch`` cache
misses and flushed tickets alike) go through it.  Outputs are
bit-identical to the pre-engine per-method paths — the parity tests in
``tests/engine/`` and ``tests/serve/test_service_parity.py`` hold the
line — and a runner without a density model runs the exact pre-density
code path.
"""

from __future__ import annotations

import numpy as np

from ..constraints import ConstraintSet, ImmutableProjector, build_constraints
from ..core.result import CFBatchResult
from .kernel import CompiledConstraintSet, FeasibilityReport

__all__ = ["EngineRunner"]


class EngineRunner:
    """Shared propose -> project -> validate -> select -> score pipeline.

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder`.
    blackbox:
        Trained classifier (validity checks).
    constraints:
        Constraint set defining feasibility.  Defaults to the *union*
        catalog set for the encoder's dataset (the binary-kind set, which
        contains the unary constraints), so one kernel pass can answer
        both Table IV feasibility columns.  A
        :class:`CompiledConstraintSet` is accepted directly.
    density:
        Optional *fitted* :class:`repro.density.DensityModel`.  When
        hosted, every strategy's multi-candidate batches are selected by
        the Figure 3 standardized proximity+density score (one tiled
        density query for the whole sweep), per-row density costs appear
        in the run diagnostics, and :meth:`evaluate` fills the Table IV
        density column.  ``None`` (the default) keeps the historical
        closest-L1 selection bit for bit.
    density_weight:
        Trade-off ``lambda`` of the density-aware selection score.
    causal:
        Optional *fitted* :class:`repro.causal.CausalModel`.  When
        hosted, every strategy's candidate batches are causally repaired
        between immutable projection and the feasibility kernel (ONE
        batched ``repair_batch`` pass for the whole ``(n, m, d)``
        sweep), per-row causal inconsistency costs appear in the run
        diagnostics, and :meth:`evaluate` fills the Table IV
        ``causal_plausibility`` column.  ``None`` (the default) keeps
        the historical pipeline bit for bit.
    causal_repair:
        When ``False`` the hosted model only *scores* candidates (the
        diagnostics and report column still fill) without rewriting
        them — for measuring how causally plausible a strategy's raw
        proposals are.
    ensemble:
        Optional trained :class:`repro.models.BlackBoxEnsemble`.  When
        hosted, every candidate sweep is additionally scored against all
        K member models in ONE fused pass
        (:meth:`~repro.models.BlackBoxEnsemble.agreement`), a robust
        pool (valid & feasible & quorum-robust) is prepended to the
        selection cascade, per-row cross-model agreement appears in the
        run diagnostics, and :meth:`evaluate` fills the Table IV
        ``cross_model_validity`` / ``robust_validity`` columns.
        ``None`` (the default) keeps the single-model pipeline bit for
        bit.
    robust_quorum:
        Fraction of ensemble members that must classify a candidate as
        its desired class for it to count as robust (default 0.5).
    """

    def __init__(
        self,
        encoder,
        blackbox,
        constraints=None,
        density=None,
        density_weight=1.0,
        causal=None,
        causal_repair=True,
        ensemble=None,
        robust_quorum=0.5,
    ):
        self.encoder = encoder
        self.blackbox = blackbox
        if constraints is None:
            constraints = build_constraints(encoder, "binary")
        if isinstance(constraints, CompiledConstraintSet):
            self.kernel = constraints
        else:
            if not isinstance(constraints, ConstraintSet):
                constraints = ConstraintSet(constraints)
            self.kernel = constraints.compile()
        self.projector = ImmutableProjector(encoder)
        self.density = density
        self.density_weight = float(density_weight)
        self.causal = causal
        self.causal_repair = bool(causal_repair)
        self.ensemble = ensemble
        if not 0.0 < float(robust_quorum) <= 1.0:
            raise ValueError(
                f"robust_quorum must be in (0, 1], got {robust_quorum}")
        self.robust_quorum = float(robust_quorum)

    # -- constraint bookkeeping ---------------------------------------------
    def flag_indices(self, strategy):
        """Mask columns defining a strategy's own feasibility flags.

        Strategies trained against a specific constraint set (the core
        method, Mahajan) are flagged against exactly that set; everything
        else is flagged against the full kernel.
        """
        constraints = getattr(strategy, "constraints", None)
        if constraints is None:
            return list(range(len(self.kernel)))
        try:
            return [self.kernel.index_of(c.name) for c in constraints]
        except ValueError:
            return list(range(len(self.kernel)))

    # -- core pipeline ------------------------------------------------------
    def project(self, x, candidates):
        """Immutable projection over a full ``(n, m, d)`` candidate batch."""
        return self.projector.project(x, candidates)

    def run(self, strategy, x, desired=None, return_diagnostics=False):
        """Explain ``x`` with ``strategy``; returns a :class:`CFBatchResult`.

        One strategy proposal, one broadcast projection, one validity
        call, one fused feasibility pass — regardless of how many
        candidates per row the strategy proposed.  Multi-candidate
        batches are reduced to one counterfactual per row by the serving
        selection policy: closest by L1 among valid & feasible, then
        valid-only, then the first (deterministic) candidate.
        """
        from ..utils.validation import check_encoded_rows

        x = check_encoded_rows(x, self.encoder, "x")
        batch = strategy.propose(x, desired)
        x, desired = batch.x, batch.desired
        n, m, d = batch.candidates.shape
        candidates = self.project(x, batch.candidates)

        sweep_causal = None
        if self.causal is not None and (self.causal_repair or return_diagnostics):
            # ONE batched pass repairs (and/or scores) the full sweep;
            # validate=False because x was checked at run() entry and
            # the candidates are the runner's own projection output; the
            # per-candidate repair distance is only reduced when a
            # caller asked for diagnostics (evaluate does; serving not)
            repaired = self.causal.repair_batch(x, candidates, validate=False)
            if return_diagnostics:
                sweep_causal = np.abs(repaired - candidates).sum(axis=2)
            if self.causal_repair:
                candidates = repaired
        flat = candidates.reshape(n * m, d)

        predicted = self.blackbox.predict(flat)
        report = self.kernel.evaluate(x, flat)
        flags = report.subset_satisfied(self.flag_indices(strategy))
        valid = predicted == np.repeat(desired, m)

        sweep_density = None
        if self.density is not None and m > 1:
            # ONE tiled query scores the full (n, m, d) sweep
            sweep_density = self.density.score_tiled(candidates)

        sweep_cross = robust2d = None
        if self.ensemble is not None:
            # ONE fused K-model pass scores the full sweep against every
            # ensemble member; the quorum turns agreement into a robust
            # flag that steers selection below
            sweep_cross = self.ensemble.agreement(
                flat, np.repeat(desired, m)).reshape(n, m)
            robust2d = sweep_cross >= self.robust_quorum

        if m == 1:
            x_cf = candidates[:, 0, :]
            chosen = np.zeros(n, dtype=int)
            row_predicted, row_feasible = predicted, flags
        else:
            valid2d, flags2d = valid.reshape(n, m), flags.reshape(n, m)
            if sweep_density is None:
                chosen = _select_candidates(
                    x, candidates, valid2d, flags2d, robust=robust2d)
            else:
                chosen = _select_candidates_density(
                    x, candidates, valid2d, flags2d, sweep_density,
                    self.density_weight, robust=robust2d
                )
            rows = np.arange(n)
            x_cf = candidates[rows, chosen]
            row_predicted = predicted.reshape(n, m)[rows, chosen]
            row_feasible = flags.reshape(n, m)[rows, chosen]

        result = CFBatchResult(
            x=x,
            x_cf=x_cf,
            desired=desired,
            predicted=row_predicted,
            valid=row_predicted == desired,
            feasible=row_feasible,
            encoder=self.encoder,
        )
        if return_diagnostics:
            diagnostics = {
                "report": report,
                "chosen": chosen,
                "n_candidates": m,
                "n_usable": (valid & flags).reshape(n, m).sum(axis=1),
                "candidate_validity": float(valid.mean()) if valid.size else 0.0,
            }
            if self.density is not None:
                if sweep_density is None:
                    row_density = self.density.score(x_cf)
                else:
                    row_density = sweep_density[np.arange(n), chosen]
                diagnostics["row_density"] = row_density
            if sweep_causal is not None:
                # repair distance of each row's selected candidate: how
                # far the raw proposal was from causal consistency
                diagnostics["row_causal"] = sweep_causal[np.arange(n), chosen]
            if sweep_cross is not None:
                rows = np.arange(n)
                diagnostics["row_cross_validity"] = sweep_cross[rows, chosen]
                diagnostics["row_robust"] = robust2d[rows, chosen]
                diagnostics["candidate_robustness"] = (
                    float(robust2d.mean()) if robust2d.size else 0.0)
            return result, diagnostics
        return result

    # -- Table IV scoring ---------------------------------------------------
    def evaluate(
        self,
        strategy,
        x,
        desired=None,
        stats=None,
        x_train=None,
        report_kinds=("unary", "binary"),
        method_name=None,
    ):
        """Fit-free evaluation: one engine run scored as a Table IV row.

        Produces the exact :class:`repro.metrics.MethodReport` the
        pre-engine harness computed — validity, per-kind feasibility,
        proximity and sparsity — reusing the run's own predict call and
        kernel pass instead of re-evaluating the scored rows.  A hosted
        density model additionally fills the report's
        ``mean_knn_distance`` column from the run's own density scores.
        """
        from ..metrics import evaluate_counterfactuals

        result, diagnostics = self.run(strategy, x, desired, return_diagnostics=True)
        report = diagnostics["report"]
        m = diagnostics["n_candidates"]
        if m > 1:
            # keep only each row's selected candidate from the sweep mask
            selected = np.arange(len(result.x)) * m + diagnostics["chosen"]
            report = FeasibilityReport(report.mask_t[:, selected], report.names)
        return evaluate_counterfactuals(
            method_name or strategy.name,
            result.x,
            result.x_cf,
            result.desired,
            self.blackbox,
            self.encoder,
            stats=stats,
            x_train=x_train,
            report_kinds=report_kinds,
            feasibility_report=report,
            predicted=result.predicted,
            density_scores=diagnostics.get("row_density"),
            causal_scores=diagnostics.get("row_causal"),
            cross_model_scores=diagnostics.get("row_cross_validity"),
            robust_flags=diagnostics.get("row_robust"),
        )


def _selection_pools(valid, feasible, robust=None):
    """The serving preference cascade, optionally led by a robust pool.

    Without an ensemble the pools are the historical pair (valid &
    feasible, then valid).  A hosted ensemble prepends candidates that
    additionally clear the robustness quorum, so a quorum-robust
    counterfactual wins whenever one exists while rows without any fall
    back to exactly the single-model choice.
    """
    pools = (valid & feasible, valid)
    if robust is None:
        return pools
    return (valid & feasible & robust,) + pools


def _select_candidates(x, candidates, valid, feasible, robust=None):
    """Vectorized per-row candidate choice (the serving policy).

    Preference order: valid & feasible (& quorum-robust first, when an
    ensemble is hosted), then valid, then candidate 0 (the deterministic
    decode).  Within a pool the candidate closest to the input by L1
    distance wins — the per-candidate-set policy
    (``tests/helpers/serving.pick_candidate``) applied to every row at
    once.
    """
    distances = np.abs(candidates - x[:, None, :]).sum(axis=2)
    n, m = distances.shape
    chosen = np.zeros(n, dtype=int)
    remaining = np.ones(n, dtype=bool)
    for pool in _selection_pools(valid, feasible, robust):
        useful = remaining & pool.any(axis=1)
        if useful.any():
            masked = np.where(pool[useful], distances[useful], np.inf)
            chosen[useful] = np.argmin(masked, axis=1)
            remaining &= ~useful
    return chosen


def _select_candidates_density(x, candidates, valid, feasible, density, weight,
                               robust=None):
    """Vectorized per-row choice under the Figure 3 proximity+density score.

    Same pool cascade as :func:`_select_candidates` (robust when hosted,
    valid & feasible, then valid, then any), but within a pool the
    winner maximises the standardized ``-proximity - weight * density``
    combination instead of pure closeness — exactly the
    ``DensityCFSelector`` scoring, hosted once for every strategy.
    """
    from ..core.selection import argmax_by_pools, standardize_rows

    proximity = np.abs(candidates - x[:, None, :]).sum(axis=2)
    scores = -standardize_rows(proximity) - weight * standardize_rows(density)
    return argmax_by_pools(scores, _selection_pools(valid, feasible, robust))
