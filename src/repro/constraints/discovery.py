"""Automatic causal-constraint discovery (the paper's future work).

Section V: *"As future work we have already started working on analysing
the causal relations of various features in a dataset, so that we can
minimize the human involvement during the construction of the causal
constraint."*  This module implements that step: it mines candidate
"cause up implies effect up" relations directly from the cleaned data
and converts the strong ones into the same
:class:`~repro.constraints.binary.OrdinalImplicationConstraint` objects
the hand-written catalog provides.

The mining signal combines two ingredients:

* **rank correlation** — Spearman's rho between the cause's ordinal
  value and the effect (captures "effect tends to grow with cause");
* **floor monotonicity** — the fraction of adjacent cause levels whose
  low-quantile effect value increases (captures hard prerequisites such
  as "a doctorate is impossible before ~27", which is exactly what makes
  the education→age constraint causal rather than merely correlated).

On the benchmark datasets the miner re-discovers the paper's hand-made
constraints: education→age on Adult/KDD and tier→lsat on Law School.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.schema import FeatureType
from .base import ConstraintSet
from .binary import OrdinalImplicationConstraint

__all__ = ["DiscoveredRelation", "ConstraintMiner"]

_MIN_LEVELS = 3
_FLOOR_QUANTILE = 0.05


@dataclass(frozen=True)
class DiscoveredRelation:
    """One mined "cause up implies effect up" candidate.

    Attributes
    ----------
    cause, effect:
        Feature names (cause is ordinal-categorical or continuous;
        effect is continuous).
    rank_correlation:
        Spearman's rho between cause and effect.
    floor_monotonicity:
        Fraction of adjacent cause levels with increasing low-quantile
        effect (1.0 = every step raises the floor).
    suggested_slope:
        Recommended penalty slope ``c2`` in *encoded* effect units per
        cause level, from the median floor increase.
    score:
        Combined strength used for ranking.
    """

    cause: str
    effect: str
    rank_correlation: float
    floor_monotonicity: float
    suggested_slope: float
    score: float

    def describe(self):
        """One-line human-readable summary."""
        return (f"{self.cause} up => {self.effect} up "
                f"(rho={self.rank_correlation:.2f}, "
                f"floor-mono={self.floor_monotonicity:.2f}, "
                f"slope={self.suggested_slope:.4f})")


class ConstraintMiner:
    """Mine implication constraints from a cleaned :class:`TabularFrame`.

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder` (supplies the schema
        and the encoded-unit normalisation for suggested slopes).
    min_correlation:
        Minimum Spearman's rho to keep a relation.
    min_floor_monotonicity:
        Minimum fraction of adjacent levels with a rising effect floor.
    n_bins:
        Number of quantile bins used to ordinalise continuous causes.
    """

    def __init__(self, encoder, min_correlation=0.15,
                 min_floor_monotonicity=0.7, n_bins=5):
        self.encoder = encoder
        self.min_correlation = float(min_correlation)
        self.min_floor_monotonicity = float(min_floor_monotonicity)
        self.n_bins = int(n_bins)

    # -- feature views -----------------------------------------------------
    def _cause_levels(self, frame, spec):
        """Ordinal level per row for a candidate cause, or None.

        Rows whose cause value is missing (None / NaN) or outside the
        schema vocabulary get a NaN level; ``_evaluate_pair`` masks them
        out, so a partially dirty column degrades to mining on the
        observed rows instead of crashing.
        """
        column = frame[spec.name]
        if spec.ftype is FeatureType.CATEGORICAL:
            if spec.n_categories < _MIN_LEVELS:
                return None
            lookup = {label: rank for rank, label in enumerate(spec.categories)}
            return np.array(
                [lookup.get(value, np.nan) for value in column], dtype=float)
        if spec.ftype is FeatureType.CONTINUOUS:
            values = np.asarray(column.astype(float), dtype=float)
            finite = np.isfinite(values)
            observed = np.unique(values[finite])
            if len(observed) == 0:
                return None
            levels = np.full(len(values), np.nan)
            if len(observed) <= self.n_bins:
                # already a small ordinal grid (e.g. tier 1..6)
                levels[finite] = np.searchsorted(observed, values[finite])
            else:
                edges = np.quantile(
                    values[finite], np.linspace(0, 1, self.n_bins + 1)[1:-1])
                levels[finite] = np.digitize(values[finite], edges)
            return levels
        return None  # binary causes carry no ordinal direction worth mining

    # -- scoring ---------------------------------------------------------------
    def _floor_profile(self, levels, effect):
        """Low-quantile effect per cause level (only populated levels)."""
        floors = []
        for level in np.unique(levels):
            members = effect[levels == level]
            if len(members) >= 5:
                floors.append(float(np.quantile(members, _FLOOR_QUANTILE)))
        return np.array(floors)

    def _evaluate_pair(self, frame, cause_spec, effect_spec):
        levels = self._cause_levels(frame, cause_spec)
        if levels is None:
            return None
        effect = np.asarray(frame[effect_spec.name].astype(float), dtype=float)
        # Degenerate guards: missing cells are masked out, and a pair is
        # skipped silently when too few observed rows remain, the cause
        # collapses below _MIN_LEVELS levels, the effect is constant
        # (rank correlation undefined — scipy would warn) or the
        # effect's encoded range is unusable (e.g. an all-missing
        # column fitted NaN bounds).
        observed = np.isfinite(levels) & np.isfinite(effect)
        if observed.sum() < _MIN_LEVELS * 5:
            return None
        levels, effect = levels[observed], effect[observed]
        if len(np.unique(levels)) < _MIN_LEVELS or effect.std() == 0:
            return None
        low, high = self.encoder.ranges[effect_spec.name]
        if not np.isfinite(high - low) or high - low <= 0:
            return None
        # imported here: scipy.stats costs ~30 MiB of resident memory and
        # only rule mining needs it
        from scipy.stats import spearmanr

        rho = float(spearmanr(levels, effect).statistic)
        if not np.isfinite(rho) or rho <= 0:
            return None

        floors = self._floor_profile(levels, effect)
        if len(floors) < _MIN_LEVELS:
            return None
        steps = np.diff(floors)
        floor_monotonicity = float((steps > 0).mean())
        if floor_monotonicity < self.min_floor_monotonicity:
            return None

        total_floor_rise = (floors[-1] - floors[0]) / (high - low)
        # Acceptance: either the bulk correlation is clear, or the floor
        # signature is unambiguous — a strictly rising minimum with a
        # material total rise is the fingerprint of a hard prerequisite
        # (education -> age) even when the bulk correlation is weak.
        strong_floor = floor_monotonicity >= 0.99 and total_floor_rise >= 0.05
        if rho < self.min_correlation and not strong_floor:
            return None

        raw_slope = float(np.median(steps[steps > 0])) if (steps > 0).any() else 0.0
        suggested_slope = raw_slope / (high - low)
        score = max(rho, total_floor_rise) * floor_monotonicity
        return DiscoveredRelation(
            cause=cause_spec.name,
            effect=effect_spec.name,
            rank_correlation=rho,
            floor_monotonicity=floor_monotonicity,
            suggested_slope=suggested_slope,
            score=score,
        )

    # -- public API ----------------------------------------------------------------
    def mine(self, frame, max_relations=None):
        """Return discovered relations, strongest first.

        Candidate causes: ordinal categorical features (≥3 levels) and
        continuous features; candidate effects: continuous features.
        Immutable features are excluded on both sides (a constraint over
        an unchangeable attribute is vacuous for recourse).
        """
        schema = self.encoder.schema
        relations = []
        for cause_spec in schema.features:
            if cause_spec.immutable:
                continue
            for effect_spec in schema.continuous:
                if effect_spec.immutable or effect_spec.name == cause_spec.name:
                    continue
                relation = self._evaluate_pair(frame, cause_spec, effect_spec)
                if relation is not None:
                    relations.append(relation)
        relations.sort(key=lambda relation: relation.score, reverse=True)
        if max_relations is not None:
            relations = relations[:max_relations]
        return relations

    def to_constraints(self, relations):
        """Convert relations into an executable :class:`ConstraintSet`."""
        constraints = []
        for relation in relations:
            constraints.append(OrdinalImplicationConstraint(
                self.encoder, relation.cause, relation.effect,
                slope=max(relation.suggested_slope, 1e-3)))
        return ConstraintSet(constraints)
