"""Unary causal constraints (paper Eq. 1).

The canonical example: ``x_cf_age >= x_age`` — a counterfactual may not
make an individual younger.  The training-time penalty is the paper's
``-min(0, x_cf - x)`` term, i.e. a hinge on the (signed) decrease.
"""

from __future__ import annotations

import numpy as np

from .base import Constraint

__all__ = ["MonotonicIncreaseConstraint"]


class MonotonicIncreaseConstraint(Constraint):
    """Require a continuous feature not to decrease (Eq. 1).

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder` — supplies the encoded
        column index of the feature.
    feature:
        Name of the continuous (or binary) feature, e.g. ``"age"``.
    tolerance:
        Slack in encoded units when checking satisfaction; generated
        values within ``tolerance`` below the original still count as
        satisfied (guards against float noise in decoded outputs).
    """

    def __init__(self, encoder, feature, tolerance=1e-6):
        self.encoder = encoder
        self.feature = feature
        self.column = encoder.column_of(feature)
        self.tolerance = float(tolerance)
        self.name = f"unary[{feature} non-decreasing]"

    def satisfied(self, x, x_cf):
        x = np.asarray(x)
        x_cf = np.asarray(x_cf)
        return x_cf[:, self.column] >= x[:, self.column] - self.tolerance

    def penalty(self, x, x_cf):
        column = self.column
        # -min(0, x_cf - x) == relu(x - x_cf): penalise any decrease.
        decrease = np.asarray(x)[:, column] - np.asarray(x_cf)[:, column]
        norm = 1.0 / len(decrease)

        def pullback(scale, grad):
            grad[:, column] -= (scale * norm) * (decrease > 0.0)

        return np.maximum(decrease, 0.0).sum() * norm, pullback
