"""Causal-constraint interface.

A constraint judges pairs ``(x, x_cf)`` in *encoded* space and plays two
roles in the paper:

1. **Evaluation** — :meth:`Constraint.satisfied` returns a boolean per
   row; the feasibility score of Section IV-D is the satisfied
   percentage.
2. **Learning** — :meth:`Constraint.penalty` returns a scalar that is
   zero exactly when every row satisfies the constraint, with its
   closed-form gradient; it is added to the four-part training loss
   (Section III-C).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Constraint", "ConstraintSet"]


class Constraint(ABC):
    """One logical causal constraint over encoded feature matrices."""

    #: Human-readable identifier used in reports.
    name = "constraint"

    @abstractmethod
    def satisfied(self, x, x_cf):
        """Boolean array: does each row of ``x_cf`` satisfy the constraint?

        Both arguments are encoded matrices of identical shape.
        """

    @abstractmethod
    def penalty(self, x, x_cf):
        """Scalar training penalty and its pullback: ``(value, pullback)``.

        Both arguments are encoded ndarrays of identical shape.  ``value``
        must be non-negative and zero when :meth:`satisfied` holds
        everywhere.  ``pullback(scale, grad)`` adds the gradient of
        ``scale * value`` in ``x_cf`` into the ``(n, d)`` array ``grad``
        in place, touching only the columns the constraint reads, with
        the ops (and, for several columns, the order) of backpropagating
        the per-op autograd form, so the CF-VAE trains bit-identically.
        """

    def satisfaction_rate(self, x, x_cf):
        """Fraction of rows satisfying the constraint (the paper's score / 100).

        Uses ``flags.size`` rather than ``len(flags)`` so 2-D masks (e.g. a
        per-column drift matrix) and 0-row inputs behave consistently: an
        empty evaluation is vacuously satisfied.
        """
        flags = np.asarray(self.satisfied(x, x_cf))
        return float(np.mean(flags)) if flags.size else 1.0

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class ConstraintSet:
    """A collection of constraints evaluated and penalised together."""

    def __init__(self, constraints):
        self.constraints = tuple(constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def satisfied(self, x, x_cf):
        """Row-wise AND over all member constraints.

        This is the *loop evaluator*: one vectorized ``satisfied`` call per
        member constraint.  It is kept as the parity reference for the
        compiled kernel (see :meth:`compile`); hot paths should compile the
        set once and evaluate through the kernel instead.
        """
        x = np.asarray(x)
        flags = np.ones(len(x), dtype=bool)
        for constraint in self.constraints:
            flags &= constraint.satisfied(x, x_cf)
        return flags

    def satisfied_matrix(self, x, x_cf):
        """Per-constraint ``(n, k)`` satisfaction mask via the loop evaluator.

        Column ``j`` is ``constraints[j].satisfied(x, x_cf)``.  The compiled
        kernel reproduces this matrix bit-for-bit in a single fused pass;
        parity tests compare the two.
        """
        x = np.asarray(x)
        x_cf = np.asarray(x_cf)
        if not self.constraints:
            return np.ones((len(x), 0), dtype=bool)
        return np.column_stack(
            [constraint.satisfied(x, x_cf) for constraint in self.constraints])

    def satisfaction_rate(self, x, x_cf):
        """Fraction of rows satisfying *every* constraint."""
        if not self.constraints:
            return 1.0
        flags = np.asarray(self.satisfied(x, x_cf))
        return float(np.mean(flags)) if flags.size else 1.0

    def compile(self):
        """Lower the set into a :class:`repro.engine.CompiledConstraintSet`.

        The compiled kernel evaluates every member constraint in one fused
        vectorized pass — returning the full ``(n, k)`` satisfaction mask,
        the row-wise AND and per-constraint rates — and supports tiled
        candidate sweeps (``n * m`` counterfactual rows against ``n``
        inputs) without materialising ``np.repeat(x, m)``.  Unknown
        constraint types fall back to their own ``satisfied`` method, so
        compilation never changes semantics.
        """
        from ..engine.kernel import CompiledConstraintSet

        return CompiledConstraintSet(self)

    def penalty(self, x, x_cf):
        """Sum of member penalties (0 when all satisfied) and its pullback.

        The pullback adds the members' gradients in member order.
        """
        total = 0.0
        pullbacks = []
        for constraint in self.constraints:
            value, pullback = constraint.penalty(x, x_cf)
            total = total + value
            pullbacks.append(pullback)

        def pullback(scale, grad):
            for member_pullback in pullbacks:
                member_pullback(scale, grad)

        return total, pullback
