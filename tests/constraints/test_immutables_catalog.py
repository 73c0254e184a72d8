"""Tests for immutable projection, the evaluation constraint and the catalog."""

import numpy as np
import pytest

from repro.constraints import (
    ConstraintSet,
    ImmutableProjector,
    ImmutablesRespected,
    MonotonicIncreaseConstraint,
    OrdinalImplicationConstraint,
    build_constraints,
    constraint_recipes,
)
from repro.data import load_dataset


def adult_encoder():
    return load_dataset("adult", n_instances=600, seed=0).encoder


class TestImmutableProjector:
    def test_mask_covers_race_and_gender(self):
        encoder = adult_encoder()
        projector = ImmutableProjector(encoder)
        assert projector.has_immutables
        expected = encoder.immutable_mask()
        np.testing.assert_array_equal(projector.mask, expected)

    def test_project_restores_immutables(self):
        encoder = adult_encoder()
        projector = ImmutableProjector(encoder)
        rng = np.random.default_rng(0)
        x = rng.random((5, encoder.n_encoded))
        x_cf = rng.random((5, encoder.n_encoded))
        projected = projector.project(x, x_cf)
        np.testing.assert_allclose(projected[:, projector.mask], x[:, projector.mask])
        mutable = ~projector.mask
        np.testing.assert_allclose(projected[:, mutable], x_cf[:, mutable])

    def test_project_does_not_mutate_input(self):
        encoder = adult_encoder()
        projector = ImmutableProjector(encoder)
        x = np.zeros((2, encoder.n_encoded))
        x_cf = np.ones((2, encoder.n_encoded))
        projector.project(x, x_cf)
        assert (x_cf == 1.0).all()

    def test_project_tensor_blocks_gradients_on_immutables(self):
        encoder = adult_encoder()
        projector = ImmutableProjector(encoder)
        x = np.zeros((3, encoder.n_encoded))
        x_cf = np.ones((3, encoder.n_encoded))
        projected, pullback = projector.project_vjp(x, x_cf)
        np.testing.assert_array_equal(projected, projector.project(x, x_cf))
        grad = pullback(np.ones_like(x_cf))
        assert (grad[:, projector.mask] == 0).all()
        assert (grad[:, ~projector.mask] == 1).all()


class TestImmutablesRespected:
    def test_detects_drift(self):
        encoder = adult_encoder()
        constraint = ImmutablesRespected(encoder)
        x = np.zeros((2, encoder.n_encoded))
        x_cf = x.copy()
        immutable_col = int(np.flatnonzero(constraint.mask)[0])
        x_cf[1, immutable_col] = 1.0
        np.testing.assert_array_equal(constraint.satisfied(x, x_cf), [True, False])

    def test_penalty_zero_without_drift(self):
        encoder = adult_encoder()
        constraint = ImmutablesRespected(encoder)
        x = np.zeros((2, encoder.n_encoded))
        assert constraint.penalty(x, x.copy())[0] == 0.0


class TestConstraintSet:
    def test_and_semantics(self):
        encoder = adult_encoder()
        age_col = encoder.column_of("age")
        con = MonotonicIncreaseConstraint(encoder, "age")
        group = ConstraintSet([con, ImmutablesRespected(encoder)])
        x = np.full((2, encoder.n_encoded), 0.5)
        x_cf = x.copy()
        x_cf[0, age_col] = 0.2  # violates unary only
        flags = group.satisfied(x, x_cf)
        np.testing.assert_array_equal(flags, [False, True])
        assert group.satisfaction_rate(x, x_cf) == 0.5

    def test_empty_set_all_satisfied(self):
        group = ConstraintSet([])
        assert group.satisfaction_rate(np.zeros((3, 2)), np.ones((3, 2))) == 1.0

    def test_penalty_sums(self):
        encoder = adult_encoder()
        con = MonotonicIncreaseConstraint(encoder, "age")
        group = ConstraintSet([con, con])
        x = np.full((1, encoder.n_encoded), 0.5)
        x_cf = x.copy()
        x_cf[0, encoder.column_of("age")] = 0.2
        single = con.penalty(x, x_cf)[0]
        double = group.penalty(x, x_cf)[0]
        assert double == pytest.approx(2 * single)


class TestCatalog:
    @pytest.mark.parametrize("name,cause,effect", [
        ("adult", "education", "age"),
        ("kdd_census", "education", "age"),
        ("law_school", "tier", "lsat"),
    ])
    def test_recipes_reference_paper_attributes(self, name, cause, effect):
        recipes = constraint_recipes(name)
        binary_cls, binary_kwargs = recipes["binary"][0]
        assert binary_cls is OrdinalImplicationConstraint
        assert binary_kwargs["cause"] == cause
        assert binary_kwargs["effect"] == effect

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            constraint_recipes("mnist")

    def test_build_unary(self):
        encoder = adult_encoder()
        group = build_constraints(encoder, "unary")
        assert len(group) == 1
        assert isinstance(group.constraints[0], MonotonicIncreaseConstraint)

    def test_build_binary_includes_unary(self):
        encoder = adult_encoder()
        group = build_constraints(encoder, "binary")
        kinds = [type(c) for c in group]
        assert MonotonicIncreaseConstraint in kinds
        assert OrdinalImplicationConstraint in kinds

    def test_build_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_constraints(adult_encoder(), "ternary")
