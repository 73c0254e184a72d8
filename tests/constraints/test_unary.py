"""Tests for the unary monotonic-increase constraint (Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import MonotonicIncreaseConstraint
from repro.data import DatasetSchema, FeatureSpec, FeatureType, TabularEncoder, TabularFrame

SCHEMA = DatasetSchema(
    name="toy",
    features=(
        FeatureSpec("age", FeatureType.CONTINUOUS, bounds=(18.0, 80.0)),
        FeatureSpec("score", FeatureType.CONTINUOUS, bounds=(0.0, 1.0)),
    ),
    target="y",
)


def encoder():
    frame = TabularFrame({"age": np.array([18.0, 80.0]), "score": np.array([0.0, 1.0])})
    return TabularEncoder(SCHEMA).fit(frame)


def constraint():
    return MonotonicIncreaseConstraint(encoder(), "age")


class TestSatisfied:
    def test_increase_ok(self):
        x = np.array([[0.2, 0.5]])
        x_cf = np.array([[0.3, 0.5]])
        assert constraint().satisfied(x, x_cf).all()

    def test_equal_ok(self):
        x = np.array([[0.2, 0.5]])
        assert constraint().satisfied(x, x.copy()).all()

    def test_decrease_violates(self):
        x = np.array([[0.5, 0.5]])
        x_cf = np.array([[0.2, 0.5]])
        assert not constraint().satisfied(x, x_cf).any()

    def test_tolerance_allows_float_noise(self):
        x = np.array([[0.5, 0.5]])
        x_cf = np.array([[0.5 - 1e-9, 0.5]])
        assert constraint().satisfied(x, x_cf).all()

    def test_other_columns_ignored(self):
        x = np.array([[0.5, 0.9]])
        x_cf = np.array([[0.5, 0.1]])  # score dropped; age same
        assert constraint().satisfied(x, x_cf).all()

    def test_mixed_batch(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        x_cf = np.array([[0.6, 0.5], [0.4, 0.5]])
        np.testing.assert_array_equal(constraint().satisfied(x, x_cf), [True, False])

    def test_satisfaction_rate(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        x_cf = np.array([[0.6, 0.5], [0.4, 0.5]])
        assert constraint().satisfaction_rate(x, x_cf) == 0.5


class TestPenalty:
    def test_zero_when_satisfied(self):
        x = np.array([[0.2, 0.5]])
        x_cf = np.array([[0.4, 0.5]])
        assert constraint().penalty(x, x_cf)[0] == 0.0

    def test_positive_when_violated(self):
        x = np.array([[0.5, 0.5]])
        x_cf = np.array([[0.2, 0.5]])
        assert constraint().penalty(x, x_cf)[0] == pytest.approx(0.3)

    def test_gradient_pushes_value_up(self):
        x = np.array([[0.5, 0.5]])
        x_cf = np.array([[0.2, 0.5]])
        grad = np.zeros_like(x_cf)
        constraint().penalty(x, x_cf)[1](1.0, grad)
        assert grad[0, 0] < 0  # decreasing loss means raising x_cf age
        assert grad[0, 1] == 0

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_penalty_zero_iff_satisfied(self, before, after):
        x = np.array([[before, 0.5]])
        x_cf_arr = np.array([[after, 0.5]])
        con = constraint()
        penalty = con.penalty(x, x_cf_arr)[0]
        if con.satisfied(x, x_cf_arr).all():
            assert penalty <= 1e-6
        else:
            assert penalty > 0

    def test_rejects_categorical_feature(self):
        schema = DatasetSchema(
            name="toy2",
            features=(FeatureSpec("color", FeatureType.CATEGORICAL,
                                  categories=("r", "g")),),
            target="y",
        )
        frame = TabularFrame({"color": np.array(["r", "g"], dtype=object)})
        enc = TabularEncoder(schema).fit(frame)
        with pytest.raises(ValueError):
            MonotonicIncreaseConstraint(enc, "color")
