"""Tests for the binary implication constraint (Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import OrdinalImplicationConstraint
from repro.data import DatasetSchema, FeatureSpec, FeatureType, TabularEncoder, TabularFrame

SCHEMA = DatasetSchema(
    name="toy",
    features=(
        FeatureSpec("age", FeatureType.CONTINUOUS, bounds=(18.0, 80.0)),
        FeatureSpec("education", FeatureType.CATEGORICAL,
                    categories=("hs", "bs", "ms", "phd")),
        FeatureSpec("tier", FeatureType.CONTINUOUS, bounds=(1.0, 6.0)),
    ),
    target="y",
)


def encoder():
    frame = TabularFrame({
        "age": np.array([18.0, 80.0]),
        "education": np.array(["hs", "phd"], dtype=object),
        "tier": np.array([1.0, 6.0]),
    })
    return TabularEncoder(SCHEMA).fit(frame)


def row(age, education, tier=0.5):
    """Encoded row: [age, onehot(education) x4, tier]."""
    onehot = {"hs": [1, 0, 0, 0], "bs": [0, 1, 0, 0],
              "ms": [0, 0, 1, 0], "phd": [0, 0, 0, 1]}[education]
    return [age] + onehot + [tier]


def cat_constraint(**kwargs):
    return OrdinalImplicationConstraint(encoder(), "education", "age", **kwargs)


def cont_constraint(**kwargs):
    return OrdinalImplicationConstraint(encoder(), "tier", "age", **kwargs)


class TestCategoricalCauseSatisfied:
    def test_education_up_age_up_ok(self):
        x = np.array([row(0.3, "hs")])
        x_cf = np.array([row(0.4, "ms")])
        assert cat_constraint().satisfied(x, x_cf).all()

    def test_education_up_age_same_violates(self):
        x = np.array([row(0.3, "hs")])
        x_cf = np.array([row(0.3, "ms")])
        assert not cat_constraint().satisfied(x, x_cf).any()

    def test_education_up_age_down_violates(self):
        x = np.array([row(0.3, "hs")])
        x_cf = np.array([row(0.2, "ms")])
        assert not cat_constraint().satisfied(x, x_cf).any()

    def test_education_same_age_same_ok(self):
        x = np.array([row(0.3, "bs")])
        assert cat_constraint().satisfied(x, x.copy()).all()

    def test_education_same_age_down_violates(self):
        x = np.array([row(0.3, "bs")])
        x_cf = np.array([row(0.2, "bs")])
        assert not cat_constraint().satisfied(x, x_cf).any()

    def test_education_down_vacuously_ok(self):
        # Eq. 2 only constrains "up" and "same" cases
        x = np.array([row(0.3, "ms")])
        x_cf = np.array([row(0.3, "hs")])
        assert cat_constraint().satisfied(x, x_cf).all()

    def test_batch_mixed(self):
        x = np.array([row(0.3, "hs"), row(0.3, "hs")])
        x_cf = np.array([row(0.5, "ms"), row(0.3, "ms")])
        np.testing.assert_array_equal(
            cat_constraint().satisfied(x, x_cf), [True, False])


class TestContinuousCauseSatisfied:
    def test_tier_up_age_up_ok(self):
        x = np.array([row(0.3, "hs", tier=0.2)])
        x_cf = np.array([row(0.5, "hs", tier=0.6)])
        assert cont_constraint().satisfied(x, x_cf).all()

    def test_tier_up_age_same_violates(self):
        x = np.array([row(0.3, "hs", tier=0.2)])
        x_cf = np.array([row(0.3, "hs", tier=0.6)])
        assert not cont_constraint().satisfied(x, x_cf).any()

    def test_tier_same_age_up_ok(self):
        x = np.array([row(0.3, "hs", tier=0.2)])
        x_cf = np.array([row(0.6, "hs", tier=0.2)])
        assert cont_constraint().satisfied(x, x_cf).all()


class TestPenalty:
    def test_zero_when_comfortably_satisfied(self):
        con = cat_constraint(slope=0.02)
        x = np.array([row(0.3, "hs")])
        x_cf = np.array([row(0.9, "ms")])
        assert con.penalty(x, x_cf)[0] == 0.0

    def test_positive_when_education_up_age_flat(self):
        con = cat_constraint(slope=0.02)
        x = np.array([row(0.3, "hs")])
        x_cf = np.array([row(0.3, "phd")])
        assert con.penalty(x, x_cf)[0] > 0.0

    def test_positive_when_age_decreases_education_same(self):
        con = cat_constraint()
        x = np.array([row(0.5, "bs")])
        x_cf = np.array([row(0.2, "bs")])
        assert con.penalty(x, x_cf)[0] == pytest.approx(0.3)

    def test_margin_enforces_strictness(self):
        con = cat_constraint(slope=0.0, margin=0.1)
        x = np.array([row(0.3, "hs")])
        x_cf = np.array([row(0.3, "phd")])
        assert con.penalty(x, x_cf)[0] > 0.05

    def test_gradient_direction_raises_effect(self):
        con = cat_constraint(slope=0.05)
        x = np.array([row(0.3, "hs")])
        x_cf = np.array([row(0.3, "phd")])
        grad = np.zeros_like(x_cf)
        con.penalty(x, x_cf)[1](1.0, grad)
        assert grad[0, 0] < 0  # increase age to reduce the penalty

    def test_penalty_on_soft_onehot_blocks(self):
        # During training the decoder emits soft probabilities, not one-hots.
        con = cat_constraint(slope=0.02)
        x = np.array([row(0.3, "hs")])
        soft = np.array([[0.3, 0.1, 0.2, 0.3, 0.4, 0.5]])
        assert con.penalty(x, soft)[0] >= 0.0

    @given(st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_zero_penalty_implies_satisfied(self, edu_before, edu_after,
                                            age_before, age_after):
        levels = ("hs", "bs", "ms", "phd")
        con = cat_constraint(slope=0.01, margin=0.005)
        x = np.array([row(age_before, levels[edu_before])])
        x_cf_arr = np.array([row(age_after, levels[edu_after])])
        penalty = con.penalty(x, x_cf_arr)[0]
        if penalty <= 1e-9:
            # zero penalty must imply boolean satisfaction (soundness);
            # the converse need not hold because of the slope/margin.
            assert con.satisfied(x, x_cf_arr).all()


class TestConstruction:
    def test_effect_must_be_noncategorical(self):
        with pytest.raises(ValueError):
            OrdinalImplicationConstraint(encoder(), "education", "education")

    def test_name_mentions_features(self):
        assert "education" in cat_constraint().name
        assert "age" in cat_constraint().name
