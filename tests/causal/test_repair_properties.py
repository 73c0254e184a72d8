"""Property tests for causal repair: idempotence and monotone relations.

Mahajan et al.'s causal constraints say a counterfactual must respect
the data's causal relations.  Whatever candidate sweep the engine hands
over, a repaired sweep must be a fixed point of the repair (repairing it
again changes no bit) and must satisfy every monotone relation the model
states:

* SCM: ``monotone`` equations (the effect never falls below the input's)
  and ``floor`` equations (the effect never sits below the floor its
  repaired causes imply, e.g. age above the minimum attainment age of
  the counterfactual's education);
* mined: ``cause up => effect >= effect_x + slope * delta + margin``
  (capped at the encoded ceiling) and ``cause unchanged => effect not
  lowered``, for any acyclic relation list in any order.

Sweeps are noisy candidates around real registry rows, so categorical
blocks flip rank and continuous causes move both ways.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import MinedCausalModel, ScmCausalModel
from repro.data import load_dataset
from repro.data.schema import FeatureType
from tests.helpers.parity import DATASETS, candidate_sweep


@lru_cache(maxsize=None)
def bundle_for(name):
    return load_dataset(name, n_instances=600, seed=2)


@st.composite
def sweeps(draw):
    """``(bundle, x, sweep)``: ``n`` registry rows and ``m`` candidates each."""
    bundle = bundle_for(draw(st.sampled_from(DATASETS)))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([0.0, 1e-7, 0.02, 0.2, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = bundle.encoded[rng.choice(len(bundle.encoded), size=n, replace=False)]
    return bundle, x, candidate_sweep(x, rng, scale, m)


@st.composite
def mined_relations(draw, bundle):
    """An acyclic ``(cause, effect, slope)`` list over ``bundle``'s schema, shuffled."""
    schema = bundle.encoder.schema
    immutable = set(schema.immutable_names)
    names = [spec.name for spec in schema.features]
    effects = [spec.name for spec in schema.features
               if spec.ftype is FeatureType.CONTINUOUS and spec.name not in immutable]
    # a random feature order; relations only point forward along it
    order = draw(st.permutations(names))
    rank = {name: i for i, name in enumerate(order)}
    pairs = [(cause, effect) for effect in effects for cause in names
             if rank[cause] < rank[effect]]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    slopes = draw(st.lists(st.floats(1e-3, 0.5), min_size=len(chosen), max_size=len(chosen)))
    relations = [(cause, effect, slope) for (cause, effect), slope in zip(chosen, slopes)]
    return draw(st.permutations(relations))


def flat(x, sweep):
    n, m, d = sweep.shape
    return np.repeat(x, m, axis=0), sweep.reshape(n * m, d)


class TestScmRepair:
    @settings(max_examples=120, deadline=None)
    @given(sweeps())
    def test_idempotent(self, case):
        bundle, x, sweep = case
        model = ScmCausalModel(bundle.encoder)
        repaired = model.repair_batch(x, sweep)
        assert np.array_equal(model.repair_batch(x, repaired), repaired)

    @settings(max_examples=120, deadline=None)
    @given(sweeps())
    def test_monotone_and_floor_equations_hold(self, case):
        bundle, x, sweep = case
        model = ScmCausalModel(bundle.encoder)
        x_rows, repaired = flat(x, model.repair_batch(x, sweep))
        codec = model._codec
        names = tuple(codec.kinds)
        v_x, v_cf = codec.read(x_rows, names), codec.read(repaired, names)
        for eq in model.equations:
            low, high = codec.clip_range(eq.effect)
            # one encoded-unit ulp of slack for the raw <-> encoded round trip
            slack = 1e-12 * (high - low)
            if eq.mode == "monotone":
                assert np.all(v_cf[eq.effect] >= v_x[eq.effect] - slack), eq.label
            elif eq.mode == "floor":
                floor = np.minimum(eq.predict({c: v_cf[c] for c in eq.causes}), high)
                assert np.all(v_cf[eq.effect] >= floor - slack), eq.label


class TestMinedRepair:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_idempotent(self, data):
        bundle, x, sweep = data.draw(sweeps())
        model = MinedCausalModel(
            bundle.encoder, relations=data.draw(mined_relations(bundle)))
        repaired = model.repair_batch(x, sweep)
        assert np.array_equal(model.repair_batch(x, repaired), repaired)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_every_relation_holds(self, data):
        bundle, x, sweep = data.draw(sweeps())
        relations = data.draw(mined_relations(bundle))
        model = MinedCausalModel(bundle.encoder, relations=relations)
        x_rows, repaired = flat(x, model.repair_batch(x, sweep))
        for cause, effect, slope in relations:
            delta = model._cause_values(repaired, cause) - model._cause_values(x_rows, cause)
            column = model._codec.columns[effect]
            effect_x, effect_cf = x_rows[:, column], repaired[:, column]
            up = delta > model.tolerance
            same = np.abs(delta) <= model.tolerance
            lifted = np.minimum(effect_x + slope * delta + model.strict_margin, 1.0)
            assert np.all(effect_cf[up] >= lifted[up]), (cause, effect)
            assert np.all(effect_cf[same] >= effect_x[same]), (cause, effect)

    def test_relations_are_applied_causes_first(self):
        bundle = bundle_for("law_school")
        relations = [("ugpa", "family_income", 0.5), ("lsat", "ugpa", 0.5)]
        model = MinedCausalModel(bundle.encoder, relations=relations)
        assert model.relations == tuple(reversed(relations))
        # independent relations keep the order they were given in
        independent = [("tier", "lsat", 0.1), ("zfygpa", "zgpa", 0.1)]
        assert MinedCausalModel(
            bundle.encoder, relations=independent).relations == tuple(independent)

    def test_cyclic_relations_are_refused(self):
        bundle = bundle_for("law_school")
        with pytest.raises(ValueError, match="cycle"):
            MinedCausalModel(bundle.encoder, relations=[
                ("lsat", "ugpa", 0.1), ("ugpa", "zgpa", 0.1), ("zgpa", "lsat", 0.1)])
