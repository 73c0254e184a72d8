"""Generic overlay surface: one save/load/has surface for every kind.

Every model overlay persists through ``save_overlay(name, kind, model)``
/ ``load_overlay`` / ``has_overlay``, dispatching through the store's
fixed table of overlay kinds, and is served through the one
``ExplanationService.warm_start(overlays={...})`` spec.  These tests
cover the generic surface, the kind table and the warm-start spec.
"""

import pytest

from repro.serve import ArtifactStore, ExplanationService, overlay_kinds


@pytest.fixture(scope="module")
def saved(tiny_pipeline, tmp_path_factory):
    """A stored artifact plus one fitted model per overlay kind."""
    from repro.causal import fit_causal
    from repro.density import KnnDensity
    from repro.models import train_ensemble

    store = ArtifactStore(tmp_path_factory.mktemp("overlays"))
    store.save(tiny_pipeline, name="t")
    x_train, y_train = tiny_pipeline.bundle.split("train")
    desired_class = int(tiny_pipeline.bundle.schema.desired_class)
    models = {
        "density": KnnDensity(k_neighbors=5).fit(
            x_train[y_train == desired_class][:120]),
        "causal": fit_causal("scm", tiny_pipeline.encoder, x_train),
        "ensemble": train_ensemble(
            x_train, y_train, n_members=2, epochs=1,
            include=tiny_pipeline.blackbox),
    }
    return store, models


class TestGenericSurface:
    def test_registry_lists_the_three_builtin_kinds(self):
        assert overlay_kinds() == ("causal", "density", "ensemble")

    @pytest.mark.parametrize("kind", ("density", "causal", "ensemble"))
    def test_roundtrip_every_kind(self, saved, tiny_pipeline, kind):
        store, models = saved
        assert not store.has_overlay("t", kind)
        store.save_overlay("t", kind, models[kind])
        assert store.has_overlay("t", kind)
        loaded = store.load_overlay(
            "t", kind, encoder=tiny_pipeline.encoder)
        assert loaded.fingerprint() == models[kind].fingerprint()

    def test_unknown_kind_lists_known(self, saved):
        store, models = saved
        with pytest.raises(KeyError, match="unknown overlay kind"):
            store.save_overlay("t", "hologram", models["density"])
        with pytest.raises(KeyError, match="unknown overlay kind"):
            store.has_overlay("t", "hologram")
        with pytest.raises(KeyError, match="unknown overlay kind"):
            store.load_overlay("t", "hologram")


@pytest.fixture(scope="module")
def warm(saved, tiny_pipeline):
    """A second artifact carrying a persisted density overlay."""
    store, models = saved
    store.save(tiny_pipeline, name="w")
    store.save_overlay("w", "density", models["density"])
    return store, models["density"]


class TestWarmStartOverlays:
    def test_overlays_spec_loads_from_store(self, warm):
        store, density = warm
        service = ExplanationService.warm_start(
            store, "w", overlays={"density": "store"})
        assert service.density is not None
        assert service.density.fingerprint() == density.fingerprint()

    def test_overlays_spec_accepts_fitted_models(self, warm):
        store, density = warm
        service = ExplanationService.warm_start(
            store, "w", overlays={"density": density})
        assert service.density is density

    def test_unknown_overlay_kind_rejected(self, warm):
        store, _ = warm
        with pytest.raises(ValueError, match="unknown overlay kinds"):
            ExplanationService.warm_start(
                store, "w", overlays={"hologram": "store"})
