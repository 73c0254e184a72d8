"""Ablation: immutable-attribute freezing on/off.

Section III-C disables immutable attributes (race, gender) during VAE
training and restores them at prediction time.  Turning the projection
off lets the generator edit protected attributes — this ablation counts
how often that actually happens, which is the paper's justification for
the mechanism.
"""

import numpy as np

from repro.constraints import ImmutableProjector, build_constraints
from repro.core import paper_config
from repro.core.generator import CFVAEGenerator
from repro.models import ConditionalVAE
from repro.utils.tables import render_table

from conftest import save_artifact


class _IdentityProjector:
    """Projection disabled: counterfactuals keep whatever the decoder emits."""

    def project(self, x, x_cf):
        return np.asarray(x_cf, dtype=np.float64)

    def project_vjp(self, x, x_cf):
        return x_cf, lambda grad: grad


def _run(context, projector, seed=0):
    vae = ConditionalVAE(context.bundle.encoder.n_encoded,
                         np.random.default_rng(seed + 3))
    generator = CFVAEGenerator(
        vae, context.blackbox, build_constraints(context.bundle.encoder, "unary"),
        projector, paper_config("adult", "unary"),
        rng=np.random.default_rng(seed + 4))
    generator.fit(context.x_train)
    x_cf = generator.generate(context.x_explain, context.desired)
    mask = context.bundle.encoder.immutable_mask()
    drift = np.abs(x_cf[:, mask] - context.x_explain[:, mask])
    violated = float((drift > 1e-6).any(axis=1).mean() * 100)
    validity = float(
        (context.blackbox.predict(x_cf) == context.desired).mean() * 100)
    return validity, violated


def test_ablation_immutables(benchmark, adult_context, artifact_dir):
    context = adult_context

    def run_both():
        frozen = _run(context, ImmutableProjector(context.bundle.encoder))
        free = _run(context, _IdentityProjector())
        return frozen, free

    frozen, free = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        ["projection on", frozen[0], frozen[1]],
        ["projection off", free[0], free[1]],
    ]
    text = render_table(
        ["variant", "validity %", "rows touching immutables %"],
        rows, title="Ablation: immutable-attribute freezing (Adult, unary)")
    save_artifact("ablation_immutables.txt", text)
    print("\n" + text)

    # with projection on, immutables never change
    assert frozen[1] == 0.0
    # without it the decoder drifts protected attributes on some rows
    assert free[1] >= frozen[1]
