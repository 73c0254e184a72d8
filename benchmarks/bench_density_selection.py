"""Benchmark: density-aware counterfactual selection (Figure 3).

Times one candidate sweep + density-aware selection through the engine
runner and verifies the Figure 3 policy: the density-aware picks are at
least as feasible as the deterministic output and land in denser
feasible regions than proximity-only picks.
"""


from repro.core import FeasibleCFExplainer, paper_config
from repro.density import KnnDensity
from repro.engine import CoreCFStrategy, EngineRunner
from repro.utils.tables import render_table

from conftest import save_artifact


def test_density_selection(benchmark, adult_context, artifact_dir):
    context = adult_context
    explainer = FeasibleCFExplainer(
        context.bundle.encoder, constraint_kind="unary",
        config=paper_config("adult", "unary"),
        blackbox=context.blackbox, seed=0)
    explainer.fit(context.x_train, context.y_train)

    # the feasible reference population: valid & feasible one-shot CFs
    reference = explainer.explain(context.x_train[:500])
    density = KnnDensity(k_neighbors=8).fit(
        reference.x_cf[reference.valid & reference.feasible])
    x = context.x_explain[:30]

    def select(density_weight):
        runner = EngineRunner(
            explainer.encoder, explainer.blackbox,
            constraints=explainer.compiled_constraints, density=density,
            density_weight=density_weight)
        return runner.run(CoreCFStrategy(explainer, n_candidates=15), x).x_cf

    x_cf = benchmark.pedantic(select, args=(2.0,), rounds=1, iterations=1)

    deterministic = explainer.explain(x, context.desired[:30]).x_cf
    x_cf_proximal = select(1e-9)

    rows = [
        ["deterministic (no selection)",
         float(explainer.constraints.satisfaction_rate(x, deterministic) * 100),
         float(density.score(deterministic).mean())],
        ["proximity-only selection",
         float(explainer.constraints.satisfaction_rate(x, x_cf_proximal) * 100),
         float(density.score(x_cf_proximal).mean())],
        ["density-aware selection",
         float(explainer.constraints.satisfaction_rate(x, x_cf) * 100),
         float(density.score(x_cf).mean())],
    ]
    text = render_table(
        ["policy", "feasibility %", "mean kNN dist to feasible refs"],
        rows, title="Figure 3 selection policy (Adult, unary)", digits=4)
    save_artifact("density_selection.txt", text)
    print("\n" + text)

    # density-aware picks must sit in regions at least as dense as
    # proximity-only picks
    assert rows[2][2] <= rows[1][2] + 1e-9
    # and selection never hurts feasibility vs the deterministic output
    assert rows[2][1] >= rows[0][1] - 10.0
