"""The ``explain-overlay`` and ``explain-baselines`` workloads.

Both explain the same 150 undesired-class ``adult`` test rows through
one :class:`repro.engine.EngineRunner`, in a closed loop of seeded
32-row batches.  ``explain-overlay`` runs the paper's full framework
(six-part CF-VAE, 16 candidates per row, ``knn`` density, ``scm``
causal repair, a K=4 ensemble); ``explain-baselines`` runs the six
Table IV comparators on a plain runner, all six on every batch.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from common import (
    DATASET,
    MODEL_SEED,
    SCALE,
    SETUP_REPEATS,
    HostSpeed,
    PhaseTimer,
    check_answers,
    median,
    percentile,
)

BATCH_ROWS = 32
#: Batches in the first pass: 5 x 32 = 160 rows cover all 150 rows.
PASS_BATCHES = 5
OVERLAY_CANDIDATES = 16
ENSEMBLE_MEMBERS = 4
BASELINES = ("mahajan_unary", "revise", "cchvae", "cem", "dice_random", "face")

#: Latency limit of one round, about 3x its unloaded median on a 2-core host.
ROUND_SLO_MS = {"explain-overlay": 60.0, "explain-baselines": 800.0}
#: Seconds between host-speed probes in a timed phase (outside the rounds).
PROBE_PERIOD_S = 0.5

VAE_METHODS = ("encode", "decode", "encode_array", "decode_array",
               "reconstruct", "sample_latent", "decode_latent")
PREDICT_METHODS = ("predict", "predict_proba")
KERNEL_METHODS = ("evaluate", "satisfied", "satisfied_matrix")


class Context:
    """Dataset, shared black box and the rows to explain."""

    def __init__(self, timer):
        from repro.experiments.runconfig import get_scale
        from repro.serve import load_bundle, train_shared_blackbox

        scale = get_scale(SCALE)
        with timer("setup.data_s"):
            bundle = load_bundle(DATASET, scale=scale, seed=MODEL_SEED)
        with timer("setup.blackbox_train_s"):
            self.blackbox = train_shared_blackbox(
                bundle, scale.blackbox_epochs, MODEL_SEED)
        self.encoder = bundle.encoder
        self.epochs = scale.blackbox_epochs
        self.desired_class = bundle.schema.desired_class
        self.x_train, self.y_train = bundle.split("train")
        x_test, _ = bundle.split("test")
        undesired = self.blackbox.predict(x_test) != self.desired_class
        self.x_explain = x_test[undesired][: scale.n_explain]
        self.desired = np.full(len(self.x_explain), self.desired_class)


def setup_overlay(timer):
    """Six-part CF-VAE behind a density + causal + ensemble runner."""
    from repro.causal import fit_causal
    from repro.core import inloss_config, paper_config
    from repro.density import fit_class_density
    from repro.engine import EngineRunner, build_strategy
    from repro.models import train_ensemble

    ctx = Context(timer)
    strategy = build_strategy(
        "ours_unary", ctx.encoder, ctx.blackbox, dataset=DATASET,
        seed=MODEL_SEED, config=inloss_config(paper_config(DATASET, "unary")),
        n_candidates=OVERLAY_CANDIDATES)
    with timer("setup.cfvae_fit_s"):
        strategy.fit(ctx.x_train, ctx.y_train)
    with timer("setup.overlay_fit_s.density"):
        density = fit_class_density(
            "knn", ctx.x_train, ctx.y_train, ctx.desired_class)
    with timer("setup.overlay_fit_s.causal"):
        causal = fit_causal("scm", ctx.encoder, ctx.x_train, ctx.y_train)
    with timer("setup.overlay_fit_s.ensemble"):
        ensemble = train_ensemble(
            ctx.x_train, ctx.y_train, n_members=ENSEMBLE_MEMBERS,
            seed=MODEL_SEED, epochs=ctx.epochs, include=ctx.blackbox)
    runner = EngineRunner(ctx.encoder, ctx.blackbox, density=density,
                          causal=causal, ensemble=ensemble)
    return ctx, runner, [strategy]


def setup_baselines(timer):
    """The six Table IV baselines, all fitted before the first propose.

    REVISE and CEM freeze the shared black box when they propose, so
    fitting any strategy after that would train against frozen weights.
    """
    from repro.engine import EngineRunner, build_strategy

    ctx = Context(timer)
    strategies = []
    for name in BASELINES:
        strategy = build_strategy(name, ctx.encoder, ctx.blackbox,
                                  dataset=DATASET, seed=MODEL_SEED)
        with timer(f"setup.strategy_fit_s.{name}"):
            strategy.fit(ctx.x_train, ctx.y_train)
        strategies.append(strategy)
    return ctx, EngineRunner(ctx.encoder, ctx.blackbox), strategies


SETUPS = {"explain-overlay": setup_overlay, "explain-baselines": setup_baselines}


def batch_stream(seed, n_rows):
    """Endless seeded 32-row index batches: concatenated permutations."""
    rng = np.random.default_rng(seed)
    buffer = np.empty(0, dtype=int)
    while True:
        while len(buffer) < BATCH_ROWS:
            buffer = np.concatenate([buffer, rng.permutation(n_rows)])
        yield buffer[:BATCH_ROWS]
        buffer = buffer[BATCH_ROWS:]


def _digest(results):
    digest = hashlib.sha256()
    for result in results:
        for array in (result.x_cf, result.predicted, result.valid, result.feasible):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


class _Call:
    __slots__ = ("round", "strategy", "x", "desired", "result", "error")

    def __init__(self, round_no, strategy, x, desired):
        self.round, self.strategy, self.x, self.desired = round_no, strategy, x, desired
        self.result = self.error = None


def _round(runner, strategies, ctx, index, round_no, calls):
    x, desired = ctx.x_explain[index], ctx.desired[index]
    for strategy in strategies:
        call = _Call(round_no, strategy.name, x, desired)
        try:
            call.result = runner.run(strategy, x, desired)
        except Exception as error:  # counted as a failed operation
            call.error = f"{strategy.name}: {error!r}"
        calls.append(call)


def timed_phase(runner, strategies, ctx, stream, seconds, host, recorder=None,
                min_rounds=0):
    """Closed loop: one caller runs rounds until ``seconds`` have passed.

    The host-speed probe runs between rounds, outside their timing.
    """
    calls, rounds = [], []
    start = time.perf_counter()
    deadline = start + seconds
    cpu_start = time.process_time()
    round_no = 0
    while round_no < min_rounds or time.perf_counter() < deadline:
        host.sample_every(PROBE_PERIOD_S)
        index = next(stream)
        begin = time.perf_counter()
        if recorder is None:
            _round(runner, strategies, ctx, index, round_no, calls)
        else:
            with recorder.span("bench.round", tag=round_no):
                _round(runner, strategies, ctx, index, round_no, calls)
        rounds.append(time.perf_counter() - begin)
        round_no += 1
    return {
        "calls": calls,
        "rounds": rounds,
        "ops": len(calls),
        "cpu_s": time.process_time() - cpu_start,
    }


def check_calls(ctx, calls):
    """Run the output checks on every answered call; marks failures."""
    from repro.constraints import ImmutableProjector

    projector = ImmutableProjector(ctx.encoder)
    for call in calls:
        result = call.result
        if result is None:
            continue
        ok = check_answers(projector, ctx.blackbox, call.x, result.x_cf,
                           result.desired, result.predicted, result.valid)
        if not (ok.all() and np.array_equal(result.x, call.x)
                and np.array_equal(result.desired, call.desired)):
            call.error = (f"{call.strategy}: output check failed on "
                          f"{int((~ok).sum())} rows")


def summarize(workload, phase, speed_index):
    """End-to-end metrics of one timed phase (after the checks ran).

    Rates and latencies are means over the whole phase, not medians of
    rounds: a shared 2-core VM ran in a fast and a slow mode about 1.45x
    apart, and a per-round median flipped between the two across runs.  Both
    are scaled to the reference host by the run's host-speed index.
    """
    calls, rounds = phase["calls"], phase["rounds"]
    failed_rounds = {call.round for call in calls if call.error}
    slo = ROUND_SLO_MS[workload] / 1e3
    within = sum(1 for i, seconds in enumerate(rounds)
                 if seconds <= slo and i not in failed_rounds)
    rows = explained = valid = usable = 0
    for call in calls:
        rows += len(call.x)
        if call.error is None:
            explained += len(call.x)
            valid += int(call.result.valid.sum())
            usable += int((call.result.valid & call.result.feasible).sum())
    failed = sum(1 for call in calls if call.error)
    return {
        "rows_per_s": explained / sum(rounds) * speed_index,
        "latency_ms": 1e3 * sum(rounds) / len(rounds) / speed_index,
        "slo_frac": within / len(rounds),
        "valid_frac": valid / rows,
        "usable_frac": usable / rows,
        "ok_frac": 1.0 - failed / len(calls),
    }, {"raw_rows_per_s": explained / sum(rounds),
        "latency_p50_ms": 1e3 * median(rounds),
        "latency_p99_ms": 1e3 * percentile(rounds, 99), "rounds": len(rounds)}


def warm_up(runner, strategies, ctx, index):
    """One diagnostics round; returns its output digest and candidates per row."""
    results, candidates = [], {}
    for strategy in strategies:
        result, diagnostics = runner.run(
            strategy, ctx.x_explain[index], ctx.desired[index],
            return_diagnostics=True)
        results.append(result)
        candidates[strategy.name] = diagnostics["n_candidates"]
    return _digest(results), candidates


def first_pass_digest(calls):
    first = [c.result for c in calls if c.round < PASS_BATCHES]
    if any(result is None for result in first):
        return None
    return _digest(first)


def funnel(runner, strategies, ctx, seed):
    """Candidate funnel of the first pass: one untimed diagnostics run."""
    stream = batch_stream(seed, len(ctx.x_explain))
    candidates = valid = usable = 0
    for _ in range(PASS_BATCHES):
        index = next(stream)
        for strategy in strategies:
            _, diagnostics = runner.run(
                strategy, ctx.x_explain[index], ctx.desired[index],
                return_diagnostics=True)
            count = len(index) * diagnostics["n_candidates"]
            candidates += count
            valid += diagnostics["candidate_validity"] * count
            usable += int(np.sum(diagnostics["n_usable"]))
    return {"engine.funnel.candidate_valid_frac": valid / candidates,
            "engine.funnel.candidate_usable_frac": usable / candidates}


def _rows(args):
    shape = np.shape(args[0]) if args else ()
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def instrument_model(recorder, blackbox):
    for method in PREDICT_METHODS:
        recorder.wrap(blackbox, method, "models.predict", rows=_rows)


def instrument_vae(recorder, vae):
    for method in VAE_METHODS:
        recorder.wrap(vae, method, "models.vae")


def strategy_vaes(strategy):
    """The VAEs a strategy decodes with, found through public attributes."""
    found = []
    for path in (("vae",), ("generator", "vae"), ("explainer", "generator", "vae")):
        obj = strategy
        for attribute in path:
            obj = getattr(obj, attribute, None)
        if obj is not None and all(obj is not seen for seen in found):
            found.append(obj)
    return found


def instrument(recorder, runner, strategies):
    """Wrap the runner, its hosted models and every strategy."""
    recorder.wrap(runner, "run", "engine.run")
    recorder.wrap(runner, "project", "engine.project")
    for method in KERNEL_METHODS:
        recorder.wrap(runner.kernel, method, "engine.kernel")
    if runner.density is not None:
        for method in ("score", "score_tiled"):
            recorder.wrap(runner.density, method, "density.score", rows=_rows)
    if runner.causal is not None:
        for method in ("repair_batch", "repair"):
            recorder.wrap(runner.causal, method, "causal.repair")
    if runner.ensemble is not None:
        for method in ("agreement", "predict_all", "predict"):
            recorder.wrap(runner.ensemble, method, "models.ensemble")
    instrument_model(recorder, runner.blackbox)
    for strategy in strategies:
        recorder.wrap(strategy, "propose", f"propose.{strategy.name}")
        for vae in strategy_vaes(strategy):
            instrument_vae(recorder, vae)


def run(workload, seed, seconds, recorder=None):
    """One run of an explain workload; returns the benchmark report dict."""
    setup = SETUPS[workload]
    host = HostSpeed()
    setup_times, digests, layer_setup = [], [], {}
    repeats = 1 if recorder is not None else SETUP_REPEATS
    for _ in range(repeats):
        timer = PhaseTimer()
        start = time.perf_counter()
        ctx, runner, strategies = setup(timer)
        setup_times.append(time.perf_counter() - start)
        layer_setup = timer.seconds
        host.sample(repeats=5)
        # warm-up on the stream's first batch, untimed: every set-up must
        # answer it identically (same seed, same outputs)
        digest, candidates = warm_up(
            runner, strategies, ctx, next(batch_stream(seed, len(ctx.x_explain))))
        digests.append(digest)

    stream = batch_stream(seed, len(ctx.x_explain))
    report = {"setup_times_s": setup_times, "layer_setup": layer_setup,
              "host": host, "checks": []}
    if len(set(digests)) != 1:
        report["checks"].append(f"warm-up outputs differ across set-ups: {digests}")

    if recorder is None:
        phase = timed_phase(runner, strategies, ctx, stream, seconds, host,
                            min_rounds=PASS_BATCHES)
    else:
        # untraced then traced halves over one continuing stream: the
        # traced half gives the layers, the pair gives the overhead
        plain = timed_phase(runner, strategies, ctx, stream, seconds / 2, host)
        instrument(recorder, runner, strategies)
        try:
            phase = timed_phase(runner, strategies, ctx, stream, seconds / 2,
                                host, recorder=recorder)
        finally:
            recorder.unwrap_all()
        report["overhead"] = (plain, phase)
    # a traced run checks its untraced half too
    calls = phase["calls"] + (report["overhead"][0]["calls"] if recorder else [])
    check_calls(ctx, calls)
    metrics, extra = summarize(workload, phase, host.index)
    errors = [c.error for c in calls if c.error]
    report.update(metrics=metrics, attempted=len(calls), failed=len(errors))
    report["checks"].extend(sorted(set(errors))[:5])
    report["properties"] = {
        "rows_per_batch": BATCH_ROWS,
        "candidates_per_row": candidates,
        "rounds": extra["rounds"],
        "raw_rows_per_s": extra["raw_rows_per_s"],
        "latency_p50_ms": extra["latency_p50_ms"],
        "latency_p99_ms": extra["latency_p99_ms"],
        "first_pass_digest": (first_pass_digest(phase["calls"])
                              if recorder is None else None),
        "explained_rows": int(len(ctx.x_explain)),
        "train_rows": int(len(ctx.x_train)),
        "encoded_columns": int(ctx.x_train.shape[1]),
        "density_reference_rows": int(runner.density.n_reference)
        if runner.density is not None else 0,
    }
    if recorder is not None:
        report["funnel"] = funnel(runner, strategies, ctx, seed)
    return report
