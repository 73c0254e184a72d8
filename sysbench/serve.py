"""The ``serve-stream`` workload: two open-loop clients on one pool.

Set-up trains the ``adult`` pipeline (black box + four-part CF-VAE),
saves it into a temporary :class:`repro.serve.ArtifactStore` inside the
checkout and starts a 2-replica thread :class:`repro.serve.WorkerPool`
behind :class:`repro.serve.AsyncExplanationService` with its defaults.

* Stream client: single-row ``front.explain`` requests at a fixed rate
  on the event loop; half repeat a 128-row hot set, half come from the
  rest of the test+train population.  The coalescing front drains them
  through the pool's flush path, which does not consult the LRU cache.
* Audit client: ``pool.explain_batch`` on a 64-row cohort every period,
  from its own thread.  Cohorts are drawn from more distinct rows than
  the pool's caches hold together, so the LRU both hits and evicts.

Both clients send on a schedule whatever the answers do, and every
latency is timed from the request's due time, so a stall shows as the
wait it imposes on later requests.
"""

from __future__ import annotations

import asyncio
import collections
import shutil
import tempfile
import threading
import time
from pathlib import Path

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

#: Offered stream rate.  500 req/s with the audit client running put
#: slo_frac at 0.90-0.95 on a 2-core host, near the knee; 400 keeps the
#: tail off it so runs repeat.
STREAM_RATE = 400.0          # requests per second
HOT_ROWS = 128
HOT_SHARE = 0.5
REQUEST_TIMEOUT_S = 1.0
STREAM_SLO_MS = 10.0         # about 3x the unloaded p50 on a 2-core host
#: 256-row cohorts every 400 ms (640 rows/s).  A 64-row cohort every
#: 100 ms, the same row rate, took 2-4 ms a call, so whether a stream
#: flush held the replica decided its median, which spread 15-28%.
AUDIT_PERIOD_S = 0.4
AUDIT_ROWS = 256
REPLICAS = 2
CACHE_ROWS = 512             # per replica
#: Distinct rows the audit cohorts are drawn from, over total cache rows.
AUDIT_POPULATION_OVER_CACHE = 1.5
FLUSH_CANDIDATES = 8
#: Untimed lead-in of both clients, so caches fill before timing.
WARMUP_S = 2.0

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def setup(timer):
    """Train, save, warm-start the pool; returns (pipeline, store dir, pool, front)."""
    from repro.core import FeasibleCFExplainer, paper_config
    from repro.experiments.runconfig import get_scale
    from repro.models import accuracy
    from repro.serve import (
        ArtifactStore,
        AsyncExplanationService,
        TrainedPipeline,
        WorkerPool,
        load_bundle,
        train_shared_blackbox,
    )

    scale = get_scale(SCALE)
    with timer("setup.data_s"):
        bundle = load_bundle(DATASET, scale=scale, seed=MODEL_SEED)
    with timer("setup.blackbox_train_s"):
        blackbox = train_shared_blackbox(bundle, scale.blackbox_epochs, MODEL_SEED)
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=paper_config(DATASET, "unary"), blackbox=blackbox, seed=MODEL_SEED)
    x_train, y_train = bundle.split("train")
    with timer("setup.cfvae_fit_s"):
        explainer.fit(x_train, y_train)
    x_test, y_test = bundle.split("test")
    pipeline = TrainedPipeline(
        explainer=explainer, dataset=bundle.name,
        n_instances=scale.instances_for(DATASET), seed=MODEL_SEED,
        constraint_kind="unary", blackbox_epochs=scale.blackbox_epochs,
        blackbox_accuracy=accuracy(blackbox, x_test, y_test), bundle=bundle)

    OUT_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    with timer("setup.store_save_s"):
        store = ArtifactStore(store_dir)
        store.save(pipeline, name="bench")
    with timer("setup.pool_start_s"):
        # thread replicas share one copy of the weights either way; the
        # shared-memory segment would live outside the checkout and start
        # a resource-tracker process that outlives the run
        pool = WorkerPool(store, "bench", n_replicas=REPLICAS, backend="thread",
                          cache_size=CACHE_ROWS, shared_weights=False,
                          flush_kwargs={"n_candidates": FLUSH_CANDIDATES})
        front = AsyncExplanationService(pool)
    return pipeline, store_dir, pool, front


class Traffic:
    """The seeded request schedule of one run (rows are indices)."""

    def __init__(self, seed, n_rows, duration):
        rng = np.random.default_rng(seed)
        order = rng.permutation(n_rows)
        self.hot = order[:HOT_ROWS]
        cold = order[HOT_ROWS:]
        n_stream = int(STREAM_RATE * duration)
        from_hot = rng.random(n_stream) < HOT_SHARE
        self.stream = np.where(from_hot, rng.choice(self.hot, n_stream),
                               rng.choice(cold, n_stream))
        self.stream_due = np.arange(n_stream) / STREAM_RATE
        audit_population = rng.choice(
            n_rows, int(AUDIT_POPULATION_OVER_CACHE * REPLICAS * CACHE_ROWS),
            replace=False)
        n_audit = int(duration / AUDIT_PERIOD_S)
        self.audit = [rng.choice(audit_population, AUDIT_ROWS, replace=False)
                      for _ in range(n_audit)]
        self.audit_due = np.arange(n_audit) * AUDIT_PERIOD_S
        self.audit_distinct = len(audit_population)

    def repeat_frac(self, timed):
        """Share of timed stream requests whose row was requested before."""
        seen, repeats = set(), 0
        for row, counted in zip(self.stream, timed):
            repeats += bool(counted and row in seen)
            seen.add(row)
        return repeats / max(int(np.sum(timed)), 1)


class _FlushProbe:
    """Rows callback of the traced ``pool.flush_rows``.

    Records each coalesced batch's size and, per request, the wait from
    its due time to the flush start.  The front flushes its queue in
    arrival order, so a flush takes the next ``len(rows)`` requests of
    the arrival FIFO.  Two flushes entering at once could swap their
    slices; they start within microseconds, so the waits barely move.
    """

    def __init__(self):
        self.arrivals = collections.deque()
        self.waits, self.sizes = [], []
        self._lock = threading.Lock()

    def __call__(self, args):
        start = time.perf_counter()
        size = len(args[0])
        with self._lock:
            self.sizes.append(size)
            for _ in range(min(size, len(self.arrivals))):
                self.waits.append(start - self.arrivals.popleft())
        return size


def instrument(recorder, pool):
    """Wrap the pool and the models its replicas serve from."""
    from explain import instrument_model, instrument_vae

    probe = _FlushProbe()
    recorder.wrap(pool, "flush_rows", "serve.pool.flush", rows=probe)
    recorder.wrap(pool, "explain_batch", "serve.pool.batch")
    for replica in getattr(pool, "replicas", ()):
        explainer = getattr(getattr(replica, "service", None), "explainer", None)
        if explainer is None:
            continue
        instrument_model(recorder, explainer.blackbox)
        instrument_vae(recorder, explainer.generator.vae)
    return probe


def _stream_client(front, traffic, rows, t0, answers, probe):
    """Event-loop client: send every stream request at its due time."""
    late = np.zeros(len(traffic.stream))

    async def one(i, due):
        if probe is not None:
            probe.arrivals.append(due)
        try:
            answer = await front.explain(rows[traffic.stream[i]],
                                         timeout=REQUEST_TIMEOUT_S)
            answers[i] = (time.perf_counter() - due, answer)
        except Exception as error:  # a failed request, timeouts included
            answers[i] = (time.perf_counter() - due, error)

    async def main():
        tasks = []
        for i, offset in enumerate(traffic.stream_due):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late[i] = time.perf_counter() - due
            tasks.append(asyncio.create_task(one(i, due)))
        await asyncio.gather(*tasks)
        await front.aclose()

    return main, late


def _counters(pool):
    """Per-replica ``(hits, misses, evictions, requests)`` of the pool."""
    return np.array([
        (c["cache_hits"], c["cache_misses"], c["cache_evictions"], c["requests"])
        for c in pool.stats()["per_replica"]], dtype=float)


def _audit_client(pool, traffic, rows, t0, warmup, answers, counters):
    """Thread client: one ``explain_batch`` cohort per audit period.

    Snapshots the pool counters when the timed window opens, so cache
    and routing figures cover the timed window only.
    """
    for k, offset in enumerate(traffic.audit_due):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if offset >= warmup and "start" not in counters:
            counters["start"] = _counters(pool)
        try:
            result = pool.explain_batch(rows[traffic.audit[k]])
            answers[k] = (time.perf_counter() - due, result)
        except Exception as error:  # a failed request
            answers[k] = (time.perf_counter() - due, error)


def _record_requests(recorder, t0, traffic, stream_answers, audit_answers):
    """Every request as a span, tagged by its id, under one session span.

    Requests overlap one another, so the session's self time is the time
    no request was in flight.
    """
    spans = [("serve.stream.request", ("stream", i), t0 + due, latency, 1)
             for i, (due, (latency, _)) in enumerate(zip(traffic.stream_due, stream_answers))]
    spans += [("serve.audit.request", ("audit", k), t0 + due, latency, AUDIT_ROWS)
              for k, (due, (latency, _)) in enumerate(zip(traffic.audit_due, audit_answers))]
    session = recorder.record("serve.session", t0,
                              max(start + latency for _, _, start, latency, _ in spans))
    for name, tag, start, latency, rows in spans:
        recorder.record(name, start, start + latency, parent=session, tag=tag, rows=rows)


def session(pool, front, rows, seed, seconds, warmup, probe=None, recorder=None):
    """Run both clients for ``warmup + seconds``; returns raw outcomes."""
    traffic = Traffic(seed, len(rows), warmup + seconds)
    stream_answers = [None] * len(traffic.stream)
    audit_answers = [None] * len(traffic.audit)
    counters = {}
    t0 = time.perf_counter() + 0.05
    main, late = _stream_client(front, traffic, rows, t0, stream_answers, probe)
    audit = threading.Thread(target=_audit_client, name="bench-audit",
                             args=(pool, traffic, rows, t0, warmup, audit_answers,
                                   counters))
    cpu_start = time.process_time()
    audit.start()
    try:
        asyncio.run(main())
    finally:
        audit.join()
    cpu = time.process_time() - cpu_start
    if recorder is not None:
        _record_requests(recorder, t0, traffic, stream_answers, audit_answers)
    window = _counters(pool) - counters.get("start", 0.0)
    stream_timed = traffic.stream_due >= warmup
    audit_timed = traffic.audit_due >= warmup
    # the timed window closes when its last answer arrives, so a pool
    # falling behind the schedule reads as fewer rows per second
    finished = max(
        [due + a[0] for a, due, t in zip(stream_answers, traffic.stream_due, stream_timed) if t]
        + [due + a[0] for a, due, t in zip(audit_answers, traffic.audit_due, audit_timed) if t],
        default=warmup + seconds)
    hits, misses, evictions, requests = window.T
    return {
        "traffic": traffic,
        "stream": [a for a, t in zip(stream_answers, stream_timed) if t],
        "stream_rows": traffic.stream[stream_timed],
        "audit": [a for a, t in zip(audit_answers, audit_timed) if t],
        "audit_rows": [c for c, t in zip(traffic.audit, audit_timed) if t],
        "late": late[stream_timed],
        "repeat_frac": traffic.repeat_frac(stream_timed),
        "cache_hit_frac": hits.sum() / max(hits.sum() + misses.sum(), 1.0),
        "cache_evictions": int(evictions.sum()),
        "max_replica_share": requests.max() / max(requests.sum(), 1.0),
        "window_s": finished - warmup,
        "cpu_s": cpu,
        "ops": len(stream_answers) + len(audit_answers),
    }


def check_and_summarize(outcome, pipeline, rows):
    """Output checks on every answer, then the end-to-end metrics.

    A stream request is one row; an audit call fails when it raises or
    any of its rows fails a check.  Failed requests miss the latency
    limit and count as neither valid nor usable.
    """
    from repro.constraints import ImmutableProjector

    stream = [(latency, answer, row) for (latency, answer), row
              in zip(outcome["stream"], outcome["stream_rows"])]
    audit = [(latency, result, cohort) for (latency, result), cohort
             in zip(outcome["audit"], outcome["audit_rows"])]
    answered_stream = [(a, row) for _, a, row in stream
                       if not isinstance(a, Exception)]
    answered_audit = [(r, cohort) for _, r, cohort in audit
                      if not isinstance(r, Exception)]
    x = [rows[row] for _, row in answered_stream]
    x_cf = [a["x_cf"] for a, _ in answered_stream]
    desired = [a["desired"] for a, _ in answered_stream]
    predicted = [a["predicted"] for a, _ in answered_stream]
    valid = [a["valid"] for a, _ in answered_stream]
    feasible = [a["feasible"] for a, _ in answered_stream]
    for result, cohort in answered_audit:
        x.extend(rows[cohort])
        x_cf.extend(result.x_cf)
        desired.extend(result.desired)
        predicted.extend(result.predicted)
        valid.extend(result.valid)
        feasible.extend(result.feasible)
    ok = check_answers(ImmutableProjector(pipeline.encoder), pipeline.blackbox,
                       np.asarray(x), np.asarray(x_cf), np.asarray(desired),
                       np.asarray(predicted), np.asarray(valid))
    valid = np.asarray(valid, dtype=bool) & ok
    usable = valid & np.asarray(feasible, dtype=bool)

    n_stream = len(answered_stream)
    stream_ok = iter(ok[:n_stream])
    stream_good = [not isinstance(a, Exception) and bool(next(stream_ok))
                   for _, a, _ in stream]
    audit_good = ok[n_stream:].reshape(-1, AUDIT_ROWS).all(axis=1)
    failed = (stream_good.count(False) + len(audit) - len(answered_audit)
              + int((~audit_good).sum()))
    stream_latency = [latency for latency, _, _ in stream]
    slo = STREAM_SLO_MS / 1e3
    within = sum(good and latency <= slo
                 for good, latency in zip(stream_good, stream_latency))
    attempted_rows = len(stream) + AUDIT_ROWS * len(audit)
    metrics = {
        "rows_per_s": int(ok.sum()) / outcome["window_s"],
        "latency_ms": 1e3 * median(stream_latency),
        "slo_frac": within / len(stream),
        "valid_frac": int(valid.sum()) / attempted_rows,
        "usable_frac": int(usable.sum()) / attempted_rows,
        "ok_frac": 1.0 - failed / (len(stream) + len(audit)),
    }
    extra = {
        "stream_requests": len(stream),
        "stream_latency_p99_ms": 1e3 * percentile(stream_latency, 99),
        "audit_calls": len(audit),
        "audit_latency_p50_ms": 1e3 * median([latency for latency, _, _ in audit]),
    }
    checks = []
    if not ok.all():
        checks.append(f"output check failed on {int((~ok).sum())} answered rows")
    return metrics, extra, len(stream) + len(audit), failed, checks


def _close(pool, store_dir):
    pool.close()
    shutil.rmtree(store_dir, ignore_errors=True)


def run(workload, seed, seconds, recorder=None):
    """One run of serve-stream; returns the benchmark report dict."""
    from repro.serve import AsyncExplanationService

    host = HostSpeed()
    setup_times, layer_setup = [], {}
    repeats = 1 if recorder is not None else SETUP_REPEATS
    for i in range(repeats):
        timer = PhaseTimer()
        start = time.perf_counter()
        pipeline, store_dir, pool, front = setup(timer)
        setup_times.append(time.perf_counter() - start)
        layer_setup = timer.seconds
        host.sample(repeats=5)
        if i < repeats - 1:
            _close(pool, store_dir)

    bundle = pipeline.bundle
    rows = np.concatenate([bundle.split("test")[0], bundle.split("train")[0]])
    report = {"setup_times_s": setup_times, "layer_setup": layer_setup,
              "host": host}
    try:
        if recorder is None:
            outcome = session(pool, front, rows, seed, seconds, WARMUP_S)
        else:
            plain = session(pool, front, rows, seed, seconds / 2, WARMUP_S)
            probe = instrument(recorder, pool)
            try:
                front = AsyncExplanationService(pool)
                outcome = session(pool, front, rows, seed + 1, seconds / 2, 0.0,
                                  probe=probe, recorder=recorder)
            finally:
                recorder.unwrap_all()
            report["overhead"] = (plain, outcome)
        front_stats = front.stats["front"]
        # the probe holds the interpreter lock, so it never runs while
        # the clients do
        host.sample(repeats=5)
    finally:
        _close(pool, store_dir)

    metrics, extra, attempted, failed, checks = check_and_summarize(
        outcome, pipeline, rows)
    if recorder is not None:
        # a traced run checks its untraced half too
        _, _, more, more_failed, more_checks = check_and_summarize(
            report["overhead"][0], pipeline, rows)
        attempted, failed = attempted + more, failed + more_failed
        checks += more_checks
    traffic = outcome["traffic"]
    properties = {
        "stream_rate_per_s": STREAM_RATE,
        "repeat_frac": outcome["repeat_frac"],
        "audit_distinct_rows": traffic.audit_distinct,
        "cache_capacity_rows": REPLICAS * CACHE_ROWS,
        "mean_coalesced_batch": front_stats["mean_batch_size"],
        "cache_hit_frac": outcome["cache_hit_frac"],
        "cache_evictions": outcome["cache_evictions"],
        "max_replica_share": outcome["max_replica_share"],
        "loadgen_late_ms_p99": 1e3 * percentile(outcome["late"], 99),
        **extra,
    }
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  checks=checks, properties=properties)
    if recorder is not None:
        flushes = [s.duration for s in recorder.spans if s.name == "serve.pool.flush"]
        batches = [s.duration for s in recorder.spans if s.name == "serve.pool.batch"]
        sizes = probe.sizes or [0]
        report["serve_layers"] = {
            "serve.front.wait_ms.p50": 1e3 * percentile(probe.waits, 50),
            "serve.front.wait_ms.p99": 1e3 * percentile(probe.waits, 99),
            "serve.front.batch_rows.mean": float(np.mean(sizes)),
            "serve.front.batch_rows.max": float(np.max(sizes)),
            "serve.front.flushes": len(probe.sizes),
            "serve.pool.flush_ms.p50": 1e3 * percentile(flushes, 50),
            "serve.pool.flush_ms.p99": 1e3 * percentile(flushes, 99),
            "serve.pool.batch_ms.p50": 1e3 * percentile(batches, 50),
            "serve.cache.hit_frac": properties["cache_hit_frac"],
            "serve.cache.evictions": properties["cache_evictions"],
            "serve.stream.repeat_frac": properties["repeat_frac"],
            "serve.stream.latency_p99_ms": extra["stream_latency_p99_ms"],
            "serve.audit.latency_p50_ms": extra["audit_latency_p50_ms"],
            "serve.routing.max_replica_share": properties["max_replica_share"],
            "loadgen.late_ms.p99": properties["loadgen_late_ms_p99"],
        }
    return report
