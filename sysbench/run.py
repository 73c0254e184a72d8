"""Repo benchmark: one command, three workloads, every metric by name.

Run from the repository root::

    python3 sysbench/run.py --workload explain-overlay --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a run whose second half
is traced by wrapping public methods of the objects the benchmark built
(spans go to ``.bench_out/``).  Detail lines (environment, host-speed probe,
workload properties, per-layer table) precede the last line, which is
the one JSON result object.  Output checks run on every run; a failed
check counts as a failed operation and fails the run (exit code 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

WORKLOADS = ("explain-overlay", "explain-baselines", "serve-stream")
#: BLAS threads of every run, pinned before numpy loads: unpinned
#: OpenBLAS rates drift between processes on a 2-core host.
BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(report, recorder):
    """Per-layer values of a traced run; bypassed layers read 0."""
    from explain import BASELINES
    from spans import layer_stats

    stats = layer_stats(recorder.spans)

    def get(name, field):
        return float(stats.get(name, {}).get(field, 0.0))

    values = {}
    for name in ("setup.data_s", "setup.blackbox_train_s", "setup.cfvae_fit_s",
                 "setup.store_save_s", "setup.pool_start_s",
                 *(f"setup.strategy_fit_s.{s}" for s in BASELINES),
                 *(f"setup.overlay_fit_s.{k}" for k in ("density", "causal", "ensemble"))):
        values[name] = report["layer_setup"].get(name, 0.0)
    for strategy in ("ours_unary", *BASELINES):
        values[f"propose.{strategy}.busy_s"] = get(f"propose.{strategy}", "busy_s")
        values[f"propose.{strategy}.self_s"] = get(f"propose.{strategy}", "self_s")
    values["models.predict.calls"] = get("models.predict", "calls")
    values["models.predict.rows"] = get("models.predict", "rows")
    values["models.vae.calls"] = get("models.vae", "calls")
    values["engine.run.calls"] = get("engine.run", "calls")
    values["density.score.rows"] = get("density.score", "rows")
    for layer in ("models.predict", "models.vae", "engine.run", "engine.project",
                  "engine.kernel", "density.score", "causal.repair",
                  "models.ensemble"):
        values[f"{layer}.busy_s"] = get(layer, "busy_s")
        values[f"{layer}.self_s"] = get(layer, "self_s")
    values.update(report.get("funnel") or {
        "engine.funnel.candidate_valid_frac": 0.0,
        "engine.funnel.candidate_usable_frac": 0.0})
    serve = report.get("serve_layers", {})
    for name in ("serve.front.wait_ms.p50", "serve.front.wait_ms.p99",
                 "serve.front.batch_rows.mean", "serve.front.batch_rows.max",
                 "serve.front.flushes", "serve.pool.flush_ms.p50",
                 "serve.pool.flush_ms.p99", "serve.pool.batch_ms.p50",
                 "serve.cache.hit_frac", "serve.cache.evictions",
                 "serve.stream.repeat_frac", "serve.stream.latency_p99_ms",
                 "serve.audit.latency_p50_ms",
                 "serve.routing.max_replica_share", "loadgen.late_ms.p99"):
        values[name] = float(serve.get(name, 0.0))
    values["serve.pool.flush.busy_s"] = get("serve.pool.flush", "busy_s")
    values["host.speed_index"] = report["host"].index
    plain, traced = report["overhead"]
    values["trace.overhead_frac"] = _cpu_per_op(traced) / _cpu_per_op(plain) - 1.0
    return values, stats


def _cpu_per_op(phase):
    """Process CPU seconds per answered operation of one timed phase."""
    return phase["cpu_s"] / max(phase["ops"], 1)


def layer_table(stats):
    """Human-readable per-layer lines, largest self time first."""
    lines = ["layer                               calls     busy_s     self_s"]
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<34}{entry['calls']:>7}{entry['busy_s']:>11.3f}"
                     f"{entry['self_s']:>11.3f}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import common
    from spans import SpanRecorder

    env = common.environment(BLAS_THREADS)
    recorder = SpanRecorder() if args.trace else None
    if args.workload == "serve-stream":
        import serve as module
    else:
        import explain as module
    report = module.run(args.workload, args.seed, args.seconds, recorder)
    host = report["host"]
    report["metrics"]["setup_s"] = common.median(report["setup_times_s"]) / host.index
    report["metrics"]["peak_rss_mb"] = common.peak_rss_mb()

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "host": host.record(),
              "setup_times_s": report["setup_times_s"],
              "properties": report["properties"], "checks": report["checks"]}
    if args.trace:
        values, stats = layer_metrics(report, recorder)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        for line in layer_table(stats):
            print(line)
        wanted = spec["per_layer"]
    else:
        values = report["metrics"]
        detail["end_to_end"] = values
        wanted = spec["end_to_end"]
    print(json.dumps(detail, sort_keys=True))

    correct = not report["checks"]
    missing = [m["name"] for m in wanted
               if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        correct = False
    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": float(values[m["name"]])
                                if m["name"] not in missing else 0.0,
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def stop_children():
    """Stop every child process the run started and wait for each to end.

    Shared memory or other multiprocessing resources start a resource
    tracker process, which would otherwise outlive the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
