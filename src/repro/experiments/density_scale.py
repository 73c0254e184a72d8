"""At-scale density benchmark: exact vs ANN over growing references.

The ``density_at_scale`` section of ``BENCH_engine.json``: one real
(downloaded, checksum-verified — or synthetically upsampled when
offline) Adult Census population, encoded once and sliced to reference
sizes from 1k to 1M rows; at each size the exact ``cKDTree`` and the
:class:`repro.density.ann.AnnIndex` answer the same k-NN query batch,
and the exact backend's ``KnnDensity.score`` (the GEMM shortlist) scores
it: an informational ``exact_score_rows_per_sec`` column beside the
tree's ``exact_rows_per_sec``, asserted bit-identical to the tree first.

The contract is measured in order:

1. **recall first** — ANN indices are compared against the exact
   neighbours and ``recall@k`` must clear
   :data:`repro.experiments.perfbench.MIN_ANN_RECALL` *before* any
   timing is recorded;
2. **speedup second** — at reference sizes of
   :data:`ANN_GATE_ROWS` and above, the ANN query rate must beat exact
   by :data:`repro.experiments.perfbench.MIN_ANN_SPEEDUP`.  Below that
   the exact scan still fits in cache and the ratio is informational.

The section's top-level ``rows_per_sec`` is the ANN rate at the largest
size at or under :data:`GATE_SIZE` (10k) — the size the CI smoke also
runs, so the regression gate compares like with like between a local
full run and a CI run.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import TabularEncoder, dataset_schema, load_downloadable
from ..density import KnnDensity, recall_at_k
from .perfbench import MIN_ANN_RECALL, MIN_ANN_SPEEDUP

__all__ = ["ANN_GATE_ROWS", "DEFAULT_SIZES", "GATE_SIZE",
           "run_density_at_scale"]

#: Reference sizes of the full bench (CI smoke runs the first two).
DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)

#: Reference size from which the ANN >= MIN_ANN_SPEEDUP floor is
#: *asserted*; below it the ratio is recorded but not enforced.
ANN_GATE_ROWS = 100_000

#: The regression-gated ``rows_per_sec`` is the ANN rate at the largest
#: measured size at or under this row count (the CI smoke's ceiling).
GATE_SIZE = 10_000


def _best_seconds(fn, repeats):
    """Best wall-clock of ``repeats`` calls (min absorbs scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


def run_density_at_scale(sizes=DEFAULT_SIZES, seed=0, n_queries=512, k=10,
                         cache_dir=None, fetcher=None):
    """Measure exact vs ANN k-NN rates per reference size; returns the section.

    Raises ``AssertionError`` when the ANN recall floor or (at
    :data:`ANN_GATE_ROWS`+) the speedup floor is missed — the bench is
    its own acceptance test, so a bad index can never merge a section
    that looks healthy.
    """
    sizes = sorted(int(size) for size in sizes)
    if not sizes:
        raise ValueError("sizes must be non-empty")
    schema = dataset_schema("adult")
    frame, _, source = load_downloadable(
        "adult_uci", n_rows=max(sizes), seed=seed, cache_dir=cache_dir,
        fetcher=fetcher)
    encoder = TabularEncoder(schema).fit(frame)
    encoded = encoder.transform_chunked(frame, chunk_size=16384)

    rng = np.random.default_rng(seed + 1)
    picked = rng.choice(len(encoded), size=min(n_queries, len(encoded)), replace=False)
    queries = encoded[picked] + rng.normal(0.0, 0.02, (len(picked), encoded.shape[1]))

    rows = []
    gate_rate = None
    for size in sizes:
        reference = encoded[:size]
        k_eff = min(k, size)
        exact = KnnDensity(k_neighbors=k_eff, backend="exact").fit(reference)
        ann = exact.with_backend("ann")

        # recall and score parity are asserted before a single timing
        exact_dist, exact_idx = exact.query(queries, k_eff)
        _, ann_idx = ann.query(queries, k_eff)
        recall = recall_at_k(exact_idx, ann_idx)
        assert recall >= MIN_ANN_RECALL, (
            f"ANN recall@{k_eff} at {size} reference rows is {recall:.3f}, "
            f"below the {MIN_ANN_RECALL} floor")
        tree_scores = exact_dist if k_eff == 1 else exact_dist.mean(axis=1)
        assert np.array_equal(exact.score(queries), tree_scores), (
            f"exact k-NN scores at {size} reference rows diverge from the tree")

        repeats = 3 if size <= GATE_SIZE else 1
        exact_seconds = _best_seconds(lambda: exact.query(queries, k_eff), repeats)
        score_seconds = _best_seconds(lambda: exact.score(queries), repeats)
        ann_seconds = _best_seconds(lambda: ann.query(queries, k_eff), repeats)
        exact_rate = len(queries) / exact_seconds
        ann_rate = len(queries) / ann_seconds
        speedup = ann_rate / exact_rate

        if size >= ANN_GATE_ROWS:
            assert speedup >= MIN_ANN_SPEEDUP, (
                f"ANN speedup at {size} reference rows is {speedup:.2f}x, "
                f"below the {MIN_ANN_SPEEDUP}x floor")
        if size <= GATE_SIZE:
            gate_rate = ann_rate

        rows.append({
            "reference_rows": size,
            "k": k_eff,
            "recall_at_k": round(float(recall), 4),
            "exact_rows_per_sec": round(exact_rate, 1),
            "exact_score_rows_per_sec": round(len(queries) / score_seconds, 1),
            "ann_rows_per_sec": round(ann_rate, 1),
            "ann_speedup": round(float(speedup), 2),
            "speedup_gated": size >= ANN_GATE_ROWS,
        })

    return {
        "dataset": "adult_uci",
        "source": source,
        "queries": int(len(queries)),
        "recall_floor": MIN_ANN_RECALL,
        "min_ann_speedup": MIN_ANN_SPEEDUP,
        "ann_gate_rows": ANN_GATE_ROWS,
        "gate_size": GATE_SIZE,
        # the regression-gated metric: ANN rate at the CI-comparable size
        "rows_per_sec": round(gate_rate if gate_rate is not None
                              else rows[0]["ann_rows_per_sec"], 1),
        "sizes": rows,
    }
