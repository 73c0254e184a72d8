"""Tests for the scaled serving tier (repro.serve.scale WorkerPool)."""

import threading

import numpy as np
import pytest

from repro.serve import (
    ArtifactStore,
    ExplanationService,
    PendingTicketError,
    WorkerPool,
)


@pytest.fixture(scope="module")
def store(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("scale-store"))
    store.save(tiny_pipeline, name="tiny")
    return store


@pytest.fixture(scope="module")
def sync_service(store):
    return ExplanationService.warm_start(store, "tiny", cache_size=256)


class TestWorkerPool:
    def test_rejects_bad_configuration(self, store):
        with pytest.raises(ValueError, match="backend"):
            WorkerPool(store, "tiny", backend="rocket")
        with pytest.raises(ValueError, match="n_replicas"):
            WorkerPool(store, "tiny", n_replicas=0)

    def test_batch_parity_with_single_service(
            self, store, sync_service, explain_rows):
        reference = sync_service.explain_batch(explain_rows)
        with WorkerPool(store, "tiny", n_replicas=3) as pool:
            result = pool.explain_batch(explain_rows)
        np.testing.assert_array_equal(result.x_cf, reference.x_cf)
        np.testing.assert_array_equal(result.predicted, reference.predicted)
        np.testing.assert_array_equal(result.valid, reference.valid)
        np.testing.assert_array_equal(result.feasible, reference.feasible)

    def test_single_replica_flush_parity(self, store, explain_rows):
        sync = ExplanationService.warm_start(store, "tiny", cache_size=0)
        tickets = [sync.submit(row) for row in explain_rows[:8]]
        sync.flush()
        reference = [ticket.result() for ticket in tickets]
        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            results = pool.flush_rows(explain_rows[:8])
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got["x_cf"], want["x_cf"])
            assert got["predicted"] == want["predicted"]
            assert got["valid"] == want["valid"]

    def test_same_row_routes_to_same_replica(self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=4) as pool:
            routes = [pool.route(row) for row in explain_rows]
            assert routes == [pool.route(row) for row in explain_rows]
            assert set(routes) <= set(range(4))

    def test_routing_keeps_caches_hot(self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=3, cache_size=256) as pool:
            pool.explain_batch(explain_rows)
            first = pool.stats()["aggregate"]
            assert first["cache_hits"] == 0
            pool.explain_batch(explain_rows)
            second = pool.stats()["aggregate"]
            # every repeat landed on the replica that cached it
            assert second["cache_hits"] - first["cache_hits"] == len(
                explain_rows)
            assert second["cache_misses"] == first["cache_misses"]
            assert second["hit_rate"] == 0.5

    def test_stats_aggregates_per_replica_counters(
            self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            pool.explain_batch(explain_rows)
            pool.flush_rows(explain_rows[:4])
            stats = pool.stats()
        per_replica = stats["per_replica"]
        aggregate = stats["aggregate"]
        assert [entry["replica"] for entry in per_replica] == [0, 1]
        for counter in ("rows_served", "rows_coalesced", "cache_hits",
                        "cache_misses", "flushes", "requests"):
            assert aggregate[counter] == sum(
                entry[counter] for entry in per_replica)
        assert aggregate["requests"] == len(explain_rows) + 4
        assert aggregate["replicas"] == 2
        assert aggregate["backend"] == "thread"
        for entry in per_replica:
            assert 0.0 <= entry["hit_rate"] <= 1.0
            assert entry["mean_batch_size"] >= 0.0

    def test_pool_compiles_one_execution_state(self, store):
        with WorkerPool(store, "tiny", n_replicas=3) as pool:
            leader = pool.replicas[0].service
            for replica in pool.replicas[1:]:
                assert replica.service.runner is leader.runner
                assert replica.service.core_strategy is leader.core_strategy
                assert replica.service.pipeline is leader.pipeline

    def test_replicas_hold_one_copy_of_the_weights(self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=2,
                        shared_weights=False) as pool:
            leader, sibling = (replica.service for replica in pool.replicas)
            assert sibling.explainer.blackbox is leader.explainer.blackbox
            assert (sibling.explainer.generator.vae
                    is leader.explainer.generator.vae)
            result = pool.explain_batch(explain_rows[:4])
            assert len(result.x_cf) == 4

    def test_shared_weights_true_is_rejected(self, store):
        with pytest.raises(ValueError, match="already share one copy"):
            WorkerPool(store, "tiny", shared_weights=True)

    def test_non_binary_desired_is_rejected(self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            with pytest.raises(ValueError, match="0 or 1"):
                pool.explain_batch(explain_rows[:4], desired=[2, 2, 2, 2])
            with pytest.raises(ValueError, match="0 or 1"):
                pool.flush_rows(explain_rows[:2], desired=[None, 3])
            assert pool.stats()["aggregate"]["requests"] == 0

    def test_process_backend_parity(self, store, sync_service, explain_rows):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        reference = sync_service.explain_batch(explain_rows[:8])
        with WorkerPool(store, "tiny", n_replicas=2,
                        backend="process") as pool:
            result = pool.explain_batch(explain_rows[:8])
            np.testing.assert_array_equal(result.x_cf, reference.x_cf[:8])
            flushed = pool.flush_rows(explain_rows[:4])
            stats = pool.stats()
        assert len(flushed) == 4
        assert all("x_cf" in entry for entry in flushed)
        assert stats["aggregate"]["requests"] == 12
        assert stats["aggregate"]["backend"] == "process"


def _density(pipeline):
    from repro.density import KnnDensity

    x_train, y_train = pipeline.bundle.split("train")
    desired_class = int(pipeline.bundle.schema.desired_class)
    return KnnDensity(k_neighbors=5).fit(x_train[y_train == desired_class][:120])


class TestReplicate:
    def test_shares_execution_state(self, tiny_pipeline):
        density = _density(tiny_pipeline)
        leader = ExplanationService(
            tiny_pipeline, cache_size=32, density=density,
            density_weight=2.0, density_candidates=4, robust_quorum=0.75)
        sibling = leader.replicate()
        assert sibling.pipeline is leader.pipeline
        assert sibling.density is density
        assert sibling.runner is leader.runner
        assert sibling.core_strategy is leader.core_strategy
        assert sibling.cache_fingerprint == leader.cache_fingerprint
        assert sibling.cache.capacity == 32

    def test_owns_its_cache_queue_and_counters(
            self, tiny_pipeline, explain_rows):
        leader = ExplanationService(tiny_pipeline, cache_size=32)
        sibling = leader.replicate()
        assert sibling.cache is not leader.cache
        assert sibling._lock is not leader._lock
        leader.submit(explain_rows[0])
        assert sibling.pending == 0
        result = sibling.explain_batch(explain_rows[:4])
        assert sibling.stats["rows_served"] == 4
        assert leader.stats["rows_served"] == 0
        assert len(leader.cache) == 0
        np.testing.assert_array_equal(
            result.x_cf, leader.explain_batch(explain_rows[:4]).x_cf)


class TestThreadSafety:
    def test_submit_flush_storm_loses_no_tickets(
            self, tiny_pipeline, explain_rows):
        """Concurrent submitters + flushers: every ticket resolves once."""
        service = ExplanationService(tiny_pipeline, cache_size=0)
        n_threads, per_thread = 6, 12
        all_tickets = [[] for _ in range(n_threads)]
        start_gate = threading.Barrier(n_threads + 2)
        stop_flushing = threading.Event()

        def submitter(slot):
            start_gate.wait()
            for i in range(per_thread):
                row = explain_rows[(slot + i) % len(explain_rows)]
                all_tickets[slot].append(service.submit(row))

        def flusher():
            start_gate.wait()
            while not stop_flushing.is_set():
                service.flush(n_candidates=2)
            service.flush(n_candidates=2)  # drain stragglers

        threads = [threading.Thread(target=submitter, args=(slot,))
                   for slot in range(n_threads)]
        threads.extend(threading.Thread(target=flusher) for _ in range(2))
        for thread in threads:
            thread.start()
        try:
            for thread in threads[:n_threads]:
                thread.join(timeout=30)
        finally:
            stop_flushing.set()
        for thread in threads[n_threads:]:
            thread.join(timeout=30)

        flat = [ticket for slot in all_tickets for ticket in slot]
        assert len(flat) == n_threads * per_thread
        for ticket in flat:
            assert ticket.ready  # nothing lost
            assert ticket.result() is ticket.result()  # resolved once
        assert service.pending == 0
        # nothing duplicated: coalesced rows account for each ticket once
        assert service.stats["rows_coalesced"] == len(flat)

    def test_concurrent_explain_batch_keeps_counters_consistent(
            self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline, cache_size=256)
        n_threads, repeats = 4, 5
        gate = threading.Barrier(n_threads)

        def worker():
            gate.wait()
            for _ in range(repeats):
                service.explain_batch(explain_rows)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        stats = service.stats
        total = n_threads * repeats
        assert stats["batches_served"] == total
        assert stats["rows_served"] == total * len(explain_rows)
        lookups = stats["cache_hits"] + stats["cache_misses"]
        assert lookups == total * len(explain_rows)


class TestPendingTicket:
    def test_unflushed_ticket_raises_typed_error(
            self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline)
        ticket = service.submit(explain_rows[0])
        with pytest.raises(PendingTicketError, match="flush"):
            ticket.result()
        service.flush()
        assert ticket.result()["x_cf"].shape == explain_rows[0].shape
