"""Serving subsystem: batcher policy, backpressure, registry, metrics.

Also hosts the split-invariance property test — the correctness
foundation micro-batching rests on: however a request stream is
partitioned into batches, ``infer_batch`` must produce bit-identical
results, so the server's timing-dependent batching cannot change any
prediction.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, QueueFullError, ServingError
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    ServingMetrics,
    latency_percentiles,
)
from repro.serve.__main__ import main as serve_main
from repro.sram.bitcell import CellType
from repro.sweep.spec import DesignPoint
from repro.learning.convert import ConvertedSNN
from repro.tile.network import EsamNetwork, validate_spikes


def random_network(layers=(64, 32, 10), seed=0,
                   cell_type=CellType.C1RW4R) -> EsamNetwork:
    """A small random binary network (no training required)."""
    rng = np.random.default_rng(seed)
    weights = [
        rng.integers(0, 2, (a, b)).astype(np.uint8)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    thresholds = [
        np.full(b, max(1, a // 16), dtype=np.int64)
        for a, b in zip(layers[:-1], layers[1:])
    ]
    return EsamNetwork(weights, thresholds, cell_type=cell_type)


def random_spikes(n, width=64, seed=3, density=0.2) -> np.ndarray:
    return np.random.default_rng(seed).random((n, width)) < density


class FakeClock:
    """Deterministic injectable clock for batcher/metrics tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


# -- batch policy / micro-batcher ----------------------------------------------------


class TestBatchPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_wait_ms=-1.0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_size=4, min_batch_size=5)
        with pytest.raises(ConfigurationError):
            BatchPolicy(min_batch_size=0)


class TestMicroBatcher:
    def _batcher(self, **kwargs):
        clock = FakeClock()
        policy = BatchPolicy(**{"max_wait_ms": 1000.0, **kwargs})
        return MicroBatcher(policy, clock=clock), clock

    def test_size_triggered_flush(self):
        batcher, _ = self._batcher(max_batch_size=4)
        for item in "abc":
            batcher.add(item)
        assert not batcher.ready()
        batcher.add("d")
        assert batcher.ready()
        assert batcher.take() == ["a", "b", "c", "d"]
        assert len(batcher) == 0 and not batcher.ready()

    def test_deadline_triggered_flush(self):
        batcher, clock = self._batcher(max_batch_size=64, max_wait_ms=5.0)
        batcher.add("a")
        batcher.add("b")
        assert not batcher.ready()
        assert batcher.next_deadline() == pytest.approx(0.005)
        clock.advance(0.006)
        assert batcher.ready()
        assert batcher.take() == ["a", "b"]

    def test_take_caps_at_batch_size(self):
        batcher, _ = self._batcher(max_batch_size=4)
        for i in range(10):
            batcher.add(i)
        assert batcher.take() == [0, 1, 2, 3]
        assert len(batcher) == 6

    def test_adaptive_target_grows_under_backlog(self):
        batcher, _ = self._batcher(max_batch_size=16, adaptive=True)
        assert batcher.target == 1
        for i in range(31):
            batcher.add(i)
        sizes = []
        while len(batcher):
            sizes.append(len(batcher.take()))
        # Every size-triggered flush that leaves a full backlog doubles
        # the target: 1, 2, 4, 8, 16, then capped.
        assert sizes == [1, 2, 4, 8, 16]
        assert batcher.target == 16

    def test_adaptive_target_shrinks_when_idle(self):
        batcher, clock = self._batcher(
            max_batch_size=16, adaptive=True, max_wait_ms=5.0
        )
        for i in range(31):
            batcher.add(i)
        while len(batcher):
            batcher.take()
        assert batcher.target == 16
        # Lone deadline-expired requests halve the target back down.
        for expected in (8, 4, 2, 1, 1):
            batcher.add("x")
            clock.advance(0.006)
            assert batcher.take() == ["x"]
            assert batcher.target == expected

    def test_drain_empties_in_max_size_batches(self):
        batcher, _ = self._batcher(max_batch_size=4)
        for i in range(10):
            batcher.add(i)
        batches = batcher.drain()
        assert [len(b) for b in batches] == [4, 4, 2]
        assert sum(batches, []) == list(range(10))


# -- metrics -------------------------------------------------------------------------


class TestServingMetrics:
    def test_percentiles_of_known_trace(self):
        trace = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        result = latency_percentiles(trace)
        assert result["p50_ms"] == pytest.approx(55.0)
        assert result["p95_ms"] == pytest.approx(95.5)
        assert result["p99_ms"] == pytest.approx(99.1)

    def test_percentiles_require_samples(self):
        with pytest.raises(ConfigurationError):
            latency_percentiles([])

    def test_collector_roll_up(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock)
        metrics.mark_started()
        metrics.record_submitted(queue_depth=1)
        metrics.record_submitted(queue_depth=2)
        metrics.record_rejected()
        metrics.record_batch(2)
        for latency_ms in (10.0, 30.0):
            metrics.record_completed(latency_ms / 1e3)
        clock.advance(0.5)
        metrics.mark_stopped()
        data = metrics.to_dict()
        assert data["submitted"] == 2
        assert data["completed"] == 2
        assert data["rejected"] == 1
        assert data["failed"] == 0
        assert data["achieved_inf_s"] == pytest.approx(4.0)
        assert data["batch_size_hist"] == {"2": 1}
        assert data["queue_depth_hist"] == {"1": 1, "2": 1}
        assert data["latency"]["p50_ms"] == pytest.approx(20.0)
        assert data["mean_batch_size"] == pytest.approx(2.0)
        assert "throughput" in metrics.summary()

    def test_empty_window_snapshot_is_complete_and_valid(self):
        # The empty-window contract: a collector that has seen no
        # requests still exports a full snapshot — every counter 0,
        # latency/mean_batch_size explicitly None (never NaN, never a
        # missing key), and no method raises.
        metrics = ServingMetrics(clock=FakeClock())
        data = metrics.to_dict()
        for counter in ("submitted", "completed", "failed", "rejected",
                        "shed", "retried", "broken_circuit"):
            assert data[counter] == 0
        assert data["latency"] is None
        assert data["mean_batch_size"] is None
        assert data["batch_size_hist"] == {}
        assert data["queue_depth_hist"] == {}
        assert data["elapsed_s"] == 0.0
        assert data["achieved_inf_s"] == 0.0
        assert metrics.percentiles() == {
            "p50_ms": None, "p95_ms": None, "p99_ms": None,
        }
        assert "0 submitted" in metrics.summary()
        import json

        assert json.loads(metrics.to_json())["latency"] is None

    def test_empty_window_after_start_does_not_crash(self):
        clock = FakeClock()
        metrics = ServingMetrics(clock=clock)
        metrics.mark_started()
        clock.advance(1.0)
        data = metrics.to_dict()
        assert data["elapsed_s"] == pytest.approx(1.0)
        assert data["achieved_inf_s"] == 0.0
        assert data["latency"] is None

    def test_collector_is_a_registry_view(self):
        # Every counter the attribute API exposes is backed by a
        # registry series, so --metrics-out exports agree with
        # to_dict() by construction.
        from repro.obs import parse_prometheus_text

        metrics = ServingMetrics(clock=FakeClock())
        metrics.record_submitted(queue_depth=1)
        metrics.record_completed(0.010)
        metrics.record_shed(2)
        text = metrics.registry.to_text()
        samples = parse_prometheus_text(text)
        assert samples[("repro_serving_submitted_total", ())] == 1
        assert samples[("repro_serving_completed_total", ())] == 1
        assert samples[("repro_serving_shed_total", ())] == 2
        assert metrics.submitted == 1 and metrics.shed == 2

    def test_collectors_default_to_private_registries(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.record_submitted(queue_depth=1)
        assert a.submitted == 1
        assert b.submitted == 0
        assert a.registry is not b.registry


# -- registry ------------------------------------------------------------------------


class TestModelRegistry:
    def test_register_and_get(self):
        registry = ModelRegistry()
        network = random_network()
        assert registry.register_network("demo", network) is network
        assert registry.get("demo") is network
        assert "demo" in registry and len(registry) == 1
        assert registry.names() == ["demo"]

    def test_unknown_model_raises_serving_error(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        with pytest.raises(ServingError, match="demo"):
            registry.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register_network("demo", random_network(seed=1))

    def test_register_from_design_point(self):
        rng = np.random.default_rng(5)
        snn = ConvertedSNN(
            weights=[rng.integers(0, 2, (64, 10)).astype(np.uint8)],
            thresholds=[np.full(10, 3, dtype=np.int64)],
            output_bias=np.zeros(10),
        )
        registry = ModelRegistry()
        point = DesignPoint(cell_type=CellType.C1RW2R, vprech=0.6)
        network = registry.register("p", point, snn=snn)
        assert network.cell_type is CellType.C1RW2R
        assert network.vprech == 0.6
        assert registry.entry("p").describe()["point"] == point.label

    def test_swap_validates_interface(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network(layers=(64, 10)))
        with pytest.raises(ConfigurationError, match="interface"):
            registry.swap("demo", random_network(layers=(32, 10)))

    def test_swap_replaces_network(self):
        registry = ModelRegistry()
        first = random_network(seed=0)
        second = random_network(seed=1)
        registry.register_network("demo", first)
        assert registry.swap("demo", second) is first
        assert registry.get("demo") is second

    def test_hot_swap_after_in_place_weight_update(self):
        """Online-learning weight updates reach served predictions.

        Mutating macros in place + ``note_weight_update`` must make the
        next served batch run on the new weights (the cached fast
        engine rebuilds via ``Tile.weight_version``) — no registry or
        server restart involved.
        """
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(24)
        server = InferenceServer(
            registry, policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0)
        ).start()
        try:
            before = [server.classify("demo", row) for row in spikes]
            versions_before = registry.entry("demo").weight_versions

            tile = network.tiles[0]
            flipped = (1 - tile.weight_matrix()).astype(np.uint8)
            for rb in range(tile.mapping.row_blocks):
                for cb in range(tile.mapping.col_blocks):
                    tile.macros[rb][cb].load_weights(
                        tile.mapping.block_weights(flipped, rb, cb)
                    )
            tile.note_weight_update()

            after = [server.classify("demo", row) for row in spikes]
        finally:
            server.stop()
        assert registry.entry("demo").weight_versions != versions_before
        offline = network.classify_batch(spikes)
        assert np.array_equal(after, offline)
        assert before != after


# -- spike input validation (EsamNetwork boundary) -----------------------------------


class TestSpikeValidation:
    def test_rejects_non_binary_values(self):
        network = random_network()
        bad = np.full(64, 0.5)
        with pytest.raises(ConfigurationError, match="0/1"):
            network.infer(bad)
        with pytest.raises(ConfigurationError, match="0/1"):
            network.infer_batch(np.stack([bad, bad]))
        with pytest.raises(ConfigurationError, match="0/1"):
            network.infer_batch(np.stack([bad, bad]), engine="cycle")

    def test_rejects_nan_and_strings(self):
        network = random_network()
        nan = np.zeros(64)
        nan[0] = np.nan
        with pytest.raises(ConfigurationError):
            network.infer(nan)
        with pytest.raises(ConfigurationError):
            network.infer_batch(np.array([["a"] * 64]))

    def test_rejects_wrong_trailing_dimension(self):
        network = random_network()
        with pytest.raises(ConfigurationError, match=r"\(64,\)"):
            network.infer(np.zeros(32, dtype=bool))
        with pytest.raises(ConfigurationError, match=r"\(B, 64\)"):
            network.infer_batch(np.zeros((4, 32), dtype=bool))
        with pytest.raises(ConfigurationError):
            network.infer_batch(np.zeros((2, 4, 64), dtype=bool))

    def test_accepts_bool_and_01_numeric(self):
        network = random_network()
        as_bool = random_spikes(3)
        for cast in (np.bool_, np.uint8, np.int64, np.float64):
            out = network.infer_batch(as_bool.astype(cast))
            assert out.shape == (3, 10)

    def test_single_vector_promoted_to_batch(self):
        spikes = random_spikes(1)[0]
        assert validate_spikes(spikes, 64, batch=True).shape == (1, 64)
        assert validate_spikes(spikes, 64).shape == (64,)


# -- split invariance (the foundation micro-batching rests on) -----------------------


@functools.lru_cache(maxsize=None)
def _invariance_network(cell_value: str) -> EsamNetwork:
    return random_network(
        layers=(32, 16, 10), seed=7, cell_type=CellType(cell_value)
    )


@functools.lru_cache(maxsize=None)
def _invariance_full(cell_value: str, engine: str) -> np.ndarray:
    spikes = random_spikes(8, width=32, seed=11)
    return _invariance_network(cell_value).infer_batch(spikes, engine=engine)


class TestSplitInvariance:
    @given(
        cuts=st.sets(st.integers(1, 7)),
        engine=st.sampled_from(["fast", "cycle"]),
        cell=st.sampled_from(["1RW", "1RW+2R", "1RW+4R"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_partition_concatenates_bit_identically(
        self, cuts, engine, cell
    ):
        """Concatenated sub-batch results equal the one-shot batch."""
        spikes = random_spikes(8, width=32, seed=11)
        network = _invariance_network(cell)
        full = _invariance_full(cell, engine)
        bounds = [0, *sorted(cuts), 8]
        parts = [
            network.infer_batch(spikes[a:b], engine=engine)
            for a, b in zip(bounds, bounds[1:])
            if a < b
        ]
        assert np.array_equal(np.concatenate(parts), full)

    def test_engines_agree_on_the_full_batch(self):
        for cell in ("1RW", "1RW+2R", "1RW+4R"):
            assert np.array_equal(
                _invariance_full(cell, "fast"), _invariance_full(cell, "cycle")
            )


# -- server --------------------------------------------------------------------------


class TestInferenceServer:
    def _registry(self, **kwargs):
        registry = ModelRegistry()
        network = random_network(**kwargs)
        registry.register_network("demo", network)
        return registry, network

    def test_deadline_flush_serves_partial_batches(self):
        registry, _ = self._registry()
        policy = BatchPolicy(max_batch_size=64, max_wait_ms=2.0)
        with InferenceServer(registry, policy=policy) as server:
            # Far fewer requests than a full batch: only the deadline
            # trigger can serve these.
            results = [
                server.classify("demo", row, timeout=5.0)
                for row in random_spikes(3)
            ]
        assert len(results) == 3
        assert all(isinstance(r, int) for r in results)

    def test_backpressure_rejects_and_never_drops(self):
        registry, network = self._registry()
        spikes = random_spikes(6)
        # A batcher that will not flush on its own: the queue must fill.
        policy = BatchPolicy(max_batch_size=100, max_wait_ms=60_000.0)
        server = InferenceServer(
            registry, policy=policy, max_queue_depth=4
        ).start()
        futures = [server.submit("demo", row) for row in spikes[:4]]
        with pytest.raises(QueueFullError, match="max_queue_depth=4"):
            server.submit("demo", spikes[4])
        assert server.metrics.rejected == 1
        assert server.in_flight == 4
        server.stop(drain=True)
        served = [f.result(timeout=1.0) for f in futures]
        assert np.array_equal(served, network.classify_batch(spikes[:4]))
        assert server.in_flight == 0
        assert server.metrics.completed == 4

    def test_rejects_bad_configuration(self):
        registry, _ = self._registry()
        with pytest.raises(ConfigurationError):
            InferenceServer(registry, max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            InferenceServer(registry, engine="fats")

    def test_serves_multiple_models(self):
        registry = ModelRegistry()
        net_a = random_network(seed=0)
        net_b = random_network(seed=9)
        registry.register_network("a", net_a)
        registry.register_network("b", net_b)
        spikes = random_spikes(10)
        with InferenceServer(
            registry, policy=BatchPolicy(max_batch_size=4, max_wait_ms=1.0)
        ) as server:
            futures = [
                (server.submit("a", row), server.submit("b", row))
                for row in spikes
            ]
            served_a = [fa.result(timeout=10.0) for fa, _ in futures]
            served_b = [fb.result(timeout=10.0) for _, fb in futures]
        assert np.array_equal(served_a, net_a.classify_batch(spikes))
        assert np.array_equal(served_b, net_b.classify_batch(spikes))


# -- CLI -----------------------------------------------------------------------------


class TestServeCli:
    def test_load_test_runs_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "serving.json"
        code = serve_main([
            "--rate", "400", "--duration", "0.25", "--clients", "2",
            "--quality", "fast", "--json", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "bit-identical" in printed
        import json

        report = json.loads(out.read_text())
        assert report["requests"] == 100
        assert report["verified_vs_offline"] is True
        assert report["metrics"]["completed"] == 100
        assert report["metrics"]["failed"] == 0
        assert {"python", "numpy", "platform", "timestamp_utc"} <= set(
            report["environment"]
        )

    def test_rejects_empty_trace(self):
        with pytest.raises(SystemExit):
            serve_main(["--rate", "1", "--duration", "0"])

    @pytest.mark.parametrize("flags", [
        ["--workers", "1", "--retries", "2"],
        ["--workers", "1", "--chaos-flush-p", "0.1"],
        ["--workers", "1", "--chaos-spike-ms", "5"],
        ["--workers", "1", "--chaos-spike-p", "0.1"],
        ["--workers", "1", "--queue-depth", "64"],
        ["--slo-class", "interactive"],
    ], ids=lambda flags: flags[-2])
    def test_rejects_flags_the_chosen_server_ignores(self, flags, capsys):
        # Each flag would be silently dropped by the server the
        # --workers count picks; the CLI refuses before building it.
        with pytest.raises(SystemExit) as exit_info:
            serve_main(["--rate", "10", "--duration", "1", *flags])
        assert exit_info.value.code == 2
        assert flags[-2] in capsys.readouterr().err
