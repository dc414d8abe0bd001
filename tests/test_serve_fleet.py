"""The multi-process serving fleet, unit to end-to-end.

Covers the three fleet layers bottom-up: the shared-memory spike ring
(layout, round trips, boundary errors), the worker-pool plumbing
(consistent-hash router, picklable model payloads), and the
:class:`FleetServer` fabric itself — admission control per SLO class,
dispatch determinism, rolling hot-swap, crash supervision, and the
``python -m repro.serve --workers N`` CLI path.

Everything spawning real worker processes is marked ``multiprocess``
(tight hard timeout; see the root ``conftest.py``).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    QueueFullError,
    ServingError,
)
from repro.obs.trace import Tracer
from repro.resilience import SupervisorPolicy
from repro.serve import (
    DEFAULT_SLO_CLASSES,
    BatchPolicy,
    ConsistentHashRouter,
    FleetServer,
    ModelPayload,
    ModelRegistry,
    RingGeometry,
    ServingMetrics,
    SloClass,
    SpikeRing,
)
from repro.tile.backends.bitpacked import pack_spike_rows, packed_width

from tests.test_serve import random_network, random_spikes


def fleet(registry=None, n_workers=2, **kwargs):
    if registry is None:
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
    kwargs.setdefault(
        "policy", BatchPolicy(max_batch_size=16, max_wait_ms=1.0)
    )
    return FleetServer(registry, n_workers=n_workers, **kwargs)


def serve_all(server, spikes, slo_class="batch", timeout=60.0):
    futures = [
        server.submit("demo", row, slo_class=slo_class) for row in spikes
    ]
    return np.array([f.result(timeout=timeout) for f in futures])


# -- shared-memory ring ---------------------------------------------------------------


class TestRingGeometry:
    def test_shape_arithmetic(self):
        g = RingGeometry(4, 8, 100)
        assert g.n_words == packed_width(100) == 2
        assert g.slot_words == 16
        assert g.total_bytes == 4 * 16 * 8
        assert g.to_tuple() == (4, 8, 100)
        assert g == RingGeometry(*g.to_tuple())
        assert g != RingGeometry(4, 8, 101)

    @pytest.mark.parametrize("bad", [
        (0, 8, 100), (4, 0, 100), (4, 8, 0),
    ])
    def test_rejects_degenerate_shapes(self, bad):
        with pytest.raises(ConfigurationError):
            RingGeometry(*bad)


class TestSpikeRing:
    def test_round_trip(self):
        ring = SpikeRing(RingGeometry(4, 8, 100))
        try:
            rows = random_spikes(5, width=100)
            assert ring.pack_into(2, rows) == 5
            assert np.array_equal(ring.read_rows(2, 5, 100), rows)
            packed = ring.read_packed(2, 5, 100)
            assert np.array_equal(packed, pack_spike_rows(rows))
        finally:
            ring.close()
            ring.unlink()

    def test_narrower_batches_use_leading_words(self):
        # One ring serves models of different widths: a narrower
        # batch occupies the leading words of its slot.
        ring = SpikeRing(RingGeometry(2, 4, 128))
        try:
            rows = random_spikes(3, width=64)
            ring.pack_into(0, rows)
            assert np.array_equal(ring.read_rows(0, 3, 64), rows)
        finally:
            ring.close()
            ring.unlink()

    def test_attach_by_name_sees_the_same_bytes(self):
        geometry = RingGeometry(2, 4, 64)
        ring = SpikeRing(geometry)
        try:
            rows = random_spikes(4)
            ring.pack_into(1, rows)
            attached = SpikeRing(geometry, name=ring.name, create=False)
            try:
                assert np.array_equal(attached.read_rows(1, 4), rows)
            finally:
                attached.close()
        finally:
            ring.close()
            ring.unlink()

    def test_attach_requires_name_and_capacity(self):
        ring = SpikeRing(RingGeometry(2, 4, 64))
        try:
            with pytest.raises(ConfigurationError, match="name"):
                SpikeRing(RingGeometry(2, 4, 64), create=False)
            with pytest.raises(ConfigurationError, match="bytes"):
                SpikeRing(RingGeometry(64, 64, 512), name=ring.name,
                          create=False)
        finally:
            ring.close()
            ring.unlink()

    def test_boundary_errors(self):
        ring = SpikeRing(RingGeometry(2, 4, 64))
        try:
            with pytest.raises(ConfigurationError, match="slot"):
                ring.pack_into(2, random_spikes(1))
            with pytest.raises(ConfigurationError, match="rows"):
                ring.pack_into(0, random_spikes(5))
            with pytest.raises(ConfigurationError, match="width"):
                ring.pack_into(0, random_spikes(1, width=65))
            with pytest.raises(ConfigurationError, match="n_rows"):
                ring.read_packed(0, 5)
        finally:
            ring.close()
            ring.unlink()

    def test_unlink_is_creator_only_and_idempotent(self):
        ring = SpikeRing(RingGeometry(1, 1, 64))
        attached = SpikeRing(ring.geometry, name=ring.name, create=False)
        attached.close()
        attached.unlink()  # non-creator: no-op
        ring.close()
        ring.unlink()
        ring.unlink()  # second unlink tolerated


class TestPackInto:
    def test_out_parameter_packs_in_place(self):
        rows = random_spikes(3, width=100)
        out = np.zeros((3, packed_width(100)), dtype=np.uint64)
        result = pack_spike_rows(rows, out=out)
        assert result is out
        assert np.array_equal(out, pack_spike_rows(rows))

    def test_out_parameter_rejects_mismatches(self):
        rows = random_spikes(3, width=100)
        with pytest.raises(ConfigurationError, match="shape"):
            pack_spike_rows(
                rows, out=np.zeros((3, 5), dtype=np.uint64)
            )
        with pytest.raises(ConfigurationError, match="uint64"):
            pack_spike_rows(
                rows,
                out=np.zeros((3, packed_width(100)), dtype=np.int64),
            )


# -- consistent-hash router -----------------------------------------------------------


class TestConsistentHashRouter:
    def test_deterministic_for_fixed_seed(self):
        a = ConsistentHashRouter(range(4), seed=7)
        b = ConsistentHashRouter(range(4), seed=7)
        assert all(a.route(k) == b.route(k) for k in range(500))

    def test_seed_changes_the_assignment(self):
        a = ConsistentHashRouter(range(4), seed=0)
        b = ConsistentHashRouter(range(4), seed=1)
        assert any(a.route(k) != b.route(k) for k in range(500))

    def test_dead_replica_remaps_only_its_own_keys(self):
        router = ConsistentHashRouter(range(4), seed=3)
        before = {k: router.route(k) for k in range(1000)}
        live = {0, 1, 3}
        for key, owner in before.items():
            after = router.route(key, live)
            if owner != 2:
                assert after == owner  # survivors keep their keys
            else:
                assert after in live

    def test_spread_is_roughly_balanced(self):
        router = ConsistentHashRouter(range(4), seed=0)
        counts = np.bincount(
            [router.route(k) for k in range(4000)], minlength=4
        )
        assert counts.min() > 0.5 * 1000 and counts.max() < 1.7 * 1000

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ConsistentHashRouter([])
        with pytest.raises(ConfigurationError, match="duplicate"):
            ConsistentHashRouter([0, 0])
        with pytest.raises(ConfigurationError, match="vnodes"):
            ConsistentHashRouter([0], vnodes=0)
        with pytest.raises(ServingError, match="live"):
            ConsistentHashRouter([0, 1]).route("k", live=set())


# -- model payloads -------------------------------------------------------------------


class TestModelPayload:
    def test_rebuilt_network_is_bit_identical(self):
        network = random_network()
        payload = ModelPayload.from_network("demo", network)
        rebuilt = payload.build()
        spikes = random_spikes(32)
        assert np.array_equal(
            rebuilt.classify_batch(spikes), network.classify_batch(spikes)
        )
        assert payload.versions == tuple(
            t.weight_version for t in network.tiles
        )


# -- SLO classes ----------------------------------------------------------------------


class TestSloClass:
    def test_stock_classes(self):
        assert set(DEFAULT_SLO_CLASSES) == {
            "batch", "default", "interactive"
        }
        assert DEFAULT_SLO_CLASSES["interactive"].deadline_ms == 50.0

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "x", "max_queue_depth": 0},
        {"name": "x", "deadline_ms": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SloClass(**kwargs)


# -- fabric construction --------------------------------------------------------------


class TestFleetConstruction:
    def test_rejects_bad_configuration(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        with pytest.raises(ConfigurationError, match="n_workers"):
            FleetServer(registry, n_workers=0)
        with pytest.raises(ConfigurationError, match="engine"):
            FleetServer(registry, engine="nope")
        with pytest.raises(ConfigurationError, match="default"):
            FleetServer(
                registry, slo_classes={"batch": SloClass("batch")}
            )

    def test_start_requires_a_registered_model(self):
        with pytest.raises(ConfigurationError, match="no models"):
            FleetServer(ModelRegistry()).start()


# -- end-to-end serving ---------------------------------------------------------------


@pytest.mark.multiprocess
class TestFleetServing:
    def test_classify_convenience(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(1)
        with fleet(registry, n_workers=1) as server:
            assert server.classify("demo", spikes[0]) == \
                network.classify(spikes[0])

    def test_two_models_share_the_ring(self):
        registry = ModelRegistry()
        wide = random_network(layers=(128, 32, 10), seed=0)
        narrow = random_network(layers=(64, 16, 10), seed=1)
        registry.register_network("wide", wide)
        registry.register_network("narrow", narrow)
        wide_spikes = random_spikes(40, width=128, seed=5)
        narrow_spikes = random_spikes(40, width=64, seed=6)
        with fleet(registry) as server:
            wide_futures = [
                server.submit("wide", row, slo_class="batch")
                for row in wide_spikes
            ]
            narrow_futures = [
                server.submit("narrow", row, slo_class="batch")
                for row in narrow_spikes
            ]
            wide_served = [f.result(timeout=60) for f in wide_futures]
            narrow_served = [f.result(timeout=60) for f in narrow_futures]
        assert np.array_equal(
            wide_served, wide.classify_batch(wide_spikes)
        )
        assert np.array_equal(
            narrow_served, narrow.classify_batch(narrow_spikes)
        )

    def test_queue_full_per_slo_class(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        tight = {
            "default": SloClass("default", max_queue_depth=4),
            "roomy": SloClass("roomy", max_queue_depth=1024),
        }
        spikes = random_spikes(16)
        # A generous batching window keeps admitted requests queued
        # while we probe the depth limits.
        server = fleet(
            registry, slo_classes=tight,
            policy=BatchPolicy(max_batch_size=64, max_wait_ms=200.0),
        )
        with server:
            futures = [server.submit("demo", row) for row in spikes[:4]]
            with pytest.raises(QueueFullError, match="default"):
                server.submit("demo", spikes[4])
            # The full default class must not poison other classes.
            roomy = server.submit("demo", spikes[5], slo_class="roomy")
            for future in [*futures, roomy]:
                future.result(timeout=60)
        assert server.metrics.rejected == 1

    def test_deadline_defaults_to_the_slo_class(self):
        registry = ModelRegistry()
        registry.register_network("demo", random_network())
        classes = {
            "default": SloClass("default", deadline_ms=60_000.0),
        }
        with fleet(registry, slo_classes=classes, n_workers=1) as server:
            future = server.submit("demo", random_spikes(1)[0])
            assert future.result(timeout=60) >= 0
        # The class deadline was applied and not hit: nothing shed.
        assert server.metrics.shed == 0
        assert server.metrics.completed == 1

    def test_describe_reports_workers(self):
        with fleet(n_workers=2) as server:
            info = server.describe()
            assert info["n_workers"] == 2
            assert len(info["workers"]) == 2
            assert {w["worker_id"] for w in info["workers"]} == {0, 1}


@pytest.mark.multiprocess
class TestWorkerCountInvariance:
    def test_predictions_identical_across_worker_counts(self):
        network = random_network()
        spikes = random_spikes(120)
        expected = network.classify_batch(spikes)
        for n_workers in (1, 2, 4):
            registry = ModelRegistry()
            registry.register_network("demo", random_network())
            with fleet(registry, n_workers=n_workers) as server:
                served = serve_all(server, spikes)
            assert np.array_equal(served, expected), n_workers


# -- rolling hot-swap -----------------------------------------------------------------


@pytest.mark.multiprocess
class TestRollingSwap:
    def test_swap_rolls_new_weights_to_every_replica(self):
        registry = ModelRegistry()
        first = random_network(seed=0)
        second = random_network(seed=1)
        registry.register_network("demo", first)
        spikes = random_spikes(60)
        with fleet(registry) as server:
            before = serve_all(server, spikes)
            assert server.swap("demo", second) is first
            after = serve_all(server, spikes)
        assert np.array_equal(before, first.classify_batch(spikes))
        assert np.array_equal(after, second.classify_batch(spikes))

    def test_push_weights_ships_in_place_mutations(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(40)
        with fleet(registry) as server:
            before = serve_all(server, spikes)
            # Mutate in place the way online learning does — through
            # the macros, then note_weight_update (bumps
            # weight_version) — and roll the snapshot out.
            tile = network.tiles[0]
            new = tile.weight_matrix()
            new[:, 0] ^= 1
            for rb, row in enumerate(tile.macros):
                for cb, macro in enumerate(row):
                    macro.load_weights(
                        tile.mapping.block_weights(new, rb, cb)
                    )
            tile.note_weight_update()
            versions = server.push_weights("demo")
            after = serve_all(server, spikes)
        assert versions == tuple(t.weight_version for t in network.tiles)
        assert np.array_equal(after, network.classify_batch(spikes))
        assert not np.array_equal(before, after)


# -- crash supervision ----------------------------------------------------------------


@pytest.mark.multiprocess
class TestCrashSupervision:
    def test_killed_worker_respawns_and_serving_continues(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(60)
        with fleet(registry, n_workers=2) as server:
            first = serve_all(server, spikes[:20])
            victim = server.describe()["workers"][0]
            os.kill(
                server.executor._workers[victim["worker_id"]].process.pid,
                signal.SIGKILL,
            )
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                info = server.describe()["workers"][victim["worker_id"]]
                if info["respawns"] == 1 and info["ready"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker was not respawned")
            second = serve_all(server, spikes[20:])
        assert np.array_equal(first, network.classify_batch(spikes[:20]))
        assert np.array_equal(second, network.classify_batch(spikes[20:]))
        m = server.metrics
        assert m.submitted == m.completed + m.failed + m.shed == 60

    def test_exhausted_budget_removes_replica_and_reroutes(self):
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        spikes = random_spikes(40)
        server = fleet(
            registry, n_workers=2,
            supervisor=SupervisorPolicy(retry_budget=0),
        )
        with server:
            served = serve_all(server, spikes[:10])
            victim = sorted(server.live_workers())[0]
            os.kill(server.executor._workers[victim].process.pid,
                    signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if server.live_workers() == {1 - victim}:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("dead replica was not removed")
            # The survivor serves the whole stream, still bit-identical.
            rest = serve_all(server, spikes[10:])
        assert np.array_equal(served, network.classify_batch(spikes[:10]))
        assert np.array_equal(rest, network.classify_batch(spikes[10:]))
        m = server.metrics
        assert m.submitted == m.completed + m.failed + m.shed == 40

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_restart_forgets_the_crashed_runs_flights(self):
        # The collector dies with three batches still in flight; their
        # records belong to the freed ring and must not survive the
        # restart: a stale flight would keep its replica busy (a
        # rollout then times out) and a later crash of that replica
        # would free its slot a second time.
        registry = ModelRegistry()
        network = random_network()
        registry.register_network("demo", network)
        n_slots = 4

        class CollectorKiller(Tracer):
            """Raises on the first fleet.flush, once 3 batches trail it."""

            fired = False

            def record(self, name, start_s, end_s, **attrs):
                if name == "fleet.flush" and not self.fired:
                    self.fired = True
                    deadline = time.monotonic() + 10
                    while (len(server.executor._assigned) < 3
                           and time.monotonic() < deadline):
                        time.sleep(0.005)
                    raise RuntimeError("tracer failed on fleet.flush")
                super().record(name, start_s, end_s, **attrs)

        server = fleet(
            registry, n_workers=1, n_slots=n_slots,
            policy=BatchPolicy(max_batch_size=1, max_wait_ms=1.0),
            tracer=CollectorKiller(),
        )
        spikes = random_spikes(8)
        server.start()
        try:
            doomed = [server.submit("demo", row) for row in spikes[:4]]
            for future in doomed:
                with pytest.raises(ServingError, match="collector"):
                    future.result(timeout=30.0)
            assert server.failed
            server.start()
            assert server.push_weights("demo") == tuple(
                t.weight_version for t in network.tiles
            )
            os.kill(server.executor._workers[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                info = server.describe()["workers"][0]
                if info["respawns"] == 1 and info["ready"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker was not respawned")
            assert sorted(server.executor._free_slots) == list(range(n_slots))
            served = serve_all(server, spikes[4:], slo_class="default")
        finally:
            server.stop()
        assert np.array_equal(served, network.classify_batch(spikes[4:]))
        m = server.metrics
        assert m.submitted == m.completed + m.failed + m.shed == 8
        assert server.in_flight == 0

    def test_fleet_metrics_label_replicas(self):
        metrics = ServingMetrics()
        with fleet(metrics=metrics) as server:
            serve_all(server, random_spikes(30))
        text = metrics.registry.to_text()
        assert "repro_fleet_batches_total" in text
        assert 'replica="' in text
        assert 'model="demo"' in text


# -- CLI ------------------------------------------------------------------------------


@pytest.mark.multiprocess
class TestFleetCli:
    def test_open_loop_fleet_run_verifies_and_reports(self, tmp_path,
                                                      capsys):
        from repro.serve.__main__ import main

        out = tmp_path / "report.json"
        code = main([
            "--rate", "120", "--duration", "1", "--open-loop",
            "--workers", "2", "--slo-class", "batch",
            "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "fleet of 2 workers" in captured
        assert "OK (bit-identical)" in captured
        import json

        report = json.loads(out.read_text())
        assert report["workers"] == 2
        assert report["open_loop"] is True
        assert report["slo_class"] == "batch"
        assert report["accounted"] is True
        assert report["verified_vs_offline"] is True
        assert len(report["fleet"]["workers"]) == 2
