"""Serving-layer resilience: deadlines, retries, breakers, crash safety.

White-box where determinism demands it (deadline shedding against an
injected clock), end-to-end everywhere else: a real server over a real
random network, driven through injected flush faults, open circuits, a
sabotaged dispatch loop and a multi-threaded backpressure hammer.  The
invariant under test throughout: every admitted request resolves or
fails *explicitly*, and ``submitted == completed + failed + shed``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import (
    InjectedFaultError,
    ModelUnavailableError,
    QueueFullError,
)
from repro.resilience import BreakerPolicy, ChaosPolicy, RetryPolicy
from repro.serve import BatchPolicy, InferenceServer, ModelRegistry

from tests.test_serve import FakeClock, random_network, random_spikes


def make_stack(*, breaker=None, retry=None, chaos=None, clock=None,
               max_queue_depth=256, max_wait_ms=0.0, seed=0):
    """A registry + server over one small random network."""
    registry = ModelRegistry(
        breaker=breaker, clock=clock or time.monotonic
    )
    network = random_network(seed=seed)
    registry.register_network("m", network)
    server = InferenceServer(
        registry,
        policy=BatchPolicy(max_batch_size=16, max_wait_ms=max_wait_ms),
        max_queue_depth=max_queue_depth,
        retry=retry, chaos=chaos,
    )
    return registry, network, server


def accounting(metrics) -> tuple[int, int]:
    data = metrics.to_dict()
    return (data["submitted"],
            data["completed"] + data["failed"] + data["shed"])


# -- deadlines & load shedding --------------------------------------------------------


class TestDeadlines:
    def test_undeadlined_requests_never_shed(self):
        _, network, server = make_stack()
        spikes = random_spikes(8)
        with server:
            futures = [server.submit("m", row) for row in spikes]
            served = [f.result(timeout=10.0) for f in futures]
        offline = network.classify_batch(spikes)
        assert served == [int(p) for p in offline]
        assert server.metrics.shed == 0


# -- retry policy on the flush path ---------------------------------------------------


class TestFlushRetries:
    def test_transient_faults_are_absorbed_and_counted(self):
        chaos = ChaosPolicy(seed=3, flush_error_p=0.4)
        retry = RetryPolicy(retries=4, base_delay_ms=0.0)
        _, network, server = make_stack(chaos=chaos, retry=retry)
        spikes = random_spikes(32)
        with server:
            futures = [server.submit("m", row) for row in spikes]
            served = [f.result(timeout=10.0) for f in futures]
        # Every request completed despite injected faults, and the
        # served predictions are bit-identical to offline.
        assert served == [int(p) for p in network.classify_batch(spikes)]
        data = server.metrics.to_dict()
        assert data["failed"] == 0
        assert data["retried"] > 0
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]

    def test_exhausted_retries_fail_the_batch_explicitly(self):
        # flush_error_p=1.0 defeats any retry budget; the error reaches
        # the caller and the accounting still balances.
        chaos = ChaosPolicy(seed=3, flush_error_p=1.0)
        retry = RetryPolicy(retries=2, base_delay_ms=0.0)
        _, _, server = make_stack(chaos=chaos, retry=retry)
        with server:
            future = server.submit("m", random_spikes(1)[0])
            with pytest.raises(InjectedFaultError):
                future.result(timeout=10.0)
        data = server.metrics.to_dict()
        assert data["failed"] == 1
        assert data["retried"] == 2
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]


# -- circuit breaker ------------------------------------------------------------------


class TestCircuitBreaking:
    def test_open_circuit_fails_fast_then_probe_recovers(self, monkeypatch):
        clock = FakeClock()
        breaker = BreakerPolicy(failure_threshold=2, cooldown_s=10.0)
        registry, network, server = make_stack(breaker=breaker, clock=clock)
        spikes = random_spikes(8)

        boom = True
        real = network.engine_backend("fast")

        class FlakyBackend:
            def classify_batch(self, batch):
                if boom:
                    raise InjectedFaultError("injected")
                return real.classify_batch(batch)

        # The server flushes through engine_backend() (validation already
        # happened at submit), so faults are injected at the backend seam.
        monkeypatch.setattr(
            network, "engine_backend", lambda engine="fast", **kw: FlakyBackend()
        )
        with server:
            # Two failed flushes open the circuit.
            for i in range(2):
                with pytest.raises(InjectedFaultError):
                    server.classify("m", spikes[i], timeout=10.0)
            assert registry.circuit_state("m") == "open"
            with pytest.raises(ModelUnavailableError):
                server.submit("m", spikes[2])
            assert server.metrics.broken_circuit == 1
            # Cooldown over: exactly one half-open probe is admitted.
            clock.advance(10.0)
            boom = False
            assert server.classify("m", spikes[3], timeout=10.0) >= 0
            assert registry.circuit_state("m") == "closed"
            assert server.classify("m", spikes[4], timeout=10.0) >= 0
        # Rejected submissions were never admitted, so they are absent
        # from the admission accounting.
        assert accounting(server.metrics)[0] == accounting(server.metrics)[1]

    def test_swap_resets_the_breaker(self):
        clock = FakeClock()
        breaker = BreakerPolicy(failure_threshold=1, cooldown_s=1e9)
        registry = ModelRegistry(breaker=breaker, clock=clock)
        registry.register_network("m", random_network(seed=0))
        registry.record_flush_failure("m")
        assert registry.circuit_state("m") == "open"
        with pytest.raises(ModelUnavailableError):
            registry.check("m")
        registry.swap("m", random_network(seed=1))
        assert registry.circuit_state("m") == "closed"
        registry.check("m")

    def test_describe_reports_circuit_state(self):
        registry = ModelRegistry(breaker=BreakerPolicy(failure_threshold=1))
        registry.register_network("m", random_network())
        assert registry.describe()[0]["circuit"] == "closed"
        ungated = ModelRegistry()
        ungated.register_network("m", random_network())
        assert "circuit" not in ungated.describe()[0]
        assert ungated.circuit_state("m") is None
        ungated.record_flush_failure("m")  # no-op without a policy
        ungated.check("m")


# -- backpressure hammer --------------------------------------------------------------


class TestBackpressureHammer:
    def test_hammer_never_exceeds_depth_and_loses_nothing(self):
        depth = 16
        n_threads, per_thread = 8, 40
        _, network, server = make_stack(
            max_queue_depth=depth, max_wait_ms=0.5,
        )
        spikes = random_spikes(n_threads * per_thread)
        offline = network.classify_batch(spikes)
        results = np.full(len(spikes), -1, dtype=np.int64)
        errors: list[Exception] = []

        def hammer(k: int) -> None:
            try:
                for i in range(k * per_thread, (k + 1) * per_thread):
                    while True:
                        try:
                            future = server.submit("m", spikes[i])
                            break
                        except QueueFullError:
                            time.sleep(0.0005)
                    results[i] = future.result(timeout=30.0)
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        with server:
            threads = [
                threading.Thread(target=hammer, args=(k,))
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        # No admitted request was lost or reordered across threads.
        assert np.array_equal(results, offline)
        data = server.metrics.to_dict()
        assert data["submitted"] == len(spikes)
        assert data["completed"] == len(spikes)
        assert data["failed"] == data["shed"] == 0
        # The observed queue depth never exceeded the bound.
        max_depth = max(int(k) for k in data["queue_depth_hist"])
        assert max_depth <= depth


# -- public API -----------------------------------------------------------------------


class TestPublicApi:
    def test_error_classes_are_exported(self):
        for name in ("DeadlineExceededError", "ModelUnavailableError",
                     "WorkerCrashError", "InjectedFaultError",
                     "QueueFullError", "ServingError"):
            assert name in repro.__all__
            assert issubclass(getattr(repro, name), Exception)
        assert issubclass(repro.DeadlineExceededError, repro.ServingError)
        assert issubclass(repro.ModelUnavailableError, repro.ServingError)

    def test_resilience_package_surface(self):
        from repro import resilience

        for name in resilience.__all__:
            assert getattr(resilience, name) is not None
