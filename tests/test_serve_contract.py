"""The server contract, proven once for each server.

``InferenceServer`` and ``FleetServer`` are one serving core over two
batch executors, so every guarantee the core makes is asserted here
against both, through the ``serving`` fixture (tests/conftest.py):

* served predictions equal the offline ``classify_batch``;
* ``submitted == completed + failed + shed`` with nothing in flight,
  whatever mix of outcomes a run produces;
* deadline shedding, exact under an injected clock;
* ``stop(drain=False)`` fails every queued request explicitly;
* a crashed serving thread fails every pending request and leaves the
  server terminal until restarted — including crashes right after a
  batch was served or a request was shed, which must still count each
  request once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServingError,
)
from repro.obs.trace import Tracer
from repro.serve import BatchPolicy, ModelRegistry

from tests.test_serve import FakeClock, random_network, random_spikes

#: A batcher that never flushes on its own: requests stay queued until
#: the test stops the server.
HOLD = BatchPolicy(max_batch_size=100, max_wait_ms=60_000.0)

# Serving threads re-raise after failing what is pending (so real
# deployments log the crash); pytest reports that as an unhandled
# thread exception.
crashes_thread = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


class RaisingTracer(Tracer):
    """A tracer whose ``record`` raises on one span name."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def record(self, name, start_s, end_s, **attrs) -> None:
        if name == self.name:
            raise RuntimeError(f"tracer failed on {name}")
        super().record(name, start_s, end_s, **attrs)


def stack(seed: int = 0):
    registry = ModelRegistry()
    network = random_network(seed=seed)
    registry.register_network("m", network)
    return registry, network


def assert_accounted(server) -> None:
    data = server.metrics.to_dict()
    assert data["submitted"] == (
        data["completed"] + data["failed"] + data["shed"]
    )
    assert server.in_flight == 0


def test_predictions_equal_offline_classify_batch(serving):
    registry, network = stack()
    spikes = random_spikes(120)
    with serving(registry, policy=BatchPolicy(max_batch_size=8,
                                              max_wait_ms=1.0)) as server:
        futures = [server.submit("m", row) for row in spikes]
        served = [f.result(timeout=30.0) for f in futures]
    assert np.array_equal(served, network.classify_batch(spikes))
    data = server.metrics.to_dict()
    assert data["completed"] == 120 and data["failed"] == 0
    assert sum(
        int(k) * v for k, v in data["batch_size_hist"].items()
    ) == 120
    assert data["queue_depth_hist"]
    assert_accounted(server)


def test_accounting_holds_across_mixed_outcomes(serving):
    # A 50 ms coalescing window guarantees the 1 ms deadlines are long
    # gone by flush time: those requests are shed, the rest served.
    registry, network = stack()
    spikes = random_spikes(8)
    with serving(registry, policy=BatchPolicy(max_batch_size=16,
                                              max_wait_ms=50.0)) as server:
        doomed = [server.submit("m", row, deadline_ms=1.0)
                  for row in spikes[:4]]
        kept = [server.submit("m", row) for row in spikes[4:]]
        for future in doomed:
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30.0)
        served = [f.result(timeout=30.0) for f in kept]
    assert np.array_equal(served, network.classify_batch(spikes[4:]))
    data = server.metrics.to_dict()
    assert (data["submitted"], data["shed"], data["completed"]) == (8, 4, 4)
    assert_accounted(server)


def test_deadline_shedding_is_exact_under_an_injected_clock(serving):
    # One request's deadline has passed by the time the batch flushes,
    # its batchmate's has not; the flush happens at stop() with the
    # clock frozen, so the outcome is exact.
    clock = FakeClock()
    registry, network = stack()
    spikes = random_spikes(2)
    server = serving(registry, policy=HOLD, clock=clock).start()
    doomed = server.submit("m", spikes[0], deadline_ms=500.0)
    clock.advance(1.0)
    alive = server.submit("m", spikes[1], deadline_ms=5000.0)
    server.stop(drain=True)
    with pytest.raises(DeadlineExceededError, match="500.0 ms"):
        doomed.result(timeout=0)
    assert alive.result(timeout=0) == network.classify(spikes[1])
    assert server.metrics.shed == 1
    assert server.metrics.completed == 1
    assert_accounted(server)


def test_stop_without_drain_fails_every_queued_request(serving):
    registry, _ = stack()
    server = serving(registry, policy=HOLD).start()
    futures = [server.submit("m", row) for row in random_spikes(3)]
    server.stop(drain=False)
    for future in futures:
        with pytest.raises(ServingError, match="abandoned"):
            future.result(timeout=1.0)
    assert server.metrics.failed == 3
    assert_accounted(server)


def test_submit_validates_at_the_edge(serving):
    registry, _ = stack()
    server = serving(registry)
    row = random_spikes(1)[0]
    with pytest.raises(ConfigurationError, match="SLO class"):
        server.submit("m", row, slo_class="nope")
    with pytest.raises(ConfigurationError, match="deadline_ms"):
        server.submit("m", row, deadline_ms=0.0)
    with pytest.raises(ServingError, match="no model named"):
        server.submit("missing", row)
    with pytest.raises(ConfigurationError, match="0/1"):
        server.submit("m", np.full(64, 0.5))
    with pytest.raises(ConfigurationError, match="shape"):
        server.submit("m", np.zeros(65, dtype=bool))
    with pytest.raises(ServingError, match="not running"):
        server.submit("m", row)
    assert server.metrics.submitted == 0


@crashes_thread
def test_dispatch_crash_fails_pending_and_is_terminal(serving, monkeypatch):
    registry, _ = stack()
    server = serving(registry)

    def sabotaged(model, lane, requests):
        raise RuntimeError("dispatch bug")

    monkeypatch.setattr(server.executor, "run", sabotaged)
    server.start()
    future = server.submit("m", random_spikes(1)[0])
    with pytest.raises(ServingError, match="dispatch thread crashed"):
        future.result(timeout=30.0)
    assert server.failed
    assert not server.running
    # Terminal: further submissions are rejected until a restart.
    with pytest.raises(ServingError, match="crashed"):
        server.submit("m", random_spikes(1)[0])
    data = server.metrics.to_dict()
    assert data["failed"] == data["submitted"] == 1
    assert_accounted(server)
    server.stop()  # must not hang or raise


@crashes_thread
def test_restart_after_a_crash_reaps_the_failed_run(serving, monkeypatch):
    registry, network = stack()
    server = serving(registry)

    def sabotaged(model, lane, requests):
        raise RuntimeError("dispatch bug")

    monkeypatch.setattr(server.executor, "run", sabotaged)
    server.start()
    with pytest.raises(ServingError, match="crashed"):
        server.classify("m", random_spikes(1)[0])
    # The worker pool's processes of the failed run (none in process).
    crashed = [w.process for w in
               getattr(server.executor, "_workers", {}).values()]
    monkeypatch.undo()
    server.start()
    row = random_spikes(1)[0]
    assert server.classify("m", row) == network.classify(row)
    server.stop()
    assert not any(process.is_alive() for process in crashed)
    assert_accounted(server)


@crashes_thread
def test_crash_after_a_served_batch_still_resolves_it(serving):
    # The thread that resolves a served batch dies just before doing
    # so (its flush span raises): the batch's requests are still
    # tracked, so the crash fails them instead of leaving them hanging.
    registry, _ = stack()
    server = serving(registry, tracer=RaisingTracer(serving.flush_span))
    server.start()
    future = server.submit("m", random_spikes(1)[0])
    with pytest.raises(ServingError, match="crashed"):
        future.result(timeout=30.0)
    assert server.failed
    data = server.metrics.to_dict()
    assert data["failed"] == data["submitted"] == 1
    assert_accounted(server)
    server.stop()


@crashes_thread
def test_crash_after_a_shed_counts_each_request_once(serving):
    # The batch sheds one request, then dispatch dies before handing
    # the rest over: the shed request must not be released again.
    clock = FakeClock()
    registry, _ = stack()
    server = serving(registry, policy=HOLD, clock=clock,
                     tracer=RaisingTracer("serve.batch_assembly"))
    server.start()
    doomed = server.submit("m", random_spikes(1)[0], deadline_ms=500.0)
    clock.advance(1.0)
    alive = server.submit("m", random_spikes(1)[0])
    server.stop(drain=True)
    with pytest.raises(DeadlineExceededError):
        doomed.result(timeout=0)
    with pytest.raises(ServingError, match="dispatch thread crashed"):
        alive.result(timeout=0)
    data = server.metrics.to_dict()
    assert (data["submitted"], data["shed"], data["failed"]) == (2, 1, 1)
    assert_accounted(server)
