"""The in-process server: batches flush on the dispatch thread.

``InferenceServer`` is the :class:`~repro.serve.core.ServingCore` over
an :class:`InProcessExecutor`: one lane, and each micro-batch runs
through ``EsamNetwork``'s engine backend right on the dispatch thread.
Clients call :meth:`~repro.serve.core.ServingCore.submit`
(non-blocking, returns a future) or
:meth:`~repro.serve.core.ServingCore.classify` (blocking convenience).

Backpressure is the core's admission: the server's one ``default``
SLO class admits at most ``max_queue_depth`` in-flight requests, and
beyond that ``submit`` raises :class:`~repro.errors.QueueFullError`
without enqueueing anything.  No admitted request is ever dropped
silently — ``submitted == completed + failed + shed`` holds exactly.

Resilience hooks are all opt-in: a
:class:`~repro.resilience.policy.RetryPolicy` absorbs transient flush
failures with seeded backoff, a registry constructed with a
:class:`~repro.resilience.policy.BreakerPolicy` fail-fasts admission
per model while its circuit is open, and a
:class:`~repro.resilience.chaos.ChaosPolicy` injects deterministic
flush faults and latency spikes for the acceptance tests.
"""

from __future__ import annotations

import time

import numpy as np

from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import RetryPolicy
from repro.serve.batcher import BatchPolicy
from repro.serve.core import BatchExecutor, ServingCore, SloClass
from repro.serve.metrics import ServingMetrics
from repro.serve.registry import ModelRegistry

__all__ = ["InProcessExecutor", "InferenceServer"]


class InProcessExecutor(BatchExecutor):
    """One lane: the dispatch thread runs each batch through the engine.

    Every flush runs under the optional retry policy (each absorbed
    retry counted and reported to the registry's circuit breaker) and,
    when a chaos policy is active, its deterministic fault schedule
    first.
    """

    def __init__(self, retry: RetryPolicy | None = None,
                 chaos: ChaosPolicy | None = None) -> None:
        self.retry = retry
        self.chaos = chaos if chaos is not None and chaos.active else None
        self._flush_counts: dict[str, int] = {}

    def run(self, model: str, lane: int, requests: list) -> None:
        core = self.core
        registry, metrics, clock = core.registry, core.metrics, core._clock
        tracer = core.tracer
        batch = np.stack([r.spikes for r in requests])
        flush_index = self._flush_counts.get(model, 0)
        self._flush_counts[model] = flush_index + 1

        def flush(attempt: int):
            if self.chaos is not None:
                self.chaos.on_flush(f"{model}/{flush_index}", attempt)
            # Validate-once contract: every spike vector was validated
            # at submit(), so the flush goes straight to the backend.
            return registry.get(model).engine_backend(
                core.engine
            ).classify_batch(batch)

        def on_retry(attempt, error, delay_ms) -> None:
            metrics.record_retried()
            registry.record_flush_failure(model)
            if tracer.enabled:
                at = clock()
                tracer.record("serve.retry", at, at, model=model,
                              attempt=attempt, delay_ms=delay_ms,
                              error=type(error).__name__)

        started = clock()
        try:
            if self.retry is not None:
                predictions = self.retry.call(flush, on_retry=on_retry)
            else:
                predictions = flush(0)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            registry.record_flush_failure(model)
            if tracer.enabled:
                tracer.record("serve.flush", started, clock(), model=model,
                              size=len(requests), engine=core.engine,
                              outcome="failed")
            core._fail(requests, error)
            return
        registry.record_flush_success(model)
        done = clock()
        if tracer.enabled:
            tracer.record("serve.flush", started, done, model=model,
                          size=len(requests), engine=core.engine,
                          outcome="completed")
        core._complete(requests, predictions, done)


class InferenceServer(ServingCore):
    """Micro-batching classification service, in process.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` holding the
        servable networks.  Must be non-empty before requests arrive.
    policy:
        The :class:`~repro.serve.batcher.BatchPolicy` applied per
        model (default: 64-image batches, 2 ms coalescing window).
    max_queue_depth:
        In-flight request bound — the depth of the server's one
        ``default`` SLO class; the explicit backpressure knob.
    engine:
        Simulation engine used for every flush: any registered backend
        (:data:`repro.tile.ENGINES`; ``"fast"`` default).
    metrics:
        Optional externally-owned :class:`ServingMetrics` collector.
    retry:
        Optional :class:`RetryPolicy` applied to every micro-batch
        flush (:class:`InProcessExecutor`).
    chaos:
        Optional :class:`ChaosPolicy` of injected flush faults and
        latency spikes.  Test-harness knob — leave ``None`` in real
        serving.
    clock, tracer:
        As for :class:`~repro.serve.core.ServingCore`; construct with
        ``clock=tracer.now`` to put serve and engine spans on one axis.
    """

    def __init__(self, registry: ModelRegistry,
                 policy: BatchPolicy | None = None,
                 max_queue_depth: int = 256,
                 engine: str = "fast",
                 metrics: ServingMetrics | None = None,
                 retry: RetryPolicy | None = None,
                 chaos: ChaosPolicy | None = None,
                 clock=time.monotonic,
                 tracer=None) -> None:
        self.max_queue_depth = max_queue_depth
        super().__init__(
            registry, InProcessExecutor(retry, chaos), policy=policy,
            engine=engine, metrics=metrics,
            slo_classes={"default": SloClass("default", max_queue_depth)},
            clock=clock, tracer=tracer,
        )
