"""The serving fleet: N engine worker processes behind one serving core.

:class:`FleetServer` is the :class:`~repro.serve.core.ServingCore` —
the same admission, batching, dispatch and accounting as
:class:`~repro.serve.server.InferenceServer` — over a
:class:`~repro.serve.pool.WorkerPoolExecutor`: every micro-batch
flushes in one of N ``EngineWorker`` *processes* instead of on the
dispatch thread, so kernel work escapes the GIL and aggregate
throughput can scale with workers (``benchmarks/bench_serving.py``
measures the curve).

Requests route to workers by a seeded consistent hash of their id, so
the request→batch grouping is a pure function of the request stream;
with split-invariant ``infer_batch``, predictions are bit-identical to
in-process serving for *any* worker count — the chaos acceptance suite
asserts this across worker counts and across a mid-run crash and
respawn.
"""

from __future__ import annotations

import time

from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import SupervisorPolicy
from repro.serve.batcher import BatchPolicy
from repro.serve.core import ServingCore
from repro.serve.metrics import ServingMetrics
from repro.serve.pool import WorkerPoolExecutor
from repro.serve.registry import ModelRegistry

__all__ = ["FleetServer"]


class FleetServer(ServingCore):
    """Multi-process micro-batching classification service.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` holding the servable networks; must
        be non-empty at :meth:`start`.  Swaps and weight pushes go
        through the registry first (interface validation, breaker
        reset) and then roll out to the workers one replica at a time.
    n_workers:
        Engine worker processes (replicas).  Every model is served by
        every replica; routing spreads the request stream across them.
    policy:
        The per-(model, replica) :class:`BatchPolicy`.
    engine:
        Engine backend every worker flushes through.
    slo_classes:
        Admission classes by name (default
        :data:`~repro.serve.core.DEFAULT_SLO_CLASSES`).  Must contain
        ``"default"``.
    supervisor:
        :class:`SupervisorPolicy`; its ``retry_budget`` bounds how
        many times one worker slot may be respawned before it is
        removed from the routing set.
    chaos:
        Optional :class:`ChaosPolicy` shipped *into* the workers: its
        deterministic schedule decides which batches crash their
        worker mid-flight (test harness; leave ``None`` in real
        serving).
    route_seed:
        Seed of the consistent-hash routing ring.
    n_slots:
        Shared-memory ring slots (default ``max(2 * n_workers, 4)``);
        bounds how many batches may be in flight across all workers.
    """

    def __init__(self, registry: ModelRegistry,
                 n_workers: int = 2,
                 policy: BatchPolicy | None = None,
                 engine: str = "fast",
                 metrics: ServingMetrics | None = None,
                 slo_classes: dict | None = None,
                 supervisor: SupervisorPolicy | None = None,
                 chaos: ChaosPolicy | None = None,
                 route_seed: int = 0,
                 n_slots: int | None = None,
                 clock=time.monotonic,
                 tracer=None) -> None:
        executor = WorkerPoolExecutor(
            n_workers, supervisor=supervisor, chaos=chaos,
            route_seed=route_seed, n_slots=n_slots,
        )
        super().__init__(
            registry, executor, policy=policy, engine=engine,
            metrics=metrics, slo_classes=slo_classes, clock=clock,
            tracer=tracer,
        )

    # In the class's own dict so callers that patch
    # ``vars(FleetServer)["submit"]`` (timing wrappers) find it.
    submit = ServingCore.submit

    def swap(self, name: str, network, point=None):
        """Replace ``name``'s network and roll it out replica by replica.

        The registry swap happens first (interface check, breaker
        reset); the fleet keeps serving on the other replicas the whole
        time.  Returns the old network.
        """
        old = self.registry.swap(name, network, point=point)
        self.executor.rollout(name)
        return old

    def push_weights(self, name: str) -> tuple:
        """Roll the registry's *current* weights for ``name`` out.

        The in-place hot-swap path, after online learning or fault
        injection mutated the registered network's tiles.  Returns the
        weight versions rolled out.
        """
        return self.executor.rollout(name)

    def live_workers(self) -> set[int]:
        """Worker ids still in the routing set (spawned or respawning)."""
        with self._cond:
            return self.executor.live_lanes()
