"""Inference serving: micro-batching, backpressure, model registry.

The serving subsystem turns the batched fast engine into a
traffic-serving system.  One :class:`~repro.serve.core.ServingCore`
admits single-image requests (edge validation, per-SLO-class depth
limits, circuit breakers), coalesces them in per-(model, lane)
:class:`~repro.serve.batcher.MicroBatcher`s under a size/deadline
policy, sheds deadline-expired requests and accounts for every one
(``submitted == completed + failed + shed``).  Where a batch runs is
the core's one seam, a :class:`~repro.serve.core.BatchExecutor`:

* :class:`~repro.serve.server.InferenceServer` — the core over the
  in-process executor: one lane, batches flush through
  ``EsamNetwork``'s engine on the dispatch thread, under an optional
  retry policy;
* :class:`~repro.serve.fleet.FleetServer` — the core over the
  worker-pool executor (:mod:`repro.serve.pool`): one lane per engine
  worker process, batches cross a shared-memory
  :class:`~repro.serve.shm.SpikeRing` of bit-packed spike planes,
  seeded consistent-hash routing, rolling hot-swap and supervised
  crash recovery.  Bit-identical to in-process serving at any worker
  count.

A :class:`~repro.serve.registry.ModelRegistry` maps model names to
networks built from sweep design points (hot-swappable), and
:class:`~repro.serve.metrics.ServingMetrics` records the latency SLO
percentiles.  ``python -m repro.serve`` runs a closed-loop or
open-loop load generator against either server.  See
``docs/serving.md``; failure handling (deadlines, retries, breakers)
is in ``docs/resilience.md``.
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.core import DEFAULT_SLO_CLASSES, ServingCore, SloClass
from repro.serve.fleet import FleetServer
from repro.serve.metrics import ServingMetrics, latency_percentiles
from repro.serve.pool import ConsistentHashRouter, ModelPayload
from repro.serve.registry import ModelRegistry, RegisteredModel, build_network
from repro.serve.server import InferenceServer
from repro.serve.shm import RingGeometry, SpikeRing

__all__ = [
    "BatchPolicy",
    "ConsistentHashRouter",
    "DEFAULT_SLO_CLASSES",
    "FleetServer",
    "InferenceServer",
    "MicroBatcher",
    "ModelPayload",
    "ModelRegistry",
    "RegisteredModel",
    "RingGeometry",
    "ServingCore",
    "ServingMetrics",
    "SloClass",
    "SpikeRing",
    "build_network",
    "latency_percentiles",
]
