"""The serving core: admission, batching, dispatch and accounting.

:class:`ServingCore` is the one implementation of everything a server
does between ``submit`` and a resolved future; only *where a batch
runs* varies, behind the :class:`BatchExecutor` seam:

* :class:`~repro.serve.server.InProcessExecutor` — one lane; the
  dispatch thread flushes the batch itself (``InferenceServer``);
* :class:`~repro.serve.pool.WorkerPoolExecutor` — one lane per engine
  worker process, fed through a shared-memory ring (``FleetServer``).

The core owns, for both:

* **edge validation** — model, spikes (exactly once; no hop after this
  re-checks), deadline and SLO class;
* **admission** — a per-:class:`SloClass` depth limit
  (:class:`~repro.errors.QueueFullError`) and the registry's circuit
  breaker gate (:class:`~repro.errors.ModelUnavailableError`);
* **batching** — request ids, the inbox and one
  :class:`~repro.serve.batcher.MicroBatcher` per (model, lane);
* **dispatch** — one thread whose waits are driven by batch deadlines,
  shedding deadline-expired requests before a batch is handed over;
* **accounting** — every admitted request stays *tracked* from
  ``submit`` until it resolves, and :meth:`ServingCore._release`
  untracks it exactly once, so whichever thread resolves it (or a
  crash that fails everything still tracked) counts it once:
  ``submitted == completed + failed + shed`` always holds;
* **lifecycle** — start/stop (draining or not), the terminal
  ``failed`` state after any serving thread dies, ``describe()``.

Predictions are deterministic: ``infer_batch`` is split-invariant (a
property the test suite asserts), so however arrival timing, routing
or the executor partitions a request stream into micro-batches, every
request gets the prediction the offline ``classify_batch`` gives it.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ModelUnavailableError,
    QueueFullError,
    ServingError,
)
from repro.obs.trace import get_tracer
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.metrics import ServingMetrics
from repro.serve.registry import ModelRegistry
from repro.tile.network import validate_engine, validate_spikes

__all__ = [
    "BatchExecutor", "DEFAULT_SLO_CLASSES", "ServingCore", "SloClass",
]


@dataclass(frozen=True)
class SloClass:
    """One admission class at the serving edge.

    ``max_queue_depth`` bounds how many requests of this class may be
    in flight at once (beyond it, ``submit`` raises
    :class:`~repro.errors.QueueFullError`); ``deadline_ms``, when set,
    is the default queueing deadline applied to requests of the class
    that do not carry an explicit one — expired requests are shed, not
    served.
    """

    name: str
    max_queue_depth: int = 256
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SLO class name must be non-empty")
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be > 0 when set, got {self.deadline_ms}"
            )


#: The stock admission classes the CLI exposes via ``--slo-class``.
#: ``batch`` tolerates deep queues (throughput work), ``default`` is
#: the balanced middle, ``interactive`` keeps queues shallow and sheds
#: anything that waited longer than 50 ms.
DEFAULT_SLO_CLASSES = {
    "batch": SloClass("batch", max_queue_depth=2048),
    "default": SloClass("default", max_queue_depth=256),
    "interactive": SloClass(
        "interactive", max_queue_depth=64, deadline_ms=50.0
    ),
}


@dataclass
class _Request:
    """One admitted classification request."""

    model: str
    spikes: np.ndarray
    submitted_at: float
    #: Absolute clock time after which the request is shed instead of
    #: dispatched (``None`` = no deadline).
    deadline_at: float | None = None
    slo_class: str = "default"
    #: Admission order; the key lanes are routed by.
    request_id: int = 0
    future: Future = field(default_factory=Future)


class BatchExecutor:
    """Where a micro-batch runs: the transport seam under the core.

    An executor serves batches on one or more *lanes* (the in-process
    executor has one, the worker pool one per worker).  The core calls
    every hook below; those marked "under lock" hold the core's
    condition, which :meth:`bind` shares with the executor so its own
    state and the core's change under one lock.
    """

    def bind(self, core: "ServingCore") -> None:
        self.core = core
        self._cond = core._cond

    def start(self) -> None:
        """Acquire resources before any serving thread starts."""

    def loops(self) -> list[tuple[str, object]]:
        """``(role, body)`` of background threads to run beside dispatch."""
        return []

    def stop(self) -> None:
        """Release resources once every serving thread has exited."""

    def live_lanes(self) -> set[int]:
        """Lanes requests may be routed to.  Under lock."""
        return {0}

    def route(self, key, live: set[int]) -> int:
        """The lane serving ``key`` (a request id).  Under lock."""
        return 0

    def accepting(self, lane: int) -> bool:
        """May a batch be handed to ``lane`` now?  Under lock.

        A lane turning accepting must ``notify_all`` the shared
        condition: dispatch sleeps until then.
        """
        return True

    def run(self, model: str, lane: int, requests: list) -> None:
        """Serve one batch of live requests; called on the dispatch thread.

        Every request must eventually resolve through the core's
        :meth:`~ServingCore._complete` or :meth:`~ServingCore._fail`,
        now or from another thread.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        return {}


class ServingCore:
    """Micro-batching classification service over a :class:`BatchExecutor`.

    Not constructed directly: :class:`~repro.serve.server.InferenceServer`
    and :class:`~repro.serve.fleet.FleetServer` are this class with
    their executor chosen.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` holding the
        servable networks.
    executor:
        The :class:`BatchExecutor` batches run on.
    policy:
        The :class:`~repro.serve.batcher.BatchPolicy` applied per
        (model, lane) batcher (default: 64-image batches, 2 ms window).
    engine:
        Engine backend every flush runs (:data:`repro.tile.ENGINES`).
        Every backend serves bit-identical predictions.
    metrics:
        Optional externally-owned :class:`ServingMetrics` collector.
    slo_classes:
        Admission classes by name; must contain ``"default"``.
    clock:
        Injectable clock for submit times, deadlines and batch windows.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; ``None`` consults
        the process-global tracer at each flush (a no-op unless one was
        installed).  Serve spans use the *core's* clock, so a trace
        mixing serve and engine spans should construct the server with
        ``clock=tracer.now``.
    """

    def __init__(self, registry: ModelRegistry, executor: BatchExecutor,
                 policy: BatchPolicy | None = None,
                 engine: str = "fast",
                 metrics: ServingMetrics | None = None,
                 slo_classes: dict | None = None,
                 clock=time.monotonic,
                 tracer=None) -> None:
        validate_engine(engine)
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.engine = engine
        self.metrics = metrics or ServingMetrics()
        self.slo_classes = dict(slo_classes or DEFAULT_SLO_CLASSES)
        if "default" not in self.slo_classes:
            raise ConfigurationError(
                'slo_classes must contain a "default" class'
            )
        self._clock = clock
        self._tracer = tracer
        #: One lock for all serving state, shared with the executor.
        self._cond = threading.Condition()
        self._inbox: list[_Request] = []
        self._batchers: dict[tuple[str, int], MicroBatcher] = {}
        #: Admitted, unresolved requests by id — the accounting truth.
        self._tracked: dict[int, _Request] = {}
        self._class_depth = {name: 0 for name in self.slo_classes}
        self._request_ids = itertools.count()
        self._running = False
        self._failed = False
        self._drain_on_stop = True
        self._threads: list[threading.Thread] = []
        self.executor = executor
        executor.bind(self)

    # -- lifecycle ------------------------------------------------------------------

    def start(self):
        """Start the executor, then the serving threads (idempotent).

        The executor starts first, so a worker pool forks its processes
        before any serving thread exists to be duplicated into them.  A
        restart after a crash first reaps the failed run's threads and
        executor resources.
        """
        with self._cond:
            if self._running:
                return self
        if self._threads:
            self.stop(drain=False)
        self.executor.start()
        with self._cond:
            self._running = True
            self._failed = False
        loops = [("dispatch", self._dispatch_forever), *self.executor.loops()]
        self._threads = [
            threading.Thread(target=self._guarded, args=(role, body),
                             name=f"repro-serve-{role}", daemon=True)
            for role, body in loops
        ]
        self.metrics.mark_started()
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving.

        ``drain=True`` (default) serves every admitted request before
        returning; ``drain=False`` fails still-queued requests with
        :class:`ServingError` — either way nothing is silently lost.
        """
        with self._cond:
            if not self._running and not self._threads:
                return
            self._running = False
            self._drain_on_stop = drain
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        self.executor.stop()
        self.metrics.mark_stopped()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    @property
    def running(self) -> bool:
        return self._running

    @property
    def failed(self) -> bool:
        """Did a serving thread die?  Terminal until :meth:`start`."""
        with self._cond:
            return self._failed

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet resolved."""
        with self._cond:
            return len(self._tracked)

    def describe(self) -> dict:
        """JSON-ready summary (CLI reports, tests)."""
        return {
            "engine": self.engine,
            "slo_classes": sorted(self.slo_classes),
            **self.executor.describe(),
        }

    # -- client API -----------------------------------------------------------------

    def submit(self, model: str, spikes: np.ndarray,
               deadline_ms: float | None = None,
               slo_class: str = "default") -> Future:
        """Admit one request; returns a future resolving to the class.

        The single validation point: the SLO class, the deadline, the
        model name and the spike vector are checked *before*
        admission.  A full class raises :class:`QueueFullError` (the
        request is not enqueued); an open circuit raises
        :class:`~repro.errors.ModelUnavailableError`.

        ``deadline_ms`` (default: the class's deadline) bounds the
        request's queueing time: if it has passed when the dispatch
        loop reaches the request, the request is shed — its future
        fails with :class:`~repro.errors.DeadlineExceededError` and the
        engine never sees it.
        """
        try:
            slo = self.slo_classes[slo_class]
        except KeyError:
            known = ", ".join(sorted(self.slo_classes))
            raise ConfigurationError(
                f"unknown SLO class {slo_class!r} (known: {known})"
            ) from None
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be > 0 when set, got {deadline_ms}"
            )
        if deadline_ms is None:
            deadline_ms = slo.deadline_ms
        network = self.registry.get(model)
        spikes = validate_spikes(spikes, network.tiles[0].n_in)
        with self._cond:
            if self._failed:
                raise ServingError(
                    "the server crashed; restart it before submitting"
                )
            if not self._running:
                raise ServingError("the server is not running; call start()")
            depth = self._class_depth[slo.name]
            if depth >= slo.max_queue_depth:
                self.metrics.record_rejected()
                raise QueueFullError(
                    f"SLO class {slo.name!r} is full ({depth} in flight, "
                    f"max_queue_depth={slo.max_queue_depth}); retry later"
                )
            # Breaker gate *after* the depth check, so a half-open
            # probe slot is only consumed by a request that would
            # actually be admitted.
            try:
                self.registry.check(model)
            except ModelUnavailableError:
                self.metrics.record_broken_circuit()
                raise
            now = self._clock()
            request = _Request(
                model=model, spikes=spikes, submitted_at=now,
                deadline_at=(now + deadline_ms / 1e3
                             if deadline_ms is not None else None),
                slo_class=slo.name, request_id=next(self._request_ids),
            )
            self._tracked[request.request_id] = request
            self._class_depth[slo.name] = depth + 1
            self._inbox.append(request)
            self.metrics.record_submitted(queue_depth=len(self._tracked))
            self._cond.notify_all()
        return request.future

    def classify(self, model: str, spikes: np.ndarray,
                 timeout: float | None = 30.0) -> int:
        """Blocking single-request convenience around :meth:`submit`."""
        return self.submit(model, spikes).result(timeout=timeout)

    # -- resolution (the single accounting path) ------------------------------------

    def _release(self, requests) -> list[bool]:
        """Untrack resolved requests; True for each this call owns.

        A request is released exactly once, by whichever thread gets
        here first; every other resolution attempt is a no-op.
        """
        owned = []
        with self._cond:
            for request in requests:
                mine = self._tracked.pop(request.request_id, None) is not None
                if mine:
                    self._class_depth[request.slo_class] -= 1
                owned.append(mine)
            self._cond.notify_all()
        return owned

    def _complete(self, requests, predictions, done: float) -> None:
        """Resolve a served batch with its predictions."""
        owned = self._release(requests)
        self.metrics.record_batch(len(requests))
        for request, prediction, mine in zip(requests, predictions, owned):
            if mine:
                self.metrics.record_completed(done - request.submitted_at)
                request.future.set_result(int(prediction))

    def _fail(self, requests, errors, shed: bool = False) -> None:
        """Fail requests with one error, or one error per request."""
        owned = self._release(requests)
        if isinstance(errors, BaseException):
            errors = itertools.repeat(errors)
        failing = [(r, e) for r, e, mine in zip(requests, errors, owned)
                   if mine]
        if not failing:
            return
        if shed:
            self.metrics.record_shed(len(failing))
        else:
            self.metrics.record_failed(len(failing))
        for request, error in failing:
            request.future.set_exception(error)

    def _fail_pending(self, error: BaseException,
                      where: str = "dispatch thread") -> None:
        """Serving died: fail every tracked request; terminal state."""
        failure = ServingError(
            f"the {where} crashed ({type(error).__name__}: {error}); "
            "pending requests abandoned"
        )
        failure.__cause__ = error
        with self._cond:
            self._failed = True
            self._running = False
            pending = list(self._tracked.values())
            self._inbox = []
            for batcher in self._batchers.values():
                batcher.drain()
            self._cond.notify_all()
        self._fail(pending, failure)

    def _guarded(self, role: str, body) -> None:
        """Thread body: a crash is never silent — it fails what is pending."""
        try:
            body()
        except BaseException as error:  # noqa: BLE001 - must fail pending
            self._fail_pending(error, f"{role} thread")
            raise

    # -- dispatch -------------------------------------------------------------------

    def _batcher_for(self, model: str, lane: int) -> MicroBatcher:
        """The (model, lane) batcher.  Call under lock."""
        batcher = self._batchers.get((model, lane))
        if batcher is None:
            batcher = MicroBatcher(self.policy, clock=self._clock)
            self._batchers[(model, lane)] = batcher
        return batcher

    def _reroute(self, lane: int, live: set[int]) -> None:
        """Move a retired lane's queued requests to ``live``.  Under lock."""
        stranded = [
            request
            for (_, owner), batcher in self._batchers.items() if owner == lane
            for batch in batcher.drain()
            for request in batch
        ]
        for index, request in enumerate(stranded):
            target = self.executor.route(f"reroute/{index}", live)
            self._batcher_for(request.model, target).add(
                request, now=request.submitted_at
            )

    def _idle_timeout(self) -> float | None:
        """How long dispatch may sleep: until the next batch deadline of
        a lane that can take it, else until notified.  Under lock."""
        deadlines = [
            batcher.next_deadline()
            for (_, lane), batcher in self._batchers.items()
            if len(batcher) and self.executor.accepting(lane)
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - self._clock())

    def _ready(self, key, now: float) -> bool:
        """Can batcher ``key`` flush now?  Under lock."""
        return (self._batchers[key].ready(now)
                and self.executor.accepting(key[1]))

    def _dispatch_forever(self) -> None:
        while True:
            with self._cond:
                now = self._clock()
                if (self._running and not self._inbox
                        and not any(self._ready(key, now)
                                    for key in self._batchers)):
                    self._cond.wait(self._idle_timeout())
                stopping = not self._running
                drained, self._inbox = self._inbox, []
                if drained:
                    live = self.executor.live_lanes()
                    for request in drained:
                        lane = self.executor.route(request.request_id, live)
                        self._batcher_for(request.model, lane).add(
                            request, now=request.submitted_at
                        )
            if stopping:
                # Everything admitted is in the batchers now: submit()
                # rejects once _running is false (checked under the
                # lock the inbox was emptied under).
                self._shutdown_flush()
                return
            self._flush_ready()

    def _flush_ready(self) -> None:
        """Flush ready batches, one per batcher per pass, until none is."""
        flushed = True
        while flushed:
            flushed = False
            for key in list(self._batchers):
                with self._cond:
                    now = self._clock()
                    if not self._ready(key, now):
                        continue
                    batch = self._batchers[key].take(now)
                self._flush(*key, batch)
                flushed = True

    def _shutdown_flush(self) -> None:
        """Resolve everything still queued after stop().

        With ``drain=False`` nothing is inferred — not even
        deadline-expired batches — so an abort returns promptly no
        matter how deep the backlog.
        """
        with self._cond:
            live = self.executor.live_lanes()
            tails = [
                (model, lane, batch)
                for (model, lane), batcher in self._batchers.items()
                for batch in batcher.drain()
            ]
        for model, lane, batch in tails:
            if self._drain_on_stop and lane in live:
                self._flush(model, lane, batch)
            else:
                self._fail(batch, ServingError(
                    "server stopped without draining; request abandoned"
                ))

    def _flush(self, model: str, lane: int, requests: list) -> None:
        """Shed the deadline-expired, hand the live rest to the executor."""
        now = self._clock()
        live = [r for r in requests
                if r.deadline_at is None or r.deadline_at > now]
        if len(live) < len(requests):
            doomed = [r for r in requests
                      if r.deadline_at is not None and r.deadline_at <= now]
            self._fail(doomed, [
                DeadlineExceededError(
                    f"deadline expired {(now - r.deadline_at) * 1e3:.1f} ms "
                    "before dispatch; request shed"
                )
                for r in doomed
            ], shed=True)
        if not live:
            return
        tracer = self.tracer
        if tracer.enabled:
            # Serve spans use the core's clock: a queue wait starts at
            # submit time, before any flush-scoped span could open.
            assembled = min(r.submitted_at for r in live)
            tracer.record("serve.batch_assembly", assembled, now,
                          model=model, size=len(live))
            for request in live:
                tracer.record("serve.queue_wait", request.submitted_at,
                              now, model=model)
        self.executor.run(model, lane, live)

    @property
    def tracer(self):
        """The injected tracer, else the process-global one."""
        return self._tracer if self._tracer is not None else get_tracer()
