"""The worker pool: the fleet's executor and its engine worker processes.

Four pieces the :class:`~repro.serve.fleet.FleetServer` is built from:

* :class:`WorkerPoolExecutor` — the parent side, the
  :class:`~repro.serve.core.BatchExecutor` with one lane per worker.
  It owns the shared-memory :class:`~repro.serve.shm.SpikeRing`, the
  worker processes, routing, the collector and supervisor threads and
  the rolling hot-swap; the serving core above it owns admission,
  batching, dispatch and accounting.
* :class:`ConsistentHashRouter` — the seeded consistent-hash ring that
  maps request ids to replicas.  Deterministic (a pure function of the
  seed and the replica set) and *consistent*: removing one replica
  remaps only the keys that replica owned, every other key keeps its
  assignment — the property suite proves both.
* :class:`ModelPayload` — a picklable snapshot of a servable network
  (weights, thresholds, bias, hardware config).  Control-plane data:
  it crosses the process boundary only at worker spawn and at
  hot-swap, never per request.
* :func:`worker_main` — the body of one ``EngineWorker`` process: loop
  over a private work queue, read bit-packed batches out of the shared
  ring, classify through the engine backend **without re-validating**
  (the serving edge validated every request exactly once at
  admission), and post predictions + per-batch stats over the
  worker's private result pipe.

Results cross the process boundary as length-prefixed pickled frames
(:func:`send_frame` / :class:`FrameDecoder`) over a raw ``os.pipe``
with exactly one writer — *never* a shared ``multiprocessing.Queue``.
A shared queue serializes writers through a cross-process lock (and a
background feeder thread), and a worker hard-killed mid-flush would
leave that lock acquired forever, wedging every surviving replica.
With one lock-free pipe per worker generation, a dying worker can at
worst tear its own final frame, which the collector's decoder discards.

Message vocabulary (plain tuples, first element the kind):

====================  ===========================================
work queue            ``("batch", batch_id, model, slot, n_rows)``
                      ``("swap", model, payload)``
                      ``("stop",)``
result pipe           ``("ready", worker_id, generation)``
                      ``("ok", batch_id, worker_id, slot,
                      predictions, stats)``
                      ``("error", batch_id, worker_id, slot, text)``
                      ``("swapped", worker_id, model, versions)``
====================  ===========================================

A worker that dies mid-batch posts nothing — the supervisor notices
the dead process, fails that worker's in-flight batches explicitly,
and respawns it with a fresh queue and a fresh pipe.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import os
import pickle
import select
import struct
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ServingError, WorkerCrashError
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.policy import SupervisorPolicy
from repro.serve.core import BatchExecutor
from repro.serve.shm import RingGeometry, SpikeRing
from repro.tile.network import EsamNetwork

__all__ = [
    "ConsistentHashRouter", "FrameDecoder", "ModelPayload",
    "WorkerPoolExecutor", "send_frame", "worker_main",
]

#: How long the supervisor sleeps between worker liveness sweeps.
SUPERVISOR_POLL_S = 0.02
#: How long a stopping pool waits for in-flight batches before failing
#: them: a hung worker must not hang ``stop()``.
DRAIN_TIMEOUT_S = 30.0

_HEADER = struct.Struct("!I")


def send_frame(fd: int, message: object) -> None:
    """Write one length-prefixed pickled message to a blocking fd.

    ``os.write`` may accept fewer bytes than offered on a pipe, so the
    frame is written in a loop; with a single writer per pipe there is
    no interleaving to guard against.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    data = memoryview(_HEADER.pack(len(payload)) + payload)
    while data:
        written = os.write(fd, data)
        data = data[written:]


class FrameDecoder:
    """Reassemble :func:`send_frame` frames from a non-blocking fd.

    ``feed`` buffers raw pipe bytes; ``frames`` yields every complete
    message and keeps any trailing partial frame buffered.  A writer
    killed mid-``os.write`` leaves exactly one torn tail, which simply
    never completes — the fabric drops it with the pipe.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self):
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self._buffer)
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield pickle.loads(payload)


class ConsistentHashRouter:
    """Seeded consistent-hash ring: request key -> replica id.

    Each replica owns ``vnodes`` points on a 64-bit ring, placed by
    SHA-256 of ``(seed, replica, vnode)``; a key routes to the replica
    owning the first point clockwise of the key's own hash.  Passing
    ``live`` restricts routing to a subset without rebuilding: the walk
    simply skips points of dead replicas, which is exactly what makes
    the assignment consistent — a dead replica's keys redistribute, and
    every other key stays put.
    """

    def __init__(self, replicas, seed: int = 0, vnodes: int = 64) -> None:
        self.replicas = tuple(replicas)
        if not self.replicas:
            raise ConfigurationError("router needs at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ConfigurationError(
                f"duplicate replica ids: {self.replicas}"
            )
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.seed = seed
        self.vnodes = vnodes
        ring = []
        for replica in self.replicas:
            for v in range(vnodes):
                ring.append((self._point("node", replica, v), replica))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [r for _, r in ring]

    def _point(self, *parts) -> int:
        text = "|".join(str(part) for part in (self.seed, *parts))
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def route(self, key, live=None):
        """The live replica owning ``key`` (raises if none is live)."""
        live_set = set(self.replicas) if live is None else set(live)
        if not live_set & set(self.replicas):
            raise ServingError(
                "no live replica to route to (all workers removed)"
            )
        start = bisect.bisect_right(self._points, self._point("key", key))
        n = len(self._owners)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner in live_set:
                return owner
        raise ServingError("no live replica to route to")  # unreachable


@dataclass(frozen=True)
class ModelPayload:
    """Picklable snapshot of one servable network (control plane only)."""

    name: str
    weights: tuple
    thresholds: tuple
    output_bias: np.ndarray | None
    config: object
    #: Per-tile weight versions at snapshot time; echoed back in the
    #: worker's swap ack so the fabric can prove which weights serve.
    versions: tuple

    @classmethod
    def from_network(cls, name: str, network: EsamNetwork) -> "ModelPayload":
        return cls(
            name=name,
            weights=tuple(t.weight_matrix() for t in network.tiles),
            thresholds=tuple(
                np.concatenate([n.thresholds for n in t.neurons])
                for t in network.tiles
            ),
            output_bias=network.output_bias,
            config=network.config,
            versions=tuple(t.weight_version for t in network.tiles),
        )

    def build(self) -> EsamNetwork:
        return EsamNetwork(
            list(self.weights), list(self.thresholds),
            output_bias=self.output_bias, config=self.config,
        )


def worker_main(worker_id: int, generation: int, ring_name: str,
                geometry: tuple, payloads: list, engine: str,
                work_queue, result_fd: int,
                chaos: ChaosPolicy | None = None) -> None:
    """One ``EngineWorker`` process: serve batches until told to stop.

    ``generation`` counts respawns of this worker slot (0 for the
    original spawn) and is echoed in the ready handshake so the fabric
    can tell a respawned worker's handshake from a stale one.  The
    chaos hook runs *before* a batch is processed, keyed on the batch's
    own site — a deterministic schedule of which batches die mid-flight
    (``os._exit``, the hard death a segfault would be), which the
    acceptance suite uses to prove crash recovery never drops work
    silently.  ``result_fd`` is the write end of this worker's private
    result pipe; this process is its only writer.
    """
    ring = SpikeRing(RingGeometry(*geometry), name=ring_name, create=False)
    backends = {}
    widths = {}
    for payload in payloads:
        network = payload.build()
        backends[payload.name] = network.engine_backend(engine)
        widths[payload.name] = network.tiles[0].n_in
    send_frame(result_fd, ("ready", worker_id, generation))
    try:
        while True:
            message = work_queue.get()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "swap":
                _, model, payload = message
                network = payload.build()
                backends[model] = network.engine_backend(engine)
                widths[model] = network.tiles[0].n_in
                send_frame(
                    result_fd, ("swapped", worker_id, model, payload.versions)
                )
                continue
            _, batch_id, model, slot, n_rows = message
            if chaos is not None:
                # In a worker process this is os._exit(86): the batch
                # dies with us and the supervisor must account for it.
                chaos.maybe_crash_worker(f"fleet/{model}/{batch_id}", 0)
            try:
                rows = ring.read_rows(slot, n_rows, widths[model])
                started = time.perf_counter()
                # Validate-once contract: the fabric edge validated the
                # spikes at admission, so the worker goes straight to
                # the engine backend (no validate_spikes re-check).
                predictions = backends[model].classify_batch(rows)
                flush_s = time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 - reported upward
                send_frame(result_fd, (
                    "error", batch_id, worker_id, slot,
                    f"{type(error).__name__}: {error}",
                ))
            else:
                stats = {"rows": int(n_rows), "flush_s": float(flush_s)}
                send_frame(result_fd, (
                    "ok", batch_id, worker_id, slot,
                    np.asarray(predictions, dtype=np.int64), stats,
                ))
    finally:
        ring.close()


# -- the parent side ------------------------------------------------------------------


@dataclass
class _InFlight:
    """One batch handed to a worker."""

    batch_id: int
    model: str
    worker_id: int
    slot: int
    requests: list
    dispatched_at: float


class _Worker:
    """Parent-side handle of one EngineWorker process."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.generation = -1
        self.process = None
        self.queue = None
        #: Read end of this generation's result pipe (non-blocking)
        #: and its frame reassembly buffer.  Only the collector thread
        #: ever reads the fd.
        self.result_rd = -1
        self.decoder = None
        self.ready = False
        self.respawns = 0
        self.removed = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPoolExecutor(BatchExecutor):
    """One lane per ``EngineWorker`` process, fed through a spike ring.

    Who owns what, beside the core's dispatch thread:

    * **dispatch thread** (in :meth:`run`) — packs each batch
      bit-packed into a free ring slot and posts a tiny descriptor to
      the lane's worker queue;
    * **collector thread** — multiplexes the result pipes with
      ``select`` (non-blocking reads only), resolves batches through
      the core, frees ring slots, replays worker stats into the
      metric registry (per-replica labels) and records ``fleet.flush``
      spans;
    * **supervisor thread** — watches worker liveness; a dead worker's
      in-flight batches are failed explicitly, its slots freed, and
      the worker respawned with a fresh queue under the
      :class:`~repro.resilience.policy.SupervisorPolicy` retry budget.
      A worker that exhausts the budget leaves the routing set and its
      queued requests re-route to the survivors.

    Rolling hot-swap (:meth:`rollout`) drains one
    replica at a time, so no replica ever answers interleaved batches
    with two weight versions and the pool keeps serving throughout.
    Parameters are :class:`~repro.serve.fleet.FleetServer`'s.
    """

    def __init__(self, n_workers: int,
                 supervisor: SupervisorPolicy | None = None,
                 chaos: ChaosPolicy | None = None,
                 route_seed: int = 0,
                 n_slots: int | None = None) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = n_workers
        self.supervisor = supervisor or SupervisorPolicy()
        self.chaos = chaos if chaos is not None and chaos.active else None
        self.router = ConsistentHashRouter(range(n_workers), seed=route_seed)
        self.n_slots = (n_slots if n_slots is not None
                        else max(2 * n_workers, 4))
        self._batch_ids = itertools.count()
        self._free_slots: list[int] = []
        self._assigned: dict[int, _InFlight] = {}
        self._draining: set[int] = set()
        self._swap_acks: dict[int, tuple] = {}
        self._workers: dict[int, _Worker] = {}
        self._ring: SpikeRing | None = None
        #: Result pipes of dead worker generations, awaiting one final
        #: collector drain: ``(read_fd, decoder)`` tuples.
        self._retired_pipes: list[tuple[int, FrameDecoder]] = []
        self._mp = multiprocessing.get_context()

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Allocate the ring and spawn the workers (no threads yet)."""
        registry = self.core.registry
        names = registry.names()
        if not names:
            raise ConfigurationError(
                "the registry holds no models; register before start()"
            )
        widths = [registry.get(n).tiles[0].n_in for n in names]
        geometry = RingGeometry(
            self.n_slots, self.core.policy.max_batch_size, max(widths)
        )
        self._ring = SpikeRing(geometry)
        # A restart after a crash must not inherit the failed run's
        # flights: their slots and requests belong to the freed ring.
        self._free_slots = list(range(self.n_slots))
        self._assigned = {}
        self._draining = set()
        self._swap_acks = {}
        self._retired_pipes = []
        self._workers = {w: _Worker(w) for w in range(self.n_workers)}
        for worker in self._workers.values():
            worker.queue = self._mp.SimpleQueue()
            self._spawn(worker)

    def loops(self) -> list:
        return [("collector", self._collect_forever),
                ("supervisor", self._supervise_forever)]

    def _payloads(self) -> list[ModelPayload]:
        registry = self.core.registry
        return [
            ModelPayload.from_network(name, registry.get(name))
            for name in registry.names()
        ]

    def _spawn(self, worker: _Worker) -> None:
        """Start one worker process on the slot's current work queue.

        The caller is responsible for having installed a *fresh* queue
        when respawning after a crash — items posted to a dead
        worker's queue must never be double-served by its successor
        (the supervisor fails them explicitly instead).  Each spawn
        also gets a fresh result pipe: the dying generation may have
        torn its final frame, and a torn tail must never desync its
        successor's frame stream.
        """
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)
        with self._cond:
            worker.generation += 1
            worker.ready = False
            worker.result_rd = read_fd
            worker.decoder = FrameDecoder()
        worker.process = self._mp.Process(
            target=worker_main,
            name=f"repro-fleet-worker-{worker.worker_id}",
            args=(worker.worker_id, worker.generation, self._ring.name,
                  self._ring.geometry.to_tuple(), self._payloads(),
                  self.core.engine, worker.queue, write_fd,
                  self.chaos),
            daemon=True,
        )
        worker.process.start()
        # The child owns its copy of the write end; dropping the
        # parent's keeps the fd table bounded across respawns.
        os.close(write_fd)

    def stop(self) -> None:
        """Stop the workers, close the pipes, free the ring."""
        for worker in self._workers.values():
            if worker.alive:
                worker.queue.put(("stop",))
        for worker in self._workers.values():
            if worker.process is not None:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
        with self._cond:
            fds = [w.result_rd for w in self._workers.values()
                   if w.result_rd >= 0]
            fds.extend(fd for fd, _ in self._retired_pipes)
            for worker in self._workers.values():
                worker.result_rd = -1
            self._retired_pipes = []
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass
        if self._ring is not None:
            self._ring.close()
            self._ring.unlink()
            self._ring = None

    def describe(self) -> dict:
        with self._cond:
            workers = [
                {
                    "worker_id": w.worker_id,
                    "generation": w.generation,
                    "ready": w.ready,
                    "respawns": w.respawns,
                    "removed": w.removed,
                }
                for w in self._workers.values()
            ]
        return {
            "n_workers": self.n_workers,
            "n_slots": self.n_slots,
            "workers": workers,
        }

    # -- lanes ----------------------------------------------------------------------

    def live_lanes(self) -> set[int]:
        return {w.worker_id for w in self._workers.values() if not w.removed}

    def route(self, key, live: set[int]) -> int:
        return self.router.route(key, live)

    def accepting(self, lane: int) -> bool:
        return lane not in self._draining and self._workers[lane].ready

    def run(self, model: str, lane: int, requests: list) -> None:
        """Pack the batch into a free slot and post it to the lane."""
        slot = self._acquire_slot()
        if slot is None:  # serving failed / aborted without drain
            self.core._fail(requests, ServingError(
                "fleet stopped before the batch could be dispatched"
            ))
            return
        n_rows = self._ring.pack_into(
            slot, np.stack([r.spikes for r in requests])
        )
        with self._cond:
            batch_id = next(self._batch_ids)
            self._assigned[batch_id] = _InFlight(
                batch_id=batch_id, model=model, worker_id=lane, slot=slot,
                requests=requests, dispatched_at=self.core._clock(),
            )
            target_queue = self._workers[lane].queue
        target_queue.put(("batch", batch_id, model, slot, n_rows))

    def _acquire_slot(self) -> int | None:
        core = self.core
        with self._cond:
            while not self._free_slots:
                if core._failed or (not core._running
                                    and not core._drain_on_stop):
                    return None
                self._cond.wait(0.05)
            return self._free_slots.pop()

    def _release_slot(self, slot: int) -> None:
        with self._cond:
            self._free_slots.append(slot)
            self._cond.notify_all()

    def _serving(self) -> bool:
        """Keep the pool's threads up?  Until failure, or until stopped
        with nothing left to resolve.  Under lock."""
        core = self.core
        return not core._failed and (core._running or bool(core._tracked))

    # -- rolling hot-swap -----------------------------------------------------------

    def rollout(self, name: str) -> tuple:
        """Ship the registry's current weights for ``name`` to every live
        worker, draining one replica at a time; returns their versions."""
        payload = ModelPayload.from_network(
            name, self.core.registry.get(name)
        )
        with self._cond:
            worker_ids = sorted(self.live_lanes())
        for worker_id in worker_ids:
            with self._cond:
                worker = self._workers[worker_id]
                if worker.removed:
                    continue
                self._draining.add(worker_id)
            try:
                self._await(
                    lambda: not self._busy(worker_id),
                    f"draining replica {worker_id} for {name!r} rollout",
                )
                with self._cond:
                    worker = self._workers[worker_id]
                    if worker.removed:
                        continue
                    self._swap_acks.pop(worker_id, None)
                    sent_generation = worker.generation
                    worker.queue.put(("swap", name, payload))
                # A respawn mid-swap is also success: the fresh worker
                # rebuilt from the registry, which already holds the
                # new weights (so the lost swap message is moot).
                self._await(
                    lambda: self._swap_acks.get(worker_id)
                    == (name, payload.versions)
                    or self._workers[worker_id].generation != sent_generation
                    or self._workers[worker_id].removed,
                    f"swap ack from replica {worker_id} for {name!r}",
                )
            finally:
                with self._cond:
                    self._draining.discard(worker_id)
                    self._cond.notify_all()
        return payload.versions

    def _busy(self, worker_id: int) -> bool:
        """Does ``worker_id`` hold in-flight batches?  (Call under lock.)"""
        return any(
            f.worker_id == worker_id for f in self._assigned.values()
        )

    def _await(self, predicate, what: str, timeout_s: float = 30.0) -> None:
        """Wait on the shared condition until ``predicate()`` holds."""
        clock = self.core._clock
        deadline = clock() + timeout_s
        with self._cond:
            while not predicate():
                if self.core._failed:
                    raise ServingError(
                        f"fleet failed while waiting for {what}"
                    )
                if clock() >= deadline:
                    raise ServingError(f"timed out waiting for {what}")
                self._cond.wait(0.05)

    # -- collection -----------------------------------------------------------------

    def _collect_forever(self) -> None:
        drain_deadline = None
        while True:
            with self._cond:
                if not self._serving():
                    return
                if not self.core._running:
                    now = self.core._clock()
                    if drain_deadline is None:
                        drain_deadline = now + DRAIN_TIMEOUT_S
                    elif now >= drain_deadline:
                        raise ServingError(
                            "timed out waiting for in-flight batches to drain"
                        )
                live = [
                    (w.result_rd, w.decoder)
                    for w in self._workers.values() if w.result_rd >= 0
                ]
                retired = self._retired_pipes
                self._retired_pipes = []
            # Retired pipes (dead generations) get one final drain:
            # every complete frame the worker managed to write is
            # already in the kernel buffer, a torn tail is discarded
            # with the decoder.  This thread is the only reader of any
            # result fd, so a fd showing up both here and in ``live``
            # (retirement racing the snapshot) is still single-reader.
            for fd, decoder in retired:
                self._drain_pipe(fd, decoder)
                try:
                    os.close(fd)
                except OSError:
                    pass
            if not live:
                time.sleep(0.005)
                continue
            try:
                readable, _, _ = select.select(
                    [fd for fd, _ in live], [], [], 0.05
                )
            except OSError:
                # A fd was retired+closed between snapshot and select;
                # re-snapshot.
                continue
            for fd, decoder in live:
                if fd in readable:
                    self._drain_pipe(fd, decoder)

    def _drain_pipe(self, fd: int, decoder: FrameDecoder) -> None:
        """Non-blocking read of everything available, frame dispatch."""
        while True:
            try:
                data = os.read(fd, 1 << 16)
            except OSError:  # BlockingIOError included: nothing left
                break
            if not data:
                break
            decoder.feed(data)
        for message in decoder.frames():
            self._handle_result(message)

    def _handle_result(self, message: tuple) -> None:
        kind = message[0]
        if kind == "ready":
            _, worker_id, generation = message
            with self._cond:
                worker = self._workers.get(worker_id)
                if worker is not None and worker.generation == generation:
                    worker.ready = True
                    self._cond.notify_all()
            return
        if kind == "swapped":
            _, worker_id, model, versions = message
            with self._cond:
                self._swap_acks[worker_id] = (model, versions)
                self._cond.notify_all()
            return
        batch_id, worker_id = message[1], message[2]
        with self._cond:
            flight = self._assigned.pop(batch_id, None)
        if flight is None:
            # Late result of a batch the supervisor already failed
            # (its slot was freed there; never free it twice).
            return
        # The flight's requests stay tracked by the core until resolved
        # below, so a crash anywhere in between still fails them.
        self._release_slot(flight.slot)
        core = self.core
        if kind == "ok":
            predictions, stats = message[4], message[5]
            done = core._clock()
            core.registry.record_flush_success(flight.model)
            self._replay_stats(flight, stats, done)
            core._complete(flight.requests, predictions, done)
        else:
            core.registry.record_flush_failure(flight.model)
            core._fail(flight.requests, ServingError(
                f"worker {worker_id} failed the batch: {message[4]}"
            ))

    def _replay_stats(self, flight: _InFlight, stats: dict,
                      done: float) -> None:
        """Fold one worker's batch stats into the metric registry.

        The flush histogram is observed before the ``fleet.flush`` span
        is recorded, so a span sink can pair each span with the
        worker's own classify time.
        """
        registry = self.core.metrics.registry
        labels = {"replica": str(flight.worker_id), "model": flight.model}
        registry.counter("repro_fleet_batches_total", **labels).inc()
        registry.counter(
            "repro_fleet_rows_total", **labels
        ).inc(stats.get("rows", len(flight.requests)))
        registry.histogram(
            "repro_fleet_flush_ms", **labels
        ).observe(round(stats.get("flush_s", 0.0) * 1e3, 3))
        tracer = self.core.tracer
        if tracer.enabled:
            tracer.record(
                "fleet.flush", flight.dispatched_at, done,
                model=flight.model, replica=flight.worker_id,
                size=len(flight.requests), engine=self.core.engine,
            )

    # -- supervision ----------------------------------------------------------------

    def _supervise_forever(self) -> None:
        while True:
            with self._cond:
                if not self._serving():
                    return
            for worker in list(self._workers.values()):
                if (worker.process is not None and not worker.removed
                        and not worker.alive):
                    self._handle_crash(worker)
            time.sleep(SUPERVISOR_POLL_S)

    def _handle_crash(self, worker: _Worker) -> None:
        """One worker died: fail its in-flight work, respawn or remove it.

        Ordering matters: the fresh work queue is installed *before*
        the in-flight snapshot is taken, so any batch the dispatcher
        managed to post to the dead queue is provably in the snapshot
        (batches register in ``_assigned`` before the post) and gets
        failed here — nothing ever lands in a void.
        """
        exit_code = worker.process.exitcode
        with self._cond:
            worker.ready = False
            worker.queue = self._mp.SimpleQueue()
            # Retire the dead generation's result pipe; the collector
            # gives it one final drain (complete frames still count)
            # and closes it.  The successor gets a fresh pipe in
            # ``_spawn`` so a torn final frame cannot desync it.
            if worker.result_rd >= 0:
                self._retired_pipes.append(
                    (worker.result_rd, worker.decoder)
                )
                worker.result_rd = -1
                worker.decoder = None
            lost = [
                f for f in self._assigned.values()
                if f.worker_id == worker.worker_id
            ]
            for flight in lost:
                del self._assigned[flight.batch_id]
        cause = WorkerCrashError(
            f"fleet worker {worker.worker_id} died (exit code {exit_code})"
        )
        core = self.core
        metric_registry = core.metrics.registry
        metric_registry.counter(
            "repro_fleet_worker_crashes_total",
            replica=str(worker.worker_id),
        ).inc()
        for flight in lost:
            self._release_slot(flight.slot)
            core.registry.record_flush_failure(flight.model)
            error = ServingError(
                f"fleet worker {worker.worker_id} crashed with the batch "
                "in flight; request failed explicitly"
            )
            error.__cause__ = cause
            core._fail(flight.requests, error)
        if worker.respawns < self.supervisor.retry_budget:
            worker.respawns += 1
            metric_registry.counter(
                "repro_fleet_respawns_total", replica=str(worker.worker_id)
            ).inc()
            self._spawn(worker)
            return
        # Budget exhausted: remove the replica from the routing set and
        # re-route its undispatched requests to the survivors.
        with self._cond:
            worker.removed = True
            survivors = self.live_lanes()
            if survivors:
                core._reroute(worker.worker_id, survivors)
            self._cond.notify_all()
        if not survivors:
            core._fail_pending(cause, "worker pool")
