"""``serve-fleet``: held-out requests into a one-worker ``FleetServer``.

One generator thread (the main thread) drives the fleet through its
public ``submit``:

* **latency chunks** — an open-loop Poisson stream at a fixed offered
  rate well below saturation.  Each request is timed from the moment
  it was due to be sent to the resolution of its future, so a stall
  also charges the requests queued behind it; a refused request counts
  as missing the latency limit;
* **saturation windows** — a fixed number of requests with a bounded
  number outstanding (below the admission limit, so nothing is
  refused), timed for capacity.

Every batch crosses the fleet's transport (shared-memory ring, work
queue, result pipe) to the worker process and back, so the workload
measures the serving layer (admission, micro-batching, dispatch) and
the transport together; the per-layer ``fleet.transport_ms.p50``
separates the transport from the worker's own classify time.
"""

from __future__ import annotations

import bisect
import collections
import time

import numpy as np

from repro.errors import QueueFullError
from repro.learning.pretrained import get_reference_model
from repro.serve.fleet import FleetServer
from repro.serve.registry import ModelRegistry
from repro.sram.bitcell import CellType
from repro.sweep.spec import DesignPoint
from repro.tile.engine import FastEngine

import checks
from common import (
    LATENCY_LIMIT_MS,
    Alternator,
    HeldOutDigits,
    Layers,
    mean,
    median,
    percentile,
    repeat_share,
    spread_summary,
)

MODEL = "esam"
#: Offered rate of the latency chunks (requests/s): about a sixth of
#: the fleet's saturated capacity on a 2-core host, where flushes
#: average a handful of rows.
OFFERED_RATE = 2000.0
#: Requests per latency chunk: each chunk's p99 has ten samples beyond
#: it.  The reported p50 (gated) and p99 (per-layer: host stalls make
#: it unsteady) are medians over chunks.
LATENCY_CHUNK = 1000
SATURATION_WINDOW = 2048
SATURATION_WINDOWS_PER_ROUND = 2
#: A round (one latency chunk, two saturation windows) takes about a
#: second on a 2-core host; the work is fixed by ``--seconds``, not
#: timed, so every commit measures the same requests.
ROUNDS_PER_SECOND = 1.0
MIN_ROUNDS = 5
#: Outstanding requests in saturation windows; the default admission
#: limit is 256, so saturation never refuses.
MAX_OUTSTANDING = 192
WARMUP_REQUESTS = 256
#: Offered-rate multiples tried (traced runs) for the highest rate that
#: keeps p99 within the limit.
RATE_LADDER = (1.5, 2.0, 3.0, 4.0)
LADDER_WINDOW = 1000
RESULT_TIMEOUT_S = 60.0


class FleetWorkload:
    def __init__(self) -> None:
        self.server = None

    # -- set-up -------------------------------------------------------------------

    def setup(self, timings: dict) -> None:
        started = time.perf_counter()
        get_reference_model("full", 42)
        timings["model_load_s"] = time.perf_counter() - started
        started = time.perf_counter()
        self.registry = ModelRegistry()
        self.registry.register(MODEL, DesignPoint(cell_type=CellType.C1RW4R))
        self.server = FleetServer(self.registry, n_workers=1).start()
        while not all(w["ready"] for w in self.server.describe()["workers"]):
            time.sleep(0.001)
        timings["build_s"] = time.perf_counter() - started

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop(drain=True)
            self.server = None

    def child_pids(self) -> list[int]:
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]

    # -- traffic ------------------------------------------------------------------

    def _open_loop(self, rows, rate: float, rng) -> dict:
        """Send ``rows`` at Poisson ``rate``; per-request timings."""
        n = len(rows)
        due = np.cumsum(rng.exponential(1.0 / rate, n))
        resolved = [0.0] * n
        futures = [None] * n
        late = np.zeros(n)
        submit = self.server.submit
        clock = time.perf_counter
        start = clock() + 0.001
        for i in range(n):
            at = start + due[i]
            now = clock()
            if at > now:
                time.sleep(at - now)
            late[i] = clock() - at
            try:
                future = submit(MODEL, rows[i])
            except QueueFullError:
                continue
            future.add_done_callback(
                lambda _f, i=i: resolved.__setitem__(i, clock())
            )
            futures[i] = future
        predictions = [
            f.result(timeout=RESULT_TIMEOUT_S) if f is not None else -1
            for f in futures
        ]
        latency = [
            (resolved[i] - (start + due[i])) * 1e3 if futures[i] is not None
            else float("inf")
            for i in range(n)
        ]
        return {"latency_ms": latency, "late_ms": list(late * 1e3),
                "resolved": resolved, "predictions": predictions,
                "refused": sum(f is None for f in futures)}

    def _saturate(self, rows) -> list[int]:
        """Send ``rows`` with at most MAX_OUTSTANDING unresolved."""
        outstanding = collections.deque()
        futures = []
        submit = self.server.submit
        for row in rows:
            if len(outstanding) >= MAX_OUTSTANDING:
                outstanding.popleft().result(timeout=RESULT_TIMEOUT_S)
            future = submit(MODEL, row)
            outstanding.append(future)
            futures.append(future)
        return [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]

    # -- the run ------------------------------------------------------------------

    def _layers(self) -> tuple[Layers, list]:
        """Timers for a traced run, plus the flush log they fill."""
        layers = Layers()
        flushes: list[tuple[float, float, int, float]] = []
        layers.wrap(FleetServer, "submit", "serve.submit")
        histogram = self.server.metrics.registry.histogram(
            "repro_fleet_flush_ms", replica="0", model=MODEL,
        )
        seen = [histogram.count, histogram.sum]

        def on_flush(name, start, end, attrs):
            # The worker's own classify time for this batch was folded
            # into the histogram just before this span was recorded.
            count, total = histogram.count, histogram.sum
            if count == seen[0] + 1:
                flushes.append((start, end, attrs["size"], total - seen[1]))
            seen[:] = [count, total]
            layers.record("serve.flush", start, end)

        layers.sink_spans(("fleet.flush",), on_flush)
        layers.wrap(FastEngine, "__init__", "tile.engine_build")
        return layers, flushes

    def run(self, seed: int, seconds: float, trace: bool, pause) -> dict:
        rng = np.random.default_rng(seed)
        stream = HeldOutDigits(seed)
        layers, flushes = self._layers() if trace else (None, [])
        latency_alt = Alternator(layers)
        saturation_alt = Alternator(layers)
        rows_seen: set = set()
        network = self.registry.get(MODEL)
        served, offline, labels = [], [], []
        repeats = [0, 0]

        def take(n):
            rows, truth = stream.take_spikes(n)
            r, t = repeat_share(rows_seen, rows)
            repeats[0] += r
            repeats[1] += t
            return rows, truth

        def keep(rows, truth, predictions):
            # Classify the same rows offline right away (the server is
            # idle between windows), so no run holds all its rows.
            predictions = np.asarray(predictions)
            ok = predictions >= 0
            served.append(predictions[ok])
            labels.append(truth[ok])
            offline.append(network.classify_batch(rows[ok]))

        rows, truth = take(WARMUP_REQUESTS)
        keep(rows, truth, self._saturate(rows))

        # Rounds of one latency chunk at the fixed offered rate and two
        # saturation windows, so both figures sample the whole run.
        latency_p50, latency_p99, throughputs = [], [], []
        late_ms, queue_wait_ms, transport_ms = [], [], []
        refused = 0
        sizes: collections.Counter = collections.Counter()
        batch_sizes = self.server.metrics.registry.histogram(
            "repro_serving_batch_size")
        rounds = max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND))
        for index in range(rounds):
            pause(index, rounds)
            rows, truth = take(LATENCY_CHUNK)
            mark = len(flushes)
            out, _, traced = latency_alt.run(
                lambda rows=rows: self._open_loop(rows, OFFERED_RATE, rng)
            )
            keep(rows, truth, out["predictions"])
            refused += out["refused"]
            late_ms += out["late_ms"]
            if not traced:
                latency_p50.append(percentile(out["latency_ms"], 50))
                latency_p99.append(percentile(out["latency_ms"], 99))
            else:
                chunk = flushes[mark:]
                queue_wait_ms += _queue_waits(out, chunk)
                transport_ms += [(end - start) * 1e3 - worker_ms
                                 for start, end, _, worker_ms in chunk]

            for _ in range(SATURATION_WINDOWS_PER_ROUND):
                rows, truth = take(SATURATION_WINDOW)
                before = batch_sizes.counts()
                predictions, wall, traced = saturation_alt.run(
                    lambda rows=rows: self._saturate(rows)
                )
                sizes.update({k: v - before.get(k, 0)
                              for k, v in batch_sizes.counts().items()})
                keep(rows, truth, predictions)
                if not traced:
                    throughputs.append(SATURATION_WINDOW / wall)

        max_ok_rate, ladder = 0.0, {}
        if trace:
            for factor in RATE_LADDER:
                rows, truth = take(LADDER_WINDOW)
                out = self._open_loop(rows, OFFERED_RATE * factor, rng)
                keep(rows, truth, out["predictions"])
                refused += out["refused"]
                p99 = percentile(out["latency_ms"], 99)
                ladder[OFFERED_RATE * factor] = round(p99, 3)
                if out["refused"] or p99 > LATENCY_LIMIT_MS:
                    break
                max_ok_rate = OFFERED_RATE * factor

        counters = {k: getattr(self.server.metrics, k)
                    for k in ("submitted", "completed", "failed", "shed",
                              "rejected")}
        served = np.concatenate(served)
        evidence = {
            "served": served, "offline": np.concatenate(offline),
            "counters": counters, "in_flight": self.server.in_flight,
            "predictions": served, "labels": np.concatenate(labels),
        }
        attempted = counters["submitted"] + counters["rejected"]
        failed = (counters["failed"] + counters["shed"]
                  + counters["rejected"])
        end_to_end = {
            "throughput_per_s": (median(throughputs), "1/s"),
            "latency_ms": (median(latency_p50), "ms"),
        }
        per_layer = {
            "serve.batch_size_mean": (
                sum(k * v for k, v in sizes.items())
                / max(1, sum(sizes.values())), "rows"),
            "serve.refused_share": (refused / max(1, attempted), "ratio"),
            "serve.generator_late_ms.p99": (percentile(late_ms, 99), "ms"),
            "serve.latency_p99_ms": (median(latency_p99), "ms"),
            "serve.max_rate_within_limit_per_s": (max_ok_rate, "1/s"),
            "tile.rows_repeat_share": (repeats[0] / max(1, repeats[1]),
                                       "ratio"),
        }
        report = {
            "latency_chunks": len(latency_p99),
            "requests_per_latency_chunk": LATENCY_CHUNK,
            "saturation_windows": len(throughputs),
            "throughput_by_window": spread_summary(throughputs),
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "offered_rate_per_s": OFFERED_RATE,
            "p99_ms_by_offered_rate": ladder,
        }
        if trace:
            per_layer.update(self._traced_layers(
                layers, flushes, queue_wait_ms, transport_ms, saturation_alt,
            ))
        return {"end_to_end": end_to_end, "per_layer": per_layer,
                "attempted": attempted, "failed": failed,
                "checks": (checks.SERVE_CHECKS, evidence), "report": report}

    def _traced_layers(self, layers: Layers, flushes, queue_wait_ms,
                       transport_ms, saturation_alt: Alternator) -> dict:
        flush_ms = [(end - start) * 1e3 for start, end, _, _ in flushes]
        return {
            "serve.submit_us": (
                median(layers.totals_ms("serve.submit")) * 1e3, "us"),
            "serve.flush_ms.p50": (percentile(flush_ms, 50), "ms"),
            "serve.flush_ms.p99": (percentile(flush_ms, 99), "ms"),
            "serve.queue_wait_ms.p50": (percentile(queue_wait_ms, 50), "ms"),
            "fleet.transport_ms.p50": (percentile(transport_ms, 50), "ms"),
            "tile.kernel_ms": (mean(w for _, _, _, w in flushes), "ms"),
            "tile.rows_per_call": (mean([n for _, _, n, _ in flushes]),
                                   "rows"),
            "tile.engine_build_ms": (
                mean(layers.totals_ms("tile.engine_build")), "ms"),
            "trace.overhead_ratio": (saturation_alt.overhead_ratio(), "ratio"),
            "trace.coverage": (
                layers.coverage(saturation_alt.traced_windows), "ratio"),
        }


def _queue_waits(out: dict, flushes) -> list[float]:
    """Per request: its latency minus the flush that resolved it.

    Flushes complete one after another, each before its futures
    resolve, so a request belongs to the last flush ending before its
    resolution.
    """
    ends = [end for _, end, _, _ in flushes]
    waits = []
    for latency, resolved in zip(out["latency_ms"], out["resolved"]):
        j = bisect.bisect_right(ends, resolved) - 1
        if j >= 0 and latency != float("inf"):
            start, end = flushes[j][:2]
            waits.append(latency - (end - start) * 1e3)
    return waits
