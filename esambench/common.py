"""Shared pieces of the layered benchmark: inputs, layer timers, stats.

Nothing here imports the program at module load: the worker times
``import repro`` itself, so this module sticks to the standard library
until a function that needs numpy or ``repro`` is called.
"""

from __future__ import annotations

import contextlib
import pathlib
import statistics
import sys
import threading
import time
from collections import defaultdict

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Digit-generator seeds of the training and test splits are 42 and
#: 42 + 1_000_003 (``repro.data.loader``); held-out streams start far
#: from both so no benchmark input was ever seen in training.
HELD_OUT_SEED_BASE = 9_000_017

#: p99 latency limit of the serving workloads (ms).  A refused or
#: failed request counts as missing it.
LATENCY_LIMIT_MS = 25.0


def require_program() -> None:
    """Put the program's source on ``sys.path`` or stop with an error."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"esambench: the program's source ({SRC / 'repro'}) is missing; "
            "run the benchmark from the root of a repository checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics -----------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = (len(values) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    return float(values[low] + (values[high] - values[low]) * (rank - low))


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def spread_summary(values) -> dict:
    """min / p25 / median / p75 / max of per-window values (for the
    human-readable report: how much the host moved within a run)."""
    return {name: round(percentile(values, pct), 3) for name, pct in
            (("min", 0), ("p25", 25), ("median", 50), ("p75", 75),
             ("max", 100))}


def union_length(intervals, windows) -> float:
    """Length of the union of ``intervals`` clipped to ``windows``."""
    clipped = []
    for w0, w1 in windows:
        for a, b in intervals:
            a, b = max(a, w0), min(b, w1)
            if b > a:
                clipped.append((a, b))
    clipped.sort()
    total, end = 0.0, float("-inf")
    for a, b in clipped:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def host_probe_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python CPU task (~40 ms).

    Scales nothing: the report prints it before and after each run so
    host drift can be told apart from a change in the program.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples)


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident memory (VmHWM) of this process plus ``child_pids``."""
    total_kb = 0
    for pid in ("self", *child_pids):
        try:
            text = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# -- held-out inputs ----------------------------------------------------------------


class HeldOutDigits:
    """A seeded stream of labelled digits that never replays a batch.

    A pool of digits is rendered from a generator seed no training or
    test split uses; each draw then walks the pool in a seeded order
    and applies a fresh random one-pixel shift and pixel noise, so rows
    are new even when a pool image comes round again.  Rendering costs
    about 1.2 ms per digit, so callers build the stream before any
    timed window.
    """

    def __init__(self, seed: int, pool: int = 256) -> None:
        import numpy as np
        from repro.data.digits import DigitGenerator

        self._np = np
        generator = DigitGenerator(seed=HELD_OUT_SEED_BASE + 7919 * seed)
        self.pool_images, self.pool_labels = generator.generate(pool)
        self._rng = np.random.default_rng(seed)
        self._order = self._rng.permutation(pool)
        self._cursor = 0

    def take(self, n: int):
        """``n`` fresh ``(images, labels)``."""
        np = self._np
        pool = len(self.pool_labels)
        index = self._order[(self._cursor + np.arange(n)) % pool]
        self._cursor += n
        images = self.pool_images[index].astype(np.float64)
        shifts = self._rng.integers(-1, 2, size=(n, 2))
        for (dy, dx) in {tuple(s) for s in shifts}:
            rows = np.flatnonzero((shifts[:, 0] == dy) & (shifts[:, 1] == dx))
            images[rows] = np.roll(images[rows], (dy, dx), axis=(1, 2))
        images += self._rng.normal(0.0, 0.06, images.shape)
        return np.clip(images, 0.0, 1.0), self.pool_labels[index]

    def take_spikes(self, n: int):
        """``n`` fresh ``(spike rows, labels)``."""
        from repro.snn.encode import encode_images

        images, labels = self.take(n)
        return encode_images(images), labels


def repeat_share(rows_seen: set, rows) -> tuple[int, int]:
    """Fold a batch of spike rows into ``rows_seen``; (repeats, rows)."""
    import numpy as np

    packed = np.packbits(np.asarray(rows, dtype=bool), axis=1)
    repeats = 0
    for row in packed:
        key = row.tobytes()
        if key in rows_seen:
            repeats += 1
        else:
            rows_seen.add(key)
    return repeats, len(packed)


# -- layer timers -------------------------------------------------------------------


class Layers:
    """Times calls into the program's layers from outside.

    :meth:`wrap` names a public method of a class (or a module function)
    that :meth:`install` replaces with a timing wrapper and
    :meth:`uninstall` restores, so untraced windows run the program
    unmodified.  Each call records its total and self time (total
    minus the timed calls nested in it, per thread), and the
    outermost timed calls of each thread are kept as intervals for the
    coverage figure.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[float, float, object]]] = (
            defaultdict(list)
        )
        self.intervals: list[tuple[float, float]] = []
        self._targets: list[tuple[object, str, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []
        self.sink = None
        self._previous_tracer = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, owner, attr: str, layer: str, info=None) -> None:
        """Time ``owner.attr`` as ``layer``; ``info(args, result, started,
        ended)`` returns a per-call detail (e.g. rows in a batch)."""
        self._targets.append((owner, attr, layer, info))

    def record(self, layer: str, start: float, end: float) -> None:
        """Add an outermost call timed elsewhere (e.g. a program span)."""
        with self._lock:
            self.samples[layer].append((end - start, end - start, None))
            self.intervals.append((start, end))

    def _timed(self, original, layer: str, info):
        local = self._local

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                children = stack.pop()
            total = ended - started
            if stack:
                stack[-1] += total
            detail = (info(args, result, started, ended)
                      if info is not None else None)
            with self._lock:
                self.samples[layer].append((total, total - children, detail))
                if not stack:
                    self.intervals.append((started, ended))
            return result

        return timed

    def install(self) -> None:
        """Put the wrappers in place (and the program's span sink)."""
        for owner, attr, layer, info in self._targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self._timed(original, layer, info))
            self._installed.append((owner, attr, original))
        if self.sink is not None:
            from repro.obs.trace import set_tracer

            self._previous_tracer = set_tracer(self.sink)

    def uninstall(self) -> None:
        if self.sink is not None:
            from repro.obs.trace import set_tracer

            set_tracer(self._previous_tracer)
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def sink_spans(self, names, on_span) -> None:
        """Forward the program's own spans named in ``names`` while
        installed: the process tracer is swapped for one that keeps
        nothing and hands each such span to ``on_span(name, start, end,
        attrs)``."""
        from repro.obs.trace import Tracer

        wanted = frozenset(names)

        class _Sink(Tracer):
            def span(self, name, **attrs):
                return contextlib.nullcontext()

            def record(self, name, start_s, end_s, **attrs):
                if name in wanted:
                    on_span(name, start_s, end_s, attrs)

        self.sink = _Sink(clock=time.perf_counter)

    def totals_ms(self, layer: str) -> list[float]:
        return [s[0] * 1e3 for s in self.samples.get(layer, ())]

    def selfs_ms(self, layer: str) -> list[float]:
        return [s[1] * 1e3 for s in self.samples.get(layer, ())]

    def details(self, layer: str) -> list:
        return [s[2] for s in self.samples.get(layer, ())]

    def coverage(self, windows) -> float:
        wall = sum(b - a for a, b in windows)
        return union_length(self.intervals, windows) / wall if wall else 0.0


class Pauses:
    """Idle points of a measured run, where ``run.py`` times a fresh
    set-up sample: the run blocks on its stdin meanwhile, so the
    samples spread over the run and the measurement spans more host
    states without anything of its own competing with the set-up."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.paused_s = 0.0

    def __call__(self, index: int, total: int) -> None:
        """Pause before unit ``index`` of ``total`` if it is a pause point."""
        points = {round(total * k / (self.count + 1))
                  for k in range(1, self.count + 1)}
        if index in points:
            started = time.monotonic()
            print("pause", flush=True)
            sys.stdin.readline()
            self.paused_s += time.monotonic() - started


class Alternator:
    """Runs measured units traced and untraced in turn (traced runs).

    With tracing off every unit is untraced.  With it on, units
    alternate so the overhead ratio compares like with like on the
    same host state, and per-layer figures come from the traced half.
    """

    def __init__(self, layers: Layers | None) -> None:
        self.layers = layers
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.traced_windows: list[tuple[float, float]] = []
        self._count = 0

    def run(self, unit):
        """Call ``unit()``; returns ``(result, wall_s, traced)``."""
        traced = self.layers is not None and self._count % 2 == 1
        self._count += 1
        if traced:
            self.layers.install()
        started = time.perf_counter()
        try:
            result = unit()
        finally:
            ended = time.perf_counter()
            if traced:
                self.layers.uninstall()
        self.walls[traced].append(ended - started)
        if traced:
            self.traced_windows.append((started, ended))
        return result, ended - started, traced

    def overhead_ratio(self) -> float:
        untraced = median(self.walls[False])
        return median(self.walls[True]) / untraced if untraced else 0.0
