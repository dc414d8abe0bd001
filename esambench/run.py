"""Layered ESAM benchmark: one measured run of one workload.

    OPENBLAS_NUM_THREADS=1 python3 esambench/run.py \
        --workload serve-fleet --seed 1 --seconds 10 --trace 0

Workloads: ``serve-fleet``, ``campaign``, ``learn-infer`` (see
``metrics.py`` and ``BENCHMARK.json``; ``BENCHMARK.json``'s command
pins OpenBLAS to one thread, a deployment setting applied to every
commit alike).  A run:

1. builds the trained-weights artifact if the checkout has none
   (one-off training, reported and excluded from set-up time);
2. times the workload's set-up in ``--setup-samples`` fresh processes
   and reports the median: one process goes on to measure, and pauses
   (blocked, nothing of its own running) while each other sample is
   timed, so the measurement spreads over the run;
3. measures about ``--seconds`` seconds of fixed work, with tracing
   off (``--trace 0``: end-to-end metrics) or on (``--trace 1``:
   per-layer metrics from timers around the calls into each layer),
   and checks the program's outputs;
4. prints a human-readable report, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

A fixed host-speed probe runs before and after; it is printed, not
used.  ``--corrupt`` damages every check's evidence (each check must
then fail) — the self-test's way of showing the checks fire.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import REPO, host_probe_ms, median, require_program  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

ARTIFACT = REPO / ".artifacts" / "esam_bnn_full_seed42.npz"
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 800


def _start(args: list[str]) -> subprocess.Popen:
    """Start ``worker.py`` with ``args``, stamped with its start time."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"),
         "--t0", repr(time.monotonic()), *args],
        cwd=REPO, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen, on_pause=None) -> dict:
    """Serve the worker's pauses until it exits; its result line as JSON.

    A watchdog kills a worker that outlives CHILD_TIMEOUT_S, and a
    failure while serving a pause kills it too; either way the worker
    has ended when this returns or raises.
    """
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "pause":
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                lines.append(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        returncode = proc.wait()
    if returncode != 0 or not lines:
        raise SystemExit(f"esambench: worker failed ({returncode})")
    return json.loads(lines[-1])


def _build_artifact() -> float:
    """Train and cache the reference network if the checkout lacks it."""
    if ARTIFACT.exists():
        return 0.0
    started = time.monotonic()
    subprocess.run(
        [sys.executable, "-c",
         "from repro.learning.pretrained import get_reference_model;"
         "get_reference_model('full', 42)"],
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        check=True, timeout=BUILD_TIMEOUT_S,
    )
    return time.monotonic() - started


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-samples", type=int, default=2)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    require_program()

    build_s = _build_artifact()
    probe_before = host_probe_ms()
    workload = ["--workload", args.workload]
    setups = []

    def setup_sample() -> None:
        setups.append(_finish(_start([*workload, "--setup-only"]))["setup"])

    measured = [*workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--pauses", str(args.setup_samples - 1)]
    if args.corrupt:
        measured.append("--corrupt")
    result = _finish(_start(measured), on_pause=setup_sample)
    setups.append(result["setup"])
    probe_after = host_probe_ms()

    values = {"setup_s": (median(s["setup_s"] for s in setups), "s"),
              "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    values.update({k: tuple(v) for k, v in result["end_to_end"].items()})
    layer_values = {
        name: (0.0, unit) for name, (unit, *_) in PER_LAYER.items()
    }
    for phase in ("import_s", "model_load_s", "build_s"):
        layer_values[f"setup.{phase}"] = (
            median(s[phase] for s in setups), "s")
    layer_values.update({k: tuple(v) for k, v in result["per_layer"].items()})

    if args.trace:
        metrics = layer_values
    else:
        metrics = {name: values[name] for name in END_TO_END}
    checks = result["checks"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"host probe: {probe_before:.2f} ms before, "
          f"{probe_after:.2f} ms after  (fixed CPU task; not a metric)")
    if build_s:
        print(f"one-off model training: {build_s:.1f} s "
              "(excluded from setup_s)")
    print("setup samples (s): " + ", ".join(
        f"{s['setup_s']:.3f}" for s in setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    for name, ok in checks.items():
        print(f"  check {name:32s} {'pass' if ok else 'FAIL'}")
    print("report: " + json.dumps(result.get("report", {})))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
