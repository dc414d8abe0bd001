"""Self-test of the benchmark at tiny sizes (about three minutes).

    python3 esambench/selftest.py

1. ``BENCHMARK.json`` and ``metrics.py`` name the same metrics, units
   and directions.
2. Every workload runs untraced and traced (one set-up sample, one
   second of measurement) with every check passing, and prints every
   metric it owes with its unit.
3. With ``--corrupt`` every check of every workload fails, and the run
   reports ``"correct": false``.
4. Without the program's source next to it, the benchmark exits with
   an error and prints no result.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import REPO  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-test FAILED: {message}")


def _run(workload: str, *extra: str, cwd=REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "esambench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--setup-samples", "1", *extra],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    expect(proc.returncode == 0, f"run failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_declared_metrics() -> None:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())

    def declared(kind):
        return {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}

    expect(declared("end_to_end") == {
        n: (u, b) for n, (u, b) in END_TO_END.items()
    }, "BENCHMARK.json end_to_end disagrees with metrics.END_TO_END")
    expect(declared("per_layer") == {
        n: (u, b) for n, (u, b, *_) in PER_LAYER.items()
    }, "BENCHMARK.json per_layer disagrees with metrics.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads disagree with metrics.WORKLOADS")
    print("ok   BENCHMARK.json matches metrics.py")


def check_workload(workload: str) -> None:
    owed = {0: {n: u for n, (u, _) in END_TO_END.items()},
            1: {n: u for n, (u, *_) in PER_LAYER.items()}}
    for trace in (0, 1):
        result = _result(_run(workload, "--trace", str(trace)))
        expect(result["correct"], f"{workload} trace={trace}: a check failed")
        expect(result["attempted"] >= 1 and result["failed"] == 0,
               f"{workload} trace={trace}: nothing attempted, or failures")
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(printed == owed[trace],
               f"{workload} trace={trace}: metrics {sorted(printed)} "
               f"!= {sorted(owed[trace])}")
        print(f"ok   {workload} trace={trace}: {len(printed)} metrics, "
              "checks pass")
    proc = _run(workload, "--corrupt")
    result = _result(proc)
    lines = [line for line in proc.stdout.splitlines()
             if line.strip().startswith("check ")]
    expect(lines and all(line.rstrip().endswith("FAIL") for line in lines),
           f"{workload}: a check did not fire on corrupted evidence: {lines}")
    expect(result["correct"] is False, f"{workload}: corrupt run was correct")
    print(f"ok   {workload} --corrupt: all {len(lines)} checks fire")


def check_bare_directory() -> None:
    bare = REPO / ".esambench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(REPO / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "esambench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("campaign", cwd=bare)
        expect(proc.returncode != 0, "ran without the program's source")
        expect(not proc.stdout.strip(), "printed output without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   without the program's source the benchmark fails")


def main() -> None:
    check_declared_metrics()
    check_bare_directory()
    for workload in WORKLOADS:
        check_workload(workload)
    print("self-test passed")


if __name__ == "__main__":
    main()
