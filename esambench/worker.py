"""One benchmark process: set a workload up and, unless asked only for
set-up, measure it.  ``run.py`` starts it; it prints one JSON line.

Set-up is timed from ``--t0`` (the parent's monotonic clock just
before it started this process, so interpreter start-up counts) until
the workload is ready for its first operation.
"""

from __future__ import annotations

import argparse
import json
import time

from common import Pauses, peak_rss_mb, require_program


def _workload(name: str):
    if name == "serve-fleet":
        from serving import FleetWorkload

        return FleetWorkload()
    if name == "campaign":
        from campaign import CampaignWorkload

        return CampaignWorkload()
    from learn_infer import LearnInferWorkload

    return LearnInferWorkload()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pauses", type=int, default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    require_program()
    timings: dict = {}
    started = time.perf_counter()
    import repro  # noqa: F401 - timed: the package import users pay

    workload = _workload(args.workload)
    timings["import_s"] = time.perf_counter() - started
    workload.setup(timings)
    timings["setup_s"] = time.monotonic() - args.t0
    out: dict = {"setup": timings}
    try:
        if not args.setup_only:
            pauses = Pauses(args.pauses)
            started = time.monotonic()
            result = workload.run(args.seed, args.seconds, bool(args.trace),
                                  pauses)
            result["report"]["run_wall_s_without_pauses"] = round(
                time.monotonic() - started - pauses.paused_s, 3)
            out["peak_rss_mb"] = peak_rss_mb(workload.child_pids())
    finally:
        workload.teardown()
    if not args.setup_only:
        from checks import evaluate

        check_set, evidence = result.pop("checks")
        out["checks"] = evaluate(check_set, evidence, corrupt=args.corrupt)
        out.update(result)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
