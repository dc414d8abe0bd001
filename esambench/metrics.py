"""The benchmark's metric table: names, units, and what each should move.

``BENCHMARK.json`` lists the same names (the self-test checks that the
two agree); this table adds, for each per-layer metric, the end-to-end
metric it should move and the workloads where its layer works or
idles.  A per-layer metric whose layer a workload never calls reads 0
on that workload.
"""

from __future__ import annotations

WORKLOADS = ("serve-fleet", "campaign", "learn-infer")

#: name -> (unit, better); every workload reports every one.
#: ``latency_ms`` is the wait for the operation a user of the workload
#: waits on: a request (serve-fleet, median of per-chunk p50s), a
#: resumed grid pass (campaign, median pass), a learn+classify step
#: (learn-infer, tenth-percentile step; see ``learn_infer.STEP_PCT``).
#: ``throughput_per_s`` is the median window or pass, except on
#: learn-infer: the 90th-percentile window.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_ms": ("ms", "lower"),
}

#: name -> (unit, better, should move, where it works / idles)
PER_LAYER = {
    "setup.import_s": ("s", "lower", "setup_s", "every workload alike"),
    "setup.model_load_s": ("s", "lower", "setup_s", "every workload alike"),
    "setup.build_s": ("s", "lower", "setup_s",
                      "largest on serve-fleet (worker spawn)"),
    "serve.submit_us": ("us", "lower", "throughput_per_s, latency_ms",
                        "serve-fleet / idle elsewhere"),
    "serve.batch_size_mean": ("rows", "higher", "throughput_per_s",
                              "serve-fleet saturation windows"),
    "serve.latency_p99_ms": (
        "ms", "lower", "end-to-end p99; kept here, host stalls unsteady it",
        "serve-fleet latency chunks (median of per-chunk p99)"),
    "serve.flush_ms.p50": ("ms", "lower", "serve.latency_p99_ms",
                           "serve-fleet"),
    "serve.flush_ms.p99": ("ms", "lower", "serve.latency_p99_ms",
                           "serve-fleet"),
    "serve.queue_wait_ms.p50": ("ms", "lower", "latency_ms",
                                "serve-fleet"),
    "serve.refused_share": ("ratio", "lower", "failures", "serve-fleet"),
    "serve.generator_late_ms.p99": ("ms", "lower", "validity check only",
                                    "serve-fleet"),
    "serve.max_rate_within_limit_per_s": (
        "1/s", "higher", "reported, not gated", "serve-fleet"),
    "fleet.transport_ms.p50": ("ms", "lower",
                               "latency_ms, throughput_per_s",
                               "serve-fleet / no transport elsewhere"),
    "tile.kernel_ms": ("ms", "lower", "throughput_per_s",
                       "campaign (B=256), learn-infer (B=8), fleet worker"),
    "tile.rows_per_call": ("rows", "higher", "throughput_per_s",
                           "campaign (256), learn-infer (8), serve-fleet"),
    "tile.engine_build_ms": ("ms", "lower", "throughput_per_s",
                             "learn-infer / once per network elsewhere"),
    "tile.rows_repeat_share": ("ratio", "higher", "input property",
                               "every workload; ~0 on held-out inputs"),
    "system.build_network_ms": ("ms", "lower", "throughput_per_s",
                                "campaign / set-up only elsewhere"),
    "system.energy_ms": ("ms", "lower", "throughput_per_s",
                         "campaign, learn-infer"),
    "sweep.cache_get_ms": ("ms", "lower", "throughput_per_s", "campaign"),
    "sweep.cache_hit_share": ("ratio", "higher", "throughput_per_s",
                              "campaign (equals the pre-committed share)"),
    "sweep.cache_put_ms": ("ms", "lower", "throughput_per_s",
                           "campaign (excluding store ingest)"),
    "store.ingest_ms": ("ms", "lower", "throughput_per_s", "campaign"),
    "learning.learn_ms": ("ms", "lower", "throughput_per_s",
                          "learn-infer / bypassed elsewhere"),
    "learning.column_updates": ("count", "higher", "throughput_per_s",
                                "learn-infer (per step)"),
    "snn.encode_ms": ("ms", "lower", "throughput_per_s", "learn-infer"),
    "trace.overhead_ratio": ("ratio", "lower", "benchmark health",
                             "traced / untraced wall time"),
    "trace.coverage": ("ratio", "higher", "benchmark health",
                       "share of wall time in timed layer calls"),
}
