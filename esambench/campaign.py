"""``campaign``: resume a half-committed cell x Vprech x corner grid.

Every pass is a :class:`~repro.sweep.runner.SweepRunner` run (one
in-process worker) over the five cell options x two Vprech values x
three corners at 256 sample images, against a :class:`ResultCache`
with a :class:`ResultStore` attached.  The Vprech pair slides along a
seeded draw: pass ``k`` covers draws ``k`` and ``k + 1``, so exactly
the half of its points at draw ``k`` were committed by the pass
before, and the other half is new.  The cell x corner mix of hits and
evaluations is therefore identical in every pass and for every seed;
the seed varies only the Vprech values.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time

import numpy as np

from repro.learning.pretrained import get_reference_model
from repro.snn.encode import encode_images
from repro.sram.bitcell import ALL_CELLS, CellType
from repro.store.index import ResultStore
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.system.energy import SystemEnergyModel
from repro.system.evaluate import SystemEvaluator, claims_from_rows
from repro.tile.engine import FastEngine

import checks
from common import (
    REPO,
    Alternator,
    Layers,
    mean,
    median,
    repeat_share,
    spread_summary,
)

CORNERS = ("typical", "slow", "fast")
SAMPLE_IMAGES = 256
VPRECH_RANGE = (0.42, 0.60)
MIN_PASSES = 5
#: A 30-point pass takes about 0.6 s on a 2-core host; the pass count
#: is fixed by ``--seconds`` so every commit resumes the same grids.
PASSES_PER_SECOND = 1.6
GROUPS = len(ALL_CELLS) * len(CORNERS)


def _spec(vprechs) -> SweepSpec:
    return SweepSpec(
        name="bench-campaign", cell_types=ALL_CELLS, vprechs=tuple(vprechs),
        sample_images=(SAMPLE_IMAGES,), corners=CORNERS,
    )


def _row_dicts(result) -> list[dict]:
    return [{"point": r.point.to_dict(),
             "metrics": dataclasses.asdict(r.metrics)} for r in result.rows]


class CampaignWorkload:
    def __init__(self) -> None:
        self.store = None
        self.root = REPO / ".esambench" / f"campaign-{os.getpid()}"

    def setup(self, timings: dict) -> None:
        started = time.perf_counter()
        self.reference = get_reference_model("full", 42)
        timings["model_load_s"] = time.perf_counter() - started
        started = time.perf_counter()
        shutil.rmtree(self.root, ignore_errors=True)
        self.store = ResultStore(self.root / "index.sqlite")
        self.cache = ResultCache(self.root / "cache", store=self.store)
        timings["build_s"] = time.perf_counter() - started

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        shutil.rmtree(self.root, ignore_errors=True)

    def child_pids(self) -> list[int]:
        return []

    def _layers(self) -> Layers:
        layers = Layers()
        layers.wrap(ResultCache, "get", "sweep.cache_get")
        layers.wrap(ResultCache, "put", "sweep.cache_put")
        layers.wrap(ResultStore, "ingest", "store.ingest")
        layers.wrap(SystemEvaluator, "build_network", "system.build_network")
        layers.wrap(SystemEnergyModel, "metrics", "system.energy")
        layers.wrap(FastEngine, "infer_batch", "tile.kernel",
                    info=lambda args, *_: len(args[1]))
        layers.wrap(FastEngine, "__init__", "tile.engine_build")
        return layers

    def run(self, seed: int, seconds: float, trace: bool, pause) -> dict:
        rng = np.random.default_rng(seed)
        layers = self._layers() if trace else None
        alternator = Alternator(layers)
        passes = max(MIN_PASSES, round(seconds * PASSES_PER_SECOND))
        # Distinct draws on a 0.1 mV grid: a repeated value would turn a
        # pass into all hits.
        grid = np.arange(VPRECH_RANGE[0], VPRECH_RANGE[1], 1e-4)
        draws = np.round(rng.choice(grid, size=passes + 1, replace=False), 4)
        # Pre-commit the first Vprech column (untimed; this also builds
        # the runner's evaluator for the 256-image sample).
        SweepRunner(_spec(draws[:1]), cache=self.cache).run()

        throughputs, pass_ms, hits, attempted, evaluated = [], [], [], 0, 0
        for k in range(passes):
            pause(k, passes)
            runner = SweepRunner(_spec(draws[k:k + 2]), cache=self.cache)
            result, wall, traced = alternator.run(runner.run)
            attempted += len(result.rows)
            evaluated += result.stats.evaluated
            hits.append(result.stats.cache_hits)
            if not traced:
                throughputs.append(len(result.rows) / wall)
                pass_ms.append(wall * 1e3)

        cold = SweepRunner(_spec(draws[passes - 1:passes + 1]),
                           cache=None).run()
        paper = SweepRunner(SweepSpec(
            name="bench-claims", cell_types=(CellType.C6T, CellType.C1RW4R),
            sample_images=(SAMPLE_IMAGES,),
        ), cache=None).run()
        claims = claims_from_rows(paper.figure8_rows(),
                                  self.reference.test_accuracy)
        evidence = {
            "resumed_rows": _row_dicts(result), "cold_rows": _row_dicts(cold),
            "hits_per_pass": hits, "expected_hits": GROUPS,
            "claims": dataclasses.asdict(claims),
        }

        # Every evaluated point runs the same 256-row sample through
        # the kernel: the input property a memoizing engine would see.
        sample = encode_images(
            self.reference.dataset.test_images[:SAMPLE_IMAGES])
        distinct = SAMPLE_IMAGES - repeat_share(set(), sample)[0]
        kernel_rows = SAMPLE_IMAGES * max(1, evaluated)
        per_layer = {
            "sweep.cache_hit_share": (sum(hits) / attempted, "ratio"),
            "tile.rows_repeat_share": (
                (kernel_rows - distinct) / kernel_rows, "ratio"),
        }
        if trace:
            per_layer.update({
                "sweep.cache_get_ms": (
                    mean(layers.totals_ms("sweep.cache_get")), "ms"),
                "sweep.cache_put_ms": (
                    mean(layers.selfs_ms("sweep.cache_put")), "ms"),
                "store.ingest_ms": (
                    mean(layers.totals_ms("store.ingest")), "ms"),
                "system.build_network_ms": (
                    mean(layers.totals_ms("system.build_network")), "ms"),
                "system.energy_ms": (
                    mean(layers.totals_ms("system.energy")), "ms"),
                "tile.kernel_ms": (
                    mean(layers.totals_ms("tile.kernel")), "ms"),
                "tile.rows_per_call": (
                    mean(layers.details("tile.kernel")), "rows"),
                "tile.engine_build_ms": (
                    mean(layers.totals_ms("tile.engine_build")), "ms"),
                "trace.overhead_ratio": (alternator.overhead_ratio(), "ratio"),
                "trace.coverage": (
                    layers.coverage(alternator.traced_windows), "ratio"),
            })
        return {
            "end_to_end": {"throughput_per_s": (median(throughputs), "1/s"),
                           "latency_ms": (median(pass_ms), "ms")},
            "per_layer": per_layer,
            "attempted": attempted, "failed": 0,
            "checks": (checks.CAMPAIGN_CHECKS, evidence),
            "report": {"passes": len(hits), "points_per_pass": 2 * GROUPS,
                       "throughput_by_window": spread_summary(throughputs),
                       "sample_images": SAMPLE_IMAGES},
        }
