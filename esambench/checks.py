"""Correctness checks: pure functions over the evidence a workload keeps.

Each check pairs with a corruption that must make it fail; the
worker's ``--corrupt`` flag applies every corruption of its workload
before checking, which is how the self-test shows each check firing.
"""

from __future__ import annotations

import copy
import math

#: Held-out accuracy floor (the trained network scores ~0.99 on the
#: clean test split; shifted, noisy held-out digits score a little less).
ACCURACY_FLOOR = 0.90

#: Headline-claim tolerances of ``benchmarks/bench_headline_claims.py``:
#: name -> (paper value, absolute tolerance or None, relative tolerance).
CLAIM_TOLERANCES = {
    "speedup_vs_1rw": (3.1, 0.4, None),
    "energy_efficiency_vs_1rw": (2.2, 0.35, None),
    "throughput_minf_s": (44.0, None, 0.15),
    "energy_per_inf_pj": (607.0, None, 0.15),
    "power_mw": (29.0, None, 0.15),
}


def _equal(a, b) -> bool:
    import numpy as np

    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


# -- serving ------------------------------------------------------------------------


def served_equals_offline(ev) -> bool:
    """Served predictions equal offline ``classify_batch`` on the rows."""
    return len(ev["served"]) > 0 and _equal(ev["served"], ev["offline"])


def accounting_holds(ev) -> bool:
    """``submitted == completed + failed + shed``, nothing in flight."""
    c = ev["counters"]
    return (c["submitted"] == c["completed"] + c["failed"] + c["shed"]
            and ev["in_flight"] == 0)


def accuracy_above_floor(ev) -> bool:
    """Accuracy on the held-out digits stays above the floor."""
    labels = list(ev["labels"])
    hits = sum(int(p) == int(t) for p, t in zip(ev["predictions"], labels))
    return bool(labels) and hits / len(labels) >= ACCURACY_FLOOR


# -- campaign -----------------------------------------------------------------------


def resumed_equal_cold(ev) -> bool:
    """Rows of a resumed pass equal a cold evaluation of its points."""
    return bool(ev["resumed_rows"]) and ev["resumed_rows"] == ev["cold_rows"]


def hit_share_exact(ev) -> bool:
    """Cache hits equal the pre-committed share of every pass exactly."""
    return all(h == ev["expected_hits"] for h in ev["hits_per_pass"])


def claims_within_tolerance(ev) -> bool:
    """The headline claims stay within the bench tolerances."""
    claims = ev["claims"]
    for name, (paper, absolute, relative) in CLAIM_TOLERANCES.items():
        value = claims[name]
        limit = absolute if absolute is not None else relative * paper
        if not math.isfinite(value) or abs(value - paper) > limit:
            return False
    return True


# -- learning beside inference ------------------------------------------------------


def fast_equals_cycle(ev) -> bool:
    """After learning, ``fast`` matches ``cycle``: predictions and
    per-tile counters exactly, energy to the conformance suite's
    ``rel=1e-12`` (summation order differs) — a stale engine snapshot
    breaks all three."""
    fast, cycle = ev["fast"], ev["cycle"]
    energy_equal = all(
        math.isclose(value, cycle["energy"][name], rel_tol=1e-12)
        if isinstance(value, float) else value == cycle["energy"][name]
        for name, value in fast["energy"].items()
    )
    return (_equal(fast["predictions"], cycle["predictions"])
            and fast["counters"] == cycle["counters"] and energy_equal)


def column_updates_exact(ev) -> bool:
    """Every learning step updated exactly its learning neurons' columns
    (a count that must repeat exactly for any seed)."""
    return bool(ev["updates"]) and all(
        u == ev["expected_updates"] for u in ev["updates"])


# -- check sets and their corruptions -------------------------------------------------


def _corrupt_served(ev):
    ev["served"] = list(ev["served"])
    ev["served"][0] = (int(ev["served"][0]) + 1) % 10


def _corrupt_counters(ev):
    ev["counters"]["completed"] -= 1


def _corrupt_predictions(ev):
    ev["predictions"] = [(int(t) + 1) % 10 for t in ev["labels"]]


def _corrupt_resumed(ev):
    row = ev["resumed_rows"][0]
    row["metrics"]["dynamic_energy_pj"] *= 1.0 + 1e-9


def _corrupt_hits(ev):
    ev["hits_per_pass"] = [h - 1 for h in ev["hits_per_pass"]]


def _corrupt_claims(ev):
    ev["claims"]["throughput_minf_s"] *= 2.0


def _corrupt_updates(ev):
    ev["updates"] = [u - 1 for u in ev["updates"]]


def _corrupt_fast(ev):
    ev["fast"]["energy"]["dynamic_energy_pj"] *= 1.0 + 1e-9


SERVE_CHECKS = (
    ("served_equals_offline", served_equals_offline, _corrupt_served),
    ("accounting_holds", accounting_holds, _corrupt_counters),
    ("accuracy_above_floor", accuracy_above_floor, _corrupt_predictions),
)
CAMPAIGN_CHECKS = (
    ("resumed_equal_cold", resumed_equal_cold, _corrupt_resumed),
    ("hit_share_exact", hit_share_exact, _corrupt_hits),
    ("claims_within_tolerance", claims_within_tolerance, _corrupt_claims),
)
#: No accuracy floor here: STDP with seeded random pre-spikes retrains
#: tile 0 away from the trained classifier by design, so accuracy is
#: reported, not checked.
LEARN_CHECKS = (
    ("fast_equals_cycle", fast_equals_cycle, _corrupt_fast),
    ("column_updates_exact", column_updates_exact, _corrupt_updates),
)


def evaluate(checks, evidence, corrupt: bool = False) -> dict[str, bool]:
    """Run ``checks`` over ``evidence``; with ``corrupt`` each check sees
    a copy damaged by its own corruption (and must fail)."""
    results = {}
    for name, check, corruption in checks:
        ev = evidence
        if corrupt:
            ev = copy.deepcopy(evidence)
            corruption(ev)
        try:
            results[name] = bool(check(ev))
        except (KeyError, IndexError, TypeError, ValueError):
            results[name] = False
    return results
