"""Seeded inputs for every workload.

Each workload's inputs are a pure function of ``--seed``; the program
only ever sees the generated scenarios.  The seed moves target
positions within fixed magnitude bands and the per-scenario seeds, never
the mix of costs, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: The paper's proportional-regime fleets measured by ``campaign``.
PAIRS = ((3, 1), (4, 2), (5, 3), (7, 3))
#: Fleets that admit the confirmation protocol and evacuation (n >= 2f+1).
MAJORITY_PAIRS = ((3, 1), (7, 3))
#: Every crash-type fault kind (``none`` is the fault-free baseline).
CRASH_FAULTS = (
    "none", "adversarial", "random", "fixed", "crash_stop", "probabilistic",
)
LINE_FAULTS = CRASH_FAULTS + ("byzantine",)
#: Target magnitudes are drawn one per geometric band over this range.
TARGET_RANGE = (1.5, 1e3)
BANDS = 8

ASYNC_PAIRS = ((3, 1), (5, 2))
ASYNC_KINDS = ("adversarial", "ssync", "async", "fsync")
ASYNC_MAGNITUDES = (1e2, 10**2.5, 1e3)

#: Served traffic classes, sized against the client's 50 ms poll step:
#: a small job's work fits well inside one step, a big job spans dozens.
SMALL_JOB = 4
BIG_JOB = len(PAIRS) * len(CRASH_FAULTS) * BANDS
#: Per cycle: one big job, then this many small jobs, each followed by
#: cache-hit resubmissions of scenarios from a fixed hot set, so every hot
#: scenario is resubmitted :data:`HOT_REPEATS` times per cycle, at three
#: different points of it.  120 hot scenarios leave 12 beyond the p90 of
#: their best latencies.
SMALL_PER_CYCLE = 6
HOT_SET = 120
HOT_REPEATS = 3
HOT_PER_SMALL = HOT_SET * HOT_REPEATS // SMALL_PER_CYCLE


def band_magnitude(rng: random.Random, band: int) -> float:
    """A log-uniform magnitude inside geometric band ``band`` of
    :data:`BANDS` over :data:`TARGET_RANGE`."""
    lo, hi = TARGET_RANGE
    a = lo * (hi / lo) ** (band / BANDS)
    b = lo * (hi / lo) ** ((band + 1) / BANDS)
    return a * (b / a) ** rng.random()


def axis_of(spec) -> str:
    """The campaign axis a spec exercises: its variant, else its protocol."""
    if spec.variant != "line":
        return spec.variant
    return "confirmation" if spec.protocol == "confirmation" else "line"


def campaign_grid(seed: int):
    """The ``campaign`` grid: every line fault over four fleets, plus a
    minority of confirmation-protocol and variant scenarios."""
    from repro.robustness import chaos_scenarios

    rng = random.Random(seed)
    magnitudes = [band_magnitude(rng, band) for band in range(BANDS)]
    symmetric = sorted(magnitudes + [-m for m in magnitudes])
    signed = [m if rng.random() < 0.5 else -m for m in magnitudes]
    grid = chaos_scenarios(
        PAIRS, symmetric, LINE_FAULTS, seed=rng.randrange(2**32)
    )
    grid += chaos_scenarios(
        MAJORITY_PAIRS, signed, ["adversarial", "byzantine"],
        seed=rng.randrange(2**32), protocol="confirmation",
    )
    grid += chaos_scenarios(
        MAJORITY_PAIRS, signed, ["adversarial", "fixed"],
        seed=rng.randrange(2**32), variant="evacuation",
    )
    grid += chaos_scenarios(
        PAIRS, signed, ["adversarial"],
        seed=rng.randrange(2**32), variant="halfline",
    )
    return grid


def async_class(spec) -> Tuple[str, float]:
    """``(scheduler kind, |x|)`` of an ``async_scale`` spec."""
    return spec.mode.split(":")[1], abs(spec.target)


def async_grid(seed: int):
    """The ``async_scale`` grid: every magnitude for each fleet and
    scheduler kind, so every (kind, |x|) class holds the same count; the
    seed draws the per-scenario scheduler seeds.  Targets sit on the
    positive side only: both signs would double a pass that already
    lasts over a second, and fewer passes per run leave each scenario's
    best time more exposed to host load."""
    from repro.robustness import chaos_scenarios

    rng = random.Random(seed)
    grid = []
    for kind in ASYNC_KINDS:
        grid += chaos_scenarios(
            ASYNC_PAIRS, ASYNC_MAGNITUDES, ["adversarial"],
            seed=rng.randrange(2**32), mode=f"event:{kind}",
        )
    return grid


class ServedTraffic:
    """The ``served`` request stream: fresh small and big campaigns drawn
    from the same scenario distribution, and resubmissions of a hot set
    of scenarios the server has already answered."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _spec(self, n: int, f: int, fault: str, band: int) -> Dict:
        from repro.robustness import ScenarioSpec

        rng = self.rng
        magnitude = band_magnitude(rng, band)
        return ScenarioSpec(
            n=n,
            f=f,
            target=magnitude if rng.random() < 0.5 else -magnitude,
            fault=fault,
            seed=rng.randrange(2**32),
        ).to_dict()

    def big_specs(self) -> List[Dict]:
        """One scenario in every (fleet, fault, target band) cell, so
        every big job holds the same mix of costs."""
        cells = [
            (n, f, fault, band)
            for (n, f) in PAIRS
            for fault in CRASH_FAULTS
            for band in range(BANDS)
        ]
        self.rng.shuffle(cells)
        return [self._spec(*cell) for cell in cells]

    def small_specs(self) -> List[Dict]:
        """:data:`SMALL_JOB` scenarios from uniformly drawn cells."""
        rng = self.rng
        return [
            self._spec(
                *PAIRS[rng.randrange(len(PAIRS))],
                CRASH_FAULTS[rng.randrange(len(CRASH_FAULTS))],
                rng.randrange(BANDS),
            )
            for _ in range(SMALL_JOB)
        ]

    def hot_set(self, answered: List[Dict]) -> List[Dict]:
        """:data:`HOT_SET` of the ``answered`` specs.  Each is resubmitted
        once per cycle, which keeps it at the recent end of the server's
        LRU result cache."""
        return self.rng.sample(answered, HOT_SET)
