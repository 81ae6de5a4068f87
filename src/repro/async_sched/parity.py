"""Event-engine parity harness: FSYNC/unit-speed vs. the continuous engine.

The continuous :class:`~repro.simulation.engine.SearchSimulation` is the
semantic oracle of this library.  The discrete-event engine claims that
under the trivial schedule — FSYNC activation, unit speeds — it *is*
the continuous engine: same detection times, same detecting robot, to
the last bit.  This registration of the shared harness
(:mod:`repro.parity`) replays a seeded grid of (regime, target,
fault-kind) points through both engines and asserts **exact** agreement
(``.hex()``-equal detection times, not ``times_close``) — the
cumulative-offset construction of :mod:`repro.async_sched.timeline`
makes bit-exactness achievable, so the harness demands it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.async_sched.engine import EventEngine
from repro.async_sched.schedulers import FsyncScheduler
from repro.parity import DEFAULT_FAULT_KINDS, ParityReport, Runner, run_parity
from repro.robots.fleet import Fleet
from repro.robustness.campaign import _fault_model_for

__all__ = ["DEFAULT_PAIRS", "run_async_parity"]

#: Default regimes: the paper's extremes n = f+1 and n = 2f+1, an
#: interior proportional regime, and a trivial regime (n >= 2f + 2).
DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 1),
    (3, 2),
    (3, 1),
    (5, 2),
    (4, 2),
    (7, 3),
)


def _fsync_candidate(quantum: float, seed: int):
    """The event engine under FSYNC activation as a parity candidate."""

    def candidate(fleet: Fleet, f: int) -> Runner:
        def run(spec):
            # A fresh fault model, as on the reference side.
            event = EventEngine(
                fleet,
                spec.target,
                scheduler=FsyncScheduler(quantum),
                fault_model=_fault_model_for(spec)[0],
                seed=seed,
            ).run(with_events=False)
            return event.detection_time, event.detecting_robot

        return run

    return candidate


def run_async_parity(
    pairs: Sequence[Tuple[int, int]] = DEFAULT_PAIRS,
    targets_per_pair: int = 12,
    fault_kinds: Sequence[str] = DEFAULT_FAULT_KINDS,
    seed: int = 2016,
    x_max: float = 16.0,
    quantum: float = 0.5,
) -> ParityReport:
    """Replay a seeded grid through both engines; demand bit-exactness.

    Args:
        pairs: ``(n, f)`` regimes, realized with the library's regime
            rule (:func:`repro.schedule.algorithm_for`).
        targets_per_pair: Seeded log-uniform targets per regime.
        fault_kinds: Campaign fault-DSL strings compared per target.
        seed: Master seed; also each scenario's fault seed.
        x_max: Largest target magnitude drawn.
        quantum: FSYNC activation quantum (parity must hold for any
            positive value — the quantum only partitions plan time).

    Examples:
        >>> report = run_async_parity(
        ...     pairs=[(3, 1)], targets_per_pair=2,
        ...     fault_kinds=("none", "adversarial"),
        ... )
        >>> report.passed
        True
        >>> report.total
        4
    """
    return run_parity(
        "async",
        f"async parity[fsync, quantum={quantum:g}]",
        _fsync_candidate(quantum, seed),
        lambda rng, n, f: fault_kinds,
        pairs,
        targets_per_pair,
        seed,
        x_max,
    )
