"""Variant-dispatch parity harness: ``variant="line"`` vs. the engine.

The variant subsystem routes ``variant="line"`` scenarios through the
:class:`~repro.variants.line.LineVariant` singleton and the campaign's
shared engine dispatch.  This registration of the shared harness
(:mod:`repro.parity`) pins the claim that the detour is invisible: on a
seeded grid of (regime, target, fault-kind) points, the variant path —
invariant audit on, as every campaign runs it — must reproduce a
*direct* continuous-engine invocation with **exact** agreement
(``.hex()``-equal detection times, not ``times_close``) and the same
detecting robot, the demand :mod:`repro.async_sched.parity` makes of
the discrete-event engine.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.parity import DEFAULT_FAULT_KINDS, ParityReport, Runner, run_parity
from repro.robots.fleet import Fleet
from repro.robustness.campaign import build_scenario
from repro.variants.base import variant_for

__all__ = ["DEFAULT_PAIRS", "run_variant_parity"]

#: Default regimes: the async parity harness's proportional coverage
#: plus two trivial-regime fleets (``n >= 2f + 2`` routes through
#: ``TwoGroupAlgorithm``), so both sides of the regime rule are pinned.
DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 1),
    (3, 2),
    (3, 1),
    (5, 2),
    (4, 2),
    (7, 3),
    (4, 1),
    (6, 2),
)


def _line_candidate(fleet: Fleet, f: int) -> Runner:
    """``variant="line"`` dispatch, audited, as a parity candidate."""
    line = variant_for("line")

    def run(spec):
        outcome = line.run(build_scenario(spec), check_invariants=True)
        return outcome.detection_time, outcome.detecting_robot

    return run


def run_variant_parity(
    pairs: Sequence[Tuple[int, int]] = DEFAULT_PAIRS,
    targets_per_pair: int = 8,
    fault_kinds: Sequence[str] = DEFAULT_FAULT_KINDS,
    seed: int = 2016,
    x_max: float = 16.0,
) -> ParityReport:
    """Replay a seeded grid through both paths; demand bit-exactness.

    Args:
        pairs: ``(n, f)`` regimes, realized with the library's regime
            rule on both sides.
        targets_per_pair: Seeded log-uniform targets per regime.
        fault_kinds: Campaign fault-DSL strings compared per target.
        seed: Master seed; also each scenario's fault seed.
        x_max: Largest target magnitude drawn.

    Examples:
        >>> report = run_variant_parity(
        ...     pairs=[(3, 1)], targets_per_pair=2,
        ...     fault_kinds=("none", "adversarial"),
        ... )
        >>> report.passed
        True
        >>> report.total
        4
    """
    return run_parity(
        "variants",
        "variant parity[line]",
        _line_candidate,
        lambda rng, n, f: fault_kinds,
        pairs,
        targets_per_pair,
        seed,
        x_max,
    )
