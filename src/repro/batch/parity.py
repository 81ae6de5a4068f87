"""Engine-parity harness: the batch kernels against the event engine.

The event engine (:class:`~repro.simulation.engine.SearchSimulation`)
is the semantic oracle of this library.  The batch subsystem is only a
*fast path*, so its correctness claim is empirical as well as
analytical: this registration of the shared harness
(:mod:`repro.parity`) replays a seeded grid of (regime, target,
fault-set) points through both the batch kernels and the engine and
asserts agreement within :mod:`repro.core.tolerance` bounds.

The default grid spans six ``(n, f)`` regimes — including the paper's
extreme cases ``n = f + 1`` (all robots must reach every target) and
``n = 2f + 1`` (asymptotically optimal proportional schedules) and the
trivial regime ``n >= 2f + 2`` — with both adversarial (worst-case
``T_{f+1}``) and explicit (fixed / seeded-random subset) fault
assignments, for well over the 1000 points the acceptance bar asks for.
Fault assignments are campaign fault-DSL strings: ``"adversarial"``,
``"none"``, and ``"fixed:i,j"`` for an explicit crash-detection subset.

CI runs this twice: in a bare venv (pure backend) and with the
``scientific`` extra installed (numpy backend); the JSON report is kept
as a build artifact either way.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple, Union

from repro.batch.backend import BatchBackend, get_backend
from repro.batch.evaluate import BatchEvaluator
from repro.errors import InvalidParameterError
from repro.parity import ParityReport, Runner, run_parity
from repro.robots.fleet import Fleet

__all__ = ["run_parity_harness", "DEFAULT_PAIRS"]

#: Default regimes: n = f+1 twice, n = 2f+1 twice, one interior
#: proportional regime, and one trivial-regime (n >= 2f+2) fleet.
DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = (
    (2, 1),
    (3, 2),
    (3, 1),
    (5, 2),
    (4, 2),
    (6, 2),
)


def _fault_specs(rng: random.Random, n: int, f: int, count: int) -> List[str]:
    """Fault assignments for one target: adversarial, fault-free, and
    seeded random subsets of size at most ``f``."""
    specs = ["adversarial", "none"]
    while len(specs) < count:
        subset = sorted(rng.sample(range(n), rng.randint(0, f)))
        specs.append(
            "fixed:" + ",".join(map(str, subset)) if subset else "none"
        )
    return specs[:count]


def _batch_candidate(backend: BatchBackend):
    """The kernels as a parity candidate: per regime, a runner giving
    ``T_{f+1}`` for the adversarial spec and the explicit-subset
    detection time otherwise (the kernels report no robot)."""

    def candidate(fleet: Fleet, f: int) -> Runner:
        evaluator = BatchEvaluator(fleet, fault_budget=f, backend=backend)

        def run(spec) -> Tuple[float, None]:
            if spec.fault == "adversarial":
                return evaluator.search_times([spec.target])[0], None
            _, _, subset = spec.fault.partition(":")
            faulty = [int(i) for i in subset.split(",")] if subset else []
            return evaluator.detection_times([spec.target], faulty)[0], None

        return run

    return candidate


def run_parity_harness(
    pairs: Sequence[Tuple[int, int]] = DEFAULT_PAIRS,
    targets_per_pair: int = 40,
    fault_sets_per_target: int = 5,
    seed: int = 2016,
    backend: Union[BatchBackend, str, None] = None,
    x_max: float = 32.0,
) -> ParityReport:
    """Replay a seeded grid through both paths and compare every point.

    Args:
        pairs: ``(n, f)`` regimes; each is realized with the library's
            regime rule (proportional ``A(n, f)`` when
            ``f < n < 2f + 2``, the two-group algorithm otherwise).
        targets_per_pair: Seeded log-uniform targets per regime.
        fault_sets_per_target: Fault assignments compared per target
            (adversarial + fault-free + random subsets).
        seed: Master seed; the whole grid is reproducible from it.
        backend: Forwarded to :class:`~repro.batch.evaluate.BatchEvaluator`.
        x_max: Largest target magnitude drawn.

    Examples:
        >>> report = run_parity_harness(
        ...     pairs=[(3, 1)], targets_per_pair=3,
        ...     fault_sets_per_target=2, backend="pure",
        ... )
        >>> report.passed
        True
        >>> report.total
        6
    """
    if fault_sets_per_target < 1:
        raise InvalidParameterError("fault_sets_per_target must be >= 1")
    if not isinstance(backend, BatchBackend):
        backend = get_backend(backend)
    return run_parity(
        "batch",
        f"parity[{backend.name}]",
        _batch_candidate(backend),
        lambda rng, n, f: _fault_specs(rng, n, f, fault_sets_per_target),
        pairs,
        targets_per_pair,
        seed,
        x_max,
        exact=False,
    )
