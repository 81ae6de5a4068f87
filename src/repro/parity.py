"""The parity harness: one seeded grid loop for every fast path.

The continuous :class:`~repro.simulation.engine.SearchSimulation` is the
semantic oracle of this library.  Each path that claims to reproduce it
registers here with its default regimes, a candidate runner, and a
comparator: the batch kernels (:mod:`repro.batch.parity`, within
``TIME_RTOL``), the FSYNC event engine (:mod:`repro.async_sched.parity`,
exact) and ``variant="line"`` dispatch (:mod:`repro.variants.parity`,
exact).  The reference side is always a direct ``SearchSimulation`` on
the regime fleet with a fault model realized *fresh* from the campaign
fault DSL: stochastic models keep generator state across ``assign()``
calls, so sharing one instance would compare different fault subsets.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.tolerance import TIME_RTOL, times_close
from repro.errors import InvalidParameterError
from repro.robots.fleet import Fleet
from repro.robustness.campaign import ScenarioSpec, _fault_model_for
from repro.simulation.engine import SearchSimulation

__all__ = ["DEFAULT_FAULT_KINDS", "ParityCase", "ParityReport", "run_parity"]

#: Fault spec strings exercised per target (campaign DSL), spanning the
#: whole behavior taxonomy: pure crash-detection, motion-truncating
#: crash-stop, log-shaping Byzantine alarms, and seeded probabilistic
#: detection.
DEFAULT_FAULT_KINDS: Tuple[str, ...] = (
    "none",
    "adversarial",
    "fixed",
    "crash_stop:2.0",
    "byzantine:0.5;1.5",
    "probabilistic:0.7",
)

#: A candidate path for one spec: ``(detection_time, detecting_robot)``.
Runner = Callable[[ScenarioSpec], Tuple[float, Optional[int]]]


@dataclass(frozen=True)
class ParityCase:
    """One compared point: a regime, a target, a fault spec string, and
    what the reference and the candidate paths reported for it.

    ``exact`` selects the comparator: ``.hex()``-equal detection times
    (or both infinite) and the same detecting robot; otherwise the times
    agree within :data:`~repro.core.tolerance.TIME_RTOL` (or are both
    infinite) and robots are not compared.
    """

    n: int
    f: int
    target: float
    fault: str
    reference_time: float
    candidate_time: float
    reference_robot: Optional[int] = None
    candidate_robot: Optional[int] = None
    exact: bool = True

    @property
    def agree(self) -> bool:
        """Whether the two paths agree under the case's comparator."""
        reference, candidate = self.reference_time, self.candidate_time
        if math.isinf(reference) or math.isinf(candidate):
            times_agree = math.isinf(reference) and math.isinf(candidate)
        elif self.exact:
            times_agree = reference.hex() == candidate.hex()
        else:
            times_agree = times_close(reference, candidate)
        robots_agree = self.reference_robot == self.candidate_robot
        return times_agree and (robots_agree or not self.exact)

    def describe(self) -> str:
        """One-line summary."""
        verdict = "ok " if self.agree else "MISMATCH"
        return (
            f"{verdict} A({self.n},{self.f}) x={self.target:.6g} "
            f"fault={self.fault}: reference={self.reference_time!r} "
            f"candidate={self.candidate_time!r} robots="
            f"{self.reference_robot}/{self.candidate_robot}"
        )


def _encode_time(t: float):
    """Non-finite times as strings, like the campaign report."""
    return t if math.isfinite(t) else repr(t)


@dataclass
class ParityReport:
    """The outcome of one parity run: every case, plus the verdict.

    ``harness`` names the registration (``"batch"``, ``"async"``,
    ``"variants"``); ``label`` heads :meth:`describe` and names the
    candidate's configuration (backend, quantum).
    """

    harness: str
    label: str
    seed: int
    exact: bool = True
    cases: List[ParityCase] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of compared points."""
        return len(self.cases)

    @property
    def regimes(self) -> List[Tuple[int, int]]:
        """Distinct ``(n, f)`` regimes covered, sorted."""
        return sorted({(c.n, c.f) for c in self.cases})

    def mismatches(self) -> List[ParityCase]:
        """Cases where the two paths disagree."""
        return [c for c in self.cases if not c.agree]

    @property
    def passed(self) -> bool:
        """Whether every compared point agreed."""
        return not self.mismatches()

    def describe(self, max_mismatches: int = 10) -> str:
        """Multi-line summary."""
        bad = self.mismatches()
        if self.exact:
            verb, settings = "bit-exact", f"seed={self.seed}"
        else:
            verb, settings = "agree", f"rtol={TIME_RTOL:g}, seed={self.seed}"
        lines = [
            f"{self.label}: {self.total - len(bad)}/{self.total} points "
            f"{verb} across {len(self.regimes)} regimes ({settings})"
        ]
        lines += ["  " + case.describe() for case in bad[:max_mismatches]]
        hidden = len(bad) - max_mismatches
        if hidden > 0:
            lines.append(f"  ... and {hidden} more mismatches")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-ready representation (non-finite times encoded as
        strings)."""
        return {
            "format": "linesearch-parity-report",
            "version": 2,
            "harness": self.harness,
            "label": self.label,
            "comparator": "exact" if self.exact else "times_close",
            "seed": self.seed,
            "total": self.total,
            "passed": self.passed,
            "regimes": [list(r) for r in self.regimes],
            "mismatches": len(self.mismatches()),
            "cases": [
                {
                    "n": c.n,
                    "f": c.f,
                    "target": c.target,
                    "fault": c.fault,
                    "reference_time": _encode_time(c.reference_time),
                    "candidate_time": _encode_time(c.candidate_time),
                    "reference_robot": c.reference_robot,
                    "candidate_robot": c.candidate_robot,
                    "agree": c.agree,
                }
                for c in self.cases
            ],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize as a durable JSON artifact (canonical key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _seeded_targets(
    rng: random.Random, count: int, x_max: float
) -> List[float]:
    """``count`` targets, log-uniform in ``[1, x_max]``, random signs."""
    targets = []
    log_max = math.log(x_max)
    for _ in range(count):
        magnitude = math.exp(rng.uniform(0.0, log_max))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        targets.append(sign * magnitude)
    return targets


def _reference(
    fleet: Fleet, spec: ScenarioSpec
) -> Tuple[float, Optional[int]]:
    """The oracle's detection time and robot for ``spec``, with a fault
    model realized fresh for this run."""
    outcome = SearchSimulation(
        fleet, spec.target, fault_model=_fault_model_for(spec)[0]
    ).run(with_events=False)
    return outcome.detection_time, outcome.detecting_robot


def run_parity(
    harness: str,
    label: str,
    candidate: Callable[[Fleet, int], Runner],
    faults: Callable[[random.Random, int, int], Sequence[str]],
    pairs: Sequence[Tuple[int, int]],
    targets_per_pair: int,
    seed: int,
    x_max: float,
    exact: bool = True,
) -> ParityReport:
    """Replay a seeded grid through the oracle and one candidate path.

    Args:
        harness: Registration name, recorded in the report.
        label: Head of the report's summary line.
        candidate: Called once per regime with the regime fleet and
            ``f``; returns the runner that evaluates one spec.
        faults: Called once per target with the shared generator; the
            fault spec strings compared at that target.
        pairs: ``(n, f)`` regimes, realized with the library's regime
            rule (:func:`repro.schedule.algorithm_for`).
        targets_per_pair: Seeded log-uniform targets per regime.
        seed: Master seed; also each scenario's fault seed.
        x_max: Largest target magnitude drawn.
        exact: The comparator, as on :class:`ParityCase`.
    """
    if targets_per_pair < 1:
        raise InvalidParameterError("targets_per_pair must be >= 1")
    if x_max <= 1.0:
        raise InvalidParameterError(f"x_max must exceed 1, got {x_max}")
    from repro.schedule import algorithm_for

    rng = random.Random(seed)
    report = ParityReport(harness, label, seed, exact)
    for n, f in pairs:
        fleet = Fleet.from_algorithm(algorithm_for(n, f))
        run_candidate = candidate(fleet, f)
        for target in _seeded_targets(rng, targets_per_pair, x_max):
            for fault in faults(rng, n, f):
                spec = ScenarioSpec(
                    n=n, f=f, target=target, fault=fault, seed=seed
                )
                reference_time, reference_robot = _reference(fleet, spec)
                candidate_time, candidate_robot = run_candidate(spec)
                report.cases.append(
                    ParityCase(
                        n=n,
                        f=f,
                        target=target,
                        fault=fault,
                        reference_time=reference_time,
                        candidate_time=candidate_time,
                        reference_robot=reference_robot,
                        candidate_robot=candidate_robot,
                        exact=exact,
                    )
                )
    return report
