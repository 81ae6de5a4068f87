"""Chaos campaigns: seeded scenario batches with per-scenario isolation.

A *campaign* executes many search scenarios — fleets × targets × fault
specs — and never lets one bad scenario abort the sweep.  Each scenario
runs inside its own fault boundary: any exception (a broken fault model,
a speed-violating trajectory, an invariant audit failure, …) is captured
into a structured :class:`ScenarioResult` carrying the error class, the
seed, and the declarative :class:`ScenarioSpec`, so every failure is
replayable in isolation.  Stochastic scenarios that fail are retried
once before being recorded — a transient unlucky draw should not
pollute a robustness report.

The declarative layer is deliberately small: a :class:`ScenarioSpec`
names an ``(n, f)`` fleet (built with the paper's regime rules), a
target, a fault spec string, and a seed.  Fault spec strings cover the
whole taxonomy::

    none                   no faults
    adversarial            the paper's worst-case adversary, budget f
    random                 uniformly random f-subset (seeded)
    fixed                  robots 0..f-1 are crash-detection faulty
    crash_stop:T           robots 0..f-1 halt at T*(i+1)
    byzantine:T1;T2;...    robots 0..f-1 raise false alarms at the T_i
    byzantine_adversarial:T1;T2;...
                           worst-case liar placement: the f first
                           visitors of the target lie at the T_i
    probabilistic:P        robots 0..f-1 detect each visit w.p. P (seeded)

A spec may additionally name a ``protocol``: ``"none"`` (the engine's
first-detection termination) or ``"confirmation"`` — the Byzantine
voting layer of :mod:`repro.byzantine`, under which a claim commits
only after ``f + 1`` confirmations and lying robots cannot terminate
the search at a false point.

A spec may also name a ``mode``: ``"sync"`` (the default continuous
synchronous engine) or an activation-scheduler spec such as
``"event"``, ``"event:adversarial:1.0"``, or ``"event:ssync:0.5"`` —
the discrete-event engine of :mod:`repro.async_sched`, where robots
advance their plans only when the scheduler activates them (see
:func:`repro.async_sched.scheduler_from_spec` for the grammar).
Confirmation-protocol scenarios compose: the Byzantine simulation
receives the scheduler's per-robot timelines.

Finally, a spec may name a ``variant`` — the *problem* being solved:
``"line"`` (the source paper's whole-line search, the default),
``"halfline"`` (p-faulty search on a ray, arXiv:2002.07797), or
``"evacuation"`` (commit-then-gather with a near majority of faulty
agents, arXiv:2605.08355).  Non-line specs are realized and executed by
the matching :class:`~repro.variants.base.ProblemVariant`; line specs
behave bit-for-bit as before the field existed (the parity harness of
:mod:`repro.variants.parity` pins this).

Programmatic callers can bypass the DSL entirely by handing
:func:`run_campaign` arbitrary :class:`Scenario` objects whose ``build``
callables produce any fleet/fault-model pair — including deliberately
broken ones, which is exactly how the test suite chaos-tests the engine.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError, LineSearchError
from repro.robots.faults import (
    AdversarialFaults,
    BehavioralFaults,
    ByzantineAdversary,
    ByzantineFalseAlarmFault,
    CrashStopFault,
    FaultModel,
    FixedFaults,
    ProbabilisticDetectionFault,
    RandomFaults,
)
from repro.robots.fleet import Fleet
from repro.simulation.engine import SearchSimulation

__all__ = [
    "FAULT_KINDS",
    "MAX_SCHEDULED_TARGET",
    "PROTOCOLS",
    "VARIANTS",
    "CampaignReport",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "build_scenario",
    "chaos_scenarios",
    "run_campaign",
    "scenario_key",
]

#: Fault spec kinds understood by :class:`ScenarioSpec`.
FAULT_KINDS = (
    "none",
    "adversarial",
    "random",
    "fixed",
    "crash_stop",
    "byzantine",
    "byzantine_adversarial",
    "probabilistic",
)

#: Termination protocols understood by :class:`ScenarioSpec`.
PROTOCOLS = ("none", "confirmation")

#: Largest ``|target|`` a scheduled-time (``mode != "sync"``) spec may
#: name.  The discrete-event engine's cost grows with the activations
#: needed to reach the target -- for A(3,1), ``event:adversarial`` takes
#: about 2 s at ``|x| = 1e4`` and 13 s at ``3e4`` -- so larger targets
#: are refused before they tie up a worker.
MAX_SCHEDULED_TARGET = 1e4

#: Problem variants understood by :class:`ScenarioSpec`.  Mirrors
#: :data:`repro.variants.base.VARIANT_NAMES` (pinned by tests; kept as a
#: literal here so spec validation needs no variant import).
VARIANTS = ("line", "halfline", "evacuation")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative recipe for one scenario — everything a replay needs.

    Examples:
        >>> spec = ScenarioSpec(n=3, f=1, target=2.0, fault="adversarial", seed=7)
        >>> spec.describe()
        'A(3,1) target=2 fault=adversarial seed=7'
    """

    n: int
    f: int
    target: float
    fault: str = "adversarial"
    seed: Optional[int] = None
    protocol: str = "none"
    mode: str = "sync"
    variant: str = "line"

    def describe(self) -> str:
        """One-line summary."""
        suffix = (
            f" protocol={self.protocol}" if self.protocol != "none" else ""
        )
        if self.mode != "sync":
            suffix += f" mode={self.mode}"
        if self.variant != "line":
            suffix += f" variant={self.variant}"
        return (
            f"A({self.n},{self.f}) target={self.target:g} "
            f"fault={self.fault} seed={self.seed}{suffix}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`.

        The defaults ``protocol="none"``, ``mode="sync"``, and
        ``variant="line"`` are *omitted* so every digest, journal key,
        and golden report produced before those fields existed stays
        byte-identical.
        """
        data = {
            "n": self.n,
            "f": self.f,
            "target": self.target,
            "fault": self.fault,
            "seed": self.seed,
        }
        if self.protocol != "none":
            data["protocol"] = self.protocol
        if self.mode != "sync":
            data["mode"] = self.mode
        if self.variant != "line":
            data["variant"] = self.variant
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            n=int(data["n"]),
            f=int(data["f"]),
            target=float(data["target"]),
            fault=str(data["fault"]),
            seed=None if data.get("seed") is None else int(data["seed"]),
            protocol=str(data.get("protocol", "none")),
            mode=str(data.get("mode", "sync")),
            variant=str(data.get("variant", "line")),
        )


def scenario_key(spec: ScenarioSpec) -> str:
    """Deterministic identity of a spec, stable across processes and runs.

    The campaign journal keys every outcome by this digest so a resumed
    campaign can recognize already-completed scenarios regardless of
    execution order, worker placement, or interpreter restarts.

    Examples:
        >>> a = scenario_key(ScenarioSpec(3, 1, 2.0, "none", 7))
        >>> b = scenario_key(ScenarioSpec(3, 1, 2.0, "none", 7))
        >>> a == b
        True
        >>> a == scenario_key(ScenarioSpec(3, 1, 2.0, "none", 8))
        False
    """
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Scenario:
    """An executable scenario: a spec plus the factory realizing it.

    ``build`` is called fresh on every attempt (including retries) and
    returns the fleet and fault model to simulate.  Custom scenarios may
    pair any spec with any factory — the spec is documentation and
    replay metadata, the factory is the truth.
    """

    spec: ScenarioSpec
    build: Callable[[], Tuple[Fleet, FaultModel]]
    stochastic: bool = False


@dataclass(frozen=True)
class ScenarioResult:
    """The isolated outcome of one scenario, success or failure.

    ``attempt_errors`` records the error class and message of *every*
    failed attempt, not just the last one — a scenario that succeeded
    on its second try still carries the transient error that cost it
    the first attempt.
    """

    spec: ScenarioSpec
    ok: bool
    attempts: int = 1
    detection_time: Optional[float] = None
    competitive_ratio: Optional[float] = None
    detecting_robot: Optional[int] = None
    faulty_robots: Tuple[int, ...] = ()
    error: Optional[str] = None
    error_message: Optional[str] = None
    attempt_errors: Tuple[str, ...] = ()

    def describe(self) -> str:
        """One-line summary."""
        if self.ok:
            detection = (
                f"T={self.detection_time:.6g}"
                if self.detection_time is not None
                and math.isfinite(self.detection_time)
                else "undetected"
            )
            return f"ok   {self.spec.describe()}: {detection}"
        retried = " (retried)" if self.attempts > 1 else ""
        return (
            f"FAIL {self.spec.describe()}: {self.error}: "
            f"{self.error_message}{retried}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`.

        Non-finite detection times (an undetected target) are encoded
        as strings so the output stays strict JSON.
        """
        detection = self.detection_time
        if detection is not None and not math.isfinite(detection):
            detection = repr(detection)
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "attempts": self.attempts,
            "detection_time": detection,
            "competitive_ratio": self.competitive_ratio,
            "detecting_robot": self.detecting_robot,
            "faulty_robots": list(self.faulty_robots),
            "error": self.error,
            "error_message": self.error_message,
            "attempt_errors": list(self.attempt_errors),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output."""
        detection = data.get("detection_time")
        if isinstance(detection, str):
            detection = float(detection)
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            ok=bool(data["ok"]),
            attempts=int(data.get("attempts", 1)),
            detection_time=detection,
            competitive_ratio=data.get("competitive_ratio"),
            detecting_robot=data.get("detecting_robot"),
            faulty_robots=tuple(data.get("faulty_robots", ())),
            error=data.get("error"),
            error_message=data.get("error_message"),
            attempt_errors=tuple(data.get("attempt_errors", ())),
        )


@dataclass
class CampaignReport:
    """Aggregated results of a campaign, failures isolated and replayable."""

    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of scenarios executed."""
        return len(self.results)

    @property
    def succeeded(self) -> int:
        """Number of scenarios that completed without error."""
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        """Number of scenarios captured as failures."""
        return self.total - self.succeeded

    def failures(self) -> List[ScenarioResult]:
        """The failed results, in execution order."""
        return [r for r in self.results if not r.ok]

    def error_counts(self) -> Dict[str, int]:
        """Failure tally per error class."""
        counts: Dict[str, int] = {}
        for result in self.failures():
            counts[result.error or "?"] = counts.get(result.error or "?", 0) + 1
        return counts

    def describe(self, max_failures: int = 10) -> str:
        """Multi-line campaign summary."""
        lines = [
            f"chaos campaign: {self.succeeded}/{self.total} scenarios ok, "
            f"{self.failed} failure(s) isolated"
        ]
        for error, count in sorted(self.error_counts().items()):
            lines.append(f"  {error}: {count}")
        shown = self.failures()[:max_failures]
        if shown:
            lines.append("first failures (replay via spec + seed):")
            lines.extend("  " + r.describe() for r in shown)
            hidden = self.failed - len(shown)
            if hidden > 0:
                lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`."""
        return {
            "format": "linesearch-campaign-report",
            "version": 1,
            "total": self.total,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            results=[ScenarioResult.from_dict(r) for r in data["results"]]
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the report as a durable JSON artifact.

        The encoding is canonical (sorted keys), so two reports with
        equal results serialize byte-identically — the resume tests
        rely on this.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        """Rebuild a report from :meth:`to_json` output.

        Examples:
            >>> report = CampaignReport()
            >>> CampaignReport.from_json(report.to_json()).total
            0
        """
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# spec realization
# ----------------------------------------------------------------------

def _algorithm_for(n: int, f: int):
    from repro.schedule import algorithm_for

    return algorithm_for(n, f)


def _fault_model_for(spec: ScenarioSpec) -> Tuple[FaultModel, bool]:
    """Realize the fault spec string; returns ``(model, stochastic)``."""
    kind, _, argument = spec.fault.partition(":")
    seed = spec.seed
    if kind == "none":
        return AdversarialFaults(0), False
    if kind == "adversarial":
        return AdversarialFaults(spec.f), False
    if kind == "random":
        return RandomFaults(spec.f, seed=seed), True
    if kind == "fixed":
        if argument:
            indices = [int(i) for i in argument.split(",")]
        else:
            indices = list(range(spec.f))
        return FixedFaults(indices), False
    if kind == "crash_stop":
        halt = float(argument) if argument else 2.0
        return (
            BehavioralFaults(
                {i: CrashStopFault(halt * (i + 1)) for i in range(spec.f)}
            ),
            False,
        )
    if kind == "byzantine":
        alarms = (
            [float(t) for t in argument.split(";")] if argument else [0.5, 1.5]
        )
        return (
            BehavioralFaults(
                {i: ByzantineFalseAlarmFault(alarms) for i in range(spec.f)}
            ),
            False,
        )
    if kind == "byzantine_adversarial":
        alarms = (
            [float(t) for t in argument.split(";")] if argument else [0.5, 1.5]
        )
        return ByzantineAdversary(spec.f, alarm_times=alarms), False
    if kind == "probabilistic":
        p = float(argument) if argument else 0.5
        base = seed if seed is not None else 0
        return (
            BehavioralFaults(
                {
                    i: ProbabilisticDetectionFault(p, seed=base + i)
                    for i in range(spec.f)
                }
            ),
            True,
        )
    raise InvalidParameterError(
        f"unknown fault kind {kind!r} in spec {spec.fault!r}; "
        f"kinds: {', '.join(FAULT_KINDS)}"
    )


def _line_realize(spec: ScenarioSpec) -> Fleet:
    """The fleet for a ``variant="line"`` spec: the regime schedule, or
    the confirmation schedule when the protocol demands it."""
    if spec.protocol == "confirmation":
        from repro.schedule.byzantine import ByzantineConfirmationAlgorithm

        algorithm = ByzantineConfirmationAlgorithm(spec.n, spec.f)
    else:
        algorithm = _algorithm_for(spec.n, spec.f)
    return Fleet.from_algorithm(algorithm)


@dataclass(frozen=True)
class _SpecRealizer:
    """Picklable scenario factory: realize ``spec`` on every call.

    A module-level class rather than a closure so spec-built scenarios
    survive pickling — the parallel executor ships them to worker
    processes by value.  Non-line variants delegate to their
    :class:`~repro.variants.base.ProblemVariant` (imported lazily in
    the worker, so the variant package never loads for plain specs).
    """

    spec: ScenarioSpec

    def __call__(self) -> Tuple[Fleet, FaultModel]:
        if getattr(self.spec, "variant", "line") != "line":
            from repro.variants import variant_for

            return variant_for(self.spec.variant).realize(self.spec)
        model, _ = _fault_model_for(self.spec)
        return _line_realize(self.spec), model


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Validate a declarative spec and realize it into an executable scenario.

    Every check a spec can fail without running is made here, so a bad
    spec is refused before it is queued, journaled, or shipped to a
    worker: the fleet shape ``0 <= f < n``, a finite nonzero target, the
    fault spec, the protocol, variant, and mode names, the ``n >= 2f + 1``
    majority that the confirmation protocol and evacuation need, and
    :data:`MAX_SCHEDULED_TARGET` for scheduled-time specs.  The CLI and
    the service both validate specs through this function.

    The returned scenario's factory is picklable, so it can be
    dispatched to the parallel executor's worker processes as-is.

    Examples:
        >>> scenario = build_scenario(ScenarioSpec(3, 1, 2.0, "crash_stop:1.5"))
        >>> fleet, model = scenario.build()
        >>> fleet.size
        3
        >>> build_scenario(ScenarioSpec(2, 3, 2.0))
        Traceback (most recent call last):
          ...
        repro.errors.InvalidParameterError: spec requires 1 <= f+1 <= n, got n=2 f=3
    """
    if not 0 <= spec.f < spec.n:
        raise InvalidParameterError(
            f"spec requires 1 <= f+1 <= n, got n={spec.n} f={spec.f}"
        )
    if not math.isfinite(spec.target) or spec.target == 0:
        raise InvalidParameterError(
            f"target must be finite and nonzero, got {spec.target!r}"
        )
    if spec.protocol not in PROTOCOLS:
        raise InvalidParameterError(
            f"unknown protocol {spec.protocol!r}; "
            f"protocols: {', '.join(PROTOCOLS)}"
        )
    if spec.protocol == "confirmation" and spec.n < 2 * spec.f + 1:
        raise InvalidParameterError(
            f"the confirmation protocol needs n >= 2f + 1 = "
            f"{2 * spec.f + 1} robots to tolerate {spec.f} liars, "
            f"got n = {spec.n}"
        )
    if spec.variant not in VARIANTS:
        raise InvalidParameterError(
            f"unknown variant {spec.variant!r}; "
            f"variants: {', '.join(VARIANTS)}"
        )
    if spec.variant != "line":
        from repro.variants import variant_for

        variant_for(spec.variant).validate_spec(spec)
    if spec.mode != "sync":
        if abs(spec.target) > MAX_SCHEDULED_TARGET:
            raise InvalidParameterError(
                f"scheduled-time specs (mode != 'sync') admit "
                f"|target| <= {MAX_SCHEDULED_TARGET:g}, got {spec.target:g}"
            )
        from repro.async_sched.schedulers import scheduler_from_spec

        try:
            scheduler_from_spec(spec.mode)
        except InvalidParameterError:
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"invalid scheduler mode {spec.mode!r}: {exc}"
            ) from None
    try:
        _, stochastic = _fault_model_for(spec)
    except InvalidParameterError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"invalid fault spec {spec.fault!r}: {exc}"
        ) from None
    return Scenario(
        spec=spec,
        build=_SpecRealizer(spec),
        stochastic=stochastic,
    )


def chaos_scenarios(
    pairs: Sequence[Tuple[int, int]],
    targets: Sequence[float],
    faults: Sequence[str] = FAULT_KINDS,
    seed: int = 0,
    protocol: str = "none",
    mode: str = "sync",
    variant: str = "line",
) -> List[Scenario]:
    """The full seeded grid of scenarios: pairs × targets × fault specs.

    Per-scenario seeds are drawn from a master generator, so the whole
    campaign is reproducible from ``seed`` alone and every entry is
    replayable from its own recorded seed.

    ``protocol="confirmation"`` runs every scenario under the Byzantine
    voting layer.  A non-default ``mode`` (an activation-scheduler spec,
    e.g. ``"event:adversarial:1.0"``) runs every scenario through the
    discrete-event engine; the per-scenario seed also seeds the
    scheduler, so the whole campaign stays replayable from its spec.
    A non-default ``variant`` sweeps the grid over that problem variant
    instead (e.g. ``variant="halfline"``).  Every spec is validated by
    :func:`build_scenario`, so an invalid grid raises before any scenario
    runs.

    Examples:
        >>> grid = chaos_scenarios([(3, 1)], [1.0, -2.0], ["none", "random"])
        >>> len(grid)
        4
    """
    master = random.Random(seed)
    scenarios: List[Scenario] = []
    for n, f in pairs:
        for target in targets:
            for fault in faults:
                spec = ScenarioSpec(
                    n=n,
                    f=f,
                    target=target,
                    fault=fault,
                    seed=master.randrange(2**32),
                    protocol=protocol,
                    mode=mode,
                    variant=variant,
                )
                scenarios.append(build_scenario(spec))
    return scenarios


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def _dispatch_engines(
    scenario: Scenario,
    fleet: Fleet,
    model: FaultModel,
    check_invariants: bool,
):
    """Route one realized scenario to the right execution engine.

    Shared by the line path of :func:`_run_once` and by variants whose
    termination predicate matches the base problem (the half-line
    variant reuses it verbatim).
    """
    mode = getattr(scenario.spec, "mode", "sync")
    if getattr(scenario.spec, "protocol", "none") == "confirmation":
        from repro.byzantine.simulate import ByzantineSearchSimulation

        timelines = None
        if mode != "sync":
            from repro.async_sched.engine import timelines_for
            from repro.async_sched.schedulers import scheduler_from_spec

            timelines = timelines_for(
                [r.effective_trajectory for r in fleet],
                scheduler_from_spec(mode),
                scenario.spec.target,
                seed=scenario.spec.seed or 0,
            )
        return ByzantineSearchSimulation(
            fleet,
            scenario.spec.target,
            fault_model=model,
            check_invariants=check_invariants,
            timelines=timelines,
        ).run()
    if mode != "sync":
        from repro.async_sched.engine import EventEngine
        from repro.async_sched.schedulers import scheduler_from_spec

        return EventEngine(
            fleet,
            scenario.spec.target,
            scheduler=scheduler_from_spec(mode),
            fault_model=model,
            seed=scenario.spec.seed or 0,
            check_invariants=check_invariants,
        ).run(with_events=check_invariants)
    simulation = SearchSimulation(
        fleet,
        scenario.spec.target,
        fault_model=model,
        check_invariants=check_invariants,
    )
    return simulation.run(with_events=check_invariants)


def _run_once(scenario: Scenario, check_invariants: bool):
    variant = getattr(scenario.spec, "variant", "line")
    if variant != "line":
        from repro.variants import variant_for

        return variant_for(variant).run(
            scenario, check_invariants=check_invariants
        )
    fleet, model = scenario.build()
    return _dispatch_engines(scenario, fleet, model, check_invariants)


def error_class_of(exc: BaseException) -> str:
    """The error label recorded on results: bare name for library errors,
    module-qualified for foreign exceptions."""
    if isinstance(exc, LineSearchError):
        return type(exc).__name__
    return f"{type(exc).__module__}.{type(exc).__name__}"


def run_campaign(
    scenarios: Iterable[Scenario],
    check_invariants: bool = True,
    retry_stochastic: bool = True,
    retry_policy=None,
    executor=None,
) -> CampaignReport:
    """Execute scenarios with per-scenario fault isolation.

    A scenario that raises — during fleet construction, fault
    assignment, simulation, or the invariant audit — is captured as a
    failed :class:`ScenarioResult` and the campaign continues.  By
    default stochastic scenarios get one retry before their failure is
    recorded; pass a :class:`~repro.robustness.executor.RetryPolicy`
    to change attempts/backoff, or a fully configured
    :class:`~repro.robustness.executor.CampaignExecutor` via
    ``executor=`` for parallel workers, watchdog timeouts, and the
    crash-safe journal.

    Examples:
        >>> report = run_campaign(chaos_scenarios([(3, 1)], [2.0], ["none"]))
        >>> report.succeeded, report.failed
        (1, 0)
    """
    from repro.robustness.executor import CampaignExecutor, RetryPolicy

    if executor is None:
        if retry_policy is None:
            retry_policy = (
                RetryPolicy() if retry_stochastic else RetryPolicy.none()
            )
        executor = CampaignExecutor(retry_policy=retry_policy)
    return executor.execute(scenarios, check_invariants=check_invariants)
