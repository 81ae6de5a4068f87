"""The in-process workload, ``campaign``, and the ``async_sched`` layer.

Both grids run through ``CampaignExecutor(jobs=1)`` with invariant
audits on and no journal, in repeated identical passes.  Throughput
comes from whole passes: the executor's public ``on_result`` hook stamps
every scenario's completion, so a pass splits into per-scenario times
that sum to it.  Each scenario reports its best time over a fixed number
of passes, :data:`CAMPAIGN_PASSES`, and a pass costs the sum of those.
On a shared host the speed of the same pass drifts by a third within
a minute (0.29-0.48 s for ``campaign`` on a 2-core x86 VM, with CPU time
equal to wall time), so the median pass follows the host; each
scenario's best time follows the program's own cost, as long as
scenarios are short: ``campaign``'s take 0.3 ms.  The count of passes is
fixed, not set by how many fit in ``--seconds``, because the best of
more samples is lower: a faster program must not earn a lower minimum.
Passes past that count, up to ``--seconds``, are checked but not timed.

With ``trace`` on, untraced and traced passes alternate, so the tracing
overhead is measured against passes from the same minutes, and the
per-layer self times come from the program's own spans.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List

import inputs
import stats

#: Untraced ``campaign`` passes behind every timing, run even when they
#: outlast ``--seconds``: about 32 s on a 2-core x86 VM.
CAMPAIGN_PASSES = 80
#: Untraced passes of the async grid in a traced ``campaign`` run (about
#: 1.2 s each).
ASYNC_PASSES = 4
#: Stated tolerance between the traced blocking-path self times and the
#: untraced time they account for, as a share of the untraced time.  It
#: covers the program's own enabled-tracing cost: on ``campaign``, where
#: every 0.4 ms scenario opens about 8 spans, the program's spans cover
#: all but 0.1% of a traced pass, and a traced pass takes 1.21-1.30x an
#: untraced one on a 2-core x86 VM.  A run outside it prints a warning
#: rather than failing, since that cost is the program's, not an output.
ACCOUNTING_TOLERANCE = 0.35

SIMULATION_SPANS = (
    "simulation.run", "simulation.adversary", "simulation.trajectories",
    "simulation.visits", "simulation.events", "simulation.invariants",
)
ASYNC_SPANS = (
    "async.run", "async.timelines", "async.adversary", "async.events",
    "async.invariants",
)
CAMPAIGN_SPANS = ("campaign.scenario", "campaign.attempt")
AXES = ("line", "confirmation", "evacuation", "halfline")


def class_name(kind: str, magnitude: float) -> str:
    return f"{kind}.x{magnitude:.0f}"


ASYNC_CLASSES = tuple(
    class_name(kind, m)
    for kind in inputs.ASYNC_KINDS
    for m in inputs.ASYNC_MAGNITUDES
)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _timed_pass(executor, grid, on_result=None):
    """Run one pass; returns ``(report, pass seconds, per-scenario seconds)``."""
    stamps = [0.0] * len(grid)

    def record(index, result):
        stamps[index] = time.perf_counter()
        if on_result is not None:
            on_result(index, result)

    started = time.perf_counter()
    report = executor.execute(grid, check_invariants=True, on_result=record)
    elapsed = time.perf_counter() - started
    previous = [started] + stamps[:-1]
    return report, elapsed, [b - a for a, b in zip(previous, stamps)]


def check_campaign(grid, report) -> List[str]:
    """Every scenario ok; Theorem 1 bounds every line, first-detection ratio."""
    from repro.core.competitive_ratio import algorithm_competitive_ratio

    problems = []
    for scenario, result in zip(grid, report.results):
        spec = scenario.spec
        if not result.ok:
            problems.append(f"failed: {result.describe()}")
        elif (
            inputs.axis_of(spec) == "line"
            and result.competitive_ratio is not None
            and result.competitive_ratio
            > algorithm_competitive_ratio(spec.n, spec.f) * (1 + 1e-12)
        ):
            problems.append(
                f"ratio {result.competitive_ratio!r} above Theorem 1 "
                f"bound: {spec.describe()}"
            )
    return problems


def check_async(grid, report) -> List[str]:
    """FSYNC detection times equal the sync engine's bit for bit; every
    other scheduler detects no earlier than the sync engine."""
    from repro.robustness import build_scenario, run_campaign

    sync = run_campaign(
        [build_scenario(dataclasses.replace(s.spec, mode="sync"))
         for s in grid]
    )
    problems = []
    for scenario, result, base in zip(grid, report.results, sync.results):
        kind, _ = inputs.async_class(scenario.spec)
        if not (result.ok and base.ok):
            problems.append(f"failed: {result.describe()}")
        elif kind == "fsync":
            if result.detection_time.hex() != base.detection_time.hex():
                problems.append(
                    f"fsync {result.detection_time!r} != sync "
                    f"{base.detection_time!r}: {scenario.spec.describe()}"
                )
        elif result.detection_time < base.detection_time:
            problems.append(
                f"{kind} detected at {result.detection_time!r}, before "
                f"sync {base.detection_time!r}: {scenario.spec.describe()}"
            )
    return problems


def run(seed: int, seconds: float, trace: bool, between=None) -> Dict:
    """Run ``campaign``; returns the raw measurements.  ``between`` is
    called after every ``campaign`` pass, outside its timing.

    A traced run then measures the ``async_sched`` layer on the
    ``async_scale`` grid, for :data:`ASYNC_PASSES`: its scenarios take
    4-540 ms each and their best times moved by about 30% between runs
    on a shared host, too much for an end-to-end metric, so that layer is
    reported per layer only and ``campaign`` stays its bypass.
    """
    out = measure(
        inputs.campaign_grid(seed), check_campaign, CAMPAIGN_PASSES, seconds,
        trace, between,
    )
    if trace:
        grid = inputs.async_grid(seed)
        side = measure(grid, check_async, ASYNC_PASSES, 0.0, trace)
        out["problems"] += side["problems"]
        out["notes"] += [f"async grid {line}" for line in side["notes"]]
        out["attempted"] += side["attempted"]
        out["failed"] += side["failed"]
        out["trace"].update(
            {k: v for k, v in side["trace"].items() if k.startswith("async.")}
        )
        for key, cost in stats.per_class_medians(
            (inputs.async_class(s.spec), t)
            for s, t in zip(grid, side["per_scenario"])
        ).items():
            out["trace"][f"async.class_cost.{class_name(*key)}_s"] = cost
    return out


def measure(grid, check, timed: int, seconds: float, trace: bool,
            between=None) -> Dict:
    """Run identical passes over ``grid`` for ``seconds`` and at least
    ``timed`` untraced ones, traced and untraced passes alternating when
    ``trace`` is set.  Timings come from the first ``timed`` passes of
    each kind; every pass is checked."""
    from repro.observability import instrument as obs
    from repro.robustness import CampaignExecutor

    executor = CampaignExecutor(jobs=1)
    # One untimed pass fills lazy imports and caches; its results are the
    # reference every timed pass must reproduce.
    reference = executor.execute(grid, check_invariants=True)
    problems = check(grid, reference)
    expected = [r.to_dict() for r in reference.results]

    telemetry = obs.Telemetry() if trace else None
    activations: List[List[float]] = []  # per traced pass, per scenario
    # (pass seconds, per-scenario seconds) of untraced and traced passes
    passes: Dict[bool, List] = {False: [], True: []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes[False]) < timed:
        traced = (
            trace
            and len(passes[True]) < timed
            and len(passes[False]) > len(passes[True])
        )
        if traced:
            counter = telemetry.metrics.counter("async_activations_total")
            last = [counter.value()]
            activations.append([0.0] * len(grid))

            def on_result(index, _result):
                value = counter.value()
                activations[-1][index] = value - last[0]
                last[0] = value

            previous = obs.configure(telemetry)
            try:
                with obs.span("bench.pass"):
                    report, elapsed, per_scenario = _timed_pass(
                        executor, grid, on_result
                    )
            finally:
                obs.configure(previous)
        else:
            report, elapsed, per_scenario = _timed_pass(executor, grid)
        passes[traced].append((elapsed, per_scenario))
        attempted += len(grid)
        failed += report.failed
        if [r.to_dict() for r in report.results] != expected:
            problems.append("a pass's results differ from the first pass")
        if between is not None:
            between()

    passes = {traced: runs[:timed] for traced, runs in passes.items()}
    per_scenario = stats.column_minima([p for _, p in passes[False]])
    out = {
        "grid": grid,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": timed,
        "pass_s": sum(per_scenario),
        "per_scenario": per_scenario,
        "notes": [],
    }
    if trace:
        if any(a != activations[0] for a in activations):
            problems.append("activation counts differ between passes")
        out["trace"] = _layers(grid, telemetry, passes, activations[0])
        out["notes"] = out["trace"].pop("notes")
    return out


def engine_layers(records, axis_of) -> Dict[str, float]:
    """Engine and executor self time per scenario, and the median
    ``campaign.attempt`` time on each axis; ``axis_of`` maps a
    ``campaign.scenario`` span to its axis."""
    self_s = stats.self_times(records)
    scenario_spans = {
        r.span_id: r for r in records if r.name == "campaign.scenario"
    }
    count = max(1, len(scenario_spans))
    layers = {
        f"{name}.self_s": self_s.get(name, (0, 0.0))[1] / count
        for name in SIMULATION_SPANS + ASYNC_SPANS + CAMPAIGN_SPANS
    }
    # each attempt's parent is the campaign.scenario span it belongs to
    by_axis: Dict[str, List[float]] = {axis: [] for axis in AXES}
    for r in records:
        if r.name == "campaign.attempt":
            by_axis[axis_of(scenario_spans[r.parent_id])].append(r.duration)
    for axis, durations in by_axis.items():
        layers[f"campaign.attempt.{axis}_s"] = (
            stats.median(durations) if durations else 0.0
        )
    return layers


def _layers(grid, telemetry, passes, activations):
    """Per-layer numbers of a traced in-process run."""
    records = telemetry.tracer.records()
    layers = engine_layers(
        records,
        lambda span: inputs.axis_of(grid[span.attributes["index"]].spec),
    )
    if grid[0].spec.mode != "sync":
        per_class = stats.per_class_medians(
            (inputs.async_class(s.spec), a) for s, a in zip(grid, activations)
        )
        for key, value in per_class.items():
            layers[f"async.activations.{class_name(*key)}"] = value
    best = {
        traced: sum(stats.column_minima([p for _, p in runs]))
        for traced, runs in passes.items()
    }
    layers["trace.overhead"] = best[True] / best[False]
    # The program's spans under each pass, without the benchmark's own
    # root: executor time outside every span is the gap they leave.
    # Passes alternate, so mean traced and untraced passes saw the same
    # host load.
    roots, inside = stats.covered(records, "bench.pass")
    blocking = inside / roots
    untraced, traced = (
        sum(t for t, _ in passes[kind]) / len(passes[kind])
        for kind in (False, True)
    )
    layers["trace.accounted"] = blocking / untraced
    layers["notes"] = accounting(blocking, untraced, traced, "pass")
    return layers


def accounting(blocking: float, untraced: float, traced: float, unit: str):
    """Report lines on how far the blocking-path self times account for
    the untraced time, with a warning outside
    :data:`ACCOUNTING_TOLERANCE`."""
    lines = [
        f"accounting: blocking-path spans cover {blocking:.4f} s per {unit}, "
        f"{blocking / untraced:.3f} of the untraced {untraced:.4f} s "
        f"({traced:.4f} s traced)"
    ]
    if abs(blocking - untraced) > ACCOUNTING_TOLERANCE * untraced:
        lines.append(
            f"WARNING: blocking-path spans miss the untraced time by more "
            f"than {ACCOUNTING_TOLERANCE:.0%}"
        )
    return lines
