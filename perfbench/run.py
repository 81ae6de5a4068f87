"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``BENCHMARK.json`` and ``perfbench/METRICS.md``):

* ``campaign`` -- a seeded chaos grid through ``CampaignExecutor``; its
  traced run also measures the ``async_sched`` layer;
* ``served``   -- a ``linesearch serve`` subprocess and one client.

``--trace 0`` prints every end-to-end metric, measured with no
benchmark-side tracing; ``--trace 1`` is a separate run that prints every
per-layer metric.  Output checks run outside the timed region; a failed
check prints ``"correct": false`` and exits 1.  Without the program's
sources under ``src/`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for server state and telemetry, inside the checkout.
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("campaign", "served")

END_TO_END = (
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_s", "s"),
    ("scenario_tail_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("big_job_s", "s"),
    ("cached_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Fresh-interpreter starts timed per in-process run (after one untimed),
#: one after every few passes, so they span the first 77 passes.
SETUP_STARTS = 11
SETUP_EVERY = 7
#: Highest percentile for the tail of served small jobs.  Above p80 the
#: tail follows the host's slow moments more than the program: over 45 s
#: stretches of two 330 s recordings on a 2-core x86 VM, p90 of the small
#: jobs spread by 5.9% and p80 by 2.5%.
JOB_TAIL_CEILING = 80.0


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    import inprocess

    spans = inprocess.SIMULATION_SPANS + inprocess.ASYNC_SPANS
    spans += inprocess.CAMPAIGN_SPANS
    names = [(f"{name}.self_s", "s") for name in spans]
    names += [(f"campaign.attempt.{axis}_s", "s") for axis in inprocess.AXES]
    names += [
        ("robustness.journal.flush_s_per_scenario", "s"),
        ("robustness.journal.flushes_per_scenario", "count"),
        ("robustness.journal.fsyncs_per_scenario", "count"),
        ("robustness.journal.bytes_per_big_job", "bytes"),
        ("robustness.journal.big_job_share", "ratio"),
    ]
    names += [(f"async.activations.{c}", "count")
              for c in inprocess.ASYNC_CLASSES]
    names += [(f"async.class_cost.{c}_s", "s") for c in inprocess.ASYNC_CLASSES]
    names += [
        ("service.client.submit_s", "s"),
        ("service.client.polls_per_job", "count"),
        ("service.client.sleep_share", "ratio"),
        ("service.request.self_s", "s"),
        ("service.job.self_s", "s"),
        ("service.cache.hit_ratio", "ratio"),
        ("service.cache.lookups", "count"),
        ("service.repeat_job_s", "s"),
        ("setup.import_s", "s"),
        ("setup.parity_s", "s"),
        ("setup.grid_build_s", "s"),
        ("setup.samples", "count"),
        ("samples.passes", "count"),
        ("samples.scenario", "count"),
        ("samples.job", "count"),
        ("samples.big_job", "count"),
        ("samples.cached", "count"),
        ("tail.scenario.percentile", "%"),
        ("tail.scenario.beyond", "count"),
        ("tail.job.percentile", "%"),
        ("tail.job.beyond", "count"),
        ("trace.overhead", "ratio"),
        ("trace.accounted", "ratio"),
    ]
    return tuple(names)


def _fresh_start(workload: str, seed: int) -> Tuple[float, Dict]:
    """Spawn a fresh interpreter that imports the program and builds the
    workload's inputs; returns (seconds to its ready line, its report)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, os.path.join(HERE, "probe.py"),
               workload, str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          cwd=ROOT) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - started
        child.stdout.read()
        if child.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"setup probe for {workload} failed")
    return ready, json.loads(line)


class FreshStarts:
    """Timed fresh-interpreter starts, after one untimed start that warms
    bytecode and file caches.

    A run spreads them over its measurement by calling :meth:`between`
    after each unit of work: on a 2-core x86 VM the median of eleven
    back-to-back starts moved from 0.34 s to 0.46 s between 5 s batches,
    with CPU time moving alike, so starts taken together cover only one
    phase of the host's speed.
    """

    def __init__(self, workload: str, seed: int, count: int, every: int = 1):
        self.workload, self.seed = workload, seed
        self.count, self.every = count, every
        self.calls = 0
        self.samples: List[Tuple[float, Dict]] = []
        _fresh_start(workload, seed)

    def between(self) -> None:
        """Take the next start if one is due after this call."""
        self.calls += 1
        if self.calls % self.every == 0 and len(self.samples) < self.count:
            self.samples.append(_fresh_start(self.workload, self.seed))

    def finish(self) -> Tuple[List[float], List[Dict]]:
        """Take the starts still missing; returns (seconds, reports)."""
        while len(self.samples) < self.count:
            self.samples.append(_fresh_start(self.workload, self.seed))
        return [s for s, _ in self.samples], [r for _, r in self.samples]


def run_campaign(seed: int, seconds: float, trace: bool):
    import inprocess
    import stats

    starts = FreshStarts("campaign", seed, SETUP_STARTS, SETUP_EVERY)
    raw = inprocess.run(seed, seconds, trace, starts.between)
    setup, probes = starts.finish()
    per_scenario = raw["per_scenario"]
    p50 = stats.median(per_scenario)
    tail, tail_p, tail_beyond = stats.tail(per_scenario)
    passes = raw["passes"]
    metrics = {
        "scenarios_per_s": len(raw["grid"]) / raw["pass_s"],
        "scenario_p50_s": p50,
        "scenario_tail_s": tail,
        # in process a job is one scenario and a repeat is recomputed
        "job_p50_s": p50,
        "job_tail_s": tail,
        "big_job_s": raw["pass_s"],
        "cached_p50_s": p50,
        "setup_s": stats.median(setup),
        "peak_rss_mb": inprocess.vm_hwm_mb(),
    }
    layers = {}
    if trace:
        layers.update(raw["trace"])
        layers.update({
            "setup.import_s": stats.median([p["import_s"] for p in probes]),
            "setup.grid_build_s": stats.median([p["build_s"] for p in probes]),
            "setup.samples": float(len(setup)),
            "samples.passes": float(passes),
            "samples.scenario": float(len(per_scenario)),
            "samples.job": float(len(per_scenario)),
            "samples.big_job": float(passes),
            "samples.cached": float(len(per_scenario)),
            "tail.scenario.percentile": tail_p,
            "tail.scenario.beyond": float(tail_beyond),
            "tail.job.percentile": tail_p,
            "tail.job.beyond": float(tail_beyond),
        })
    notes = [
        f"setup: median of {len(setup)} fresh starts",
        f"timed: the first {passes} untraced passes of "
        f"{len(raw['grid'])} scenarios",
        f"scenario tail: p{tail_p:g} of {len(per_scenario)} per-scenario "
        f"best times, {tail_beyond} beyond",
    ]
    return raw, metrics, layers, notes


def run_served(seed: int, seconds: float, trace: bool):
    import served
    import stats

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"served-{os.getpid()}")
    os.makedirs(work)
    try:
        raw = served.run(seed, seconds, trace, SRC, work)
        probes = FreshStarts("served", seed, 3).finish()[1] if trace else []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run's files are still there
            pass
    mix = raw["mix"]
    # single-scenario submissions; in this mix the cache answers them all
    hot = mix.hot_best()
    hot_p50 = stats.median(hot)
    hot_tail, hot_p, hot_beyond = stats.tail(hot)
    job_tail, job_p, job_beyond = stats.tail(mix.small, JOB_TAIL_CEILING)
    metrics = {
        "scenarios_per_s": mix.throughput(),
        "scenario_p50_s": hot_p50,
        "scenario_tail_s": hot_tail,
        "job_p50_s": stats.median(mix.small),
        "job_tail_s": job_tail,
        "big_job_s": stats.median(mix.big),
        "cached_p50_s": hot_p50,
        "setup_s": stats.median(raw["setup"]),
        "peak_rss_mb": raw["rss"],
    }
    layers = {}
    if trace:
        layers.update(raw["trace"])
        layers.update({
            "setup.import_s": stats.median([p["import_s"] for p in probes]),
            "setup.parity_s": stats.median([p["parity_s"] for p in probes]),
            "setup.samples": float(len(raw["setup"])),
            "samples.scenario": float(len(hot)),
            "samples.job": float(len(mix.small)),
            "samples.big_job": float(len(mix.big)),
            "samples.cached": float(len(hot)),
            "tail.scenario.percentile": hot_p,
            "tail.scenario.beyond": float(hot_beyond),
            "tail.job.percentile": job_p,
            "tail.job.beyond": float(job_beyond),
        })
    notes = [
        f"setup: median of {len(raw['setup'])} fresh server starts",
        f"mix: {len(mix.big)} big, {len(mix.small)} small, "
        f"{len(mix.cached)} cached, {len(mix.repeat)} repeat jobs",
        f"job tail: p{job_p:g} of {len(mix.small)}, {job_beyond} beyond; "
        f"scenario tail: p{hot_p:g} of {len(hot)} hot scenarios' best "
        f"cache hits over {served.MIN_CYCLES} cycles, {hot_beyond} beyond",
    ]
    return raw, metrics, layers, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    if workload == "served":
        raw, metrics, layers, notes = run_served(seed, seconds, trace)
    else:
        raw, metrics, layers, notes = run_campaign(seed, seconds, trace)
    problems = list(raw["problems"])
    if raw["failed"]:
        problems.append(f"{raw['failed']} operation(s) failed")
    for line in notes:
        print(f"# {workload}: {line}")
    for line in raw.get("notes", ()):
        print(f"# {workload}: {line}")
    for problem in problems[:20]:
        print(f"# {workload}: CHECK FAILED: {problem}")
    if trace:
        units = _per_layer()
        values = {name: float(layers.get(name, 0.0)) for name, _ in units}
    else:
        units = END_TO_END
        values = {name: float(metrics[name]) for name, _ in units}
    for name, unit in units:
        print(f"# {workload}: {name} = {values[name]:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through the finally blocks that stop servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        result = results[args.workload]
    else:
        for name, one in results.items():
            print(f"# {name}: " + json.dumps(one))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, one in results.items()
                for metric, value in one["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
