"""The ``served`` workload: a ``linesearch serve`` subprocess in its
default configuration and one closed-loop ``ServiceClient``.

Each cycle sends one big fresh campaign, then small fresh campaigns,
each followed by single-scenario resubmissions of a hot set answered
from the result cache, and one repeat of an earlier small job.  Every
hot scenario is resubmitted once per cycle.  Campaign results come
back through ``ServiceClient.wait``, the documented path.  Big, small
and cache-hit latencies report medians over all their samples, which do
not depend on how many cycles fit in ``--seconds``.  Single-scenario
latency is each hot scenario's best cache hit over a fixed number of
cycles: a 1-2 ms request is short enough that its best time follows the
program's cost rather than the host's load.

With ``trace`` on, the client alternates cycles between a default
server and one started with ``--telemetry-dir``, so both halves see the
same host load; on the traced side the public client calls are wrapped
in spans of the program's own tracer.  The traced server's spans are
read back from the files its SIGTERM drain writes.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

import inprocess
import inputs
import stats

#: Fresh server starts timed per run (after one untimed start): the
#: measured server, then one after every :data:`SETUP_EVERY` cycles.
SETUP_STARTS = 7
SETUP_EVERY = 2
#: Interval between readiness probes of a starting server.
PROBE_INTERVAL = 0.001
#: Give up on a server that is not ready after this long.
START_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0
#: Cycles to run even past ``--seconds`` (about 40 s on a 2-core x86
#: VM).  Each hot scenario's best cache-hit latency is taken over exactly
#: this many cycles, so a faster program cannot earn a lower minimum from
#: more tries; and the server's peak RSS is read after them, since it
#: grows with the jobs served.
MIN_CYCLES = 20


class Server:
    """One ``linesearch serve`` process with a fresh state directory."""

    def __init__(self, src: str, work: str, name: str,
                 telemetry_dir: Optional[str] = None):
        self.state_dir = os.path.join(work, name)
        port_file = self.state_dir + ".port"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", self.state_dir,
            "--port", "0", "--port-file", port_file,
        ]
        if telemetry_dir:
            command += ["--telemetry-dir", telemetry_dir]
        env = dict(os.environ, PYTHONPATH=src)
        self._log = open(self.state_dir + ".log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            cwd=work,
        )
        try:
            self.port = self._await_ready(port_file, started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.url = f"http://127.0.0.1:{self.port}"

    def _await_ready(self, port_file: str, started: float) -> int:
        port = None
        while time.perf_counter() - started < START_TIMEOUT:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}; "
                    f"see {self._log.name}"
                )
            if port is None and os.path.exists(port_file):
                with open(port_file, encoding="utf-8") as handle:
                    port = int(handle.read())
            if port is not None and _ready(port):
                return port
            time.sleep(PROBE_INTERVAL)
        raise RuntimeError(f"server not ready after {START_TIMEOUT} s")

    def stop(self) -> None:
        """SIGTERM (a graceful drain) and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _ready(port: int) -> bool:
    """One ``/v1/readyz`` probe, without the client's 50 ms poll loop."""
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/readyz", timeout=5
        ) as response:
            return bool(json.loads(response.read()).get("ready"))
    except (urllib.error.URLError, ConnectionError, ValueError):
        return False


class Mix:
    """The closed-loop traffic of one server, with every latency and
    every answer kept for the checks."""

    def __init__(self, client, traffic: inputs.ServedTraffic,
                 hot: Optional[List[Dict]] = None):
        self.client = client
        self.traffic = traffic
        self.hot = hot or []
        self.small: List[float] = []
        self.big: List[float] = []
        self.cached: List[float] = []  # cache-hit latencies
        # one row per pass over the hot set, in hot-set order
        self.hot_rows: List[List[float]] = []
        self.repeat: List[float] = []
        self.jobs: List[tuple] = []  # (kind, job id, specs, envelope)
        self.answers: List[tuple] = []  # (spec, cached result)
        self.small_specs: List[List[Dict]] = []
        self.scenarios = 0
        self.attempted = 0
        self.failed = 0
        self.cycles: List[tuple] = []  # (seconds, scenarios answered)
        self.big_ids: List[str] = []
        # called around each big job, outside its timing (traced scrapes)
        self.before_big = None
        self.after_big = None

    def _job(self, kind: str, specs: List[Dict]) -> Optional[float]:
        from repro.service.protocol import ServiceError

        self.attempted += 1
        started = time.perf_counter()
        try:
            accepted = self.client.submit_campaign(specs)
            envelope = self.client.wait(accepted["job_id"], timeout=JOB_TIMEOUT)
        except (ServiceError, TimeoutError) as exc:
            self.failed += 1
            self.jobs.append((kind, None, specs, {"error": str(exc)}))
            return None
        latency = time.perf_counter() - started
        if envelope.get("state") != "done":
            self.failed += 1
        self.jobs.append((kind, accepted["job_id"], specs, envelope))
        self.scenarios += len(specs)
        return latency

    def _cached(self, index: int) -> None:
        from repro.service.protocol import ServiceError

        spec = self.hot[index]
        self.attempted += 1
        started = time.perf_counter()
        try:
            body = self.client.submit_scenario(spec)
        except ServiceError as exc:
            self.failed += 1
            self.answers.append((spec, {"error": str(exc)}))
            return
        latency = time.perf_counter() - started
        if not body.get("cached"):
            # a resubmission the cache failed to answer counts as failed
            self.failed += 1
            if "job_id" in body:
                self.client.wait(body["job_id"], timeout=JOB_TIMEOUT)
            self.answers.append((spec, {"error": "not answered from cache"}))
            return
        self.cached.append(latency)
        self.answers.append((spec, body["result"]))
        self.scenarios += 1

    def cycle(self) -> None:
        traffic = self.traffic
        if self.before_big is not None:
            self.before_big()
        scenarios = self.scenarios
        started = time.perf_counter()
        latency = self._job("big", traffic.big_specs())
        if latency is not None:
            self.big.append(latency)
            self.big_ids.append(self.jobs[-1][1])
        if self.after_big is not None:
            paused = time.perf_counter()
            self.after_big()
            started += time.perf_counter() - paused
        hot = itertools.chain.from_iterable(
            range(len(self.hot)) for _ in range(inputs.HOT_REPEATS)
        )
        first_hit = len(self.cached)
        for _ in range(inputs.SMALL_PER_CYCLE):
            specs = traffic.small_specs()
            latency = self._job("small", specs)
            if latency is not None:
                self.small.append(latency)
                self.small_specs.append(specs)
            for index in itertools.islice(hot, inputs.HOT_PER_SMALL):
                self._cached(index)
        if self.hot:
            hits, size = self.cached[first_hit:], len(self.hot)
            self.hot_rows += [hits[i:i + size]
                              for i in range(0, len(hits), size)]
        recent = self.small_specs[-inputs.SMALL_PER_CYCLE:]
        specs = recent[traffic.rng.randrange(len(recent))]
        latency = self._job("repeat", specs)
        if latency is not None:
            self.repeat.append(latency)
        self.cycles.append(
            (time.perf_counter() - started, self.scenarios - scenarios)
        )

    def answered(self) -> List[Dict]:
        """Specs of every job this mix completed."""
        return [spec for _, job_id, specs, _ in self.jobs if job_id
                for spec in specs]

    def hot_best(self) -> List[float]:
        """Each hot scenario's best cache-hit latency over the first
        :data:`MIN_CYCLES` cycles."""
        return stats.column_minima(
            self.hot_rows[:MIN_CYCLES * inputs.HOT_REPEATS]
        )

    def throughput(self) -> float:
        """Scenarios answered per second over every cycle."""
        return sum(n for _, n in self.cycles) / sum(t for t, _ in self.cycles)


def check(*mixes: Mix) -> List[str]:
    """Served results equal an in-process ``run_campaign`` of the same
    specs; cached answers equal the first computed result.  Pass every
    mix that shared one server and one traffic stream, in order."""
    from repro.robustness import (
        ScenarioSpec, build_scenario, run_campaign, scenario_key,
    )

    problems = []
    computed: Dict[str, Dict] = {}
    jobs = [job for mix in mixes for job in mix.jobs]
    answers = [answer for mix in mixes for answer in mix.answers]
    for kind, job_id, specs, envelope in jobs:
        if "report" not in envelope:
            problems.append(f"{kind} job {job_id}: {envelope}")
            continue
        served = envelope["report"]["results"]
        if kind == "repeat":
            expected = [
                computed.get(scenario_key(ScenarioSpec.from_dict(s)))
                for s in specs
            ]
        else:
            local = run_campaign(
                [build_scenario(ScenarioSpec.from_dict(s)) for s in specs]
            )
            expected = json.loads(json.dumps(local.to_dict()))["results"]
        if served != expected:
            problems.append(f"{kind} job {job_id} differs from in-process run")
        for result in served:
            if not result["ok"]:
                problems.append(f"{kind} job {job_id}: scenario failed")
            key = scenario_key(ScenarioSpec.from_dict(result["spec"]))
            computed.setdefault(key, result)
    for spec, answer in answers:
        key = scenario_key(ScenarioSpec.from_dict(spec))
        if answer != computed.get(key):
            problems.append(f"cached answer for {spec} differs: {answer}")
    return problems


def _metric_sums(client) -> Dict[str, float]:
    """The journal counters of the live server, from ``/v1/metrics``."""
    from repro.observability.export import parse_prometheus

    families = parse_prometheus(client.metrics())
    out = {"flush_s": 0.0, "flushes": 0.0, "fsyncs": 0.0}
    for name, _, value in families["journal_flush_seconds"]["samples"]:
        if name == "journal_flush_seconds_sum":
            out["flush_s"] += value
    for _, labels, value in families["journal_flushes_total"]["samples"]:
        out["flushes"] += value
        if labels.get("fsync") == "True":
            out["fsyncs"] += value
    return out


def journal_bytes(path: str) -> int:
    """Bytes a journal's flushes wrote: each record rewrites the header
    and every entry so far, after one header-only flush at open."""
    with open(path, "rb") as handle:
        lines = [len(line) for line in handle]
    header, entries = lines[0], lines[1:]
    total = header
    prefix = header
    for size in entries:
        prefix += size
        total += prefix
    return total


def _timed_start(src: str, work: str, index: int) -> float:
    """Seconds from spawn to ready of one fresh server, then stopped."""
    server = Server(src, work, f"state-{index}")
    server.stop()
    return server.setup_s


def run(seed: int, seconds: float, trace: bool, src: str, work: str) -> Dict:
    from repro.service.client import ServiceClient

    Server(src, work, "warm").stop()
    server = Server(src, work, "state-0")
    setup = [server.setup_s]
    traffic = inputs.ServedTraffic(seed)
    traced = None
    try:
        client = ServiceClient(server.url, timeout=JOB_TIMEOUT)
        # untimed warm-up: lazy imports in the worker, first cache entries
        warm = Mix(client, traffic)
        warm.cycle()
        mix = Mix(client, traffic, traffic.hot_set(warm.answered()))
        if trace:
            traced = _TracedSide(seed, src, work)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(mix.cycles) < MIN_CYCLES:
            mix.cycle()
            if len(mix.cycles) == MIN_CYCLES:
                rss = inprocess.vm_hwm_mb(server.proc.pid)
            if traced is not None:
                # alternate cycles, so both servers see the same host load
                traced.cycle()
            # the other timed starts are spread over the run, between cycles
            if len(mix.cycles) % SETUP_EVERY == 0 and len(setup) < SETUP_STARTS:
                setup.append(_timed_start(src, work, len(setup)))
        while len(setup) < SETUP_STARTS:
            setup.append(_timed_start(src, work, len(setup)))
        if traced is not None:
            traced.cache_stats = traced.client.ready()["cache"]
    finally:
        server.stop()
        if traced is not None:
            traced.server.stop()
    out = {
        "setup": setup,
        "mix": mix,
        "rss": rss,
        "problems": check(warm, mix),
        "attempted": warm.attempted + mix.attempted,
        "failed": warm.failed + mix.failed,
    }
    if trace:
        layers = traced.layers(mix)
        out["notes"] = layers.pop("notes")
        out["problems"] += check(traced.warm, traced.mix)
        out["attempted"] += traced.warm.attempted + traced.mix.attempted
        out["failed"] += traced.warm.failed + traced.mix.failed
        out["trace"] = layers
    return out


class _TracedSide:
    """The traced half of a traced run: a server started with
    ``--telemetry-dir`` and a client whose public calls are wrapped in
    spans of the program's tracer."""

    def __init__(self, seed: int, src: str, work: str):
        from repro.observability import instrument as obs
        from repro.service.client import ServiceClient

        self.obs = obs
        self.telemetry = obs.Telemetry()
        self.telemetry_dir = os.path.join(work, "telemetry")
        self.server = Server(src, work, "traced", self.telemetry_dir)
        self.journal: List[Dict[str, float]] = []
        client = ServiceClient(self.server.url, timeout=JOB_TIMEOUT)
        for method in ("submit_campaign", "submit_scenario", "poll", "result",
                       "wait"):
            setattr(client, method, _spanned(obs, method, getattr(client, method)))
        self.client = client
        traffic = inputs.ServedTraffic(seed + 1)
        self.warm = Mix(client, traffic)
        self.warm.cycle()
        self.mix = Mix(client, traffic, traffic.hot_set(self.warm.answered()))
        scrape = lambda: self.journal.append(_metric_sums(client))  # noqa: E731
        self.mix.before_big = self.mix.after_big = scrape

    def cycle(self) -> None:
        previous = self.obs.configure(self.telemetry)
        try:
            self.mix.cycle()
        finally:
            self.obs.configure(previous)

    def layers(self, untraced: Mix) -> Dict:
        """Per-layer numbers, read after the server's drain wrote its trace."""
        from repro.observability.export import read_trace_jsonl

        _, server_records = read_trace_jsonl(
            os.path.join(self.telemetry_dir, "trace.jsonl")
        )
        return _served_layers(
            self.mix, untraced, self.telemetry.tracer.records(),
            server_records, self.journal, self.server.state_dir,
            self.cache_stats,
        )


def _spanned(obs, name, call):
    """Wrap a client method in a ``bench.<name>`` span that records the
    job id it was called with, or the one its reply names."""
    def wrapper(*args, **kwargs):
        with obs.span(f"bench.{name}") as span:
            reply = call(*args, **kwargs)
            if args and isinstance(args[0], str):
                span.set(job_id=args[0])
            elif isinstance(reply, dict) and "job_id" in reply:
                span.set(job_id=reply["job_id"])
            return reply

    return wrapper


def _by_job(records, name) -> Dict[str, object]:
    """The ``bench.<name>`` span of each job id."""
    return {
        r.attributes["job_id"]: r for r in records
        if r.name == f"bench.{name}" and "job_id" in r.attributes
    }


def _served_layers(mix, untraced, client_records, server_records, journal,
                   state_dir, cache_stats) -> Dict:
    # Client side: the blocking path of each small job is its submit and
    # its wait, which is poll and result requests with a sleep of the
    # client's poll interval after every poll that finds the job live.
    from repro.service.client import ServiceClient

    interval = inspect.signature(ServiceClient.wait).parameters[
        "poll_interval"
    ].default
    submits = _by_job(client_records, "submit_campaign")
    waits = _by_job(client_records, "wait")
    # (submit s, polls, wait time outside requests, latency, accounted s)
    small_parts = []
    for kind, job_id, _, _ in mix.jobs:
        if kind != "small" or job_id not in waits:
            continue
        submit, wait = submits[job_id], waits[job_id]
        inside = [
            r for r in stats.subtree(client_records, [wait.span_id])
            if r is not wait
        ]
        requests = sum(r.duration for r in inside)
        polls = sum(1 for r in inside if r.name == "bench.poll")
        latency = submit.duration + wait.duration
        small_parts.append((
            submit.duration, polls, wait.duration - requests, latency,
            submit.duration + requests + (polls - 1) * interval,
        ))
    # What the spans and the client's nominal sleeps explain; oversleep
    # and the client's own bookkeeping are the gap.
    accounted = stats.median([p[4] for p in small_parts])
    untraced_p50 = stats.median(untraced.small)
    layers = {
        "service.client.submit_s": stats.median([p[0] for p in small_parts]),
        "service.client.polls_per_job": sum(p[1] for p in small_parts)
        / len(small_parts),
        "service.client.sleep_share": stats.median(
            [p[2] / p[3] for p in small_parts]
        ),
        "service.repeat_job_s": stats.median(untraced.repeat),
        "service.cache.hit_ratio": cache_stats["hits"]
        / (cache_stats["hits"] + cache_stats["misses"]),
        "service.cache.lookups": float(
            cache_stats["hits"] + cache_stats["misses"]
        ),
        "trace.overhead": untraced.throughput() / mix.throughput(),
        "trace.accounted": accounted / untraced_p50,
    }
    # every served spec is a plain line scenario
    layers.update(inprocess.engine_layers(server_records, lambda span: "line"))
    server_self = stats.self_times(server_records)
    for name in ("service.request", "service.job"):
        calls, total = server_self.get(name, (0, 0.0))
        layers[f"{name}.self_s"] = total / calls if calls else 0.0
    # Journal share of a big job: flush seconds between the scrapes that
    # bracket it, against its latency.
    deltas = [
        {k: after[k] - before[k] for k in before}
        for before, after in zip(journal[0::2], journal[1::2])
    ]
    shares = [d["flush_s"] / t for d, t in zip(deltas, mix.big)]
    layers["robustness.journal.big_job_share"] = stats.median(shares)
    layers["robustness.journal.flush_s_per_scenario"] = sum(
        d["flush_s"] for d in deltas
    ) / (inputs.BIG_JOB * len(deltas))
    layers["robustness.journal.flushes_per_scenario"] = sum(
        d["flushes"] for d in deltas
    ) / (inputs.BIG_JOB * len(deltas))
    layers["robustness.journal.fsyncs_per_scenario"] = sum(
        d["fsyncs"] for d in deltas
    ) / (inputs.BIG_JOB * len(deltas))
    layers["robustness.journal.bytes_per_big_job"] = stats.median(
        [
            float(journal_bytes(os.path.join(state_dir, f"{job}.journal.jsonl")))
            for job in mix.big_ids
        ]
    )
    layers["notes"] = inprocess.accounting(
        accounted, untraced_p50, stats.median([p[3] for p in small_parts]),
        "small job",
    )
    return layers
