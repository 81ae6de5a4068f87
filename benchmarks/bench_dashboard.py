"""Dashboard overhead benchmarks: attaching must stay near-free.

The dashboard promises that watching a campaign does not meaningfully
slow it down: an attached browser costs the service one streamer
sample (metrics delta + span-table refresh) plus at most one state
rebuild per stream interval.  Timing an attached-vs-unattached
campaign head to head drowns in scheduler noise at this scale, so —
like ``bench_telemetry.py`` — the factors are measured separately:
the steady-state cost of one sample and one state build (best-of
repeats), divided by the stream interval, bounds the wall-time
fraction an attached dashboard can add.  The end-to-end path is pinned
to the correctness contract instead: a campaign served while an SSE
consumer follows it produces the exact report of an unwatched one.

Runs standalone (no pytest plugins required)::

    PYTHONPATH=src python benchmarks/bench_dashboard.py

or as plain pytest tests (``pytest benchmarks/bench_dashboard.py``).
"""

import json
import os
import shutil
import tempfile
import threading
import time
import timeit

from repro.observability import instrument as obs
from repro.observability.instrument import Telemetry
from repro.robustness import CampaignExecutor, chaos_scenarios

#: The serving default for ``/v1/dashboard/stream`` — one sample plus
#: (at most) one client-driven state rebuild per this many seconds.
STREAM_INTERVAL = 0.25

#: The pledge: an attached dashboard adds less than this fraction to
#: campaign wall time.
_OVERHEAD_BUDGET = 0.02

OUTPUT = os.path.join(
    os.path.dirname(__file__), "BENCH_dashboard_overhead.json"
)

PAYLOAD = {
    "pairs": [[3, 1], [4, 2]],
    "targets": [1.0, -1.5, 2.5, -4.0],
    "faults": ["none", "crash_stop"],
    "seed": 2026,
}


def _grid():
    return chaos_scenarios(
        pairs=[tuple(p) for p in PAYLOAD["pairs"]],
        targets=PAYLOAD["targets"],
        faults=tuple(PAYLOAD["faults"]),
        seed=PAYLOAD["seed"],
    )


def _campaign_telemetry():
    """A telemetry populated by one campaign — the dashboard's input."""
    telemetry = Telemetry()
    previous = obs.configure(telemetry)
    try:
        report = CampaignExecutor(
            jobs=1, handle_sigterm=False
        ).execute(_grid())
    finally:
        obs.configure(previous)
    assert report.failed == 0
    return telemetry


def bench_sample_cost(telemetry, loops=200, repeat=5):
    """Steady-state seconds for one streamer sample, best of ``repeat``."""
    from repro.dashboard.stream import DashboardStreamer

    streamer = DashboardStreamer(
        metrics=telemetry.metrics,
        spans=telemetry.tracer.records,
        jobs=lambda: {"queue_depth": 0, "states": {}},
        interval=0.01,
    )
    streamer.sample()  # the first sample pays the full snapshot; skip it
    return min(
        timeit.repeat(
            streamer.sample, repeat=repeat, number=loops
        )
    ) / loops


def bench_state_build_cost(telemetry, loops=20, repeat=5):
    """Seconds for one canonical state build + serialization, best-of."""
    from repro.dashboard.state import state_from_telemetry

    return min(
        timeit.repeat(
            lambda: state_from_telemetry(telemetry).to_json(),
            repeat=repeat,
            number=loops,
        )
    ) / loops


def bench_campaign_seconds(runs=3):
    """Wall seconds for the grid on a bare executor, best of ``runs``."""
    samples = []
    for _ in range(runs):
        scenarios = _grid()
        start = time.perf_counter()
        report = CampaignExecutor(
            jobs=1, handle_sigterm=False
        ).execute(scenarios)
        samples.append(time.perf_counter() - start)
        assert report.failed == 0
    return min(samples)


def bench_watched_campaign_equivalence(state_dir):
    """A watched served campaign reports identically to an unwatched one."""
    from repro.service import LineSearchService, ServiceClient, ServiceConfig

    control = CampaignExecutor(handle_sigterm=False).execute(_grid())

    service = LineSearchService(
        ServiceConfig(state_dir=state_dir)
    ).start()
    try:
        client = ServiceClient(service.address, client_id="bench")
        client.wait_ready(timeout=10.0)
        frames = []
        watcher = threading.Thread(
            target=lambda: frames.extend(
                client.dashboard_stream(until_idle=True, timeout=60.0)
            )
        )
        watcher.start()
        accepted = client.submit_campaign(**PAYLOAD)
        envelope = client.wait(accepted["job_id"], timeout=120.0)
        watcher.join(timeout=60.0)
        assert not watcher.is_alive(), "dashboard stream never closed"
        assert envelope["state"] == "done"
        # watching must never perturb results: same grid, same report
        assert envelope["report"] == control.to_dict()
        assert frames and frames[-1]["event"] == "done"
    finally:
        service.stop()
    return len(frames)


def test_bench_attached_overhead_under_two_percent():
    telemetry = _campaign_telemetry()
    sample_cost = bench_sample_cost(telemetry)
    state_cost = bench_state_build_cost(telemetry)
    overhead = (sample_cost + state_cost) / STREAM_INTERVAL
    assert overhead < _OVERHEAD_BUDGET, (
        f"attached dashboard costs {overhead:.2%} of campaign wall time "
        f"({sample_cost * 1e6:.0f}us/sample + {state_cost * 1e6:.0f}us/"
        f"state build per {STREAM_INTERVAL}s interval); "
        f"budget is {_OVERHEAD_BUDGET:.0%}"
    )


def test_bench_watched_campaign_report_identical(tmp_path):
    assert bench_watched_campaign_equivalence(str(tmp_path)) >= 2


def main():
    telemetry = _campaign_telemetry()
    sample_cost = bench_sample_cost(telemetry)
    state_cost = bench_state_build_cost(telemetry)
    campaign_s = bench_campaign_seconds()
    overhead = (sample_cost + state_cost) / STREAM_INTERVAL

    root = tempfile.mkdtemp(prefix="bench-dashboard-")
    try:
        frames = bench_watched_campaign_equivalence(
            os.path.join(root, "watched")
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    record = {
        "format": "linesearch-bench-dashboard",
        "version": 1,
        "stream_interval_seconds": STREAM_INTERVAL,
        "sample_cost_seconds": round(sample_cost, 7),
        "state_build_seconds": round(state_cost, 7),
        "campaign_seconds": round(campaign_s, 4),
        "overhead_fraction": round(overhead, 5),
        "overhead_budget": _OVERHEAD_BUDGET,
        "watched_stream_frames": frames,
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"streamer sample : {sample_cost * 1e6:8.1f} us")
    print(f"state build     : {state_cost * 1e6:8.1f} us")
    print(f"campaign (bare) : {campaign_s * 1000:8.1f} ms")
    print(f"attached cost   : {overhead:8.2%} of wall time "
          f"(budget {_OVERHEAD_BUDGET:.0%})")
    print(f"watched frames  : {frames:8d}")
    print(f"wrote {OUTPUT}")
    assert overhead < _OVERHEAD_BUDGET, (
        f"attached dashboard too expensive: {overhead:.2%}"
    )


if __name__ == "__main__":
    main()
