"""Service-layer benchmarks: wire overhead, cache hits, recovery time.

Times three things the serving layer promises to keep cheap:

* **campaign overhead** — a seeded grid through the full HTTP
  submit/poll/fetch path vs the same grid on a bare
  ``CampaignExecutor`` (the service tax: parsing, queueing, journal,
  report envelope);
* **cached requests** — single-scenario submissions answered from the
  result cache, in requests/second (no job, no queue slot, no
  recomputation);
* **restart recovery** — how long a fresh server takes to replay a
  manifest, warm its cache from the journals, and answer ready.

Runs standalone (no pytest plugins required)::

    PYTHONPATH=src python benchmarks/bench_service.py

or as plain pytest tests (``pytest benchmarks/bench_service.py``);
timings use ``time.perf_counter`` so the file works in the bare CI
venv where ``pytest-benchmark`` is absent.
"""

import json
import os
import shutil
import tempfile
import time

from repro.robustness import CampaignExecutor
from repro.robustness.campaign import build_scenario
from repro.service import (
    LineSearchService,
    ServiceClient,
    ServiceConfig,
    parse_submission,
)

#: Floor for the cache fast path; localhost HTTP costs ~1 ms/request,
#: so even noisy CI machines clear this comfortably.
MIN_CACHED_RPS = 50.0

OUTPUT = os.path.join(os.path.dirname(__file__), "BENCH_service.json")

PAYLOAD = {
    "pairs": [[3, 1], [4, 2]],
    "targets": [1.0, -1.5, 2.5, -4.0],
    "faults": ["none", "crash_stop"],
    "seed": 2026,
}


def _service(state_dir):
    service = LineSearchService(
        ServiceConfig(state_dir=state_dir)
    ).start()
    client = ServiceClient(service.address, client_id="bench")
    client.wait_ready(timeout=10.0)
    return service, client


def bench_campaign_overhead(state_dir):
    """(direct seconds, served seconds) for the same seeded grid."""
    submission = parse_submission(PAYLOAD)
    scenarios = [build_scenario(s) for s in submission.specs]
    start = time.perf_counter()
    direct = CampaignExecutor(handle_sigterm=False).execute(scenarios)
    direct_s = time.perf_counter() - start
    assert direct.failed == 0

    service, client = _service(state_dir)
    try:
        start = time.perf_counter()
        accepted = client.submit_campaign(**PAYLOAD)
        envelope = client.wait(accepted["job_id"], timeout=120.0)
        served_s = time.perf_counter() - start
        assert envelope["state"] == "done"
        assert envelope["report"] == direct.to_dict()
    finally:
        service.stop()
    return direct_s, served_s


def bench_cached_requests(state_dir, requests=200):
    """Requests/second for cache-hit single-scenario submissions."""
    service, client = _service(state_dir)
    try:
        spec = {"n": 3, "f": 1, "target": 2.0, "seed": 9}
        first = client.submit_scenario(spec)
        client.wait(first["job_id"], timeout=30.0)
        start = time.perf_counter()
        for _ in range(requests):
            body = client.submit_scenario(spec)
            assert body["cached"]
        elapsed = time.perf_counter() - start
        assert service.cache.stats()["hits"] >= requests
    finally:
        service.stop()
    return requests / elapsed


def bench_restart_recovery(state_dir):
    """Seconds for a restart to recover state and answer ready."""
    service, client = _service(state_dir)
    accepted = client.submit_campaign(**PAYLOAD)
    client.wait(accepted["job_id"], timeout=120.0)
    service.drain(timeout=30.0)

    start = time.perf_counter()
    revived = LineSearchService(
        ServiceConfig(state_dir=state_dir)
    ).start()
    try:
        client = ServiceClient(revived.address, client_id="bench")
        client.wait_ready(timeout=30.0)
        elapsed = time.perf_counter() - start
        # recovery actually recovered: the old job is still servable
        assert client.result(accepted["job_id"])["state"] == "done"
        assert revived.cache.stats()["entries"] > 0
    finally:
        revived.stop()
    return elapsed


def test_bench_cached_requests_clear_floor(tmp_path):
    assert bench_cached_requests(str(tmp_path), requests=50) > MIN_CACHED_RPS


def test_bench_campaign_overhead_report_identical(tmp_path):
    direct_s, served_s = bench_campaign_overhead(str(tmp_path))
    assert direct_s > 0 and served_s > 0


def test_bench_restart_recovery_is_quick(tmp_path):
    assert bench_restart_recovery(str(tmp_path)) < 30.0


def main():
    root = tempfile.mkdtemp(prefix="bench-service-")
    try:
        direct_s, served_s = bench_campaign_overhead(
            os.path.join(root, "overhead")
        )
        rps = bench_cached_requests(os.path.join(root, "cached"))
        recovery_s = bench_restart_recovery(os.path.join(root, "restart"))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    record = {
        "format": "linesearch-bench-service",
        "version": 1,
        "campaign_direct_seconds": round(direct_s, 4),
        "campaign_served_seconds": round(served_s, 4),
        "service_overhead_seconds": round(served_s - direct_s, 4),
        "cached_requests_per_second": round(rps, 1),
        "restart_recovery_seconds": round(recovery_s, 4),
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"campaign direct : {direct_s * 1000:8.1f} ms")
    print(f"campaign served : {served_s * 1000:8.1f} ms "
          f"(+{(served_s - direct_s) * 1000:.1f} ms service tax)")
    print(f"cached requests : {rps:8.1f} req/s "
          f"(floor {MIN_CACHED_RPS:.0f})")
    print(f"restart recovery: {recovery_s * 1000:8.1f} ms")
    print(f"wrote {OUTPUT}")
    assert rps > MIN_CACHED_RPS, (
        f"cached fast path too slow: {rps:.1f} req/s"
    )


if __name__ == "__main__":
    main()
