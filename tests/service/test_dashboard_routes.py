"""The dashboard routes and stream robustness on a live service.

Covers the three new endpoints (``/v1/dashboard``, ``.../state``,
``.../stream``), the observability gauges they surface, and — the part
that historically breaks streaming servers — a client disconnecting
mid-stream from ``/v1/jobs/<id>/events``: the handler thread must die
quietly while the job, the workers, and every other route keep
working.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import LineSearchService, ServiceClient, ServiceConfig


def _start(tmp_path, **overrides):
    options = {
        "state_dir": str(tmp_path / "state"),
        "default_deadline": 120.0,
    }
    options.update(overrides)
    service = LineSearchService(ServiceConfig(**options)).start()
    client = ServiceClient(service.address, client_id="tests")
    client.wait_ready(timeout=10.0)
    return service, client


def _grid(scenarios=8, seed=0, **extra):
    targets = [1.0 + 0.5 * t for t in range(max(1, scenarios // 2))]
    return {
        "pairs": [[3, 1], [4, 2]],
        "targets": targets,
        "faults": ["none"],
        "seed": seed,
        **extra,
    }


class TestDashboardPage:
    def test_page_served_as_html(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            page = client.dashboard_page()
            assert page.startswith("<!DOCTYPE html>")
            assert "EventSource" in page
            assert "animateMotion" in page  # the trajectory panel
        finally:
            service.stop()

    def test_page_content_type(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            with urllib.request.urlopen(
                client.base_url + "/v1/dashboard", timeout=10.0
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/html"
                )
        finally:
            service.stop()


class TestDashboardState:
    def test_state_reflects_completed_campaign(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            accepted = client.submit_campaign(**_grid())
            client.wait(accepted["job_id"], timeout=60.0)
            state = client.dashboard_state()
            assert state["format"] == "linesearch-dashboard-state"
            assert state["progress"]["scenarios"]["completed"] == 8.0
            assert state["ratio_profiles"]
            assert state["span_table"]
        finally:
            service.stop()

    def test_state_excludes_service_request_noise(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            for _ in range(3):
                client.health()
            state = client.dashboard_state()
            assert "service_requests_total" not in state["metrics"]
            assert not any(
                row[0].startswith("service.")
                for row in state["span_table"]
            )
        finally:
            service.stop()

    def test_queue_and_cache_gauges_visible_in_metrics(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            accepted = client.submit_campaign(**_grid())
            client.wait(accepted["job_id"], timeout=60.0)
            text = client.metrics()
            for gauge in (
                "service_queue_depth",
                "service_cache_size",
                "service_jobs_running",
            ):
                assert f"# TYPE {gauge} gauge" in text
            # the campaign's scenarios are resident in the cache
            assert "service_cache_size 8" in text
        finally:
            service.stop()


class TestDashboardStream:
    def test_until_idle_stream_reaches_done(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            accepted = client.submit_campaign(**_grid())
            events = list(
                client.dashboard_stream(until_idle=True, timeout=60.0)
            )
            kinds = [e["event"] for e in events]
            assert kinds[0] == "hello"
            assert kinds[-1] == "done"
            assert {"jobs", "metrics"} <= set(kinds)
            client.wait(accepted["job_id"], timeout=60.0)
        finally:
            service.stop()

    def test_bad_interval_rejected(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            request = urllib.request.Request(
                client.base_url + "/v1/dashboard/stream?interval=fast"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400
        finally:
            service.stop()


class TestJobEventsDisconnect:
    def test_client_disconnect_mid_stream_leaves_service_healthy(
        self, tmp_path
    ):
        service, client = _start(tmp_path, workers=1)
        try:
            accepted = client.submit_campaign(**_grid(scenarios=16))
            job_id = accepted["job_id"]

            # open the NDJSON stream raw, read the snapshot line, then
            # slam the connection shut mid-stream
            connection = http.client.HTTPConnection(
                service.config.host, service.port, timeout=10.0
            )
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            first = response.readline()
            assert json.loads(first)["event"] == "snapshot"
            connection.close()  # mid-stream disconnect

            # the job still completes and every route still answers
            envelope = client.wait(job_id, timeout=60.0)
            assert envelope["state"] == "done"
            assert client.health()["ok"]
            assert service.workers_alive() == 1

            # a fresh stream over the same (finished) job runs to EOF
            events = list(client.stream(job_id, timeout=10.0))
            assert events[0]["event"] == "snapshot"
            assert events[0]["state"] == "done"
        finally:
            service.stop()

    def test_two_streams_one_disconnects_other_completes(self, tmp_path):
        service, client = _start(tmp_path, workers=1)
        try:
            accepted = client.submit_campaign(**_grid(scenarios=16))
            job_id = accepted["job_id"]

            survivor_events = []

            def survivor():
                survivor_events.extend(
                    client.stream(job_id, timeout=60.0)
                )

            thread = threading.Thread(target=survivor)
            thread.start()

            casualty = http.client.HTTPConnection(
                service.config.host, service.port, timeout=10.0
            )
            casualty.request("GET", f"/v1/jobs/{job_id}/events")
            casualty.getresponse().readline()
            casualty.close()

            thread.join(timeout=60.0)
            assert not thread.is_alive(), "surviving stream hung"
            assert survivor_events[0]["event"] == "snapshot"
            states = [
                e.get("state") for e in survivor_events if "state" in e
            ]
            assert "done" in states
        finally:
            service.stop()
