"""Tests for the service itself: admission, execution, drain, restart.

Every test runs a real :class:`LineSearchService` (threaded HTTP server
on an ephemeral port) and talks to it through :class:`ServiceClient` —
the same path production traffic takes.  The SIGKILL crash drill lives
in ``test_chaos.py``; here the restart scenarios use an in-process
drain so they stay fast and deterministic.
"""

import json
import threading
import time

import pytest

from repro.errors import InvalidParameterError
from repro.robustness import CampaignExecutor, ScenarioSpec, run_campaign
from repro.service import (
    LineSearchService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    parse_submission,
)
from repro.robustness.campaign import build_scenario


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
    """A campaign payload with roughly ``scenarios`` entries."""
    targets = [1.0 + 0.5 * t for t in range(max(1, scenarios // 2))]
    return {
        "pairs": [[3, 1], [4, 2]],
        "targets": targets,
        "faults": ["none"],
        "seed": seed,
        **extra,
    }


def _reference_report(payload):
    sub = parse_submission(payload)
    scenarios = [build_scenario(s) for s in sub.specs]
    executor = CampaignExecutor(handle_sigterm=False)
    return executor.execute(scenarios, sub.check_invariants).to_dict()


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"queue_capacity": 0},
            {"rate_capacity": 0.0},
            {"rate_per_second": -1.0},
            {"cache_size": -1},
            {"default_deadline": 0.0},
            {"max_deadline": -3.0},
            {"scenario_timeout": 0.0},
            {"executor_jobs": 0},
            {"max_scenarios_per_job": 0},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_bad_config_rejected_at_construction(self, overrides):
        options = {"state_dir": "irrelevant", **overrides}
        with pytest.raises(InvalidParameterError):
            ServiceConfig(**options)

    def test_invalid_parameter_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ServiceConfig(state_dir="x", workers=0)


class TestSubmitAndFetch:
    def test_campaign_round_trip_matches_direct_execution(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            payload = _grid(8, seed=11)
            accepted = client.submit_campaign(**payload)
            assert accepted["ok"] and not accepted["cached"]
            envelope = client.wait(accepted["job_id"], timeout=60.0)
            assert envelope["state"] == "done"
            assert envelope["report"] == _reference_report(payload)
        finally:
            service.stop()

    def test_single_scenario_served_from_cache_second_time(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            spec = {"n": 3, "f": 1, "target": 2.0, "seed": 5}
            first = client.submit_scenario(spec)
            assert not first["cached"]
            client.wait(first["job_id"], timeout=30.0)
            second = client.submit_scenario(spec)
            assert second["cached"]
            assert second["result"]["ok"] is True
            assert client.ready()["cache"]["hits"] >= 1
        finally:
            service.stop()

    def test_unknown_job_is_not_found(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            with pytest.raises(ServiceError) as info:
                client.poll("job-424242")
            assert info.value.code == "not_found"
        finally:
            service.stop()

    def test_result_of_unfinished_job_is_conflict(self, tmp_path):
        service, client = _start(tmp_path, workers=1)
        try:
            blocker = client.submit_campaign(**_grid(40, seed=1))
            queued = client.submit_campaign(**_grid(8, seed=2))
            with pytest.raises(ServiceError) as info:
                client.result(queued["job_id"])
            assert info.value.code == "conflict"
            client.wait(blocker["job_id"], timeout=60.0)
        finally:
            service.stop()

    def test_malformed_submission_is_bad_request(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            with pytest.raises(ServiceError) as info:
                client.submit_campaign(specs=[{"n": 2, "f": 2, "target": 1}])
            assert info.value.code == "bad_request"
        finally:
            service.stop()

    @pytest.mark.parametrize("target", [float("inf"), float("nan"), 0.0])
    def test_invalid_target_refused_before_journaling(self, tmp_path, target):
        service, client = _start(tmp_path)
        try:
            with pytest.raises(ServiceError) as info:
                client.submit_campaign(
                    specs=[{"n": 3, "f": 1, "target": target}]
                )
            assert info.value.code == "bad_request"
            assert service.registry.jobs() == []
        finally:
            service.stop()


class TestStreaming:
    def test_stream_ends_with_done_event(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            accepted = client.submit_campaign(**_grid(6, seed=4))
            events = list(client.stream(accepted["job_id"], timeout=30.0))
            kinds = [event["event"] for event in events]
            assert kinds[0] == "snapshot"
            assert kinds[-1] == "done"
            done = events[-1]
            assert done["completed"] == done["total"]
        finally:
            service.stop()


class TestRateLimiting:
    def test_burst_then_rate_limited(self, tmp_path):
        service, client = _start(
            tmp_path, rate_capacity=2.0, rate_per_second=0.001
        )
        try:
            client.submit_scenario({"n": 3, "f": 1, "target": 1.0})
            client.submit_scenario({"n": 3, "f": 1, "target": 2.0})
            with pytest.raises(ServiceError) as info:
                client.submit_scenario({"n": 3, "f": 1, "target": 3.0})
            assert info.value.code == "rate_limited"
            # another client has its own bucket
            other = ServiceClient(service.address, client_id="other")
            other.submit_scenario({"n": 3, "f": 1, "target": 4.0})
        finally:
            service.stop()


class TestOverload:
    def test_soak_sheds_explicitly_and_stays_bounded(self, tmp_path):
        """The acceptance soak: >= 16 concurrent clients against a
        deliberately tiny server.  Every submission is either accepted
        or refused with an explicit ``overloaded``/``rate_limited``
        error; the queue never exceeds its bound; the server keeps
        answering health checks; accepted work completes."""
        capacity = 3
        service, client = _start(
            tmp_path, workers=1, queue_capacity=capacity
        )
        try:
            # keep the single worker busy for the whole soak
            blocker = client.submit_campaign(**_grid(120, seed=9))

            outcomes = []
            lock = threading.Lock()

            def hammer(ident):
                mine = ServiceClient(
                    service.address, client_id=f"soak-{ident}"
                )
                for round_ in range(3):
                    try:
                        body = mine.submit_campaign(
                            specs=[{
                                "n": 3, "f": 1,
                                "target": 1.0 + ident + 0.01 * round_,
                            }]
                        )
                        verdict = "accepted", body.get("job_id")
                    except ServiceError as exc:
                        verdict = exc.code, None
                    with lock:
                        outcomes.append(verdict)
                        depths.append(service.queue.depth())

            depths = []
            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)

            codes = [code for code, _ in outcomes]
            assert len(codes) == 48
            # overload is an explicit, well-formed refusal — not a
            # timeout, not a crash
            assert "overloaded" in codes
            assert set(codes) <= {"accepted", "overloaded"}
            assert max(depths) <= capacity
            assert client.health()["ok"]

            # everything accepted eventually completes
            accepted = [job for code, job in outcomes if code == "accepted"]
            client.wait(blocker["job_id"], timeout=120.0)
            for job_id in accepted:
                envelope = client.wait(job_id, timeout=60.0)
                assert envelope["state"] == "done"
            ready = client.ready()
            assert ready["queue"]["depth"] == 0
            assert ready["workers"]["alive"] == 1
        finally:
            service.stop()


class TestDeadlines:
    def test_deadline_expires_queued_job(self, tmp_path):
        service, client = _start(tmp_path, workers=1, queue_capacity=4)
        try:
            blocker = client.submit_campaign(**_grid(80, seed=5))
            doomed = client.submit_campaign(**_grid(4, seed=6),
                                            deadline=0.05)
            envelope = client.wait(doomed["job_id"], timeout=60.0)
            assert envelope["state"] == "deadline_exceeded"
            assert envelope["error"] == "deadline_exceeded"
            client.wait(blocker["job_id"], timeout=120.0)
        finally:
            service.stop()

    def test_deadline_interrupts_running_campaign(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            doomed = client.submit_campaign(**_grid(400, seed=7),
                                            deadline=0.3)
            envelope = client.wait(doomed["job_id"], timeout=60.0)
            assert envelope["state"] == "deadline_exceeded"
            # partial work stayed journaled and cached: resubmitting the
            # same grid with a sane deadline reuses it
            progressed = client.poll(doomed["job_id"])["completed"]
            hits_before = service.cache.stats()["hits"]
            redo = client.submit_campaign(**_grid(400, seed=7))
            redone = client.wait(redo["job_id"], timeout=120.0)
            assert redone["state"] == "done"
            if progressed:  # expired mid-run, not while queued
                assert redone["cache_hits"] >= progressed
                assert service.cache.stats()["hits"] > hits_before
        finally:
            service.stop()


class TestDrainAndRestart:
    def test_drain_refuses_new_work_and_checkpoints(self, tmp_path):
        payload = _grid(300, seed=8)
        reference = _reference_report(payload)
        state_dir = str(tmp_path / "state")

        service, client = _start(tmp_path)
        accepted = client.submit_campaign(**payload)
        job_id = accepted["job_id"]
        # let it make some progress, then drain mid-campaign
        while client.poll(job_id)["completed"] < 5:
            pass
        service.drain(timeout=30.0)
        assert service.draining
        with pytest.raises((ServiceError, ConnectionError)) as info:
            client.submit_campaign(**_grid(2, seed=99))
        if isinstance(info.value, ServiceError):
            assert info.value.code == "shutting_down"
        interrupted = service.registry.get(job_id)
        assert interrupted.state == "interrupted"
        assert interrupted.completed < interrupted.total

        # restart on the same state dir: the job resumes and the final
        # report is byte-identical to an uninterrupted run, with the
        # checkpointed scenarios served from the warmed cache
        service2 = LineSearchService(
            ServiceConfig(state_dir=state_dir)
        ).start()
        try:
            client2 = ServiceClient(service2.address, client_id="tests")
            client2.wait_ready(timeout=10.0)
            envelope = client2.wait(job_id, timeout=120.0)
            assert envelope["state"] == "done"
            assert envelope["report"] == reference
            assert envelope["cache_hits"] > 0
            assert service2.cache.stats()["hits"] >= envelope["cache_hits"]
        finally:
            service2.stop()

    def test_completed_jobs_survive_restart(self, tmp_path):
        state_dir = str(tmp_path / "state")
        service, client = _start(tmp_path)
        accepted = client.submit_campaign(**_grid(4, seed=10))
        envelope = client.wait(accepted["job_id"], timeout=60.0)
        service.drain(timeout=30.0)

        service2 = LineSearchService(
            ServiceConfig(state_dir=state_dir)
        ).start()
        try:
            client2 = ServiceClient(service2.address, client_id="tests")
            client2.wait_ready(timeout=10.0)
            again = client2.result(accepted["job_id"])
            assert again == envelope
            view = client2.poll(accepted["job_id"])
            assert view["state"] == "done"
        finally:
            service2.stop()


class TestLegacyManifest:
    def test_method_era_manifest_entry_replays(self, tmp_path):
        """A ``jobs.jsonl`` entry written while submissions carried a
        ``method`` field recovers: the key is ignored and the stored
        ``check_invariants`` replays."""
        specs = [
            ScenarioSpec(n, f, target, fault, seed).to_dict()
            for seed, (n, f, target, fault) in enumerate(
                [
                    (3, 1, 2.0, "adversarial"),
                    (3, 1, -4.5, "fixed"),
                    (4, 2, 7.0, "random"),
                    (4, 2, -1.5, "none"),
                ]
            )
        ]
        entry = {
            "event": "submit",
            "id": "job-000001",
            "submitted_at": time.time(),
            "request": {
                "specs": specs,
                "method": "batch",
                "check_invariants": False,
                "client": "legacy",
                "deadline": 120.0,
                "seed": 0,
            },
        }
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "jobs.jsonl").write_text(
            json.dumps(entry, sort_keys=True) + "\n", encoding="utf-8"
        )
        expected = run_campaign(
            [build_scenario(ScenarioSpec.from_dict(s)) for s in specs],
            check_invariants=False,
        )
        service, client = _start(tmp_path)
        try:
            job = service.registry.get("job-000001")
            assert job.submission.check_invariants is False
            envelope = client.wait("job-000001", timeout=60.0)
            assert envelope["state"] == "done"
            with open(
                service.registry.report_path("job-000001"), encoding="utf-8"
            ) as handle:
                stored = json.load(handle)["report"]
            served = json.dumps(stored, indent=2, sort_keys=True)
            assert served == expected.to_json()
        finally:
            service.stop()


class TestIntrospection:
    def test_health_ready_and_metrics(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            health = client.health()
            assert health["ok"] and health["protocol"] == 1
            ready = client.ready()
            assert ready["ready"] is True
            assert ready["queue"]["capacity"] == 16
            assert set(ready) == {
                "ok", "ready", "draining", "queue", "workers", "jobs",
                "cache", "rate_limit", "uptime_seconds",
            }
            client.submit_scenario({"n": 3, "f": 1, "target": 1.0})
            text = client.metrics()
            assert "service_requests_total" in text
            assert "service_queue_depth" in text
        finally:
            service.stop()

