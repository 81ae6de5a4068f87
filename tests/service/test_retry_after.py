"""Retry-After plumbing: server headers, client backoff, and the
protocol whitelist on the submission path."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, ServiceError, parse_submission

from tests.service.test_server import _start


class TestServiceErrorHeaders:
    def test_headers_round_up_to_whole_seconds(self):
        exc = ServiceError("rate_limited", "slow down", retry_after=2.3)
        assert exc.headers() == {"Retry-After": "3"}

    def test_headers_floor_at_one_second(self):
        exc = ServiceError("overloaded", "busy", retry_after=0.2)
        assert exc.headers() == {"Retry-After": "1"}

    def test_no_hint_means_no_header(self):
        exc = ServiceError("bad_request", "nope")
        assert exc.headers() == {}
        assert "retry_after" not in exc.body()

    def test_body_carries_the_exact_hint(self):
        exc = ServiceError("rate_limited", "slow down", retry_after=2.3)
        assert exc.body()["retry_after"] == 2.3


class TestServerEmitsRetryAfter:
    def test_rate_limited_response_has_header_and_body_hint(self, tmp_path):
        service, client = _start(
            tmp_path, rate_capacity=1.0, rate_per_second=0.25
        )
        try:
            client.submit_scenario({"n": 3, "f": 1, "target": 1.0})
            request = urllib.request.Request(
                service.address + "/v1/scenarios",
                data=json.dumps(
                    {"spec": {"n": 3, "f": 1, "target": 2.0},
                     "client": "tests"}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10.0)
            response = info.value
            assert response.code == 429
            header = response.headers.get("Retry-After")
            assert header is not None
            assert int(header) >= 1
            body = json.loads(response.read().decode("utf-8"))
            assert body["error"] == "rate_limited"
            assert body["retry_after"] > 0
        finally:
            service.stop()

    def test_client_surface_carries_the_hint(self, tmp_path):
        service, client = _start(
            tmp_path, rate_capacity=1.0, rate_per_second=0.25
        )
        try:
            client.submit_scenario({"n": 3, "f": 1, "target": 1.0})
            with pytest.raises(ServiceError) as info:
                client.submit_scenario({"n": 3, "f": 1, "target": 2.0})
            assert info.value.code == "rate_limited"
            assert info.value.retry_after is not None
            assert info.value.retry_after > 0
        finally:
            service.stop()


class TestClientBackoff:
    def test_retrying_client_rides_out_rate_limiting(self, tmp_path):
        # bucket of one token refilling fast: the raw client would see
        # rate_limited, the retrying client sleeps the hint and lands
        service, _ = _start(
            tmp_path, rate_capacity=1.0, rate_per_second=20.0
        )
        try:
            patient = ServiceClient(
                service.address, client_id="patient", max_retries=4
            )
            for target in (1.0, 2.0, 3.0):
                body = patient.submit_scenario(
                    {"n": 3, "f": 1, "target": target}
                )
                assert ("job_id" in body) or body.get("cached")
        finally:
            service.stop()

    def test_zero_retries_keeps_raw_behaviour(self, tmp_path):
        service, client = _start(
            tmp_path, rate_capacity=1.0, rate_per_second=20.0
        )
        try:
            assert client.max_retries == 0
            client.submit_scenario({"n": 3, "f": 1, "target": 1.0})
            with pytest.raises(ServiceError):
                client.submit_scenario({"n": 3, "f": 1, "target": 2.0})
        finally:
            service.stop()

    def test_backoff_honors_hint_and_clamps(self):
        client = ServiceClient(
            "http://127.0.0.1:1", max_retries=3, max_backoff=5.0
        )
        hinted = ServiceError("overloaded", "busy", retry_after=2.0)
        assert client._backoff_delay(hinted, 1) == 2.0
        huge = ServiceError("overloaded", "busy", retry_after=600.0)
        assert client._backoff_delay(huge, 1) == 5.0

    def test_backoff_doubles_without_a_hint(self):
        client = ServiceClient("http://127.0.0.1:1", max_retries=3)
        bare = ServiceError("rate_limited", "slow down")
        assert client._backoff_delay(bare, 1) == pytest.approx(0.1)
        assert client._backoff_delay(bare, 2) == pytest.approx(0.2)
        assert client._backoff_delay(bare, 3) == pytest.approx(0.4)

    def test_non_retryable_errors_never_retried(self, tmp_path):
        service, _ = _start(tmp_path)
        try:
            patient = ServiceClient(
                service.address, client_id="patient", max_retries=5
            )
            with pytest.raises(ServiceError) as info:
                patient.submit_scenario({"n": 3, "f": 1})  # no target
            assert info.value.code == "bad_request"
        finally:
            service.stop()


class TestProtocolWhitelist:
    def test_confirmation_accepted_with_event_method(self):
        sub = parse_submission(
            {
                "spec": {
                    "n": 5, "f": 2, "target": 3.0,
                    "fault": "byzantine_adversarial",
                    "protocol": "confirmation",
                },
            }
        )
        assert sub.specs[0].protocol == "confirmation"

    def test_batch_plus_confirmation_refused(self):
        with pytest.raises(ServiceError) as info:
            parse_submission(
                {
                    "spec": {
                        "n": 5, "f": 2, "target": 3.0,
                        "protocol": "confirmation",
                    },
                    "method": "batch",
                }
            )
        assert info.value.code == "bad_request"
        assert "unknown submission field(s): method" in str(info.value)

    def test_unknown_protocol_refused(self):
        with pytest.raises(ServiceError) as info:
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 2.0,
                          "protocol": "paxos"}}
            )
        assert info.value.code == "bad_request"
        assert "paxos" in str(info.value)

    def test_confirmation_below_minimum_fleet_refused(self):
        with pytest.raises(ServiceError) as info:
            parse_submission(
                {"spec": {"n": 4, "f": 2, "target": 2.0,
                          "protocol": "confirmation"}}
            )
        assert info.value.code == "bad_request"
        assert "2f + 1" in str(info.value)

    def test_grid_protocol_applies_to_every_spec(self):
        sub = parse_submission(
            {
                "pairs": [[3, 1], [5, 2]],
                "targets": [2.0],
                "faults": ["byzantine_adversarial"],
                "protocol": "confirmation",
            }
        )
        assert all(s.protocol == "confirmation" for s in sub.specs)

    def test_served_confirmation_campaign_completes(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            body = client.submit_campaign(
                pairs=[[3, 1], [5, 2]],
                targets=[2.0, -3.0],
                faults=["byzantine_adversarial:0.5;1.5"],
                seed=3,
                protocol="confirmation",
            )
            envelope = client.wait(body["job_id"], timeout=120.0)
            report = envelope["report"]
            assert report["failed"] == 0
            assert all(r["ok"] for r in report["results"])
        finally:
            service.stop()
