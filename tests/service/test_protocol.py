"""Tests for the service wire protocol: parsing, errors, job states."""

import pytest

from repro.robustness import chaos_scenarios
from repro.service.protocol import (
    ERROR_CODES,
    JOB_STATES,
    TERMINAL_STATES,
    ServiceError,
    Submission,
    http_status_for,
    parse_submission,
)


class TestServiceError:
    def test_every_code_maps_to_an_http_status(self):
        for code in ERROR_CODES:
            assert 400 <= http_status_for(code) <= 599

    def test_error_carries_code_and_envelope(self):
        exc = ServiceError("overloaded", "queue full")
        assert exc.code == "overloaded"
        assert exc.http_status == 503
        assert exc.body() == {
            "ok": False,
            "error": "overloaded",
            "message": "queue full",
        }

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown service error code"):
            ServiceError("teapot", "no")

    def test_shedding_codes_are_retryable_statuses(self):
        # clients back off on 429/503; these must never be 4xx hard fails
        assert http_status_for("rate_limited") == 429
        assert http_status_for("overloaded") == 503
        assert http_status_for("shutting_down") == 503

    def test_terminal_states_subset_of_states(self):
        assert set(TERMINAL_STATES) < set(JOB_STATES)


class TestParseSubmission:
    def test_single_spec_defaults(self):
        sub = parse_submission({"spec": {"n": 3, "f": 1, "target": 2.0}})
        assert len(sub.specs) == 1
        assert sub.specs[0].n == 3
        assert sub.check_invariants is True
        assert sub.client == "anonymous"
        assert sub.deadline is None

    def test_exactly_one_shape_required(self):
        with pytest.raises(ServiceError, match="exactly one of"):
            parse_submission({})
        with pytest.raises(ServiceError, match="exactly one of"):
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 2.0}, "specs": []}
            )

    def test_body_must_be_an_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            parse_submission([1, 2, 3])

    def test_unknown_spec_fields_rejected(self):
        with pytest.raises(ServiceError, match="unknown spec field"):
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 2.0, "speed": 9}}
            )

    def test_invalid_pair_rejected(self):
        with pytest.raises(ServiceError, match="1 <= f\\+1 <= n"):
            parse_submission({"spec": {"n": 2, "f": 2, "target": 1.0}})

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown fault kind"):
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 1.0, "fault": "gremlin"}}
            )

    def test_empty_specs_rejected(self):
        with pytest.raises(ServiceError, match="must not be empty"):
            parse_submission({"specs": []})

    def test_method_validated(self):
        # ``method`` is no longer a submission field: any value of it is
        # refused by name rather than silently ignored
        for method in ("warp", "batch", "event"):
            with pytest.raises(ServiceError) as info:
                parse_submission(
                    {"spec": {"n": 3, "f": 1, "target": 1.0},
                     "method": method}
                )
            assert info.value.code == "bad_request"
            assert str(info.value) == "unknown submission field(s): method"

    def test_unknown_top_level_fields_refused(self):
        with pytest.raises(ServiceError, match="priority, queue"):
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 1.0},
                 "queue": "fast", "priority": 1}
            )

    def test_deadline_validation_and_cap(self):
        with pytest.raises(ServiceError, match="must be positive"):
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 1.0}, "deadline": -5}
            )
        sub = parse_submission(
            {"spec": {"n": 3, "f": 1, "target": 1.0}, "deadline": 900.0},
            max_deadline=60.0,
        )
        assert sub.deadline == 60.0

    def test_default_deadline_applied(self):
        sub = parse_submission(
            {"spec": {"n": 3, "f": 1, "target": 1.0}},
            default_deadline=120.0,
        )
        assert sub.deadline == 120.0

    def test_max_scenarios_enforced(self):
        payload = {
            "specs": [
                {"n": 3, "f": 1, "target": float(t)} for t in range(1, 6)
            ]
        }
        with pytest.raises(ServiceError, match="at most 3 per job"):
            parse_submission(payload, max_scenarios=3)

    def test_client_must_be_nonempty_string(self):
        with pytest.raises(ServiceError, match="'client'"):
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 1.0}, "client": ""}
            )


class TestGridSubmissions:
    def test_grid_matches_cli_chaos_seeding(self):
        """The served grid must equal the CLI grid spec-for-spec —
        same master seed, same expansion order, same per-scenario
        seeds — so a campaign submitted over HTTP reproduces a
        ``linesearch chaos`` run exactly."""
        pairs = [(3, 1), (4, 2)]
        targets = [1.0, -2.5]
        faults = ["none", "byzantine"]
        sub = parse_submission(
            {
                "pairs": [list(p) for p in pairs],
                "targets": targets,
                "faults": faults,
                "seed": 42,
            }
        )
        expected = [
            s.spec
            for s in chaos_scenarios(pairs, targets, faults, seed=42)
        ]
        assert list(sub.specs) == expected

    def test_grid_requires_pairs_and_targets(self):
        with pytest.raises(ServiceError, match="'pairs'"):
            parse_submission({"pairs": [], "targets": [1.0]})
        with pytest.raises(ServiceError, match="'targets'"):
            parse_submission({"pairs": [[3, 1]]})

    def test_malformed_pair_rejected(self):
        with pytest.raises(ServiceError, match="each pair"):
            parse_submission({"pairs": [[3]], "targets": [1.0]})
        # non-numeric grid values are bad requests, not server errors
        for grid in (
            {"pairs": [["a", 1]], "targets": [1.0]},
            {"pairs": [[3, 1]], "targets": ["x"]},
        ):
            with pytest.raises(ServiceError, match="invalid scenario spec"):
                parse_submission(grid)


class TestSubmissionRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        sub = parse_submission(
            {
                "specs": [
                    {"n": 3, "f": 1, "target": 2.0, "seed": 7},
                    {"n": 4, "f": 2, "target": -1.0, "fault": "crash_stop"},
                ],
                "client": "roundtrip",
                "deadline": 30.0,
                "seed": 5,
            }
        )
        assert Submission.from_dict(sub.to_dict()) == sub
