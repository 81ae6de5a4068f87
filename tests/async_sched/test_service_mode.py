"""Scheduled-time scenarios through the service protocol layer."""

import pytest

from repro.service.protocol import ServiceError, parse_submission


class TestSpecParsing:
    def test_mode_accepted(self):
        sub = parse_submission(
            {"spec": {"n": 3, "f": 1, "target": 2.0,
                      "mode": "event:adversarial:1.0"}}
        )
        assert sub.specs[0].mode == "event:adversarial:1.0"

    def test_default_mode_stays_off_the_wire(self):
        # Digest stability: a default submission's spec dict must not
        # grow a mode key (cache keys and journals depend on it).
        sub = parse_submission({"spec": {"n": 3, "f": 1, "target": 2.0}})
        assert sub.specs[0].mode == "sync"
        assert "mode" not in sub.specs[0].to_dict()

    def test_bad_mode_is_bad_request(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 2.0,
                          "mode": "event:bogus"}}
            )
        assert excinfo.value.code == "bad_request"
        assert "bogus" in str(excinfo.value)

    def test_round_trip(self):
        sub = parse_submission(
            {"spec": {"n": 3, "f": 1, "target": 2.0,
                      "mode": "event:ssync:0.5:0.25"}}
        )
        again = parse_submission({"spec": sub.specs[0].to_dict()})
        assert again.specs[0] == sub.specs[0]


class TestGrid:
    def test_top_level_mode(self):
        sub = parse_submission(
            {"pairs": [[3, 1], [4, 2]], "targets": [1.0, -2.0],
             "faults": ["none"], "mode": "event:async:1.0"}
        )
        assert len(sub.specs) == 4
        assert all(s.mode == "event:async:1.0" for s in sub.specs)

    def test_mode_must_be_string(self):
        with pytest.raises(ServiceError):
            parse_submission(
                {"pairs": [[3, 1]], "targets": [1.0], "mode": 7}
            )


class TestBatchRefusal:
    def test_batch_plus_mode_refused(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 2.0,
                          "mode": "event:async:1.0"},
                 "method": "batch"}
            )
        assert excinfo.value.code == "bad_request"
        assert "unknown submission field(s): method" in str(excinfo.value)
