"""Variant handling in the service wire protocol."""

import pytest

from repro.service.protocol import ServiceError, parse_submission


class TestSpecVariant:
    def test_variant_field_accepted(self):
        sub = parse_submission(
            {"spec": {"n": 3, "f": 1, "target": 2.0, "variant": "halfline"}}
        )
        assert sub.specs[0].variant == "halfline"

    def test_variant_defaults_to_line(self):
        sub = parse_submission({"spec": {"n": 3, "f": 1, "target": 2.0}})
        assert sub.specs[0].variant == "line"

    def test_unknown_variant_is_a_bad_request(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 2.0, "variant": "torus"}}
            )
        assert excinfo.value.code == "bad_request"
        assert "variant" in str(excinfo.value)

    def test_infeasible_evacuation_is_a_bad_request(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submission(
                {
                    "spec": {
                        "n": 2, "f": 1, "target": 2.0,
                        "variant": "evacuation",
                    }
                }
            )
        assert excinfo.value.code == "bad_request"
        assert "reliable majority" in str(excinfo.value)

    def test_feasible_evacuation_accepted(self):
        sub = parse_submission(
            {"spec": {"n": 3, "f": 1, "target": 2.0, "variant": "evacuation"}}
        )
        assert sub.specs[0].variant == "evacuation"


class TestBatchRefusal:
    def test_batch_refuses_variant_scenarios(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submission(
                {
                    "spec": {
                        "n": 3, "f": 1, "target": 2.0,
                        "variant": "halfline",
                    },
                    "method": "batch",
                }
            )
        assert excinfo.value.code == "bad_request"
        assert "unknown submission field(s): method" in str(excinfo.value)


class TestGridVariant:
    def test_top_level_variant_applies_to_every_spec(self):
        sub = parse_submission(
            {
                "pairs": [[3, 1], [5, 2]],
                "targets": [1.0, -2.5],
                "faults": ["none"],
                "variant": "evacuation",
                "seed": 9,
            }
        )
        assert len(sub.specs) == 4
        assert all(spec.variant == "evacuation" for spec in sub.specs)

    def test_grid_matches_cli_chaos_variant_seeding(self):
        from repro.robustness import chaos_scenarios

        sub = parse_submission(
            {
                "pairs": [[3, 1]],
                "targets": [1.0, -2.5],
                "faults": ["none", "adversarial"],
                "variant": "halfline",
                "seed": 42,
            }
        )
        expected = [
            s.spec
            for s in chaos_scenarios(
                [(3, 1)], [1.0, -2.5], ["none", "adversarial"],
                seed=42, variant="halfline",
            )
        ]
        assert list(sub.specs) == expected

    def test_grid_variant_must_be_a_string(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submission(
                {"pairs": [[3, 1]], "targets": [1.0], "variant": 7}
            )
        assert excinfo.value.code == "bad_request"

    def test_roundtrip_preserves_the_variant(self):
        from repro.service.protocol import Submission

        sub = parse_submission(
            {
                "specs": [
                    {"n": 3, "f": 1, "target": 2.0, "variant": "halfline"},
                    {"n": 3, "f": 1, "target": -2.0},
                ],
            }
        )
        rebuilt = Submission.from_dict(sub.to_dict())
        assert rebuilt == sub
        assert rebuilt.specs[0].variant == "halfline"
        assert rebuilt.specs[1].variant == "line"
