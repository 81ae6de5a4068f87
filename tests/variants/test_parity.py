"""Line-variant dispatch must reproduce the continuous engine bit-exactly."""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.parity import DEFAULT_FAULT_KINDS
from repro.variants.parity import DEFAULT_PAIRS, run_variant_parity


class TestHarness:
    def test_small_run_is_bit_exact(self):
        report = run_variant_parity(
            pairs=[(3, 1), (5, 2)],
            targets_per_pair=3,
            fault_kinds=("none", "adversarial", "probabilistic:0.7"),
            seed=7,
        )
        assert report.passed
        assert report.mismatches() == []
        assert report.total == 2 * 3 * 3
        assert report.regimes == [(3, 1), (5, 2)]

    def test_seeded_targets_are_reproducible(self):
        a = run_variant_parity(pairs=[(3, 1)], targets_per_pair=4, seed=99)
        b = run_variant_parity(pairs=[(3, 1)], targets_per_pair=4, seed=99)
        assert [c.target for c in a.cases] == [c.target for c in b.cases]
        assert [c.reference_time for c in a.cases] == [
            c.reference_time for c in b.cases
        ]

    def test_every_default_fault_kind_covered(self):
        report = run_variant_parity(pairs=[(3, 1)], targets_per_pair=1)
        faults = {case.fault for case in report.cases}
        assert faults == set(DEFAULT_FAULT_KINDS)

    def test_default_pairs_span_regimes(self):
        # proportional (f < n < 2f+2) and trivial (n >= 2f+2) both present
        assert any(n < 2 * f + 2 for n, f in DEFAULT_PAIRS)
        assert any(n >= 2 * f + 2 for n, f in DEFAULT_PAIRS)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            run_variant_parity(targets_per_pair=0)
        with pytest.raises(InvalidParameterError):
            run_variant_parity(x_max=1.0)


class TestReport:
    def test_serialization_roundtrip(self):
        report = run_variant_parity(
            pairs=[(3, 1)], targets_per_pair=2,
            fault_kinds=("none", "fixed"), seed=3,
        )
        data = json.loads(report.to_json())
        assert data["format"] == "linesearch-parity-report"
        assert data["harness"] == "variants"
        assert data["comparator"] == "exact"
        assert data["passed"] is True
        assert data["total"] == report.total
        assert len(data["cases"]) == report.total

    def test_describe_summarizes(self):
        report = run_variant_parity(
            pairs=[(3, 1)], targets_per_pair=2,
            fault_kinds=("none",), seed=3,
        )
        text = report.describe()
        assert "2/2" in text
