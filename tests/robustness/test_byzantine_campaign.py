"""Byzantine scenario families in the chaos campaign layer."""

import math

import pytest

from repro.byzantine.simulate import ByzantineSearchSimulation
from repro.robots import ByzantineAdversary, Fleet
from repro.robustness.campaign import (
    PROTOCOLS,
    ScenarioSpec,
    _SpecRealizer,
    build_scenario,
    chaos_scenarios,
    run_campaign,
    scenario_key,
)
from repro.errors import InvalidParameterError
from repro.schedule import ByzantineConfirmationAlgorithm

PAIRS = ((3, 1), (5, 2), (7, 3))


class TestSpecProtocolField:
    def test_protocols_registry(self):
        assert PROTOCOLS == ("none", "confirmation")

    def test_default_protocol_omitted_from_dict(self):
        """Digest stability: pre-protocol specs must serialize
        byte-identically, so the default is not written out."""
        spec = ScenarioSpec(3, 1, 2.0, "adversarial", 7)
        assert "protocol" not in spec.to_dict()
        assert "protocol" not in spec.describe()

    def test_default_protocol_key_unchanged(self):
        bare = ScenarioSpec(3, 1, 2.0, "adversarial", 7)
        explicit = ScenarioSpec(3, 1, 2.0, "adversarial", 7, protocol="none")
        assert scenario_key(bare) == scenario_key(explicit)

    def test_confirmation_protocol_serialized_and_round_tripped(self):
        spec = ScenarioSpec(
            5, 2, -3.0, "byzantine_adversarial:0.5;1.5", 11,
            protocol="confirmation",
        )
        data = spec.to_dict()
        assert data["protocol"] == "confirmation"
        assert ScenarioSpec.from_dict(data) == spec
        assert "protocol=confirmation" in spec.describe()

    def test_confirmation_changes_the_scenario_key(self):
        bare = ScenarioSpec(5, 2, 3.0, "adversarial", 7)
        confirmed = ScenarioSpec(
            5, 2, 3.0, "adversarial", 7, protocol="confirmation"
        )
        assert scenario_key(bare) != scenario_key(confirmed)

    def test_unknown_protocol_rejected_at_build(self):
        spec = ScenarioSpec(3, 1, 2.0, "none", 7, protocol="paxos")
        with pytest.raises(InvalidParameterError, match="paxos"):
            build_scenario(spec)


class TestBuildScenario:
    def test_confirmation_uses_the_byzantine_schedule(self):
        spec = ScenarioSpec(
            5, 2, 3.0, "byzantine_adversarial", 7, protocol="confirmation"
        )
        fleet, _model = build_scenario(spec).build()
        assert fleet.size == 5

    def test_confirmation_below_minimum_fleet_fails_at_realize(self):
        spec = ScenarioSpec(
            4, 2, 3.0, "byzantine_adversarial", 7, protocol="confirmation"
        )
        # refused when the scenario is built, before it can be queued...
        with pytest.raises(InvalidParameterError, match="2f \\+ 1"):
            build_scenario(spec)
        # ...and still by the realizer, for scenarios assembled by hand
        with pytest.raises(InvalidParameterError, match="2f \\+ 1"):
            _SpecRealizer(spec)()


class TestCampaignRuns:
    def test_confirmation_grid_all_ok_and_truthful(self):
        """The acceptance sweep: seeded adversarial liars, worst-case
        placement, every scenario commits on the true target."""
        scenarios = chaos_scenarios(
            PAIRS,
            [2.0, -3.0],
            ["byzantine_adversarial:0.5;1.5"],
            seed=42,
            protocol="confirmation",
        )
        report = run_campaign(scenarios)
        assert report.failed == 0
        assert report.succeeded == len(PAIRS) * 2
        for result in report.results:
            assert result.ok
            assert result.detection_time is not None
            assert math.isfinite(result.detection_time)
            assert result.spec.protocol == "confirmation"

    def test_campaign_matches_direct_simulation(self):
        scenarios = chaos_scenarios(
            [(5, 2)],
            [3.0],
            ["byzantine_adversarial:0.5;1.5"],
            seed=0,
            protocol="confirmation",
        )
        report = run_campaign(scenarios)
        direct = ByzantineSearchSimulation(
            Fleet.from_algorithm(ByzantineConfirmationAlgorithm(5, 2)),
            3.0,
            fault_model=ByzantineAdversary(2, alarm_times=[0.5, 1.5]),
        ).run()
        assert report.results[0].detection_time == pytest.approx(
            direct.detection_time
        )
