"""The variant registry and the ProblemVariant contract."""

import pytest

from repro.errors import InvalidParameterError
from repro.variants import (
    EvacuationVariant,
    HalfLineVariant,
    LineVariant,
    ProblemVariant,
    variant_for,
)
from repro.variants.base import VARIANT_NAMES


class TestRegistry:
    def test_every_name_resolves_to_its_variant(self):
        for name in VARIANT_NAMES:
            variant = variant_for(name)
            assert isinstance(variant, ProblemVariant)
            assert variant.name == name

    def test_singletons(self):
        for name in VARIANT_NAMES:
            assert variant_for(name) is variant_for(name)

    def test_types(self):
        assert isinstance(variant_for("line"), LineVariant)
        assert isinstance(variant_for("halfline"), HalfLineVariant)
        assert isinstance(variant_for("evacuation"), EvacuationVariant)

    def test_unknown_name_rejected_with_catalog(self):
        with pytest.raises(InvalidParameterError, match="halfline"):
            variant_for("sphere")

    def test_campaign_mirror_stays_in_sync(self):
        """``campaign.VARIANTS`` cannot import the registry without a
        cycle, so it repeats the literal — this pin is what keeps the
        two tuples identical."""
        from repro.robustness.campaign import VARIANTS

        assert VARIANTS == VARIANT_NAMES

    def test_service_whitelist_uses_the_campaign_tuple(self):
        # the service validates specs through build_scenario, so its
        # refusal lists exactly the campaign tuple
        from repro.robustness.campaign import VARIANTS
        from repro.service.protocol import ServiceError, parse_submission

        with pytest.raises(ServiceError, match=", ".join(VARIANTS)):
            parse_submission(
                {"spec": {"n": 3, "f": 1, "target": 2.0, "variant": "torus"}}
            )


class TestContract:
    def test_describe_mentions_the_name(self):
        for name in VARIANT_NAMES:
            assert name in variant_for(name).describe()

    def test_default_objective_is_the_competitive_ratio(self):
        class Outcome:
            competitive_ratio = 4.5

        assert variant_for("line").objective(Outcome()) == 4.5
