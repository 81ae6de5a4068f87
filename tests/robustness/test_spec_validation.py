"""One spec validator for the CLI and the service.

``build_scenario`` makes every check a spec can fail without running;
``parse_submission`` only coerces JSON and defers to it.  Each invalid
spec below must therefore be refused identically by both entry points:
an ``InvalidParameterError`` from the library, a ``bad_request`` from
the wire protocol — never an admitted job that fails mid-run.
"""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.robustness import ScenarioSpec, build_scenario, chaos_scenarios
from repro.service.protocol import ServiceError, parse_submission

#: (spec as wire JSON, regex the refusal must match)
INVALID_SPECS = {
    "infinite-target": ('{"n": 3, "f": 1, "target": Infinity}', "finite"),
    "nan-target": ('{"n": 3, "f": 1, "target": NaN}', "finite"),
    "zero-target": ('{"n": 3, "f": 1, "target": 0}', "nonzero"),
    "f-not-below-n": ('{"n": 2, "f": 3, "target": 2.0}', "f\\+1 <= n"),
    "negative-f": ('{"n": 3, "f": -1, "target": 2.0}', "f\\+1 <= n"),
    "confirmation-without-majority": (
        '{"n": 4, "f": 2, "target": 2.0, "protocol": "confirmation"}',
        "2f \\+ 1",
    ),
    "malformed-fault-argument": (
        '{"n": 3, "f": 1, "target": 2.0, "fault": "byzantine:abc"}',
        "byzantine:abc",
    ),
}


@pytest.mark.parametrize("entry_point", ["build_scenario", "parse_submission"])
@pytest.mark.parametrize(
    "text, message", INVALID_SPECS.values(), ids=INVALID_SPECS.keys()
)
def test_invalid_spec_refused(entry_point, text, message):
    fields = json.loads(text)
    if entry_point == "build_scenario":
        with pytest.raises(InvalidParameterError, match=message):
            build_scenario(ScenarioSpec(**fields))
    else:
        with pytest.raises(ServiceError, match=message) as info:
            parse_submission({"spec": fields})
        assert info.value.code == "bad_request"


class TestScheduledTargetBound:
    @pytest.mark.parametrize("target", [1e4, -1e4])
    def test_bound_itself_admitted(self, target):
        spec = {"n": 3, "f": 1, "target": target,
                "mode": "event:adversarial"}
        assert parse_submission({"spec": spec}).specs[0].target == target
        grid = chaos_scenarios(
            [(3, 1)], [target], ["adversarial"], mode="event:adversarial"
        )
        assert [s.spec.target for s in grid] == [target]

    @pytest.mark.parametrize("target", [1.01e4, -1.01e4])
    def test_beyond_bound_refused(self, target):
        spec = {"n": 3, "f": 1, "target": target, "mode": "event:ssync"}
        with pytest.raises(ServiceError, match="10000") as info:
            parse_submission({"spec": spec})
        assert info.value.code == "bad_request"
        with pytest.raises(InvalidParameterError, match="10000"):
            chaos_scenarios(
                [(3, 1)], [2.0, target], ["none"], mode="event:ssync"
            )

    def test_sync_specs_are_not_bounded(self):
        sub = parse_submission({"spec": {"n": 3, "f": 1, "target": 1e6}})
        assert sub.specs[0].mode == "sync"
        assert len(chaos_scenarios([(3, 1)], [1e6], ["none"])) == 1
