"""The ``line`` variant: the source paper's problem, as a variant.

The whole-line, first-reliable-detection problem that the rest of the
library implements is itself a member of the variant family — the
identity member.  :class:`LineVariant` realizes specs exactly the way
the campaign layer always has (same regime dispatch, same fault DSL)
and runs them through the same engine dispatch (continuous engine,
event engine for scheduled time, confirmation protocol), so a spec with
``variant="line"`` behaves bit-for-bit like one from before variants
existed.  The parity harness (:mod:`repro.variants.parity`) pins that
claim against direct engine invocation on a seeded grid.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.variants.base import ProblemVariant

__all__ = ["LineVariant"]


class LineVariant(ProblemVariant):
    """Whole-line search, first reliable detection terminates.

    Examples:
        >>> from repro.robustness.campaign import ScenarioSpec, build_scenario
        >>> variant = LineVariant()
        >>> fleet, model = variant.realize(ScenarioSpec(3, 1, 2.0, "none"))
        >>> fleet.size
        3
        >>> outcome = variant.run(
        ...     build_scenario(ScenarioSpec(3, 1, 2.0, "none")),
        ...     check_invariants=False,
        ... )
        >>> round(outcome.detection_time, 9)
        3.679894733
    """

    name = "line"

    def validate_spec(self, spec: Any) -> None:
        """Every campaign-valid spec is line-valid."""

    def realize(self, spec: Any) -> Tuple[Any, Any]:
        from repro.robustness.campaign import _fault_model_for, _line_realize

        model, _ = _fault_model_for(spec)
        return _line_realize(spec), model

    def run(self, scenario: Any, check_invariants: bool = True) -> Any:
        from repro.robustness.campaign import _dispatch_engines

        fleet, model = scenario.build()
        return _dispatch_engines(scenario, fleet, model, check_invariants)
