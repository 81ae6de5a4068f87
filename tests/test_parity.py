"""The shared parity harness: comparators and a cross-path property."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.async_sched.parity import DEFAULT_PAIRS as ASYNC_PAIRS
from repro.async_sched.parity import _fsync_candidate
from repro.batch.backend import available_backends, get_backend
from repro.batch.parity import DEFAULT_PAIRS as BATCH_PAIRS
from repro.batch.parity import _batch_candidate
from repro.core.tolerance import TIME_RTOL
from repro.parity import ParityCase, _reference
from repro.robots.fleet import Fleet
from repro.robustness.campaign import ScenarioSpec
from repro.schedule import algorithm_for
from repro.variants.parity import DEFAULT_PAIRS as VARIANT_PAIRS
from repro.variants.parity import _line_candidate

ULP_OFF = math.nextafter(5.0, 6.0)
NEAR = 5.0 * (1.0 + TIME_RTOL / 10.0)
FAR = 5.0 * (1.0 + TIME_RTOL * 10.0)
INF = math.inf


def _case(comparator, reference, candidate, robots):
    return ParityCase(
        3, 1, 2.0, "none", reference, candidate, *robots,
        exact=comparator == "exact",
    )


class TestComparators:
    @pytest.mark.parametrize(
        "comparator, reference, candidate, robots, agree",
        [
            ("exact", 5.0, 5.0, (1, 1), True),
            ("exact", 5.0, ULP_OFF, (1, 1), False),
            ("exact", 5.0, 5.0, (1, 2), False),
            ("exact", INF, INF, (None, None), True),
            ("exact", INF, 5.0, (None, 1), False),
            ("exact", 5.0, INF, (1, None), False),
            ("times_close", 5.0, NEAR, (1, None), True),
            ("times_close", 5.0, ULP_OFF, (1, 2), True),
            ("times_close", 5.0, FAR, (1, None), False),
            ("times_close", INF, INF, (None, None), True),
            ("times_close", INF, 5.0, (None, None), False),
            ("times_close", 5.0, INF, (1, None), False),
        ],
        ids=[
            "exact-equal", "exact-one-ulp", "exact-other-robot",
            "exact-inf-inf", "exact-inf-finite", "exact-finite-inf",
            "close-within-rtol", "close-ignores-robot", "close-beyond-rtol",
            "close-inf-inf", "close-inf-finite", "close-finite-inf",
        ],
    )
    def test_comparator(self, comparator, reference, candidate, robots, agree):
        case = _case(comparator, reference, candidate, robots)
        assert case.agree is agree
        assert case.describe().startswith("ok" if agree else "MISMATCH")


ALL_PAIRS = sorted(set(BATCH_PAIRS) | set(ASYNC_PAIRS) | set(VARIANT_PAIRS))


@st.composite
def points(draw):
    n, f = draw(st.sampled_from(ALL_PAIRS))
    magnitude = math.exp(draw(st.floats(0.0, math.log(64.0))))
    target = draw(st.sampled_from((1.0, -1.0))) * magnitude
    kind = draw(st.sampled_from(("none", "adversarial", "fixed")))
    fault = kind
    if kind == "fixed":
        subset = draw(
            st.lists(
                st.integers(0, n - 1), min_size=1, max_size=f, unique=True
            )
        )
        fault = "fixed:" + ",".join(map(str, sorted(subset)))
    return ScenarioSpec(n=n, f=f, target=target, fault=fault, seed=11)


@settings(max_examples=40, deadline=None)
@given(points())
def test_every_candidate_agrees_with_the_shared_reference(spec):
    algorithm = algorithm_for(spec.n, spec.f)
    fleet = Fleet.from_algorithm(algorithm)
    reference_time, reference_robot = _reference(fleet, spec)
    candidates = [
        (False, _batch_candidate(get_backend(name)))
        for name in available_backends()
    ]
    candidates += [
        (True, _fsync_candidate(0.5, spec.seed)),
        (True, _line_candidate),
    ]
    for exact, candidate in candidates:
        candidate_time, candidate_robot = candidate(fleet, spec.f)(spec)
        case = ParityCase(
            spec.n, spec.f, spec.target, spec.fault,
            reference_time, candidate_time, reference_robot, candidate_robot,
            exact=exact,
        )
        assert case.agree, case.describe()
    if spec.fault == "adversarial" and spec.f < spec.n < 2 * spec.f + 2:
        bound = algorithm.theoretical_competitive_ratio() * abs(spec.target)
        assert reference_time <= bound * (1.0 + TIME_RTOL)
