"""Statistics the benchmark reports: medians, tail percentiles, per-class
medians, and span self times.

Every percentile is nearest-rank on the sorted samples.  A tail is
reported at the highest percentile of :data:`TAIL_LADDER` that leaves at
least :data:`MIN_BEYOND` samples above it, so a tail never rests on a
handful of outliers; the chosen percentile and that sample count are
reported next to the value.

Span self times come from the program's own profiler
(:func:`repro.perf.profile.profile_spans`); this module only selects
which records to hand it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first; all above the median.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 67.0)

#: Samples a tail percentile must leave above it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def rank(p: float, n: int) -> int:
    """Nearest-rank 1-based position of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p: float, n: int) -> int:
    """Samples strictly above the nearest-rank percentile ``p`` of ``n``."""
    return n - rank(p, n)


def tail_percentile(n: int, ceiling: float = 100.0) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER`, up to ``ceiling``,
    with at least :data:`MIN_BEYOND` of ``n`` samples above it, or
    ``None``."""
    for p in TAIL_LADDER:
        if p <= ceiling and beyond(p, n) >= MIN_BEYOND:
            return p
    return None


def tail(
    values: Sequence[float], ceiling: float = 100.0
) -> Tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` at :func:`tail_percentile`.

    Raises ``ValueError`` when there are too few samples for any tail.
    """
    p = tail_percentile(len(values), ceiling)
    if p is None:
        raise ValueError(
            f"{len(values)} samples leave no percentile with "
            f"{MIN_BEYOND} samples beyond it"
        )
    return percentile(values, p), p, beyond(p, len(values))


def per_class_medians(
    samples: Iterable[Tuple[Hashable, float]],
) -> Dict[Hashable, float]:
    """Median value of each class in ``(class, value)`` samples."""
    grouped: Dict[Hashable, List[float]] = {}
    for key, value in samples:
        grouped.setdefault(key, []).append(value)
    return {key: median(values) for key, values in grouped.items()}


def column_minima(rows: Sequence[Sequence[float]]) -> List[float]:
    """``rows[pass][item]`` -> each item's best (smallest) time."""
    if not rows:
        raise ValueError("no passes")
    return [min(column) for column in zip(*rows)]


def subtree(records, root_ids: Iterable[str]):
    """The records of the span trees rooted at ``root_ids``."""
    from repro.observability.tracing import child_index

    index = child_index(records)
    pending = list(root_ids)
    by_id = {r.span_id: r for r in records}
    out = []
    while pending:
        span_id = pending.pop()
        out.append(by_id[span_id])
        pending.extend(kid.span_id for kid in index.get(span_id, ()))
    return out


def self_times(records) -> Dict[str, Tuple[int, float]]:
    """``{span name: (calls, total self seconds)}`` over ``records``."""
    from repro.perf.profile import profile_spans

    return {
        s.name: (s.count, s.self_time) for s in profile_spans(records).stats
    }


def covered(records, root: str) -> Tuple[int, float]:
    """``(trees, seconds)``: how many ``root`` spans there are, and the
    summed self time of every span below them.  The roots' own self
    time, the part no span inside covers, is left out, so it shows as
    the gap between ``seconds`` and the roots' total duration."""
    roots = [r.span_id for r in records if r.name == root]
    inside = [r for r in subtree(records, roots) if r.name != root]
    return len(roots), sum(s for _, s in self_times(inside).values())
