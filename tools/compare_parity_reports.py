#!/usr/bin/env python3
"""Check that a v2 parity report reproduces a v1 report point by point.

Version 1 parity reports had one schema per harness; version 2 has the
single ``linesearch-parity-report`` schema of :mod:`repro.parity`.  This
script maps each v1 case onto the v2 keys and demands that both reports
list the same points, in the same order, with ``.hex()``-identical
times and the same robots:

* batch: ``fault_set`` ``null``/``[]``/``[i, j]`` becomes
  ``"adversarial"``/``"none"``/``"fixed:i,j"``, ``engine_time`` becomes
  ``reference_time`` and ``batch_time`` becomes ``candidate_time`` (v1
  batch reports carried no robots, so robots are not compared there);
* async: ``continuous_*`` becomes ``reference_*``, ``event_*`` becomes
  ``candidate_*``;
* variants: ``engine_*`` becomes ``reference_*``, ``variant_*`` becomes
  ``candidate_*``.

Run:
    python tools/compare_parity_reports.py OLD.json NEW.json

Exit status 0 when every case matches (and the verdicts and totals
agree), 1 otherwise.
"""

from __future__ import annotations

import json
import sys

V1_KEYS = {
    "linesearch-parity-report": ("engine", "batch"),
    "linesearch-async-parity-report": ("continuous", "event"),
    "linesearch-variant-parity-report": ("engine", "variant"),
}


def _hex(t):
    """Times as bit patterns; non-finite times stay as their strings."""
    return t if isinstance(t, str) else float(t).hex()


def _v1_fault(case):
    if "fault" in case:
        return case["fault"]
    subset = case["fault_set"]
    if subset is None:
        return "adversarial"
    return "fixed:" + ",".join(map(str, subset)) if subset else "none"


def v1_rows(report):
    reference, candidate = V1_KEYS[report["format"]]
    for c in report["cases"]:
        yield (
            c["n"], c["f"], _hex(c["target"]), _v1_fault(c),
            _hex(c[f"{reference}_time"]), _hex(c[f"{candidate}_time"]),
            c.get(f"{reference}_robot"), c.get(f"{candidate}_robot"),
        )


def v2_rows(report):
    robots = report["harness"] != "batch"
    for c in report["cases"]:
        yield (
            c["n"], c["f"], _hex(c["target"]), c["fault"],
            _hex(c["reference_time"]), _hex(c["candidate_time"]),
            c["reference_robot"] if robots else None,
            c["candidate_robot"] if robots else None,
        )


def main(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    assert new["version"] == 2, "the new report must be version 2"
    old_rows, new_rows = list(v1_rows(old)), list(v2_rows(new))
    differing = [(a, b) for a, b in zip(old_rows, new_rows) if a != b]
    same = (
        not differing
        and len(old_rows) == len(new_rows)
        and old["passed"] == new["passed"]
        and old["total"] == new["total"]
    )
    print(
        f"{new_path}: {new['total']} points, passed={new['passed']}, "
        f"{len(differing)} differ from {old_path}"
    )
    for a, b in differing[:5]:
        print(f"  v1 {a}\n  v2 {b}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
