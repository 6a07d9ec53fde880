"""Arithmetic of the benchmark: medians, names and failure counts."""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def geomean(values):
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def count_outcomes(ops):
    """(attempted, failed) over operation records.

    A verify operation contributes one attempt per check in its report and
    one failure per failing check; a verify run that raised, or whose report
    is missing, counts as one failed attempt.  A flow run is one attempt,
    failed when it aborted or exceeded its drift bound.
    """
    attempted = failed = 0
    for op in ops:
        if op["mode"] == "verify" and op.get("checks"):
            attempted += len(op["checks"])
            failed += sum(1 for c in op["checks"] if not c["pass"])
        else:
            attempted += 1
            failed += 0 if op.get("passed") else 1
    return attempted, failed

