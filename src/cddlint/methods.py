"""Method-length statistics with the noise filters mining studies use:
getters/setters, equals/hashCode and test-file methods are excluded. The
lengths and the filters are the engine's: `analyze_unit` gives each unit's
counted lengths and excluded count.

The statistics are exact: the variance is the integer computation
(n * sum(x^2) - sum(x)^2) / n^2, one Fraction whatever the method count, and
only the standard deviation is rounded, by one float square root."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .engine import analyze_unit
from .records import Record
from .rules import RuleSet
from .syntax import ast

SLOC_THRESHOLD = 24  # methods at or under this body length are "small"


class MethodStats(Record):
    # the counts are ints; the rest are None when no method is counted:
    # min_loc and max_loc ints, stddev_loc a float, the others Fractions
    _fields = (
        "counted_methods", "excluded_methods", "min_loc", "mean_loc", "median_loc",
        "max_loc", "stddev_loc", "percent_at_or_under_24",
    )


def method_stats(units: Iterable[ast.SourceUnit], rules: RuleSet) -> MethodStats:
    analyses = [a for unit in units for a in analyze_unit(unit, rules)]
    return stats_from_lengths([n for a in analyses for n in a.method_lengths],
                              sum(a.excluded_methods for a in analyses))


def stats_from_lengths(counted: list[int], excluded: int) -> MethodStats:
    if not counted:
        return MethodStats((0, excluded, None, None, None, None, None, None))
    n = len(counted)
    ordered = sorted(counted)
    total = sum(ordered)
    mean = Fraction(total, n)
    if n % 2:
        median = Fraction(ordered[n // 2])
    else:
        median = Fraction(ordered[n // 2 - 1] + ordered[n // 2], 2)
    variance = Fraction(n * sum(x * x for x in ordered) - total * total, n * n)
    small = sum(1 for x in ordered if x <= SLOC_THRESHOLD)
    return MethodStats((
        n, excluded, ordered[0], mean, median, ordered[-1],
        math.sqrt(float(variance)), Fraction(100 * small, n),
    ))
