"""Method-length statistics with the noise filters mining studies use:
getters/setters, equals/hashCode and test-file methods are excluded.

The statistics are exact: the variance is the integer computation
(n * sum(x^2) - sum(x)^2) / n^2, one Fraction whatever the method count, and
only the standard deviation is rounded, by one float square root."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

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


def is_getter_or_setter(method: ast.MethodDecl) -> bool:
    """Name looks like an accessor and the body is a single return or a
    single assignment; name alone over-excludes."""
    if not (method.name.startswith(("get", "set", "is"))):
        return False
    if method.body is None or len(method.body.stmts) != 1:
        return False
    only = method.body.stmts[0]
    if isinstance(only, ast.Return):
        return True
    return isinstance(only, ast.ExprStmt) and isinstance(only.expr, ast.Assign)


def method_lengths(unit: ast.SourceUnit, rules: RuleSet) -> tuple[list[int], int]:
    """Body lengths of a unit's counted methods, and how many it excluded."""
    counted: list[int] = []
    excluded = 0
    in_test_file = rules.is_test_path(unit.path)
    for decl in unit.types:
        for method in decl.methods:
            if (
                in_test_file
                or method.body is None
                or method.name in ("equals", "hashCode")
                or is_getter_or_setter(method)
            ):
                excluded += 1
            else:
                span = method.body.span  # the body's braces included
                counted.append(span.line_end - span.line_start + 1)
    return counted, excluded


def method_stats(units: Iterable[ast.SourceUnit], rules: RuleSet) -> MethodStats:
    counted: list[int] = []
    excluded = 0
    for unit in units:
        lengths, skipped = method_lengths(unit, rules)
        counted += lengths
        excluded += skipped
    return stats_from_lengths(counted, excluded)


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
