"""Method-length statistics with the noise filters mining studies use:
getters/setters, equals/hashCode and test-file methods are excluded."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .rules import RuleSet
from .syntax import ast
from .syntax.ast import iter_type_decls

SLOC_THRESHOLD = 24  # methods at or under this body length are "small"


@dataclass(frozen=True)
class MethodStats:
    counted_methods: int
    excluded_methods: int
    min_loc: Optional[int]
    mean_loc: Optional[Fraction]
    median_loc: Optional[Fraction]
    max_loc: Optional[int]
    stddev_loc: Optional[float]
    percent_at_or_under_24: Optional[Fraction]


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
    for _, decl in iter_type_decls(unit):
        for method in decl.methods:
            if (
                in_test_file
                or method.body is None
                or method.name in ("equals", "hashCode")
                or is_getter_or_setter(method)
            ):
                excluded += 1
            else:
                counted.append(method.body_line_count)
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
        return MethodStats(0, excluded, None, None, None, None, None, None)
    n = len(counted)
    ordered = sorted(counted)
    mean = Fraction(sum(ordered), n)
    if n % 2:
        median = Fraction(ordered[n // 2])
    else:
        median = Fraction(ordered[n // 2 - 1] + ordered[n // 2], 2)
    variance = sum((Fraction(x) - mean) ** 2 for x in ordered) / n
    small = sum(1 for x in ordered if x <= SLOC_THRESHOLD)
    return MethodStats(
        counted_methods=n,
        excluded_methods=excluded,
        min_loc=ordered[0],
        mean_loc=mean,
        median_loc=median,
        max_loc=ordered[-1],
        stddev_loc=math.sqrt(float(variance)),
        percent_at_or_under_24=Fraction(100 * small, n),
    )
