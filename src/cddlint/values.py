"""Exact ICP arithmetic helpers.

ICP costs and totals are Fractions so the 0.5-point external-coupling cost
never accumulates binary floating-point error. `exact_value` is the memoised
constructor of the values the engine computes: a value made before is the same
Fraction object, which is safe as Fractions are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Collection, Union


def is_half_step(value: Fraction) -> bool:
    return (value * 2).denominator == 1


@cache
def exact_value(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator), built once per distinct pair; the
    memo is unbounded, as a run sees few distinct totals and subtotals."""
    return Fraction(numerator, denominator)


def exact_sum(values: Collection[Fraction]) -> Fraction:
    """The sum, in integers over the least common denominator: one Fraction
    is built, where `sum` builds one per term."""
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def format_icp(value: Fraction) -> str:
    """Render an ICP value: whole numbers bare, halves with one decimal."""
    if value.denominator == 1:
        return str(value.numerator)
    if is_half_step(value):
        sign = "-" if value < 0 else ""
        return f"{sign}{abs(value.numerator) // 2}.5"
    return f"{float(value):g}"


def format_fixed2(value: Fraction) -> str:
    """Render with exactly two decimal places (series CSV convention)."""
    scaled = value * 100
    whole = round(scaled)  # banker's rounding is fine: inputs are exact
    sign = "-" if whole < 0 else ""
    whole = abs(whole)
    return f"{sign}{whole // 100}.{whole % 100:02d}"


def json_number(value: Fraction) -> Union[int, float]:
    """JSON-safe rendering: int when integral, float otherwise."""
    if value.denominator == 1:
        return value.numerator
    return float(value)
