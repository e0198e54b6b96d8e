"""Exact ICP arithmetic helpers.

ICP costs and totals are Fractions so the 0.5-point external-coupling cost
never accumulates binary floating-point error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


def is_half_step(value: Fraction) -> bool:
    return (value * 2).denominator == 1


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
