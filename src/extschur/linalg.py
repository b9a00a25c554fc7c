"""Exact integer nullspace.

Sparse rows are dicts mapping column index to a nonzero integer.
Elimination uses integer cross-multiplication with content removal, so no
fractions appear during reduction; nullspace back-substitution produces
rationals that are cleared to primitive integer vectors.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd


def _as_sparse(row) -> dict[int, int]:
    if isinstance(row, Mapping):
        return {c: v for c, v in row.items() if v}
    return {c: v for c, v in enumerate(row) if v}


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for value in row.values():
        g = gcd(g, value)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class _Echelon:
    """Row echelon accumulator keyed by pivot column (the least index)."""

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    def insert(self, row) -> None:
        row = _as_sparse(row)
        while row:
            p = min(row)
            pivot_row = self.pivot_rows.get(p)
            if pivot_row is None:
                row = _strip_content(row)
                if row[p] < 0:
                    row = {c: -v for c, v in row.items()}
                self.pivot_rows[p] = row
                return
            a = row[p]
            b = pivot_row[p]
            combined = {c: v * b for c, v in row.items()}
            for c, v in pivot_row.items():
                combined[c] = combined.get(c, 0) - a * v
            row = _strip_content({c: v for c, v in combined.items() if v})


def nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : R x = 0}, one vector per free column.

    Each basis vector is scaled to coprime integer entries with positive
    first nonzero entry.
    """
    echelon = _Echelon()
    for row in rows:
        echelon.insert(row)
    pivots = echelon.pivot_rows
    pivot_cols = sorted(pivots)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x: list[Fraction] = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for p in reversed(pivot_cols):
            if p > free:
                continue
            prow = pivots[p]
            total = Fraction(0)
            for c, v in prow.items():
                if c > p:
                    total += v * x[c]
            x[p] = -total / prow[p]
        basis.append(_to_primitive(x))
    return basis


def _to_primitive(vector: list[Fraction]) -> tuple[int, ...]:
    denominator = 1
    for value in vector:
        denominator = denominator * value.denominator // gcd(denominator, value.denominator)
    ints = [int(value * denominator) for value in vector]
    g = 0
    for value in ints:
        g = gcd(g, value)
    if g > 1:
        ints = [value // g for value in ints]
    for value in ints:
        if value:
            if value < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)
