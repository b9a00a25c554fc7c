"""Exact integer nullspace.

Sparse rows are dicts mapping column index to a nonzero integer.
Elimination uses integer cross-multiplication with content removal, so no
fractions appear anywhere: :func:`nullspace` back-substitutes over one
common integer denominator and returns primitive integer vectors.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd


def _as_sparse(row) -> dict[int, int]:
    # dict first: the Mapping check alone is slow on the many sparse rows
    if isinstance(row, (dict, Mapping)):
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
    first nonzero entry.  Back-substitution stays in integers: the whole
    vector, a multiple of the solution over one common denominator, is
    scaled up whenever a pivot does not divide the sum it must cancel,
    and the gcd is divided out at the end.
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
        x = {free: 1}
        for p in reversed(pivot_cols):
            if p > free:
                continue
            prow = pivots[p]
            total = sum(v * x[c] for c, v in prow.items() if c in x)
            if total:
                g = gcd(total, prow[p])
                scale = prow[p] // g
                if scale > 1:
                    x = {c: v * scale for c, v in x.items()}
                x[p] = -total // g
        basis.append(_to_primitive(x, ncols))
    return basis


def _to_primitive(x: dict[int, int], ncols: int) -> tuple[int, ...]:
    """The vector with entries ``x``, zero elsewhere, divided by the gcd of
    its entries and signed so that its first nonzero entry is positive."""
    g = 0
    for value in x.values():
        g = gcd(g, value)
    if x[min(x)] < 0:
        g = -g
    ints = [0] * ncols
    for c, v in x.items():
        ints[c] = v // g
    return tuple(ints)
