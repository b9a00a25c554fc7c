"""Composition diagrams and their standard fillings.

The diagram of a composition alpha has alpha_i left-justified boxes in row i,
with row 1 at the bottom (French notation).  A standard row-increasing
tableau assigns 1..n bijectively so that every row increases left to right;
a standard extended tableau additionally has every column increasing bottom
to top, where a column consists of all boxes with the same column index
(rows too short to reach that column are simply skipped).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .compositions import Composition, DescentSubset, composition_of_subset

Box = tuple[int, int]  # (row, col), both 1-based, row 1 at the bottom
RowSumVector = tuple[int, ...]


@dataclass(frozen=True)
class Tableau:
    """A bijective, row-increasing filling of a composition diagram.

    ``rows`` lists the rows bottom-up.  Every row strictly increases left to
    right and the entries are exactly 1..n; no column condition is imposed.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        seen: list[int] = []
        for row in rows:
            if not row:
                raise ValueError("tableau rows must be nonempty")
            for a, b in zip(row, row[1:]):
                if a >= b:
                    raise ValueError(f"row {row} is not strictly increasing")
            seen.extend(row)
        if sorted(seen) != list(range(1, len(seen) + 1)):
            raise ValueError("entries must be exactly 1..n")

    @cached_property
    def shape(self) -> Composition:
        return Composition(len(row) for row in self.rows)

    @cached_property
    def size(self) -> int:
        """Number of boxes."""
        return sum(len(row) for row in self.rows)

    @cached_property
    def positions(self) -> dict[int, Box]:
        """Map each entry to its (row, col), bottom row first, 1-based."""
        pos: dict[int, Box] = {}
        for r, row in enumerate(self.rows, start=1):
            for c, value in enumerate(row, start=1):
                pos[value] = (r, c)
        return pos

    @cached_property
    def is_column_strict(self) -> bool:
        """True when every column strictly increases bottom to top."""
        width = max((len(row) for row in self.rows), default=0)
        for c in range(width):
            previous = 0
            for row in self.rows:
                if c < len(row):
                    if row[c] <= previous:
                        return False
                    previous = row[c]
        return True

    def entry(self, row: int, col: int) -> int:
        """Entry in the given box (1-based coordinates)."""
        return self.rows[row - 1][col - 1]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in reversed(self.rows))

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(row) for row in self.rows]}


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Entries read left to right along rows, bottom row first."""
    word: list[int] = []
    for row in t.rows:
        word.extend(row)
    return tuple(word)


def enumerate_srit(alpha: Composition) -> list[Tableau]:
    """All standard row-increasing tableaux of shape alpha.

    There are n!/prod(alpha_i!) of them, listed in lexicographic order on
    the bottom-up reading word.
    """
    alpha = Composition(alpha)

    def fill(pool: tuple[int, ...], parts: tuple[int, ...]):
        if not parts:
            yield ()
            return
        for row in combinations(pool, parts[0]):
            chosen = set(row)
            rest = tuple(v for v in pool if v not in chosen)
            for tail in fill(rest, parts[1:]):
                yield (row,) + tail

    pool = tuple(range(1, alpha.weight + 1))
    return [Tableau(rows) for rows in fill(pool, tuple(alpha))]


def enumerate_set(alpha: Composition) -> list[Tableau]:
    """All standard extended tableaux of shape alpha.

    Grown directly rather than filtered from the row-increasing fillings:
    the entries 1..n are placed in increasing order, and entry v may go in
    box (r, c) when (r, c-1) is already filled (or c = 1) and the nearest
    lower row that reaches column c already has its column-c box filled.
    These are exactly the row and column conditions, so every growth is a
    standard extended tableau and each one arises once.

    The list is in lexicographic order on the bottom-up reading word, the
    order of :func:`enumerate_srit` restricted to standard extended
    tableaux.
    """
    alpha = Composition(alpha)
    n = alpha.weight
    # below[r][c]: the nearest row under row r whose length exceeds c, or -1
    # (all 0-based), i.e. the row holding the box under (r, c) in its column.
    below = [
        [next((s for s in range(r - 1, -1, -1) if alpha[s] > c), -1) for c in range(part)]
        for r, part in enumerate(alpha)
    ]
    filling: list[list[int]] = [[] for _ in alpha]
    grown: list[tuple[tuple[int, ...], ...]] = []

    def place(v: int) -> None:
        if v > n:
            grown.append(tuple(tuple(row) for row in filling))
            return
        for r, row in enumerate(filling):
            c = len(row)
            if c < alpha[r]:
                s = below[r][c]
                if s < 0 or len(filling[s]) > c:
                    row.append(v)
                    place(v + 1)
                    row.pop()

    place(1)
    # Row tuples of one shape compare exactly as their reading words do.
    grown.sort()
    return [Tableau(rows) for rows in grown]


def is_standard_extended(t: Tableau) -> bool:
    """True when every column of t strictly increases bottom to top."""
    return t.is_column_strict


def descent_composition(t: Tableau) -> Composition:
    """The composition encoding the descents of t.

    An entry i is a descent when i lies weakly to the right of i+1, i.e.
    col(i) >= col(i+1); rows play no role in the comparison.
    """
    n = t.size
    pos = t.positions
    descents = tuple(i for i in range(1, n) if pos[i][1] >= pos[i + 1][1])
    return composition_of_subset(DescentSubset(n, descents))


def super_standard(alpha: Composition) -> Tableau:
    """Row i holds the first alpha_i integers above the sum of lower rows.

    Always standard extended, with descent composition alpha.
    """
    alpha = Composition(alpha)
    rows = []
    start = 1
    for part in alpha:
        rows.append(tuple(range(start, start + part)))
        start += part
    return Tableau(tuple(rows))


def row_sum_vector(t: Tableau) -> RowSumVector:
    """Entry j is the sum of all entries in rows 1..j (bottom-up)."""
    sums = []
    total = 0
    for row in t.rows:
        total += sum(row)
        sums.append(total)
    return tuple(sums)


def swap_entries(t: Tableau, i: int) -> Tableau:
    """Exchange the entries i and i+1, keeping the shape."""
    r1, c1 = t.positions[i]
    r2, c2 = t.positions[i + 1]
    rows = [list(row) for row in t.rows]
    rows[r1 - 1][c1 - 1] = i + 1
    rows[r2 - 1][c2 - 1] = i
    return Tableau(tuple(tuple(row) for row in rows))
