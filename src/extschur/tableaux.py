"""Composition diagrams and their standard fillings.

The diagram of a composition alpha has alpha_i left-justified boxes in row i,
with row 1 at the bottom (French notation).  A standard row-increasing
tableau assigns 1..n bijectively so that every row increases left to right;
a standard extended tableau additionally has every column increasing bottom
to top, where a column consists of all boxes with the same column index
(rows too short to reach that column are simply skipped).

A row-increasing filling is fixed by its row word, whose letter ``v-1`` is
the 0-based row of entry ``v``: each row lists its entries in increasing
order.  The row words of shape alpha are the arrangements of
``0^alpha_1 1^alpha_2 ...``, and the column of ``v`` is the count of its
letter up to and including it.  :func:`_srit_words` lists them and
:func:`enumerate_srit` turns them into tableaux.  :func:`_is_column_strict`
reads the column condition off one word; a tableau checks its own word
with it, so the column rule is written once.
A tableau is its row word: ``Tableau(rows)`` validates rows and stores
their word, :func:`_from_row_word` stores a word made here or by an
operator without validating it again, and :func:`_row_word` reads it.
The rows are a view of the word, built for output.

:func:`enumerate_set` grows the standard extended tableaux entry by entry
as row words (:func:`_grown`), from an explicit stack rather than by
Python recursion.  The growth also sums, placement by placement, one
integer order key per word that holds both the reading word and the row
sums, so :func:`_set_words` puts the words in reading-word order, and
``hecke_action`` in filtration order, with one sort of plain integers.
Given a table of marks, the growth instead adds each placement's mark
below the shifted key and keeps no word, which is how ``module_analysis``
decides its column pass; :func:`_words_of_keys` reads the words back off
the keys, in their order.

The extended Schur expansions need only how many standard extended
tableaux have each descent mask (bit ``i-1`` set when ``i`` is a descent;
see ``compositions``), and :func:`_descent_masks` counts them without
growing a tableau.  The largest entry n of a standard extended tableau
ends a row that no higher row reaches in length; removing it leaves a
standard extended tableau of the shape with that part lowered by one (or
dropped, when it was 1 and so the top row), and ``n-1`` is a descent
exactly when its column is at least the column of n.  So
:func:`_masks_by_last_column` keeps, for each column of n, the count of
each mask: it sums the counts of the smaller shape over the columns of
n-1, setting bit ``n-2`` on those at or right of the column of n.
Sub-shapes are shared between shapes, so
the counts are kept in one memo for every later call, filled in order of
weight from a work list rather than by Python recursion
(:func:`_sub_shape_walk`).  The same walk, summing plain counts, gives
:func:`_set_count`, the number of standard extended tableaux, before any
is grown.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import accumulate, combinations

from .compositions import Composition, _check_int, _composition_of_mask, _Record

Box = tuple[int, int]  # (row, col), both 1-based, row 1 at the bottom
RowSumVector = tuple[int, ...]
RowWord = tuple[int, ...]  # letter v-1: the 0-based row of entry v


class Tableau(_Record):
    """A bijective, row-increasing filling of a composition diagram.

    ``rows`` lists the rows bottom-up.  Every row strictly increases left to
    right and the entries are exactly 1..n; no column condition is imposed.
    The tableau is stored as its row word; ``rows`` is built from it.
    """

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        seen: list[int] = []
        for row in rows:
            if not row:
                raise ValueError("tableau rows must be nonempty")
            for v in row:
                _check_int(v, "tableau entry")
            for a, b in zip(row, row[1:]):
                if a >= b:
                    raise ValueError(f"row {row} is not strictly increasing")
            seen.extend(row)
        if sorted(seen) != list(range(1, len(seen) + 1)):
            raise ValueError("entries must be exactly 1..n")
        row_of = {v: r for r, row in enumerate(rows) for v in row}
        word = tuple(row_of[v] for v in range(1, len(seen) + 1))
        # the validated rows are what the view would build from the word
        self.__dict__.update(_word=word, rows=rows)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in range(max(self._word, default=-1) + 1)]
        for v, r in enumerate(self._word, start=1):
            rows[r].append(v)
        return tuple(map(tuple, rows))

    @cached_property
    def shape(self) -> Composition:
        w = self._word  # every letter up to the largest occurs: no part is 0
        return tuple.__new__(Composition, map(w.count, range(max(w, default=-1) + 1)))

    @property
    def size(self) -> int:
        """Number of boxes."""
        return len(self._word)

    @cached_property
    def positions(self) -> dict[int, Box]:
        """Map each entry to its (row, col), bottom row first, 1-based."""
        w = self._word  # the column of v counts its letter up to v
        return {v: (r + 1, w[:v].count(r)) for v, r in enumerate(w, 1)}

    def entry(self, row: int, col: int) -> int:
        """Entry in the given box (1-based coordinates)."""
        return self.rows[row - 1][col - 1]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in reversed(self.rows))

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(row) for row in self.rows]}


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Entries read left to right along rows, bottom row first."""
    return tuple(v + 1 for v in _reading_word(t._word))


def enumerate_srit(alpha: Composition) -> list[Tableau]:
    """All standard row-increasing tableaux of shape alpha.

    There are n!/prod(alpha_i!) of them, listed in lexicographic order on
    the bottom-up reading word: the tableaux of :func:`_srit_words`.
    """
    alpha = Composition(alpha)
    return list(map(_from_row_word, _srit_words(alpha)))


def _row_word(t: Tableau) -> RowWord:
    """Letter ``v-1`` is the 0-based row of entry ``v``."""
    return t._word


def _from_row_word(w: RowWord) -> Tableau:
    """The tableau whose row word is ``w``, a word that the growth, the
    SRIT fill or an operator made: its rows fill in increasing order, so
    each row increases, and it is not validated again."""
    t = object.__new__(Tableau)
    t.__dict__["_word"] = tuple(w)
    return t


def _srit_words(alpha: Composition) -> list[RowWord]:
    """The row words of the standard row-increasing tableaux of alpha.

    Letter ``v-1`` of a row word is the 0-based row of entry ``v``, so these
    are the arrangements of ``0^alpha_1 1^alpha_2 ...``.  The entry set of
    row 0 varies slowest and each row takes the combinations, in
    lexicographic order, of the entries the rows under it left free; the
    top row takes the rest.  So the tableaux come in lexicographic order on
    the bottom-up reading word, though the words themselves do not.
    """
    alpha = Composition(alpha)
    word = [len(alpha) - 1] * alpha.weight
    if len(alpha) <= 1:
        return [tuple(word)]
    words: list[RowWord] = []
    _fill_rows(alpha, 0, list(range(alpha.weight)), word, words)
    return words


def _fill_rows(
    alpha: Composition, r: int, pool: list[int], word: list[int], words: list[RowWord]
) -> None:
    """Give row r, in turn, each combination of the free word positions in
    ``pool`` (position ``v`` holds entry ``v+1``), recurse up to the row
    under the top one, and append each finished word to ``words``.  Not a
    closure: one that calls itself is a reference cycle, which would keep
    ``words`` alive until the cyclic collector runs."""
    top = len(alpha) - 1
    for row in combinations(pool, alpha[r]):
        for v in row:
            word[v] = r
        if r == top - 1:
            words.append(tuple(word))
        else:
            chosen = set(row)
            _fill_rows(alpha, r + 1, [v for v in pool if v not in chosen], word, words)
        for v in row:
            word[v] = top


@lru_cache(maxsize=256)
def _below(alpha: Composition) -> tuple[tuple[int, ...], ...]:
    """``below[r][c]``: the nearest row under row r whose length exceeds c,
    or -1 (all 0-based), i.e. the row holding the box under (r, c) in its
    column.  Kept per shape, since every tableau's column check reads it."""
    return tuple(
        tuple(next((s for s in range(r - 1, -1, -1) if alpha[s] > c), -1) for c in range(part))
        for r, part in enumerate(alpha)
    )


def _is_column_strict(alpha: Composition, w: RowWord) -> bool:
    """Whether the tableau of shape alpha with row word ``w`` is standard
    extended.

    Read off the word as :func:`enumerate_set` grows a tableau: entry v
    lands in column ``c``, the count of its letter before it, and the
    columns increase exactly when every entry finds the box under it in
    that column already filled.
    """
    below = _below(alpha)
    filled = [0] * len(alpha)
    for r in w:
        c = filled[r]
        s = below[r][c]
        if s >= 0 and filled[s] <= c:
            return False
        filled[r] = c + 1
    return True


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
    tableaux: the tableaux of :func:`_set_words`.
    """
    alpha = Composition(alpha)
    return list(map(_from_row_word, _set_words(alpha)))


def _set_words(alpha: Composition) -> list[RowWord]:
    """The row words of :func:`enumerate_set`, in its order: sorted once
    by the reading key, the residue of each order key of :func:`_grown`
    modulo ``n^n``.  No ``Tableau`` and no key list per word is built."""
    words, keys = _grown(alpha)
    shift = alpha.weight ** alpha.weight
    keys = [key % shift for key in keys]  # the order keys are freed before the sort
    return _sorted_by(words, keys)


def _sorted_by(words: list[RowWord], keys: list[int]) -> list[RowWord]:
    """``words`` in ascending order of ``keys``, the key of each word at
    its index; the keys of distinct words differ."""
    return [words[j] for j in sorted(range(len(words)), key=keys.__getitem__)]


def _reading_word(w: RowWord) -> list[int]:
    """The reading word of the tableau with row word ``w``, its entries
    lowered by one: positions sort by their letter, and a stable sort keeps
    each row increasing."""
    return sorted(range(len(w)), key=w.__getitem__)


# shape -> 0-based column of the largest entry -> descent mask -> count,
# over the standard extended tableaux of the shape; filled bottom-up by
# _masks_by_last_column.  Only the fresh sums of _descent_masks leave
# this module.
_MASKS_BY_LAST_COLUMN: dict[tuple[int, ...], dict[int, dict[int, int]]] = {(): {-1: {0: 1}}}


def _descent_masks(alpha: Composition) -> Counter[int]:
    """How many standard extended tableaux of shape alpha have each
    descent mask (see ``compositions``): a fresh ``Counter``, summed over
    the columns of :func:`_masks_by_last_column`.  Nothing is grown and
    no ``Tableau`` is built."""
    counts: Counter[int] = Counter()
    for masks in _masks_by_last_column(alpha).values():
        counts.update(masks)
    return counts


def _masks_by_last_column(alpha: Composition) -> dict[int, dict[int, int]]:
    """For each 0-based column that the largest entry takes in a standard
    extended tableau of shape alpha, the count of each descent mask over
    those tableaux, by the recurrence of the module docstring, kept in
    ``_MASKS_BY_LAST_COLUMN`` by :func:`_sub_shape_walk`.  The result is
    the stored value: read it, never change it."""
    memo = _MASKS_BY_LAST_COLUMN

    def column_masks(shape: tuple[int, ...]) -> dict[int, dict[int, int]]:
        n = sum(shape)
        bit = 1 << n - 2 if n > 1 else 0
        by_column = {}
        for c, smaller in _removals(shape):
            counts: dict[int, int] = {}
            for previous, masks in memo[smaller].items():
                if previous >= c:
                    masks = {mask | bit: count for mask, count in masks.items()}
                for mask, count in masks.items():
                    counts[mask] = counts.get(mask, 0) + count
            by_column[c] = counts
        return by_column

    return _sub_shape_walk(alpha, memo, column_masks)


def _set_count(alpha: Composition) -> int:
    """How many standard extended tableaux alpha has, summed over the boxes
    that can hold the largest entry; nothing is grown or kept."""
    counts = {(): 1}
    return _sub_shape_walk(
        alpha, counts, lambda shape: sum(counts[smaller] for _, smaller in _removals(shape))
    )


def _sub_shape_walk(alpha, memo: dict, value):
    """``memo[alpha]``, once alpha and its sub-shapes not yet in ``memo``
    are stored there as ``value(shape)``, which reads the memo of the shapes
    of :func:`_removals`: in order of weight, found from a work list."""
    alpha = tuple(alpha)
    if alpha not in memo:
        todo = {alpha}
        stack = [alpha]
        while stack:
            for _, smaller in _removals(stack.pop()):
                if smaller not in memo and smaller not in todo:
                    todo.add(smaller)
                    stack.append(smaller)
        for shape in sorted(todo, key=sum):
            memo[shape] = value(shape)
    return memo[alpha]


def _removals(alpha: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The 0-based column of each box that can hold the largest entry,
    the end of a row longer than every row above it, with the shape left
    without that box; a part of 1 can only be the top row, and is
    dropped."""
    removals = []
    longest = 0
    for r in range(len(alpha) - 1, -1, -1):
        part = alpha[r]
        if part > longest:
            rest = alpha[:r] + (part - 1,) + alpha[r + 1 :] if part > 1 else alpha[:r]
            removals.append((part - 1, rest))
            longest = part
    return removals


def _grown(alpha: Composition, marks=None) -> tuple[list[RowWord] | None, list[int]]:
    """The row words of every standard extended tableau of shape alpha, in
    growth order: entry v goes in each box open to it, lowest row first,
    and everything v+1 onwards can grow from there is listed before v
    moves up.  The word so far is the explicit stack of placements, so no
    shape needs Python recursion, and each row keeps only its count of
    filled boxes.

    With the words come their order keys, ``reading - rows * n^n``, each
    summed term by term as the entries are placed:

    - the reading key ``reading`` adds ``v * n^(n-1-p)`` for entry ``v+1``
      at reading position ``p`` (the boxes of the rows under it, then its
      column), so it orders the tableaux as their reading words, and
      ``0 <= reading < n^n`` makes it the key's residue modulo ``n^n``;
    - the row-sum key ``rows`` adds ``(v+1) * B^(h-1-r)`` for entry
      ``v+1`` in row ``r`` of the ``h`` rows, where ``B = n(n+1)/2 + 1``
      exceeds every row sum, so it orders them as their row sums.

    So the keys ascend in filtration order: row sums descending, then
    reading words ascending.

    ``marks``, when given, is a pair ``(shift, table)`` that makes each key
    ``order_key << shift`` plus the marks of its placements: placing
    ``v+1`` in row ``r``, column ``c`` (0-based) after ``v`` in row ``p``,
    column ``q`` adds ``table[p][r][q][c]``, whose bit 0 is moved up to bit
    ``v-1``.  The table is read once per placement and nothing else is
    called, so the marks cost a lookup, not a pass over each word.  A
    marked growth keeps no word, and None stands for its words:
    :func:`_words_of_keys` reads them off the keys."""
    n = alpha.weight
    if not n:
        return None if marks else [()], [0]
    below = _below(alpha)
    height = len(alpha)
    base = n * (n + 1) // 2 + 1
    shift, table = marks or (0, None)
    row_term = [base ** (height - 1 - r) * n**n << shift for r in range(height)]
    # entry v+1 in box (r, c) adds v * box_term[r][c] - row_term[r]
    box_term: list[list[int]] = []
    p = 0
    for r, part in enumerate(alpha):
        box_term.append([(n ** (n - 1 - q) << shift) - row_term[r] for q in range(p, p + part)])
        p += part
    lift = [0] + [(1 << v - 1) - 1 for v in range(1, n)]  # mark bit 0 to bit v-1
    filled = [0] * height
    placed = [0] * n  # the row of each entry: the first v are placed
    prefix_keys = [0] * (n + 1)  # the key of each prefix of ``placed``
    words: list[RowWord] | None = None if marks else []
    keys: list[int] = []
    v = r = 0  # the entries placed, the lowest row still to try for the next
    while True:
        while r < height:
            c = filled[r]
            if c < alpha[r]:
                s = below[r][c]
                if s < 0 or filled[s] > c:
                    break
            r += 1
        if r < height:
            key = prefix_keys[v] + v * box_term[r][c] - row_term[r]
            if table is not None and v:
                p = placed[v - 1]
                mark = table[p][r][filled[p] - 1][c]
                key += mark + (mark & 1) * lift[v]
            placed[v] = r
            if v == n - 1:
                # the last entry has one box open to it: the tableau is
                # done, and the entry before it moves on
                if words is not None:
                    words.append(tuple(placed))
                keys.append(key)
                r = height
                continue
            filled[r] = c + 1
            v += 1
            prefix_keys[v] = key
            r = 0
        elif v:
            v -= 1
            r = placed[v]
            filled[r] -= 1
            r += 1
        else:
            return words, keys


def _words_of_keys(alpha: Composition, keys: list[int], shift: int) -> list[RowWord]:
    """The row words of the standard extended tableaux of shape alpha whose
    order keys (see :func:`_grown`), shifted left by ``shift`` over their
    marks, are ``keys``, in the order of ``keys``.  Each is read off the
    residue of its order key modulo ``n^n``: digit ``p`` in base n of that
    reading key is the entry, less one, at reading position ``p``, and
    position ``p`` lies in a known row."""
    n = alpha.weight
    size = n**n
    rows = [r for r, part in enumerate(alpha) for _ in range(part)][::-1]  # last position first
    word = [0] * n  # every letter is written again for each key
    words = []
    for key in keys:
        reading = (key >> shift) % size
        for r in rows:
            reading, v = divmod(reading, n)
            word[v] = r
        words.append(tuple(word))
    return words


def is_standard_extended(t: Tableau) -> bool:
    """True when every column of t strictly increases bottom to top."""
    return _is_column_strict(t.shape, t._word)


def descent_composition(t: Tableau) -> Composition:
    """The composition encoding the descents of t.

    An entry i is a descent when i lies weakly to the right of i+1, i.e.
    col(i) >= col(i+1); rows play no role in the comparison.
    """
    filled = [0] * len(t.shape)
    mask = 0
    previous = -1  # the column of the entry before, 0-based
    for v, r in enumerate(t._word):
        column = filled[r]
        filled[r] = column + 1
        if column <= previous:
            mask |= 1 << v - 1
        previous = column
    return _composition_of_mask(mask, t.size)


def super_standard(alpha: Composition) -> Tableau:
    """Row i holds the first alpha_i integers above the sum of lower rows.

    Always standard extended, with descent composition alpha.
    """
    alpha = Composition(alpha)
    return _from_row_word(tuple(r for r, part in enumerate(alpha) for _ in range(part)))


def row_sum_vector(t: Tableau) -> RowSumVector:
    """Entry j is the sum of all entries in rows 1..j (bottom-up)."""
    sums = [0] * len(t.shape)
    for v, r in enumerate(t._word, 1):
        sums[r] += v
    return tuple(accumulate(sums))


def swap_entries(t: Tableau, i: int) -> Tableau:
    """Exchange the entries i and i+1, keeping the shape; ``KeyError``
    unless both are entries, ``ValueError`` when they share a row."""
    w = t._word
    if not isinstance(i, int) or isinstance(i, bool):
        raise KeyError(i)  # a bool or a float names no entry
    if not 0 < i < len(w):
        raise KeyError(i + 1 if 0 < i == len(w) else i)  # the entry t lacks
    if w[i - 1] == w[i]:
        # the rows Tableau refuses, with its message
        swap = {i: i + 1, i + 1: i}
        return Tableau([[swap.get(v, v) for v in row] for row in t.rows])
    return _from_row_word(w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:])
