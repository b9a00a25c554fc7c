"""Idempotent operators realizing the 0-Hecke generators on tableau bases.

On the span of all standard row-increasing tableaux the i-th operator fixes
a tableau when i sits weakly above i+1 and otherwise exchanges the two
entries.  On the quotient spanned by the standard extended tableaux the
same operator fixes (i strictly left of i+1), annihilates (i and i+1 in the
same column), or exchanges (i strictly right of i+1).  Both families
satisfy the idempotent, distant-commutation and braid relations.

Each family is defined once, as a rule on row words (letter ``v-1`` of the
row word is the 0-based row of entry ``v``; the column of ``v`` is the
count of its letter up to and including it): :func:`_full_step` and
:func:`_quotient_step` only compare or swap two letters.  ``pi_full``,
``pi_quotient`` and ``apply_word`` go through them, converting to and
from the validated ``Tableau`` at their boundary.

One table per basis records where each operator sends each tableau.
``_word_table`` builds it from row words, word by word; the full basis is
taken straight from ``tableaux._srit_words``, and the quotient basis as
the row words that ``tableaux._grown`` grows, sorted by
:func:`_filtration_words` into filtration order (or into reading-word
order by ``tableaux._set_words`` for the relation sweep), so no
``Tableau`` is built for either.  The
relation sweep composes the table's rows, and the submodule closure check
and every module invariant read it instead of applying operators.

Reachability needs no operator at all: read column by column, right to
left, the standard extended tableaux of one shape are an interval of the
left weak order on permutations, so :func:`preceq` compares inversion sets.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .compositions import Composition, _Record
from .tableaux import (
    RowWord,
    Tableau,
    _from_row_word,
    _grown,
    _reading_word,
    _row_word,
    _set_words,
    _srit_words,
    is_standard_extended,
    super_standard,
    swap_entries,
)

Kind = str  # "full" or "quotient"
ActionTable = tuple[tuple[int | None, ...], ...]


class Fixed(_Record):
    """The operator left the tableau unchanged."""

    tableau: Tableau

    def __init__(self, tableau):
        object.__setattr__(self, "tableau", tableau)


class Zero(_Record):
    """The image vanishes in the quotient."""


class Swapped(_Record):
    """The operator exchanged i and i+1."""

    tableau: Tableau

    def __init__(self, tableau):
        object.__setattr__(self, "tableau", tableau)


ActionResult = Fixed | Zero | Swapped


def _check_index(i: int, n: int) -> None:
    # bool subclasses int, but True is not operator 1
    if not isinstance(i, int) or isinstance(i, bool):
        raise ValueError(f"operator index must be an integer, got {i!r}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"operator index {i} outside 1..{n - 1}")


def _full_step(i: int, w: RowWord) -> RowWord:
    """The full operator on a row word: fixes when i sits weakly above
    i+1, otherwise swaps their letters."""
    if w[i - 1] >= w[i]:
        return w
    return w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def _quotient_step(i: int, w: RowWord) -> RowWord | None:
    """The quotient operator on the row word of a standard extended
    tableau: fixes when i is in a strictly lower column than i+1,
    annihilates (``None``) when they share a column, otherwise swaps.  The
    column of an entry counts its row letter up to and including it."""
    a, b = w[i - 1], w[i]
    ci = w[:i].count(a)
    cj = w[:i + 1].count(b)
    if ci < cj:
        return w
    if ci == cj:
        return None
    return w[:i - 1] + (b, a) + w[i + 1:]


def pi_full(i: int, t: Tableau) -> Tableau:
    """Operator on the full row-increasing basis.

    Fixes t when i is in a row weakly above that of i+1, otherwise swaps
    the two entries; the result is again row-increasing.
    """
    _check_index(i, t.size)
    w = _row_word(t)
    image = _full_step(i, w)
    return t if image == w else _from_row_word(image, len(t.rows))


def pi_quotient(i: int, t: Tableau) -> ActionResult:
    """Operator on the standard extended basis of the quotient.

    Compares the columns of i and i+1: strictly left fixes, equal columns
    annihilate, strictly right swaps (and the swap stays standard
    extended).
    """
    _check_index(i, t.size)
    if not is_standard_extended(t):
        raise ValueError("tableau is not standard extended")
    w = _row_word(t)
    image = _quotient_step(i, w)
    if image is None:
        return Zero()
    if image == w:
        return Fixed(t)
    return Swapped(_from_row_word(image, len(t.rows)))


def _check_kind(kind) -> None:
    if kind not in ("full", "quotient"):
        raise ValueError(f"unknown action kind {kind!r}")


def apply_word(word, t: Tableau, kind: Kind = "quotient") -> Tableau | Zero:
    """Apply the listed operators in order, first letter first.

    In quotient mode the result stays zero once any step annihilates.
    """
    _check_kind(kind)
    for i in word:
        _check_index(i, t.size)
    if not word:
        return t
    if kind == "quotient" and not is_standard_extended(t):
        raise ValueError("tableau is not standard extended")
    step = _full_step if kind == "full" else _quotient_step
    w = _row_word(t)
    for i in word:
        w = step(i, w)
        if w is None:
            return Zero()
    return _from_row_word(w, len(t.rows))


def _word_table(words: list[RowWord], kind: Kind, height: int) -> ActionTable:
    """Entry ``[i-1][j]``: index in ``words`` of the i-th operator's image
    of ``words[j]`` (``j`` when fixed), ``None`` when annihilated.  The
    basis is given by the row words of its tableaux, of ``height`` rows; a
    ``Tableau`` is built only to name an image outside the basis, in the
    ``KeyError`` raised for it."""
    # the rules are looked up per call, so a substituted rule is seen here
    step = _full_step if kind == "full" else _quotient_step
    index = {w: j for j, w in enumerate(words)}
    n = len(words[0]) if words else 0
    rows: list[tuple[int, list[int | None]]] = [(i, []) for i in range(1, n)]
    # word by word, so each word is read while it is in the cache
    for j, w in enumerate(words):
        for i, row in rows:
            image = step(i, w)
            if image is w:
                row.append(j)
            elif image is None:
                row.append(None)
            elif image in index:
                row.append(index[image])
            else:
                raise KeyError(_from_row_word(image, height))
    return tuple(tuple(row) for _, row in rows)


class RelationViolation(_Record):
    relation: str  # "idempotent", "commute" or "braid"
    i: int
    j: int | None
    tableau: Tableau

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "i": self.i,
            "j": self.j,
            "tableau": self.tableau.to_json(),
        }


class RelationReport(_Record):
    """Outcome of sweeping the three relation families over one basis."""

    alpha: Composition
    kind: str
    tableaux_checked: int
    violations: tuple[RelationViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> list[dict]:
        return [violation.to_json() for violation in self.violations]


def verify_relations(alpha: Composition, kind: Kind = "quotient") -> RelationReport:
    """Check pi_i^2 = pi_i, distant commutation and the braid identity on
    every basis tableau of the chosen action.

    Violations are collected, not raised, so sweeps over many shapes can
    aggregate results.  Each basis is swept as the row words of its
    tableaux, in the order of :func:`~extschur.tableaux.enumerate_set` or
    :func:`~extschur.tableaux.enumerate_srit`, and a ``Tableau`` is built
    only for a reported violation.
    """
    _check_kind(kind)
    alpha = Composition(alpha)
    n = alpha.weight
    words = _set_words(alpha) if kind == "quotient" else _srit_words(alpha)
    table = _word_table(words, kind, len(alpha))
    relations = _relations(n)
    violations = tuple(
        RelationViolation(*relations[r][:3], _from_row_word(words[k], len(alpha)))
        for k, r in _relation_failures(table, n)
    )
    return RelationReport(alpha, kind, len(words), violations)


def _relations(n: int) -> list[tuple[str, int, int | None, tuple[int, ...], tuple[int, ...]]]:
    """The relations of weight n as ``(name, i, j, left_word, right_word)``,
    idempotent, then commute, then braid."""
    return (
        [("idempotent", i, None, (i, i), (i,)) for i in range(1, n)]
        + [("commute", i, j, (i, j), (j, i)) for i in range(1, n) for j in range(i + 2, n)]
        + [("braid", i, i + 1, (i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]
    )


def _relation_failures(table: ActionTable, n: int) -> list[tuple[int, int]]:
    """Sorted pairs ``(k, r)``: relation ``r`` of :func:`_relations` fails
    on basis index ``k`` of the table.  Both words of a relation are read
    as whole table rows composed letter by letter."""
    m = len(table[0]) if table else 0
    # an annihilated image becomes the extra index m, which every row fixes
    rows = [[m if k is None else k for k in row] + [m] for row in table]

    def act(word) -> list[int]:
        """Images of every basis index under the word, first letter first."""
        images = rows[word[0] - 1]
        for i in word[1:]:
            images = list(map(rows[i - 1].__getitem__, images))
        return images

    failures = []
    for r, (_, _, _, left, right) in enumerate(_relations(n)):
        lhs, rhs = act(left), act(right)
        if lhs != rhs:
            failures.extend((k, r) for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    failures.sort()
    return failures


def _column_word(t: Tableau) -> tuple[int, ...]:
    """Entries read column by column, right to left, each column bottom to
    top."""
    width = max(map(len, t.rows), default=0)
    return tuple(row[c] for c in reversed(range(width)) for row in t.rows if c < len(row))


def _inversions(w: tuple[int, ...]) -> set[tuple[int, int]]:
    """Position pairs ``(p, q)``, ``p < q``, with ``w[p] > w[q]``."""
    return {(p, q) for q in range(len(w)) for p in range(q) if w[p] > w[q]}


def preceq(s: Tableau, t: Tableau) -> bool:
    """True when s is reachable from t by quotient operators (reflexive).

    The column words (:func:`_column_word`) of the standard extended
    tableaux of one shape form an interval of the left weak order, and a
    genuine swap exchanges the values i and i+1 there, adding one
    inversion.  So s is reachable from t exactly when the inversion set
    of t's column word is contained in that of s's.
    """
    if s.shape != t.shape:
        raise ValueError("tableaux have different shapes")
    if not (is_standard_extended(s) and is_standard_extended(t)):
        raise ValueError("tableau is not standard extended")
    return _inversions(_column_word(t)) <= _inversions(_column_word(s))


def generation_path(s: Tableau) -> tuple[int, ...]:
    """A word replaying s from the super-standard tableau of its shape.

    Walk backwards: repeatedly find the earliest box (rows bottom-up, left
    to right) where the current tableau disagrees with the super-standard
    one and lower its entry by one; the reversed letters replay forwards
    without ever annihilating.
    """
    if not is_standard_extended(s):
        raise ValueError("tableau is not standard extended")
    target = super_standard(s.shape)
    letters: list[int] = []
    current = s
    while current != target:
        entry = _earliest_disagreement(current, target)
        letters.append(entry - 1)
        current = swap_entries(current, entry - 1)
    letters.reverse()
    return tuple(letters)


def _earliest_disagreement(current: Tableau, target: Tableau) -> int:
    for row_cur, row_tgt in zip(current.rows, target.rows):
        for a, b in zip(row_cur, row_tgt):
            if a != b:
                return a
    raise AssertionError("tableaux agree everywhere")


class Filtration(_Record):
    """A total order on the standard extended tableaux of one shape that
    refines reachability: operator images never move later in the order."""

    alpha: Composition
    order: tuple[Tableau, ...]

    @cached_property
    def position(self) -> dict[Tableau, int]:
        return {t: k for k, t in enumerate(self.order)}

    def index_of(self, t: Tableau) -> int:
        """0-based position of t in the order."""
        return self.position[t]

    def __len__(self) -> int:
        return len(self.order)


def filtration(alpha: Composition) -> Filtration:
    """Deterministic linear extension of reachability on the standard
    extended tableaux of alpha.

    Sorted by row-sum vector in descending lexicographic order (a genuine
    swap strictly increases the row-sum vector, so reachable tableaux sort
    earlier), with ties broken by ascending reading word; the
    super-standard tableau comes last.  The order is defined once, on row
    words, by :func:`_filtration_words`, which the module invariants read
    directly; the tableaux here are built from those words.
    """
    alpha = Composition(alpha)
    words = _filtration_words(alpha, _grown(alpha))
    return Filtration(alpha, tuple(_from_row_word(w, len(alpha)) for w in words))


def _filtration_words(alpha: Composition, words: list[RowWord]) -> list[RowWord]:
    """The row words of the standard extended tableaux of alpha, as
    ``tableaux._grown`` lists them, in filtration order: row-sum vector
    descending, then reading word ascending, both read off the reading
    word (:func:`~extschur.tableaux._reading_word`), whose entries, lowered
    by one, shift every row sum of the shape alike.  The super-standard
    tableau comes last.  No ``Tableau`` is built."""
    ends = list(accumulate(alpha))

    def key(w: RowWord):
        reading = _reading_word(w)
        return [-sum(reading[:end]) for end in ends], reading

    return sorted(words, key=key)
