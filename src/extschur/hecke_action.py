"""Idempotent operators realizing the 0-Hecke generators on tableau bases.

On the span of all standard row-increasing tableaux the i-th operator fixes
a tableau when i sits weakly above i+1 and otherwise exchanges the two
entries.  On the quotient spanned by the standard extended tableaux the
same operator fixes (i strictly left of i+1), annihilates (i and i+1 in the
same column), or exchanges (i strictly right of i+1).  Both families
satisfy the idempotent, distant-commutation and braid relations.

Each family is defined once, as a rule on row words (letter ``v-1`` of the
row word is the 0-based row of entry ``v``; the column of ``v`` is the
count of its letter up to and including it).  :func:`_full_step` compares
or swaps the two letters of one operator.  :func:`_quotient_images`
counts every entry's column in one pass over the word and returns the
images of all the quotient operators at once.  ``apply_word`` runs the
rules on the word a ``Tableau`` stores, taking image ``i-1`` of the
quotient rule for letter ``i``, and stores the image's word; ``pi_full``
and ``pi_quotient`` are its one-letter calls.

One table per basis records where each operator sends each tableau.
``_word_table`` builds it from row words, word by word, with one call of
the quotient rule per word; the full basis is taken straight from
``tableaux._srit_words`` and the quotient basis from
``tableaux._set_words``, so no ``Tableau`` is built for either.  The
relation sweep reads the quotient basis in reading-word order, and
:func:`filtration` in filtration order, :func:`_filtration_words`.  Both
orders come from one sort of the integer keys that ``tableaux._grown``
sums as it places the entries.  ``module_analysis`` sorts the marked keys
of its own growth into the same filtration order and decodes its row
words from them.  The relation sweep composes the table's rows with
``operator.itemgetter``, and the submodule closure check and the module
matrices read the table.  The module's certificate reads none, and no
word: :func:`_placement` is the quotient rule at the placement of one
entry, from its column and the column of the entry before, and the
column pass reads it as one table per shape while the SETs are grown.

Reachability needs no operator at all: read column by column, right to
left, the standard extended tableaux of one shape are an interval of the
left weak order on permutations, so :func:`preceq` compares inversion sets.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .compositions import Composition, _Record, _check_int
from .tableaux import (
    RowWord,
    Tableau,
    _from_row_word,
    _grown,
    _reading_word,
    _row_word,
    _set_words,
    _sorted_by,
    _srit_words,
    is_standard_extended,
)

Kind = str  # "full" or "quotient"
ActionTable = tuple[tuple[int | None, ...], ...]


class Fixed(_Record):
    """The operator left the tableau unchanged."""

    tableau: Tableau


class Zero(_Record):
    """The image vanishes in the quotient."""


class Swapped(_Record):
    """The operator exchanged i and i+1."""

    tableau: Tableau


ActionResult = Fixed | Zero | Swapped


def _check_index(i: int, n: int) -> None:
    _check_int(i, "operator index")
    if not 1 <= i <= n - 1:
        raise ValueError(f"operator index {i} outside 1..{n - 1}")


def _full_step(i: int, w: RowWord) -> RowWord:
    """The full operator on a row word: fixes when i sits weakly above
    i+1, otherwise swaps their letters."""
    if w[i - 1] >= w[i]:
        return w
    return w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def _quotient_images(w: RowWord) -> list[RowWord | None]:
    """Every quotient operator on the row word of a standard extended
    tableau, image ``i-1`` for operator i: ``w`` itself when i is in a
    strictly lower column than i+1, ``None`` (annihilated) when they share
    a column, otherwise ``w`` with the letters of i and i+1 swapped.  The
    column of an entry counts its row letter up to and including it, so
    one pass over ``w`` counts each column and compares it with the one
    before."""
    filled = [0] * len(w)
    images: list[RowWord | None] = []
    previous = len(w) + 1  # above every column: entry 1 adds no image
    for i, r in enumerate(w):  # entry i+1, compared with entry i
        filled[r] += 1
        column = filled[r]
        if previous < column:
            images.append(w)
        elif previous == column:
            images.append(None)
        elif i:
            images.append(w[:i - 1] + (r, w[i - 1]) + w[i + 1:])
        previous = column
    return images


def _placement(q: int, c: int) -> str:
    """The quotient operator v at the placement of v+1, from the two
    0-based columns alone, ``q`` of entry v and ``c`` of entry v+1:
    ``"fix"`` when q < c, ``"kill"`` when they share a column, ``"swap"``
    when q > c.  The rule of :func:`_quotient_images` without the word;
    ``module_analysis`` reads it once per shape, as a table over the
    columns, so that a substituted rule is seen there."""
    return "fix" if q < c else "kill" if q == c else "swap"


def pi_full(i: int, t: Tableau) -> Tableau:
    """Operator on the full row-increasing basis.

    Fixes t when i is in a row weakly above that of i+1, otherwise swaps
    the two entries; the result is again row-increasing.
    """
    return apply_word((i,), t, "full")


def pi_quotient(i: int, t: Tableau) -> ActionResult:
    """Operator on the standard extended basis of the quotient.

    Compares the columns of i and i+1: strictly left fixes, equal columns
    annihilate, strictly right swaps (and the swap stays standard
    extended).
    """
    image = apply_word((i,), t)
    if isinstance(image, Zero):
        return image
    return Fixed(t) if _row_word(image) == _row_word(t) else Swapped(image)


def _check_kind(kind) -> None:
    if kind not in ("full", "quotient"):
        raise ValueError(f"unknown action kind {kind!r}")


def apply_word(word, t: Tableau, kind: Kind = "quotient") -> Tableau | Zero:
    """Apply the listed operators in order, first letter first.

    In quotient mode the result stays zero once any step annihilates.
    """
    _check_kind(kind)
    word = tuple(word)  # read twice: checked, then applied
    for i in word:
        _check_index(i, t.size)
    if not word:
        return t
    if kind == "quotient" and not is_standard_extended(t):
        raise ValueError("tableau is not standard extended")
    w = _row_word(t)
    for i in word:
        w = _full_step(i, w) if kind == "full" else _quotient_images(w)[i - 1]
        if w is None:
            return Zero()
    return _from_row_word(w)


def _word_table(words: list[RowWord], kind: Kind) -> ActionTable:
    """Entry ``[i-1][j]``: index in ``words`` of the i-th operator's image
    of ``words[j]`` (``j`` when fixed), ``None`` when annihilated.  The
    basis is given by the row words of its tableaux; a ``Tableau`` is
    built only to name an image outside the basis, in the ``KeyError``
    raised for it."""
    get = {w: j for j, w in enumerate(words)}.get
    n = len(words[0]) if words else 0
    rows: list[list[int | None]] = [[] for _ in range(1, n)]
    # word by word, so each word is read while it is in the cache; the
    # rules are looked up per call, so a substituted rule is seen here
    if kind == "full":
        step = _full_step
        for j, w in enumerate(words):
            for i, row in enumerate(rows, 1):
                image = step(i, w)
                if image is w:
                    row.append(j)
                elif (k := get(image)) is not None:
                    row.append(k)
                else:
                    raise KeyError(_from_row_word(image))
    else:
        images = _quotient_images
        for j, w in enumerate(words):
            for row, image in zip(rows, images(w)):
                if image is w:
                    row.append(j)
                elif image is None:
                    row.append(None)
                elif (k := get(image)) is not None:
                    row.append(k)
                else:
                    raise KeyError(_from_row_word(image))
    return tuple(map(tuple, rows))


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
    table = _word_table(words, kind)
    relations = _relations(n)
    violations = tuple(
        RelationViolation(*relations[r][:3], _from_row_word(words[k]))
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
    rows = [(tuple(m if k is None else k for k in row) if None in row else row) + (m,)
            for row in table]

    def act(word) -> tuple[int, ...]:
        """Images of every basis index under the word, first letter first:
        each later letter's row read at all of them at once (``m + 1 >= 2``
        indices, so ``itemgetter`` returns a tuple)."""
        images = rows[word[0] - 1]
        for i in word[1:]:
            images = itemgetter(*images)(rows[i - 1])
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
    tableaux of shape alpha are the interval ``[sigma_alpha, rho_alpha]``
    of the left weak order: the permutations whose inversion set contains
    that of ``sigma_alpha`` and lies in that of ``rho_alpha``.  Here
    ``sigma_alpha`` is the column word of the super-standard tableau, whose
    row r holds ``alpha_1 + ... + alpha_(r-1) + 1`` through ``alpha_1 +
    ... + alpha_r``, and ``rho_alpha`` is that of the filling numbered
    column by column, left to right, each column bottom to top (the first
    tableau in filtration order).  A genuine swap exchanges the values i
    and i+1 there, adding one inversion.  So s is reachable from t exactly
    when the inversion set of t's column word is contained in that of s's.
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
    without ever annihilating.  On the row word those boxes hold
    :func:`~extschur.tableaux._reading_word`, ``0, 1, ..., n-1`` there.
    """
    if not is_standard_extended(s):
        raise ValueError("tableau is not standard extended")
    w = list(_row_word(s))
    letters: list[int] = []
    # the first disagreement is entry v + 1 (v > 0), lowered by operator v
    while v := next((v for p, v in enumerate(_reading_word(w)) if v != p), 0):
        letters.append(v)
        w[v - 1], w[v] = w[v], w[v - 1]
    return tuple(reversed(letters))


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
    words, by :func:`_filtration_words`, one sort of the growth's order
    keys; the tableaux here are built from those words.
    """
    alpha = Composition(alpha)
    return Filtration(alpha, tuple(map(_from_row_word, _filtration_words(alpha))))


def _filtration_words(alpha: Composition) -> list[RowWord]:
    """The row words of the standard extended tableaux of alpha in
    filtration order: the grown words sorted once by the order keys that
    ``tableaux._grown`` sums with them, row sums descending, then reading
    words ascending.  So the super-standard tableau, with the least row
    sums, comes last.  No ``Tableau`` and no key list per word is built."""
    return _sorted_by(*_grown(alpha))
