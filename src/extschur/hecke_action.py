"""Idempotent operators realizing the 0-Hecke generators on tableau bases.

On the span of all standard row-increasing tableaux the i-th operator fixes
a tableau when i sits weakly above i+1 and otherwise exchanges the two
entries.  On the quotient spanned by the standard extended tableaux the
same operator fixes (i strictly left of i+1), annihilates (i and i+1 in the
same column), or exchanges (i strictly right of i+1).  Both families
satisfy the idempotent, distant-commutation and braid relations.

One table per basis, built by :func:`action_table`, records where each
operator sends each tableau; the relation sweep, the submodule closure
check and every module invariant read it instead of applying operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .compositions import Composition
from .tableaux import (
    Tableau,
    enumerate_set,
    enumerate_srit,
    is_standard_extended,
    reading_word,
    row_sum_vector,
    super_standard,
    swap_entries,
)

Kind = Literal["full", "quotient"]
ActionTable = tuple[tuple[int | None, ...], ...]


@dataclass(frozen=True)
class Fixed:
    """The operator left the tableau unchanged."""

    tableau: Tableau


@dataclass(frozen=True)
class Zero:
    """The image vanishes in the quotient."""


@dataclass(frozen=True)
class Swapped:
    """The operator exchanged i and i+1."""

    tableau: Tableau


ActionResult = Fixed | Zero | Swapped


def _check_index(i: int, t: Tableau) -> None:
    if not 1 <= i <= t.size - 1:
        raise ValueError(f"operator index {i} outside 1..{t.size - 1}")


def pi_full(i: int, t: Tableau) -> Tableau:
    """Operator on the full row-increasing basis.

    Fixes t when i is in a row weakly above that of i+1, otherwise swaps
    the two entries; the result is again row-increasing.
    """
    _check_index(i, t)
    pos = t.positions
    if pos[i][0] >= pos[i + 1][0]:
        return t
    return swap_entries(t, i)


def pi_quotient(i: int, t: Tableau) -> ActionResult:
    """Operator on the standard extended basis of the quotient.

    Compares the columns of i and i+1: strictly left fixes, equal columns
    annihilate, strictly right swaps (and the swap stays standard
    extended).
    """
    _check_index(i, t)
    if not is_standard_extended(t):
        raise ValueError("tableau is not standard extended")
    pos = t.positions
    ci = pos[i][1]
    cj = pos[i + 1][1]
    if ci < cj:
        return Fixed(t)
    if ci == cj:
        return Zero()
    return Swapped(swap_entries(t, i))


def apply_word(word, t: Tableau, kind: Kind = "quotient") -> Tableau | Zero:
    """Apply the listed operators in order, first letter first.

    In quotient mode the result stays zero once any step annihilates.
    """
    if kind not in ("full", "quotient"):
        raise ValueError(f"unknown action kind {kind!r}")
    n = t.size
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"operator index {i} outside 1..{n - 1}")
    current = t
    for i in word:
        if kind == "full":
            current = pi_full(i, current)
        else:
            result = pi_quotient(i, current)
            if isinstance(result, Zero):
                return Zero()
            current = result.tableau
    return current


def action_table(basis, kind: Kind) -> ActionTable:
    """Entry ``[i-1][j]``: index in ``basis`` of the i-th operator's image
    of ``basis[j]`` (``j`` when fixed), ``None`` when annihilated.  An image
    outside the basis raises ``KeyError`` naming it."""
    index = {t: j for j, t in enumerate(basis)}
    n = basis[0].size if basis else 0
    table = []
    for i in range(1, n):
        row = []
        for t in basis:
            image = apply_word((i,), t, kind)
            row.append(None if isinstance(image, Zero) else index[image])
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True)
class RelationViolation:
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


@dataclass(frozen=True)
class RelationReport:
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
    aggregate results.
    """
    alpha = Composition(alpha)
    n = alpha.weight
    basis = enumerate_set(alpha) if kind == "quotient" else enumerate_srit(alpha)
    table = action_table(basis, kind)
    relations = (
        [("idempotent", i, None, (i, i), (i,)) for i in range(1, n)]
        + [("commute", i, j, (i, j), (j, i)) for i in range(1, n) for j in range(i + 2, n)]
        + [("braid", i, i + 1, (i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]
    )

    def act(word, k: int | None) -> int | None:
        for i in word:
            k = None if k is None else table[i - 1][k]
        return k

    violations = tuple(
        RelationViolation(name, i, j, t)
        for k, t in enumerate(basis)
        for name, i, j, left, right in relations
        if act(left, k) != act(right, k)
    )
    return RelationReport(alpha, kind, len(basis), violations)


def preceq(s: Tableau, t: Tableau) -> bool:
    """True when s is reachable from t by quotient operators (reflexive).

    Computed by exhaustive closure search; annihilated images are
    discarded.
    """
    if s.shape != t.shape:
        raise ValueError("tableaux have different shapes")
    if not (is_standard_extended(s) and is_standard_extended(t)):
        raise ValueError("tableau is not standard extended")
    if s == t:
        return True
    n = t.size
    seen = {t}
    stack = [t]
    while stack:
        current = stack.pop()
        for i in range(1, n):
            result = pi_quotient(i, current)
            if isinstance(result, Swapped) and result.tableau not in seen:
                if result.tableau == s:
                    return True
                seen.add(result.tableau)
                stack.append(result.tableau)
    return False


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


@dataclass(frozen=True)
class Filtration:
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
    earlier), with ties broken by ascending reading word.
    """
    alpha = Composition(alpha)
    tableaux = enumerate_set(alpha)

    def key(t: Tableau):
        return tuple(-x for x in row_sum_vector(t)), reading_word(t)

    return Filtration(alpha, tuple(sorted(tableaux, key=key)))
