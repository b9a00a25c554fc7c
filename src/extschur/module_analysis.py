"""Matrix realization of the quotient modules and their invariants.

Every invariant of one shape is read off one private ``_Shape``: the
standard extended tableaux are grown once as row words
(``tableaux._grown``), put in filtration order (``hecke_action.
_filtration_words``), and every per-shape result is read from one action
table on that order, built by ``hecke_action._word_table``: entry
``[i-1][j]`` is the filtration index of the i-th operator's image of the
j-th basis tableau, ``j`` when fixed and ``None`` when annihilated.  The
operators that move the j-th tableau make the descent mask of its
composition factor.  In the filtration basis every operator matrix
therefore has at most one 1 per column and never maps a basis vector to a
later one, so the chain of leading subspaces is a composition series with
one-dimensional subquotients.  A ``Tableau`` is built only for output: the
``Filtration`` of :func:`matrices` and the tableaux a refusal names.

The module is cyclic, generated by the super-standard tableau ``g``, whose
row word is ``0^alpha_1 1^alpha_2 ...``, so an endomorphism ``E`` is fixed
by the vector ``v = E(g)``.  One search from ``g`` over the swaps in the
table must reach every basis tableau, or the module is refused, so no
module is certified without that check.  Commuting with ``E`` carries the
weight of ``g`` over to ``v``: ``pi_i v = v`` whenever ``pi_i g = g``.
When each such ``pi_i`` is idempotent on the table, sending every basis
tableau it does not kill to one it fixes, ``pi_i v = v`` puts ``v`` in the
span of the basis tableaux ``pi_i`` fixes.  So ``dim End`` is at most the
number of basis tableaux fixed by every operator that fixes ``g``, and the
identity lies in the commutant, so a count of 1 certifies a
one-dimensional commutant, spanned by the identity.  On a module ``pi_i``
fixes a tableau exactly when ``i`` is not one of its descents, and the
descents of ``g`` are the partial sums of ``alpha``, so the count is the
coefficient of ``M_alpha`` in the extended Schur function, which is 1 on
every shape checked (every weight up to 14).  The certificate is the only
route: an operator fixing ``g`` that is not idempotent, or a count above
1, is refused with ``ValueError`` like a module ``g`` does not generate,
never reported as a verdict.  The identity matrix is built only for
:func:`commutant_basis`.

The submodule closure check reads the ``"full"`` table of
``tableaux._srit_words`` and the column condition of each word.  The
public functions here are each one read of a fresh ``_Shape``; a caller
that checks one shape several ways, such as ``verify``, keeps one to grow
the tableaux, build each table and make the search once.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .compositions import Composition, _composition_of_mask, _Record
from .hecke_action import (
    ActionTable,
    Filtration,
    _filtration_words,
    _relation_failures,
    _word_table,
)
from .qsym import QSymElement, _element, _fundamental_of_masks
from .tableaux import (
    RowWord,
    _column_strict_flags,
    _descent_masks,
    _from_row_word,
    _grown,
    _srit_words,
)

Matrix = tuple[tuple[int, ...], ...]
CompositionFactorList = tuple[Composition, ...]


class ModuleMatrices(_Record):
    """0/1 matrices of the quotient operators in the filtration basis.

    Column j of ``mats[i-1]`` holds the image of the j-th basis tableau
    under the i-th operator: a diagonal 1 for a fixed tableau, an
    off-diagonal 1 at the image's index for a swap, and a zero column for
    an annihilated tableau.
    """

    alpha: Composition
    order: Filtration
    mats: tuple[Matrix, ...]


class EndomorphismSpace(_Record):
    """A basis of the matrices commuting with every operator matrix;
    :func:`commutant_basis` certifies the identity alone."""

    alpha: Composition
    basis: tuple[Matrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class _Shape:
    """Every table and invariant of one composition, each built on first
    use and kept: the row words of its standard row-increasing tableaux
    with their ``"full"`` action table, its standard extended tableaux as
    row words in filtration order with their quotient table and the module
    invariants read off it, and the count of each descent mask with the
    extended Schur function.  The counts come from
    ``tableaux._descent_masks``, which grows no tableau, so the
    characteristic and the extended Schur function share no enumeration."""

    def __init__(self, alpha):
        self.alpha = Composition(alpha)

    @cached_property
    def srit_words(self) -> list[RowWord]:
        return _srit_words(self.alpha)

    @cached_property
    def full_table(self) -> ActionTable:
        return _word_table(self.srit_words, "full", len(self.alpha))

    @cached_property
    def words(self) -> list[RowWord]:
        return _filtration_words(self.alpha, _grown(self.alpha))

    @cached_property
    def quotient_table(self) -> ActionTable:
        return _word_table(self.words, "quotient", len(self.alpha))

    @cached_property
    def descent_masks(self) -> Counter[int]:
        return _descent_masks(self.alpha)

    @cached_property
    def extended_schur(self) -> QSymElement:
        return _fundamental_of_masks(self.alpha.weight, self.descent_masks)

    @cached_property
    def factors(self) -> CompositionFactorList:
        """The composition factors in filtration order: the operators
        that move the j-th basis tableau make the descent mask of the j-th
        factor."""
        masks = [0] * len(self.words)
        for bit, images in enumerate(self.quotient_table):
            for j, k in enumerate(images):
                if k != j:
                    masks[j] |= 1 << bit
        factor = {mask: _composition_of_mask(mask, self.alpha.weight) for mask in set(masks)}
        return tuple(factor[mask] for mask in masks)

    @cached_property
    def characteristic(self) -> QSymElement:
        return _element(self.alpha.weight, "F", dict(Counter(self.factors)))

    @cached_property
    def generator(self) -> int:
        """Index of the super-standard row word ``0^alpha_1 1^alpha_2 ...``."""
        return self.words.index(
            tuple(r for r, part in enumerate(self.alpha) for _ in range(part))
        )

    @cached_property
    def search(self) -> None:
        """The search from the generator over the quotient table, made
        once per shape.  Raises ValueError, naming the first basis tableau
        it misses, when the search does not reach them all, so every
        invariant that reads it is guarded by generation."""
        reached = [False] * len(self.words)
        reached[self.generator] = True
        stack = [self.generator]
        while stack:
            s = stack.pop()
            for row in self.quotient_table:
                t = row[s]
                if t is not None and not reached[t]:
                    reached[t] = True
                    stack.append(t)
        if not all(reached):
            raise ValueError(
                f"tableau {self.tableau(reached.index(False))} is not reached "
                f"from the super-standard tableau {self.tableau(self.generator)}; the "
                "module is not cyclic on it, so its commutant cannot be certified"
            )

    def tableau(self, j: int):
        """The rows of the j-th basis tableau, for a message."""
        return _from_row_word(self.words[j], len(self.alpha)).rows

    @cached_property
    def fixed_point_count(self) -> int | None:
        """How many basis indices every operator fixing the generator
        fixes, once the search has reached every index; ``None`` when one
        of those operators is not idempotent on the table, that is, sends
        some index to one it does not fix."""
        self.search  # raises unless the generator reaches every index
        g = self.generator
        rows = [row for row in self.quotient_table if row[g] == g]
        if any(k is not None and row[k] != k for row in rows for k in row):
            return None
        fixed = range(len(self.words))
        for row in rows:
            fixed = [u for u in fixed if row[u] == u]
        return len(fixed)

    def certify(self) -> None:
        """Return when the fixed-point count certifies that the identity
        spans the commutant; otherwise raise ValueError naming the count
        and a second fixed tableau, or the operator fixing the generator
        that is not idempotent and the image it moves."""
        count = self.fixed_point_count
        if count == 1:
            return
        g = self.generator
        rows = [(i, row) for i, row in enumerate(self.quotient_table, 1) if row[g] == g]
        if count is None:
            i, k = next(
                (i, k) for i, row in rows for k in row if k is not None and row[k] != k
            )
            reason = (
                f"operator {i} fixes it but is not idempotent: it moves "
                f"tableau {self.tableau(k)}, one of its images"
            )
        else:
            second = next(
                u for u in range(len(self.words))
                if u != g and all(row[u] == u for _, row in rows)
            )
            reason = (
                f"the fixed-point count is {count}: every operator fixing it also "
                f"fixes tableau {self.tableau(second)}"
            )
        raise ValueError(
            f"the commutant of the module on the super-standard tableau "
            f"{self.tableau(g)} is not certified one-dimensional; {reason}"
        )

    def commutant_basis(self) -> EndomorphismSpace:
        """The identity alone, once :meth:`certify` returns."""
        self.certify()
        m = range(len(self.words))
        identity = tuple(tuple(int(j == k) for j in m) for k in m)
        return EndomorphismSpace(self.alpha, (identity,))

    def relations_hold(self) -> bool:
        """Every relation holds on both bases; unlike
        ``hecke_action.verify_relations`` it names no violation."""
        n = self.alpha.weight
        return not (
            _relation_failures(self.full_table, n)
            or _relation_failures(self.quotient_table, n)
        )

    def submodule_closed(self) -> bool:
        """No column of the full table sends a non-extended word to an
        extended one."""
        extended = _column_strict_flags(self.alpha, self.srit_words)
        return not any(
            extended[k] and not extended[j]
            for images in self.full_table
            for j, k in enumerate(images)
        )


def matrices(alpha) -> ModuleMatrices:
    """Realize the quotient operators as matrices, column by column."""
    shape = _Shape(alpha)
    m = len(shape.words)
    mats = tuple(
        tuple(tuple(int(images[j] == k) for j in range(m)) for k in range(m))
        for images in shape.quotient_table
    )
    order = tuple(_from_row_word(w, len(shape.alpha)) for w in shape.words)
    return ModuleMatrices(shape.alpha, Filtration(shape.alpha, order), mats)


def composition_factors(alpha) -> CompositionFactorList:
    """Factors of the composition series, in filtration order.

    On the j-th subquotient each operator either fixes the basis tableau
    or kills it, so the factor is the composition whose subset collects
    the non-fixing operator indices.
    """
    return _Shape(alpha).factors


def characteristic(alpha) -> QSymElement:
    """Sum of fundamental terms over the composition factors.

    Computed from the operator action alone; it coincides with the
    extended Schur function of alpha.
    """
    return _Shape(alpha).characteristic


def commutant_basis(alpha) -> EndomorphismSpace:
    """The commutant of the operator matrices: the identity alone.

    The module is generated by the super-standard tableau g, so E is fixed
    by v = E(g).  First a search checks that the operators reach every
    basis tableau from g; then v must satisfy pi_i v = v for each operator
    fixing g.  When each of those operators is idempotent on the basis, v
    lies in the span of the basis tableaux they all fix, and when that
    count is 1 the commutant is spanned by the identity.  Raises
    ValueError otherwise: naming the first basis tableau the search
    misses, the operator fixing g that is not idempotent, or the count
    and a second fixed tableau.
    """
    return _Shape(alpha).commutant_basis()


class Indecomposable(_Record):
    """The commutant is spanned by the identity alone, so the only
    idempotent endomorphisms are zero and the identity."""


def is_indecomposable(alpha) -> Indecomposable:
    """Certify indecomposability from the fixed-point count, as
    :func:`commutant_basis` does, building no matrix.

    A one-dimensional commutant forces every idempotent endomorphism to be
    zero or the identity.  A module the certificate does not cover raises
    ValueError; no other verdict is returned.
    """
    _Shape(alpha).certify()
    return Indecomposable()


def verify_submodule_closure(alpha) -> bool:
    """True when every full-basis operator maps each non-extended
    row-increasing tableau to another non-extended one.

    Reads the ``"full"`` action table of the row words of the standard
    row-increasing tableaux; no ``Tableau`` is built.
    """
    return _Shape(alpha).submodule_closed()


def analysis_report(alpha) -> dict:
    """JSON-ready summary: dimension, factors in filtration order, the
    characteristic, and the certified commutant: dimension 1, so the
    module is indecomposable.  Raises ValueError as :func:`commutant_basis`
    does when the certificate does not apply."""
    shape = _Shape(alpha)
    shape.certify()
    return {
        "alpha": list(shape.alpha),
        "dim": len(shape.factors),
        "factors": [list(beta) for beta in shape.factors],
        "characteristic": shape.characteristic.to_json(),
        "commutant_dimension": 1,
        "indecomposable": True,
    }
