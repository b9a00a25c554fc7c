"""Matrix realization of the quotient modules and their invariants.

Every invariant of one shape is read off one private ``_Shape``: the
standard extended tableaux are grown once as row words, in filtration
order (``hecke_action._filtration_words``).  One column pass over them
(``_Shape.column_pass``) calls the quotient rule once per word and keeps
the mask of the operators that move the word: the descent mask of its
composition factor.  Each operator fixes, kills or swaps a basis tableau,
and a swap sends it to an earlier one, so in the filtration basis every
operator matrix has at most one 1 per column and never maps a basis
vector to a later one: the chain of leading subspaces is a composition
series with one-dimensional subquotients.  The action table of
``hecke_action._word_table`` is built only for :func:`matrices` and the
relation check, never for a verdict.  Beyond ``tableaux.super_standard``,
whose word is the generator's, a ``Tableau`` is built only for output: the
``Filtration`` of :func:`matrices` and the tableaux a refusal names.

The module is cyclic, generated by the super-standard tableau ``g``, whose
row word is ``0^alpha_1 1^alpha_2 ...``, so an endomorphism ``E`` is fixed
by the vector ``v = E(g)``.  Commuting with ``E`` carries the weight of
``g`` over to ``v``: ``pi_i v = v`` whenever ``pi_i g = g``.  When each
such ``pi_i`` is idempotent on the basis, sending every basis tableau it
does not kill to one it fixes, ``pi_i v = v`` puts ``v`` in the span of
the basis tableaux ``pi_i`` fixes.  So ``dim End`` is at most the number
of basis tableaux fixed by every operator that fixes ``g``, and the
identity lies in the commutant, so a count of 1 certifies a
one-dimensional commutant, spanned by the identity.  On a module ``pi_i``
fixes a tableau exactly when ``i`` is not one of its descents, and the
descents of ``g`` are the partial sums of ``alpha``, so the count is the
coefficient of ``M_alpha`` in the extended Schur function, which is 1 on
every shape checked (every weight up to 14).  The column pass is the only
certificate, and it checks generation, idempotence and the count once per
shape.  A swap onto a later index is refused, since the order is then no
filtration.  With none, and ``g`` last, reachability from ``g`` only moves
to earlier indices, so ``g`` reaches every index exactly when each index
below it is the swap image of a later one.  A swap's image comes first, so
the first image each operator moves is recorded on the way, and the masks
give the count and a second fixed tableau.  A module that fails is refused
with ``ValueError``, never reported as a verdict; the identity matrix is
built only for :func:`commutant_basis`.

The submodule closure check reads the ``"full"`` table of
``tableaux._srit_words`` and counts a word as extended when it is in the
shape's SET basis, the row words grown once above.  The
public functions here are each one read of a fresh ``_Shape``; a caller
that checks one shape several ways, such as ``verify``, keeps one to grow
the tableaux, build each table and certify the commutant once.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from . import hecke_action
from .compositions import Composition, _composition_of_mask, _Record
from .hecke_action import (
    ActionTable,
    Filtration,
    _filtration_words,
    _relation_failures,
    _word_table,
)
from .qsym import QSymElement, _element
from .tableaux import (
    RowWord,
    _descent_masks,
    _from_row_word,
    _row_word,
    _srit_words,
    super_standard,
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
    """Every table and invariant of one composition, each built on first use
    and kept: the row words of its standard row-increasing tableaux with their
    ``"full"`` action table, its standard extended tableaux as row words in
    filtration order with the column pass that reads the module invariants and
    the quotient table built only for output, and the count of each descent mask with the extended
    Schur function.  The counts come from ``tableaux._descent_masks``, which
    grows no tableau, so the characteristic and the extended Schur function
    share no enumeration."""

    def __init__(self, alpha):
        self.alpha = Composition(alpha)

    @cached_property
    def srit_words(self) -> list[RowWord]:
        return _srit_words(self.alpha)

    @cached_property
    def full_table(self) -> ActionTable:
        return _word_table(self.srit_words, "full")

    @cached_property
    def words(self) -> list[RowWord]:
        return _filtration_words(self.alpha)

    @cached_property
    def quotient_table(self) -> ActionTable:
        return _word_table(self.words, "quotient")

    @cached_property
    def descent_masks(self) -> Counter[int]:
        return _descent_masks(self.alpha)

    @cached_property
    def extended_schur(self) -> QSymElement:
        return _element(self.alpha.weight, "F", self.descent_masks)

    @cached_property
    def column_pass(self) -> tuple[list[int], Counter[int], str | None]:
        """The mask of the operators moving each index, the count of each mask
        and the refusal (``None`` when the certificate holds), from one call of
        the quotient rule per word, looked up here so that a substituted rule
        is seen.  It raises ``_word_table``'s ``KeyError``."""
        words, rule = self.words, hecke_action._quotient_images
        get = {w: j for j, w in enumerate(words)}.get
        masks: list[int] = []
        preceded = bytearray(len(words))  # 1 once a later index swaps onto it
        later = None  # the first swap onto a later index: (operator, index, image)
        moved: dict[int, int] = {}  # operator bit: the first of its images it moves
        for j, w in enumerate(words):
            mask = 0
            for b, image in enumerate(rule(w)):
                if image is w:
                    continue
                k = -1 if image is None else get(image)  # -1 when killed
                if k is None:
                    raise KeyError(_from_row_word(image))
                if k != j:
                    mask |= 1 << b
                if k > j:
                    later = later or (b + 1, j, k)
                elif 0 <= k < j:
                    preceded[k] = 1
                    if masks[k] >> b & 1:
                        moved.setdefault(b, k)
            masks.append(mask)
        counts = Counter(masks)
        return masks, counts, self._refusal(masks, counts, preceded, later, moved)

    def _refusal(self, masks, counts, preceded, later, moved) -> str | None:
        """The verdict of the column pass, in the order of the module
        docstring: the generator last, no swap onto a later index, every
        index below the generator preceded, each operator fixing it
        idempotent, and a fixed-point count of 1."""
        g, generator = len(masks) - 1, super_standard(self.alpha)
        if self.words[g] != _row_word(generator):
            reason = f"the order ends with tableau {self.tableau(g)} instead"
        elif later:
            i, j, k = later
            reason = (f"operator {i} sends tableau {self.tableau(j)} to the later "
                      f"tableau {self.tableau(k)}, so the order is not a filtration")
        elif (u := preceded.find(0, 0, g)) >= 0:
            return (
                f"tableau {self.tableau(u)} is not reached from the super-standard "
                f"tableau {generator.rows}; the module is not cyclic on it, so its "
                "commutant cannot be certified"
            )
        else:
            fixing = ~masks[g]  # the operators fixing the generator
            if (b := min((b for b in moved if fixing >> b & 1), default=None)) is not None:
                reason = (f"operator {b + 1} fixes it but is not idempotent: it moves "
                          f"tableau {self.tableau(moved[b])}, one of its images")
            elif (count := sum(c for mask, c in counts.items() if not mask & fixing)) == 1:
                return None
            else:
                u = next(u for u, mask in enumerate(masks) if not mask & fixing and u != g)
                reason = (f"the fixed-point count is {count}: every operator fixing it "
                          f"also fixes tableau {self.tableau(u)}")
        return (
            f"the commutant of the module on the super-standard tableau "
            f"{generator.rows} is not certified one-dimensional; {reason}"
        )

    @cached_property
    def factors(self) -> CompositionFactorList:
        """The composition factors in filtration order: the operators
        that move the j-th basis tableau make the descent mask of the j-th
        factor, each distinct mask turned into a composition once."""
        n, (masks, counts, _) = self.alpha.weight, self.column_pass
        factor_of = {mask: _composition_of_mask(mask, n) for mask in counts}
        return tuple(map(factor_of.__getitem__, masks))

    @cached_property
    def characteristic(self) -> QSymElement:
        return _element(self.alpha.weight, "F", self.column_pass[1])

    def tableau(self, j: int):
        """The rows of the j-th basis tableau, for a message."""
        return _from_row_word(self.words[j]).rows

    def certify(self) -> None:
        """Return when the identity is certified to span the commutant;
        otherwise raise ValueError with the column pass's refusal."""
        if refusal := self.column_pass[2]:
            raise ValueError(refusal)

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
        extended one; the extended words are those of the SET basis."""
        basis = set(self.words)
        extended = [w in basis for w in self.srit_words]
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
    order = tuple(map(_from_row_word, shape.words))
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
    """The commutant of the operator matrices: the identity alone, once
    the certificate of the module docstring holds.  Raises ValueError
    otherwise: naming the last tableau when it is not g, the swap onto a
    later tableau, a basis tableau the operators do not reach from g, the
    operator fixing g that is not idempotent, or the count and a second
    fixed tableau.
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
