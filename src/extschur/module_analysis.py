"""Matrix realization of the quotient modules and their invariants.

Every invariant of one shape is read off one private ``_Shape``: the
standard extended tableaux (SETs) are grown once, by ``tableaux._grown``,
and sorted into filtration order by their integer order keys.  The low
bits of each key are the mask of the operators that move its SET, the
descent mask of its composition factor, read off the key when asked
(``_Shape.masks``); the column pass (``_Shape.column_pass``) keeps only
the count of each mask and the verdict.  Each operator fixes, kills or
swaps a basis tableau, and a swap sends it to an earlier one, so in the
filtration basis every operator matrix has at most one 1 per column and
never maps a basis vector to a later one: the chain of leading subspaces
is a composition series with one-dimensional subquotients.  The action
table of ``hecke_action._word_table`` is built only for :func:`matrices`
and the relation check, never for a verdict.  A ``Tableau`` is built only
for output: the ``Filtration`` of :func:`matrices` and the tableaux a
refusal names.

The pass is decided as the SETs are grown.  Operator v reads only the
boxes of v and v+1, and the growth places v+1 right after v: say v sits
in row p, column q, and v+1 goes into row r, column c.  These are the
lemmas of the certificate, each a fact of that one placement:

1. operator v fixes the SET when q < c, kills it when q == c and swaps v
   and v+1 when q > c, so bit ``v-1`` of the factor mask is set exactly
   when q >= c;
2. a swap with p > r puts v+1 in the higher row p and v in the lower
   row r, which lowers the row sums from row r up to row p, so its image
   comes later in filtration order: a swap onto a later SET, which the
   certificate refuses (on a SET every swap has p < r);
3. swapping v and v+1 in different rows and columns keeps a SET a SET,
   so q < c with p != r makes the SET the swap image of a later one: it
   is preceded;
4. the image of a swap has v left of v+1, so the same operator fixes it:
   it is idempotent there.

So ``tableaux._grown`` adds to each order key, shifted left, one mark per
placement from a table that :func:`_marks` reads off the placement rule
``hecke_action._placement`` once per shape: the mask bit and a count for
each of four fields, preceded, moved again (not idempotent), onto a later
SET and out of the basis (a swap of v and v+1 in one column, which only a
broken rule makes).  For any placement rule the lemmas read the reversed
pair ``(c, q)`` as that rule does.  Sorting the keys gives the masks in
filtration order; no word is kept, no rule is called per SET and no index
is looked up.  The keys are the only form in which the SETs are kept:
their row words, in the same order, are decoded in one batch from the
residues of the keys modulo ``n^n`` by ``tableaux._words_of_keys`` when a
table, the submodule check or a refusal naming a tableau reads them.  The
per-word pass this replaced, which called ``hecke_action._quotient_images``
on each word and found each image in a dict, is the oracle
``word_column_pass`` of ``tests/helpers.py``.

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
shape.  An image out of the basis raises ``KeyError``, as the action
table does.  The order must end with ``g``, and a swap onto a later index
is refused, since the order is then no filtration; so is a ``g`` marked
as preceded, since nothing comes after it.  With neither, reachability
from ``g`` only moves to earlier indices, so ``g`` reaches every index
exactly when each index below it is preceded.  Then each operator fixing
``g`` must fix the images of its swaps, and the masks give the count and
a second fixed tableau.  A module that fails is refused with
``ValueError``, never reported as a verdict; the identity matrix is
built only for :func:`commutant_basis`.

The submodule closure check reads the ``"full"`` table of
``tableaux._srit_words`` and counts a word as extended when it is in the
shape's SET basis, the row words decoded from the same growth.  The
public functions here are each one read of a fresh ``_Shape``; a caller
that checks one shape several ways, such as ``verify``, keeps one to grow
the tableaux, build each table and certify the commutant once.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache

from . import hecke_action
from .compositions import Composition, _composition_of_mask, _Record
from .hecke_action import ActionTable, Filtration, _relation_failures, _word_table
from .qsym import QSymElement, _element
from .tableaux import (
    RowWord,
    _descent_masks,
    _from_row_word,
    _grown,
    _srit_words,
    _words_of_keys,
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


@lru_cache(maxsize=64)
def _layout(n: int) -> tuple[int, int, tuple[int, int, int, int]]:
    """The marks of weight n: the shift of the order key, the bits of the
    factor mask, the lowest ``n - 1``, and the bits of the four fields
    above it, each a count of operators, at most ``n - 1``: preceded (a
    later SET swaps onto this one), not idempotent (a swap whose image the
    operator moves), later (a swap onto a later SET) and outside (a swap
    out of the basis)."""
    low, width = max(n - 1, 0), n.bit_length()
    fields = tuple((1 << width) - 1 << low + k * width for k in range(4))
    return low + 4 * width, (1 << low) - 1, fields


@lru_cache(maxsize=4096)
def _row_pair_marks(rule, n: int, a: int, b: int, sign: int) -> tuple[tuple[int, ...], ...]:
    """Entry ``[q][c]``: the mark of placing v+1 in column c of a row of b
    boxes after v in column q of a row of a boxes, of weight n, where
    ``sign`` is that of ``p - r``, the row of v less the row of v+1, under
    the placement rule ``rule``.  Within one row (sign 0) v+1 follows v, so
    only ``[q][q + 1]`` is read, and every row of the table is one of two.
    Kept across shapes, since the tables depend on the parts alone."""
    if not sign:
        zeros, ones = (0,) * a, (1,) * a
        return tuple(ones if rule(q, q + 1) == "kill" else zeros for q in range(a - 1))
    # the lowest bit of each field
    preceded, idempotence, later, outside = (bits & -bits for bits in _layout(n)[2])
    table = []
    for q in range(a):
        row = []
        for c in range(b):
            act = rule(q, c)
            mark = int(act != "fix")
            # the image swaps v and v+1: outside the basis when they share a
            # column, later when v+1 sinks, and moved again unless fixed
            if act == "swap":
                if q == c:
                    mark += outside
                elif sign > 0:
                    mark += later
                elif rule(c, q) != "fix":
                    mark += idempotence
            if sign > 0 and q != c and rule(c, q) == "swap":
                mark += preceded  # the image of the later SET with v and v+1 swapped
            row.append(mark)
        table.append(tuple(row))
    return tuple(table)


def _marks(alpha: Composition) -> tuple[int, list]:
    """The ``marks`` of ``tableaux._grown`` that decide the column pass as
    the SETs are grown, by the lemmas of the module docstring: the shift
    that leaves room for the mask and the four fields, and the mark of each
    placement by the rows ``p``, ``r`` and columns ``q``, ``c`` of v and
    v+1.  The rule ``hecke_action._placement`` is looked up here, once per
    shape, and read once per pair of columns in :func:`_row_pair_marks`, so
    a substituted rule is seen.  Operator v moves the SET unless it fixes
    it, or swaps v and v+1 within one row, which leaves the row word as it
    is; bit 0 of the mark becomes bit v-1 of the mask."""
    rule, n = hecke_action._placement, alpha.weight
    rows = range(len(alpha))
    return _layout(n)[0], [
        [_row_pair_marks(rule, n, alpha[p], alpha[r], (p > r) - (p < r)) for r in rows]
        for p in rows
    ]


@lru_cache(maxsize=64)
def _generator_reading(n: int) -> int:
    """The reading key of the super-standard tableau of weight n, whose
    reading word is 1..n: the residue of its order key modulo ``n^n``."""
    return sum(v * n ** (n - 1 - v) for v in range(n))


class _Shape:
    """Every table and invariant of one composition, each built on first use
    and kept: the row words of its standard row-increasing tableaux with their
    ``"full"`` action table, its standard extended tableaux grown once as
    marked keys and sorted into filtration order, the only form in which
    they are kept, their row words decoded from those keys in one batch
    when read, the column pass that reads the count of each factor mask
    and the verdict off the keys, the quotient table built only for
    output, and the count of each descent mask with the extended Schur
    function.  The counts come from ``tableaux._descent_masks``, which
    grows no tableau, so the characteristic and the extended Schur
    function share no enumeration."""

    def __init__(self, alpha):
        self.alpha = Composition(alpha)

    @cached_property
    def srit_words(self) -> list[RowWord]:
        return _srit_words(self.alpha)

    @cached_property
    def full_table(self) -> ActionTable:
        return _word_table(self.srit_words, "full")

    @cached_property
    def growth(self) -> tuple[list[int], tuple[int, list]]:
        """One growth of the SETs under the marks of :func:`_marks`: their
        marked keys, ``order_key << shift | fields | mask``, sorted into
        filtration order, and the marks."""
        marks = _marks(self.alpha)
        keys = _grown(self.alpha, marks)[1]
        keys.sort()
        return keys, marks

    @cached_property
    def words(self) -> list[RowWord]:
        """The row words of the SETs in filtration order, read off the
        sorted keys."""
        keys, (shift, _) = self.growth
        return _words_of_keys(self.alpha, keys, shift)

    @cached_property
    def quotient_table(self) -> ActionTable:
        return _word_table(self.words, "quotient")

    @cached_property
    def descent_masks(self) -> Counter[int]:
        return _descent_masks(self.alpha)

    @cached_property
    def extended_schur(self) -> QSymElement:
        return _element(self.alpha.weight, "F", self.descent_masks)

    def masks(self):
        """The mask of the operators moving each index, in filtration order,
        read afresh off the low bits of the keys: no per-SET list is kept."""
        return map(_layout(self.alpha.weight)[1].__and__, self.growth[0])

    @cached_property
    def column_pass(self) -> tuple[Counter[int], str | None]:
        """The count of each mask and the refusal (``None`` when the
        certificate holds), read off the marked keys: no word, no rule call
        and no index lookup, unless a refusal names a tableau.  It raises
        ``KeyError`` naming the first image out of the basis, as
        ``hecke_action._word_table`` does."""
        keys = self.growth[0]
        shift, mask_bits, (preceded, _, _, _) = _layout(self.alpha.weight)
        fixing = ~keys[-1] & mask_bits  # the operators fixing the last SET
        counts: Counter[int] = Counter()
        seen = unpreceded = fixed = 0  # every field some SET marks, two counts
        # each distinct mask with its fields once, with its count
        for kind, count in Counter(map(((1 << shift) - 1).__and__, keys)).items():
            mask = kind & mask_bits
            counts[mask] += count
            seen |= kind
            if not kind & preceded:
                unpreceded += count
            if not mask & fixing:
                fixed += count
        return counts, self._verdict(seen, unpreceded, fixed)

    def _placements(self, j: int):
        """``(v, mark, image)`` for each operator v on the j-th SET: the mark
        of the placement of v+1 and the word with v and v+1 swapped."""
        table, w = self.growth[1][1], self.words[j]
        filled = [0] * len(self.alpha)
        for v, r in enumerate(w):
            c = filled[r]
            filled[r] = c + 1
            if v:
                yield v, table[p][r][q][c], w[:v - 1] + (r, p) + w[v + 1:]
            p, q = r, c

    def _first(self, bits: int) -> tuple[int, int, RowWord]:
        """The first index with a placement marked in the field ``bits``,
        that placement's operator and its image."""
        j = next(j for j, key in enumerate(self.growth[0]) if key & bits)
        return (j, *next((v, image) for v, mark, image in self._placements(j) if mark & bits))

    def _verdict(self, seen: int, unpreceded: int, fixed: int) -> str | None:
        """The verdict of the column pass, in the order of the module
        docstring: no image out of the basis, the generator last, no swap
        onto a later index, every index but the generator preceded, each
        operator fixing it idempotent, and a fixed-point count of 1.
        ``seen`` has every field that some SET marks, ``unpreceded`` counts
        the SETs no later one swaps onto and ``fixed`` those that every
        operator fixing the last SET fixes."""
        keys, (shift, _) = self.growth
        g, n = len(keys) - 1, self.alpha.weight
        _, mask_bits, (preceded, idempotence, later, outside) = _layout(n)
        if seen & outside:
            raise KeyError(_from_row_word(self._first(outside)[2]))
        if (keys[g] >> shift) % n**n != _generator_reading(n):
            reason = f"the order ends with tableau {self.tableau(g)} instead"
        elif seen & later:
            j, i, image = self._first(later)
            reason = (f"operator {i} sends tableau {self.tableau(j)} to the later "
                      f"tableau {_from_row_word(image).rows}, so the order is not a filtration")
        elif keys[g] & preceded:
            reason = "it is marked as the image of a later tableau, so the order is not a filtration"
        elif unpreceded > 1:
            u = next(u for u, key in enumerate(keys) if not key & preceded)
            return (
                f"tableau {self.tableau(u)} is not reached from the super-standard "
                f"tableau {super_standard(self.alpha).rows}; the module is not cyclic on "
                "it, so its commutant cannot be certified"
            )
        else:
            fixing = ~keys[g] & mask_bits  # the operators fixing the generator
            moved: dict[int, RowWord] = {}  # operator bit: the first of its images it moves
            if seen & idempotence:
                for j, key in enumerate(keys):
                    if key & idempotence:
                        for v, mark, image in self._placements(j):
                            if mark & idempotence:
                                moved.setdefault(v - 1, image)
            if (b := min((b for b in moved if fixing >> b & 1), default=None)) is not None:
                reason = (f"operator {b + 1} fixes it but is not idempotent: it moves "
                          f"tableau {_from_row_word(moved[b]).rows}, one of its images")
            elif fixed == 1:
                return None
            else:
                u = next(u for u, key in enumerate(keys) if not key & fixing and u != g)
                reason = (f"the fixed-point count is {fixed}: every operator fixing it "
                          f"also fixes tableau {self.tableau(u)}")
        return (
            f"the commutant of the module on the super-standard tableau "
            f"{super_standard(self.alpha).rows} is not certified one-dimensional; {reason}"
        )

    def tableau(self, j: int):
        """The rows of the j-th basis tableau, for a message."""
        return _from_row_word(self.words[j]).rows

    @cached_property
    def factors(self) -> CompositionFactorList:
        """The composition factors in filtration order: the operators
        that move the j-th basis tableau make the descent mask of the j-th
        factor, each distinct mask turned into a composition once."""
        n, counts = self.alpha.weight, self.column_pass[0]
        factor_of = {mask: _composition_of_mask(mask, n) for mask in counts}
        return tuple(map(factor_of.__getitem__, self.masks()))

    @cached_property
    def characteristic(self) -> QSymElement:
        return _element(self.alpha.weight, "F", self.column_pass[0])

    def certify(self) -> None:
        """Return when the identity is certified to span the commutant;
        otherwise raise ValueError with the column pass's refusal."""
        if refusal := self.column_pass[1]:
            raise ValueError(refusal)

    def commutant_basis(self) -> EndomorphismSpace:
        """The identity alone, once :meth:`certify` returns."""
        self.certify()
        m = range(len(self.growth[0]))
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
