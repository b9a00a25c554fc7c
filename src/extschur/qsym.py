"""Quasisymmetric functions of one degree, in exact integer arithmetic.

Supports the monomial and fundamental bases, the change of basis through
refinement, the expansions indexed by standard extended tableaux, the
descent-count matrix recording those expansions, and an independent
standard-Young-tableau route for partition shapes used as a cross-check.

Internally a composition of n is its descent mask (see ``compositions``).
Refinement adds bits to a mask, so the basis changes are sums over
supersets: :func:`_superset_sums` makes one pass per bit that some term
leaves free, moving every coefficient whose mask lacks the bit onto the
mask with it, negated towards F, so each added bit carries a factor -1.
That costs the free bits times the terms kept, where walking the
submasks of each term's free bits cost 2^free per term.  The expansions,
``K`` and the ribbon columns read the counts of descent masks that
``tableaux._descent_masks`` takes from its recursion over sub-shapes, so
none of them grows or builds a ``Tableau``; the monomial expansion
refines those counts directly (:func:`_superset_sums`).  The command line
writes its results straight from those counts; masks turn back into
compositions only for the public functions, in :func:`_element`.

``QSymElement(...)`` checks every key and coefficient it is given.  The
results built here from masks are clean by construction (``Composition``
keys of the right weight, nonzero ``int`` coefficients), so they go
through :func:`_element`, which checks nothing.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import cached_property, reduce
from itertools import combinations
from math import factorial, prod
from operator import and_, itemgetter
from types import MappingProxyType

from .compositions import (
    Composition,
    DescentSubset,
    _Record,
    _check_int,
    _composition_of_mask,
    _mask,
    composition_of_subset,
    compositions_of,
    format_composition,
    is_partition,
)
from .tableaux import _descent_masks

BASES = ("M", "F")


class QSymElement(_Record):
    """A homogeneous element: integer coefficients on the compositions of
    one degree, tagged with the basis the coefficients refer to.

    Zero coefficients are never stored, so equality is plain field
    equality.  ``coeffs`` is a read-only mapping, so elements are
    immutable and hashable.
    """

    degree: int
    basis: str
    coeffs: Mapping[Composition, int]

    def __init__(self, degree, basis, coeffs):
        if basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
        _check_int(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Composition, int] = {}
        for key, value in coeffs.items():
            # a Composition was validated when it was made
            alpha = key if type(key) is Composition else Composition(key)
            if alpha.weight != degree:
                raise ValueError(
                    f"key {alpha} has weight {alpha.weight}, expected degree {degree}"
                )
            # bool subclasses int, but True is not a coefficient
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"coefficients must be integers, got {value!r}")
            if value:
                clean[alpha] = value
        self.__dict__.update(degree=degree, basis=basis, coeffs=MappingProxyType(clean))

    def __hash__(self) -> int:
        return hash((self.degree, self.basis, frozenset(self.coeffs.items())))

    def __reduce__(self):
        # a mappingproxy cannot be pickled; rebuild from a plain dict
        return (QSymElement, (self.degree, self.basis, dict(self.coeffs)))

    def terms(self) -> list[tuple[Composition, int]]:
        """Terms sorted lexicographically by composition."""
        # the keys are distinct, so the coefficients never break a tie
        return sorted(self.coeffs.items(), key=itemgetter(0))

    def coefficient(self, alpha) -> int:
        return self.coeffs.get(Composition(alpha), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "basis": self.basis,
            "terms": [
                {"composition": list(alpha), "coefficient": c}
                for alpha, c in self.terms()
            ],
        }


def monomial(alpha) -> QSymElement:
    """The monomial basis element indexed by alpha."""
    alpha = Composition(alpha)
    return QSymElement(alpha.weight, "M", {alpha: 1})


def fundamental(alpha) -> QSymElement:
    """The fundamental basis element indexed by alpha."""
    alpha = Composition(alpha)
    return QSymElement(alpha.weight, "F", {alpha: 1})


def fundamental_to_monomial(x: QSymElement) -> QSymElement:
    """Expand each fundamental term as the sum of monomials over all
    refinements of its index."""
    if x.basis != "F":
        raise ValueError("expected a fundamental-basis element")
    return _refine(x, "M")


def monomial_to_fundamental(x: QSymElement) -> QSymElement:
    """Invert the refinement expansion by Moebius inversion:
    M_a = sum over b refining a of (-1)^(l(b)-l(a)) F_b."""
    if x.basis != "M":
        raise ValueError("expected a monomial-basis element")
    return _refine(x, "F")


def _refine(x: QSymElement, basis: str) -> QSymElement:
    """Spread each term of x over the refinements of its index; towards F
    each refinement that adds k parts carries (-1)^k."""
    return _refine_masks(x.degree, {_mask(alpha): c for alpha, c in x.coeffs.items()}, basis)


def _refine_masks(n: int, masks: Mapping[int, int], basis: str) -> QSymElement:
    """The element of the given basis that :func:`_refine` makes from the
    coefficient of each descent mask of weight n, read in the other
    basis: :func:`_superset_sums` as an element."""
    return _element(n, basis, _superset_sums(n, masks, basis))


def _superset_sums(n: int, masks: Mapping[int, int], basis: str) -> dict[int, int]:
    """The nonzero coefficient of each descent mask of weight n in the
    given basis, from the coefficient of each mask read in the other
    basis: the sum over supersets of the module docstring, one pass per
    bit that some mask leaves free, zeros dropped at the end."""
    full = (1 << max(n - 1, 0)) - 1
    free = full & ~reduce(and_, masks, full)
    sign = -1 if basis == "F" else 1
    out = dict(masks)
    get = out.get
    while free:
        bit = free & -free
        free ^= bit
        for mask, c in [(m | bit, c) for m, c in out.items() if not m & bit]:
            out[mask] = get(mask, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _element(n: int, basis: str, masks: Mapping[int, int]) -> QSymElement:
    """The element with coefficient ``masks[m]`` on the composition of each
    descent mask m of weight n, nothing checked: the values must be
    nonzero ``int`` objects, as every count and superset sum here is.
    ``QSymElement(...)`` is the checking constructor."""
    coeffs = {_composition_of_mask(m, n): c for m, c in masks.items()}
    x = object.__new__(QSymElement)
    x.__dict__.update(degree=n, basis=basis, coeffs=MappingProxyType(coeffs))
    return x


def extended_schur_in_F(alpha) -> QSymElement:
    """Fundamental expansion of the extended Schur function of alpha:
    one term per standard extended tableau, indexed by its descent
    composition."""
    alpha = Composition(alpha)
    return _element(alpha.weight, "F", _descent_masks(alpha))


def extended_schur_in_M(alpha) -> QSymElement:
    """Monomial expansion of the extended Schur function; all
    coefficients are nonnegative.  Equal to
    ``fundamental_to_monomial(extended_schur_in_F(alpha))``, refined
    straight from the descent mask counts."""
    alpha = Composition(alpha)
    return _refine_masks(alpha.weight, _descent_masks(alpha), "M")


def specialize(x: QSymElement, k: int) -> dict[tuple[int, ...], int]:
    """Restrict a monomial-basis element to k variables.

    Each term spreads its parts over the increasing placements among
    positions 1..k; indices longer than k contribute nothing.  Keys are
    exponent vectors of length k.
    """
    if x.basis != "M":
        raise ValueError("expected a monomial-basis element")
    _check_int(k, "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    poly: dict[tuple[int, ...], int] = {}
    for alpha, c in x.coeffs.items():
        if len(alpha) > k:
            continue
        for places in combinations(range(k), len(alpha)):
            exponents = [0] * k
            for position, part in zip(places, alpha):
                exponents[position] = part
            key = tuple(exponents)
            poly[key] = poly.get(key, 0) + c
    return poly


class KMatrix(_Record):
    """Counts of standard extended tableaux by (shape, descent) pair.

    Rows and columns are indexed by the compositions of n in lexicographic
    order; entry (alpha, beta) counts tableaux of shape alpha with descent
    composition beta.  A tableau's descent composition is at most its
    shape lexicographically, with equality only for the super-standard
    tableau, so the matrix is lower unitriangular: the determinant is 1
    and the recorded expansions are invertible over the integers.
    """

    n: int
    compositions: tuple[Composition, ...]
    entries: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict[Composition, int]:
        return {alpha: i for i, alpha in enumerate(self.compositions)}

    def entry(self, alpha, beta) -> int:
        return self.entries[self.index[Composition(alpha)]][self.index[Composition(beta)]]

    def determinant(self) -> int:
        """The product of the diagonal; an entry above the diagonal raises
        ``ValueError`` naming it instead."""
        size = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != size:
                raise ValueError("K must be square")
            for j in range(i + 1, size):
                if row[j]:
                    raise ValueError(
                        f"entry ({format_composition(self.compositions[i])}, "
                        f"{format_composition(self.compositions[j])}) = {row[j]} "
                        "lies above the diagonal"
                    )
        return prod(row[i] for i, row in enumerate(self.entries))

    def to_csv(self) -> str:
        """Header row and column of composition strings, integer entries,
        quoted as ``csv.writer`` quotes them."""
        labels = [f'"{s}"' if "," in s else s for s in map(format_composition, self.compositions)]
        lines = [",".join(["", *labels]) or '""']  # a row of one empty field
        lines += (",".join([label, *map(str, row)]) for label, row in zip(labels, self.entries))
        return "\n".join(lines) + "\n"


def k_matrix(n: int) -> KMatrix:
    """The full descent-count matrix in degree n, each row the count of
    each descent mask of one shape."""
    _check_int(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    comps = compositions_of(n)
    column = {_mask(beta): i for i, beta in enumerate(comps)}
    rows = []
    for alpha in comps:
        row = [0] * len(comps)
        for mask, count in _descent_masks(alpha).items():
            row[column[mask]] = count
        rows.append(tuple(row))
    return KMatrix(n, tuple(comps), tuple(rows))


def ribbon_in_shin(beta) -> dict[Composition, int]:
    """Expansion coefficients of the ribbon indexed by beta on the dual
    side of the descent-count pairing: alpha maps to the number of
    standard extended tableaux of shape alpha with descent composition
    beta (the beta column of the descent-count matrix), nonzero values
    only."""
    beta = Composition(beta)
    mask = _mask(beta)
    out: dict[Composition, int] = {}
    for alpha in compositions_of(beta.weight):
        count = _descent_masks(alpha).get(mask, 0)
        if count:
            out[alpha] = count
    return out


def schur_in_F(lmbda) -> QSymElement:
    """Fundamental expansion of the Schur function of a partition shape.

    Enumerates standard Young tableaux independently of the extended
    machinery (growth by adding one box at a time) and uses the row form
    of the descent rule: i is a descent when i+1 lies in a strictly
    higher row.  Serves as a cross-check for :func:`extended_schur_in_F`
    on partitions.
    """
    lmbda = Composition(lmbda)
    if not is_partition(lmbda):
        raise ValueError(f"{lmbda} is not a partition")
    n = lmbda.weight
    counts: Counter = Counter()
    for row_of in _syt_row_assignments(tuple(lmbda)):
        descents = [i for i in range(1, n) if row_of[i + 1] > row_of[i]]
        counts[composition_of_subset(DescentSubset(n, descents))] += 1
    return QSymElement(n, "F", dict(counts))


def _syt_row_assignments(shape: tuple[int, ...]):
    """Yield, for every standard Young tableau of the partition shape,
    the tuple whose v-th entry is the (1-based) row of v.

    Entries are inserted in increasing order; a box is available in row r
    when the row is not full and the box below it is already filled, which
    forces rows and columns to increase.  The partial fillings wait on an
    explicit stack, so no shape needs Python recursion.
    """
    n = sum(shape)
    stack = [((0,) * len(shape), (0,))]  # (boxes filled per row, row_of so far)
    while stack:
        counts, row_of = stack.pop()
        if len(row_of) > n:
            yield row_of
            continue
        for r in reversed(range(len(shape))):  # the lowest row is popped first
            if counts[r] < shape[r] and (r == 0 or counts[r - 1] > counts[r]):
                stack.append((counts[:r] + (counts[r] + 1,) + counts[r + 1:], row_of + (r + 1,)))


def hook_length_count(lmbda) -> int:
    """Number of standard Young tableaux of a partition shape, by the
    hook length formula."""
    lmbda = Composition(lmbda)
    if not is_partition(lmbda):
        raise ValueError(f"{lmbda} is not a partition")
    product = 1
    for r, part in enumerate(lmbda):
        for c in range(part):
            arm = part - c - 1
            leg = sum(1 for upper in lmbda[r + 1:] if upper > c)
            product *= arm + leg + 1
    return factorial(lmbda.weight) // product
