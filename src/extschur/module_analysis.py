"""Matrix realization of the quotient modules and their invariants.

In the filtration basis every operator matrix has at most one 1 per column
and never maps a basis vector to a later one, so the chain of leading
subspaces is a composition series with one-dimensional subquotients.  The
commutant of the operator matrices is computed exactly; a one-dimensional
commutant certifies indecomposability.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .compositions import Composition, DescentSubset, composition_of_subset
from .hecke_action import Filtration, Fixed, Swapped, filtration, pi_full, pi_quotient
from .linalg import nullspace
from .qsym import QSymElement
from .tableaux import enumerate_srit, is_standard_extended

Matrix = tuple[tuple[int, ...], ...]
CompositionFactorList = tuple[Composition, ...]


@dataclass(frozen=True)
class ModuleMatrices:
    """0/1 matrices of the quotient operators in the filtration basis.

    Column j of ``mats[i-1]`` holds the image of the j-th basis tableau
    under the i-th operator: a diagonal 1 for a fixed tableau, an
    off-diagonal 1 at the image's index for a swap, and a zero column for
    an annihilated tableau.
    """

    alpha: Composition
    order: Filtration
    mats: tuple[Matrix, ...]


def matrices(alpha) -> ModuleMatrices:
    """Realize the quotient operators as matrices, column by column."""
    return _matrices(filtration(Composition(alpha)))


def _matrices(filt: Filtration) -> ModuleMatrices:
    alpha = filt.alpha
    m = len(filt)
    mats = []
    for i in range(1, alpha.weight):
        mat = [[0] * m for _ in range(m)]
        for j, t in enumerate(filt.order):
            result = pi_quotient(i, t)
            if isinstance(result, Fixed):
                mat[j][j] = 1
            elif isinstance(result, Swapped):
                mat[filt.index_of(result.tableau)][j] = 1
        mats.append(tuple(tuple(row) for row in mat))
    return ModuleMatrices(alpha, filt, tuple(mats))


def composition_factors(alpha) -> CompositionFactorList:
    """Factors of the composition series, in filtration order.

    On the j-th subquotient each operator either fixes the basis tableau
    or kills it, so the factor is the composition whose subset collects
    the non-fixing operator indices.
    """
    return _composition_factors(filtration(Composition(alpha)))


def _composition_factors(filt: Filtration) -> CompositionFactorList:
    n = filt.alpha.weight
    factors = []
    for t in filt.order:
        moved = tuple(
            i for i in range(1, n) if not isinstance(pi_quotient(i, t), Fixed)
        )
        factors.append(composition_of_subset(DescentSubset(n, moved)))
    return tuple(factors)


def characteristic(alpha) -> QSymElement:
    """Sum of fundamental terms over the composition factors.

    Computed from the operator action alone; it coincides with the
    extended Schur function of alpha.
    """
    alpha = Composition(alpha)
    counts = Counter(composition_factors(alpha))
    return QSymElement(alpha.weight, "F", dict(counts))


@dataclass(frozen=True)
class EndomorphismSpace:
    """Primitive integer basis of the matrices commuting with every
    operator matrix.  The identity always lies in the span, so the
    dimension is at least one."""

    alpha: Composition
    basis: tuple[Matrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def commutant_basis(alpha) -> EndomorphismSpace:
    """Solve E*A = A*E for all operator matrices A, exactly.

    The m*m entries of E are the unknowns; each matrix contributes one
    sparse linear constraint per entry of the commutator.  The solution
    space is extracted by exact fraction-free elimination.
    """
    return _commutant_basis(matrices(alpha))


def _commutant_basis(mod: ModuleMatrices) -> EndomorphismSpace:
    m = len(mod.order)
    rows = []
    for mat in mod.mats:
        col_support: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        row_support: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for k in range(m):
            for c in range(m):
                if mat[k][c]:
                    col_support[c].append((k, mat[k][c]))
                    row_support[k].append((c, mat[k][c]))
        for r in range(m):
            for c in range(m):
                coeffs: dict[int, int] = {}
                for k, v in col_support[c]:  # E[r][k] * A[k][c]
                    index = r * m + k
                    coeffs[index] = coeffs.get(index, 0) + v
                for k, v in row_support[r]:  # -A[r][k] * E[k][c]
                    index = k * m + c
                    coeffs[index] = coeffs.get(index, 0) - v
                coeffs = {idx: value for idx, value in coeffs.items() if value}
                if coeffs:
                    rows.append(coeffs)
    vectors = nullspace(rows, m * m)
    basis = tuple(
        tuple(tuple(vector[r * m + c] for c in range(m)) for r in range(m))
        for vector in vectors
    )
    return EndomorphismSpace(mod.alpha, basis)


@dataclass(frozen=True)
class Indecomposable:
    """The commutant is spanned by the identity alone, so the only
    idempotent endomorphisms are zero and the identity."""


@dataclass(frozen=True)
class Inconclusive:
    """Commutant dimension above one; no decomposition is claimed either
    way."""

    commutant_dimension: int


Verdict = Indecomposable | Inconclusive


def is_indecomposable(alpha) -> Verdict:
    """Certify indecomposability from the commutant dimension.

    Dimension one forces every idempotent endomorphism to be zero or the
    identity; anything larger is reported as inconclusive, never as
    decomposable.
    """
    space = commutant_basis(alpha)
    if space.dimension == 1:
        return Indecomposable()
    return Inconclusive(space.dimension)


def verify_submodule_closure(alpha) -> bool:
    """True when every full-basis operator maps each non-extended
    row-increasing tableau to another non-extended one."""
    alpha = Composition(alpha)
    n = alpha.weight
    for t in enumerate_srit(alpha):
        if is_standard_extended(t):
            continue
        for i in range(1, n):
            if is_standard_extended(pi_full(i, t)):
                return False
    return True


def analysis_report(alpha) -> dict:
    """JSON-ready summary: dimension, factors in filtration order, the
    characteristic, and the commutant verdict."""
    alpha = Composition(alpha)
    mod = matrices(alpha)
    factors = _composition_factors(mod.order)
    counts = Counter(factors)
    element = QSymElement(alpha.weight, "F", dict(counts))
    space = _commutant_basis(mod)
    return {
        "alpha": list(alpha),
        "dim": len(factors),
        "factors": [list(beta) for beta in factors],
        "characteristic": element.to_json(),
        "commutant_dimension": space.dimension,
        "indecomposable": True if space.dimension == 1 else "inconclusive",
    }
