"""Brute-force oracles shared by the tests.

Everything here is computed from first principles (permutation filters,
Laplace expansion, dense rational elimination) or by the slower route a
fast path in the package replaced: the SRITs chosen row by row as
combinations of tableau entries (:func:`combination_srit`), the SRIT
filter (:func:`filtered_set`),
the operators read off entry positions and applied by ``swap_entries``
(:func:`positional_pi_full`, :func:`positional_pi_quotient`), the operator
matrices rebuilt column by column from ``pi_quotient``
(:func:`dense_matrices`), the commutant with all ``m * m`` matrix entries
as unknowns (:func:`dense_commutant_basis`) and with the ``m`` entries of
``E(g)`` (:func:`cyclic_commutant_basis`, the route the package took
before the fixed-point count became its only certificate), both over the
exact fraction-free :func:`nullspace`, the relation sweep replaying
both words of every relation on every tableau (:func:`replayed_relations`),
the submodule closure over validated tableaux
(:func:`tableau_submodule_closure`), the filtration order sorted over
validated tableaux (:func:`tableau_filtration_order`), the primitive
basis of the generator's weight space (:func:`weight_space`) and its
dimension as a rank (:func:`weight_dimension`, with the rank that drops
pinned columns first, :func:`pinned_rank`), the
nullspace read off the reduced row echelon form over the rationals
(:func:`rref_nullspace`), the count of each descent mask over the grown
tableaux (:func:`grown_descent_masks`), the extended Schur expansions and
the descent-count matrix counted over validated tableaux by
``descent_composition`` (:func:`tableau_schur_in_F`,
:func:`tableau_k_matrix`), the refinements as products of the
compositions of each part and the basis changes through them
(:func:`product_refinements`, :func:`product_basis_change`), the
basis changes walking the submasks of each term's free bits
(:func:`walked_refine_masks`), the triangular monomial-to-fundamental solve
(:func:`peeled_monomial_to_fundamental`), the closure search for
reachability (:func:`searched_preceq`) and the Bareiss determinant
(:func:`bareiss_determinant`).  :func:`interval_module` builds the quotient
module a second way, as a left weak order interval of permutations,
without tableaux or the row-word rules, and :func:`dataclass_twin`
rebuilds each record class as the frozen dataclass it replaced.  The
tests pit the two routes against each other.  The matrix helpers
(:func:`rank`, the plain echelon rank that :func:`pinned_rank` must match,
:func:`mat_mul`, :func:`identity_matrix`) serve only the tests, and
:func:`shape_with_table` hands the module invariants a hand-built action
table.  :func:`action_table` (the action table of a basis of validated
tableaux) and :func:`filtration_words` have no caller in the package.
"""

from collections import Counter
from collections.abc import Mapping
from dataclasses import field, make_dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd

from extschur.compositions import (
    Composition,
    DescentSubset,
    _mask,
    _refinement_masks,
    composition_of_subset,
    compositions_of,
)
from extschur.hecke_action import (
    ActionTable,
    Filtration,
    Fixed,
    Kind,
    RelationReport,
    RelationViolation,
    Swapped,
    Zero,
    _check_kind,
    _word_table,
    apply_word,
    filtration,
    pi_quotient,
)
from extschur.module_analysis import (
    EndomorphismSpace,
    Indecomposable,
    ModuleMatrices,
    _Shape,
)
from extschur.qsym import KMatrix, QSymElement
from extschur.tableaux import (
    RowWord,
    Tableau,
    _row_word,
    descent_composition,
    enumerate_set,
    enumerate_srit,
    is_standard_extended,
    reading_word,
    row_sum_vector,
    swap_entries,
)

Rows = tuple[tuple[int, ...], ...]


def brute_fillings(shape) -> list[Rows]:
    """Every bijective filling of the diagram, rows bottom-up."""
    n = sum(shape)
    out = []
    for perm in permutations(range(1, n + 1)):
        rows = []
        k = 0
        for part in shape:
            rows.append(tuple(perm[k:k + part]))
            k += part
        out.append(tuple(rows))
    return out


def rows_increase(rows: Rows) -> bool:
    return all(all(a < b for a, b in zip(row, row[1:])) for row in rows)


def columns_increase(rows: Rows) -> bool:
    width = max((len(row) for row in rows), default=0)
    for c in range(width):
        column = [row[c] for row in rows if len(row) > c]
        if any(a >= b for a, b in zip(column, column[1:])):
            return False
    return True


def brute_srit(shape) -> set[Rows]:
    return {rows for rows in brute_fillings(shape) if rows_increase(rows)}


def brute_set(shape) -> set[Rows]:
    return {
        rows
        for rows in brute_fillings(shape)
        if rows_increase(rows) and columns_increase(rows)
    }


def combination_srit(alpha) -> list[Tableau]:
    """The standard row-increasing tableaux of alpha, each row in turn
    taking every combination of the entries the rows under it left free:
    the oracle for the row words of ``tableaux._srit_words``."""

    def fill(pool: tuple[int, ...], parts: tuple[int, ...]):
        if not parts:
            yield ()
            return
        for row in combinations(pool, parts[0]):
            chosen = set(row)
            rest = tuple(v for v in pool if v not in chosen)
            for tail in fill(rest, parts[1:]):
                yield (row,) + tail

    pool = tuple(range(1, sum(alpha) + 1))
    return [Tableau(rows) for rows in fill(pool, tuple(alpha))]


def filtered_set(alpha) -> list:
    """The standard extended tableaux of alpha by filtering every standard
    row-increasing tableau through the column check, in the order of
    ``enumerate_srit``: the oracle for the direct generator."""
    return [t for t in enumerate_srit(alpha) if is_standard_extended(t)]


def row_of_entries(rows: Rows) -> dict[int, int]:
    """1-based row index of each entry."""
    out = {}
    for r, row in enumerate(rows, start=1):
        for value in row:
            out[value] = r
    return out


def descents_by_row_rule(rows: Rows) -> list[int]:
    """Descents of a standard Young tableau: i with i+1 strictly above i."""
    n = sum(len(row) for row in rows)
    row_of = row_of_entries(rows)
    return [i for i in range(1, n) if row_of[i + 1] > row_of[i]]


def composition_from_descents(descents, n) -> tuple[int, ...]:
    if n == 0:
        return ()
    parts = []
    previous = 0
    for d in sorted(descents) + [n]:
        parts.append(d - previous)
        previous = d
    return tuple(parts)


def hook_length(shape) -> int:
    """Standard-Young-tableau count of a partition shape."""
    n = sum(shape)
    product = 1
    for r, part in enumerate(shape):
        for c in range(part):
            arm = part - c - 1
            leg = sum(1 for upper in shape[r + 1:] if upper > c)
            product *= arm + leg + 1
    return factorial(n) // product


def laplace_determinant(matrix) -> int:
    """Cofactor-expansion determinant, practical only for tiny matrices."""
    size = len(matrix)
    if size == 0:
        return 1
    if size == 1:
        return matrix[0][0]
    total = 0
    for c in range(size):
        if matrix[0][c] == 0:
            continue
        minor = [
            [row[cc] for cc in range(size) if cc != c] for row in matrix[1:]
        ]
        total += (-1) ** c * matrix[0][c] * laplace_determinant(minor)
    return total


def dense_rank(rows, ncols) -> int:
    """Rank via plain dense elimination over exact rationals."""
    return len(dense_rref(rows, ncols)[1])


def dense_rref(rows, ncols) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over exact rationals, nonzero rows first,
    and its pivot columns."""
    m = [[Fraction(row[c] if c < len(row) else 0) for c in range(ncols)] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank][col]
        m[rank] = [v / head for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m, pivots


def rref_nullspace(rows, ncols) -> list[tuple[int, ...]]:
    """One vector per free column f of the reduced row echelon form: 1 at
    f, minus the f entry of each pivot row at its pivot, 0 elsewhere,
    cleared to coprime integers with positive first nonzero entry.  The
    oracle for the integer back-substitution of :func:`nullspace`."""
    m, pivots = dense_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, p in enumerate(pivots):
            x[p] = -m[r][f]
        scale = 1
        for v in x:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        ints = [int(v * scale) for v in x]
        g = 0
        for v in ints:
            g = gcd(g, v)
        sign = 1 if next(v for v in ints if v) > 0 else -1
        basis.append(tuple(sign * v // g for v in ints))
    return basis


def dense_matrices(alpha) -> ModuleMatrices:
    """The operator matrices in the filtration basis, one ``pi_quotient``
    call per column: the oracle for the table-built ``matrices``."""
    filt = filtration(Composition(alpha))
    m = len(filt)
    mats = []
    for i in range(1, filt.alpha.weight):
        mat = [[0] * m for _ in range(m)]
        for j, t in enumerate(filt.order):
            result = pi_quotient(i, t)
            if isinstance(result, Fixed):
                mat[j][j] = 1
            elif isinstance(result, Swapped):
                mat[filt.index_of(result.tableau)][j] = 1
        mats.append(tuple(tuple(row) for row in mat))
    return ModuleMatrices(filt.alpha, filt, tuple(mats))


def tableau_filtration_order(alpha) -> list[Tableau]:
    """The standard extended tableaux of alpha sorted as validated
    tableaux, by descending row-sum vector, then ascending reading word:
    the oracle for the row-word order of ``hecke_action._filtration_words``."""

    def key(t: Tableau):
        return tuple(-x for x in row_sum_vector(t)), reading_word(t)

    return sorted(enumerate_set(Composition(alpha)), key=key)


def weight_space(table, g: int, m: int) -> list[tuple[int, ...]]:
    """Primitive basis of W, the v with pi_i v = v for each operator of the
    action table fixing basis index g and pi_i v = 0 for each one
    annihilating it, from ``nullspace``: the oracle for the rank-only
    :func:`weight_dimension`.

    Each such operator gives one row per coordinate k of pi_i v - v, or of
    pi_i v when it annihilates g: the sum of the v_u it sends to k, less v_k
    when it fixes g.
    """
    rows = []
    for images in table:
        fixes = images[g] == g
        if not fixes and images[g] is not None:
            continue
        forms: dict[int, dict[int, int]] = {}
        for u, k in enumerate(images):
            if k is not None:
                forms.setdefault(k, {})[u] = 1
        if fixes:
            for k in range(m):
                form = forms.setdefault(k, {})
                form[k] = form.get(k, 0) - 1
        rows.extend(forms.values())
    return nullspace(rows, m)


def weight_dimension(table, g: int, m: int) -> int:
    """Dimension of W as in :func:`weight_space`, but m less the rank of
    its equations (:func:`pinned_rank`), so no basis of W is built: the
    certificate ``module_analysis`` counted before the fixed points of the
    operators fixing g replaced it.

    These are the equations themselves, so W contains E(g) for every E in
    the commutant whatever the table.  On a module, where pi_i is
    idempotent, the rows of a fixing operator reduce to v_u = 0 for each u
    it does not fix.
    """
    rows = []
    for images in table:
        fixes = images[g] == g
        if not fixes and images[g] is not None:
            continue
        forms: dict[int, dict[int, int]] = {}
        for u, k in enumerate(images):
            if k is not None:
                forms.setdefault(k, {})[u] = 1
        if fixes:
            for k in range(m):
                form = forms.setdefault(k, {})
                form[k] = form.get(k, 0) - 1
        rows.extend(forms.values())
    return m - pinned_rank(rows)


def table_of(mod: ModuleMatrices) -> tuple[tuple[int | None, ...], ...]:
    """Action table read off 0/1 operator matrices with at most one 1 per
    column: the row index of column j's 1, or None for a zero column."""
    m = len(mod.order)
    return tuple(
        tuple(next((k for k in range(m) if mat[k][j]), None) for j in range(m))
        for mat in mod.mats
    )


def shape_with_table(alpha, table, cls=_Shape) -> _Shape:
    """A ``_Shape`` of alpha (or of its subclass ``cls``) whose invariants
    read the given action table, indexed by the filtration order of alpha,
    in place of the one the operators make."""
    shape = cls(alpha)
    shape.quotient_table = tuple(table)
    return shape


def dense_commutant_basis(mod: ModuleMatrices) -> EndomorphismSpace:
    """Solve E*A = A*E with the m*m entries of E as unknowns: one sparse
    constraint per nonzero entry of each commutator.  The oracle for
    :func:`cyclic_commutant_basis`, which needs only the m entries of
    E(g)."""
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


def cyclic_commutant_basis(shape: _Shape) -> EndomorphismSpace:
    """The commutant of the module whose action table ``shape`` reads,
    with the m entries of v = E(g) as unknowns, g the generator: the
    route ``module_analysis`` took before the fixed-point count became
    its only certificate, now an oracle that :func:`dense_commutant_basis`
    checks.  Raises ValueError through ``shape.search`` when g does not
    generate.

    A breadth-first search from g over the table reaches each basis
    tableau t as pi_w(g) for a word w, which forces E(t) = pi_w(v), and
    requiring E pi_i = pi_i E on every basis tableau leaves one sparse
    constraint per nonzero entry of E(pi_i t) - pi_i E(t); each primitive
    v of the nullspace is mapped back to its matrix E.
    """
    shape.search
    table = shape.quotient_table
    m = len(shape.words)
    # images[t][u]: the entry of E(t) that holds the unknown v_u, or None
    # once an operator on the search's way from g annihilated it
    images: list = [None] * m
    images[shape.generator] = tuple(range(m))
    queue = [shape.generator]
    for s in queue:
        for row in table:
            t = row[s]
            if t is not None and images[t] is None:
                images[t] = tuple(None if k is None else row[k] for k in images[s])
                queue.append(t)
    rows = []
    for row in table:
        for t, image in enumerate(images):
            forms: dict[int, dict[int, int]] = {}
            target = row[t]
            if target is not None:  # + E(pi_i t)
                for u, k in enumerate(images[target]):
                    if k is not None:
                        forms.setdefault(k, {})[u] = 1
            for u, k in enumerate(image):  # - pi_i E(t)
                if k is not None and row[k] is not None:
                    form = forms.setdefault(row[k], {})
                    form[u] = form.get(u, 0) - 1
            for form in forms.values():
                form = {u: c for u, c in form.items() if c}
                if form:
                    rows.append(form)
    space = []
    for v in nullspace(rows, m):
        e = [[0] * m for _ in range(m)]
        for t, image in enumerate(images):
            for u, k in enumerate(image):
                if k is not None:
                    e[k][t] += v[u]
        space.append(tuple(tuple(r) for r in e))
    return EndomorphismSpace(shape.alpha, tuple(space))


def action_table(basis, kind: Kind) -> ActionTable:
    """Entry ``[i-1][j]``: index in ``basis`` of the i-th operator's image
    of ``basis[j]`` (``j`` when fixed), ``None`` when annihilated, the
    tableaux checked and turned into row words for
    ``hecke_action._word_table``.  An image outside the basis raises
    ``KeyError`` naming it."""
    _check_kind(kind)
    if kind == "quotient" and not all(is_standard_extended(t) for t in basis):
        raise ValueError("tableau is not standard extended")
    height = len(basis[0].rows) if basis else 0
    return _word_table([_row_word(t) for t in basis], kind, height)


def filtration_words(filt: Filtration) -> tuple[RowWord, ...]:
    """The row words of the tableaux of a filtration, in its order."""
    return tuple(_row_word(t) for t in filt.order)


def replayed_relations(alpha, kind) -> RelationReport:
    """The relation sweep replaying both words of every relation on every
    basis tableau through ``apply_word``: the oracle for the table-read
    ``verify_relations``."""
    alpha = Composition(alpha)
    n = alpha.weight
    basis = enumerate_set(alpha) if kind == "quotient" else enumerate_srit(alpha)
    violations = []
    for t in basis:
        for i in range(1, n):
            if apply_word((i, i), t, kind) != apply_word((i,), t, kind):
                violations.append(RelationViolation("idempotent", i, None, t))
        for i in range(1, n):
            for j in range(i + 2, n):
                if apply_word((i, j), t, kind) != apply_word((j, i), t, kind):
                    violations.append(RelationViolation("commute", i, j, t))
        for i in range(1, n - 1):
            if apply_word((i, i + 1, i), t, kind) != apply_word((i + 1, i, i + 1), t, kind):
                violations.append(RelationViolation("braid", i, i + 1, t))
    return RelationReport(alpha, kind, len(basis), tuple(violations))


def positional_pi_full(i: int, t):
    """The full operator read off the positions of i and i+1 and applied
    by ``swap_entries``: the oracle for the row-word rule behind
    ``pi_full``."""
    pos = t.positions
    if pos[i][0] >= pos[i + 1][0]:
        return t
    return swap_entries(t, i)


def positional_pi_quotient(i: int, t):
    """The quotient operator read off the columns of i and i+1 in
    ``t.positions``: the oracle for the row-word rule behind
    ``pi_quotient``."""
    pos = t.positions
    ci = pos[i][1]
    cj = pos[i + 1][1]
    if ci < cj:
        return Fixed(t)
    if ci == cj:
        return Zero()
    return Swapped(swap_entries(t, i))


def tableau_submodule_closure(alpha) -> bool:
    """The submodule closure check over validated ``Tableau``s: every
    standard row-increasing tableau tested with ``is_standard_extended``
    and the full table built by ``action_table``.  The oracle for the
    row-word ``verify_submodule_closure``."""
    basis = enumerate_srit(Composition(alpha))
    extended = [is_standard_extended(t) for t in basis]
    return not any(
        extended[k] and not extended[j]
        for images in action_table(basis, "full")
        for j, k in enumerate(images)
    )


def row_swapping_full_step(i: int, w):
    """A broken full operator on row words: swaps the letters of i and i+1
    whenever their rows differ.  It maps the row-increasing basis into
    itself but is not idempotent."""
    if w[i - 1] == w[i]:
        return w
    return w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def erratic_full_step(i: int, w):
    """Swaps the letters of i and i+1 across rows for odd i, and for even i
    only while 1 sits in the bottom row: breaks all three relation
    families."""
    if w[i - 1] != w[i] and (i % 2 or w[0] == 0):
        return w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
    return w


def swapping_quotient_step(i: int, w):
    """A broken quotient operator that never annihilates: fixes when i and
    i+1 share a row or a column, otherwise swaps their letters.  The swap
    stays standard extended, but the operator is not idempotent."""
    a, b = w[i - 1], w[i]
    if a == b or w[:i].count(a) == w[:i + 1].count(b):
        return w
    return w[:i - 1] + (b, a) + w[i + 1:]


def grown_descent_masks(alpha) -> Counter:
    """The count of each descent mask, one ``_mask(descent_composition(t))``
    per validated tableau of ``enumerate_set``, which grows every one: the
    oracle for the sub-shape recursion of ``tableaux._descent_masks``."""
    return Counter(_mask(descent_composition(t)) for t in enumerate_set(alpha))


def tableau_schur_in_F(alpha) -> QSymElement:
    """The fundamental expansion of the extended Schur function counted
    over the validated tableaux of ``enumerate_set``, one
    ``descent_composition`` each: the oracle for the descent masks of
    ``qsym.extended_schur_in_F``."""
    counts = Counter(descent_composition(t) for t in enumerate_set(alpha))
    return QSymElement(sum(alpha), "F", dict(counts))


def tableau_k_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The entries of the descent-count matrix, each row counted over the
    validated tableaux of ``enumerate_set``: the oracle for
    ``qsym.k_matrix``."""
    comps = compositions_of(n)
    index = {alpha: i for i, alpha in enumerate(comps)}
    rows = []
    for alpha in comps:
        row = [0] * len(comps)
        for t in enumerate_set(alpha):
            row[index[descent_composition(t)]] += 1
        rows.append(tuple(row))
    return tuple(rows)


def product_refinements(alpha) -> list[Composition]:
    """The refinements of alpha as the concatenations of one composition
    of each part, in lexicographic order: the oracle for the submask walk
    of ``compositions.refinements``."""
    pools = [compositions_of(part) for part in alpha]
    out = []
    for pieces in product(*pools):
        parts: list[int] = []
        for piece in pieces:
            parts.extend(piece)
        out.append(Composition(parts))
    return out


def product_basis_change(x: QSymElement) -> QSymElement:
    """F to M or M to F, each term spread over :func:`product_refinements`
    of its index, signed (-1)^(l(b)-l(a)) towards F: the oracle for the
    descent-mask basis changes of ``qsym``."""
    out: dict[Composition, int] = {}
    for alpha, c in x.coeffs.items():
        for beta in product_refinements(alpha):
            sign = -1 if x.basis == "M" and (len(beta) - len(alpha)) % 2 else 1
            out[beta] = out.get(beta, 0) + sign * c
    return QSymElement(x.degree, "F" if x.basis == "M" else "M", out)


def walked_refine_masks(n: int, masks, basis: str) -> QSymElement:
    """The coefficient of each descent mask of weight n spread over the
    refinements of its composition, each submask of the bits it leaves
    free (``compositions._refinement_masks``), signed (-1)^(bits added)
    towards F, and built by the checking ``QSymElement(...)``: the walk
    that the superset sums of ``qsym._refine_masks`` replaced, its
    oracle."""
    out: dict[int, int] = {}
    for mask, c in masks.items():
        for beta in _refinement_masks(mask, n):
            sign = -1 if basis == "F" and (beta ^ mask).bit_count() & 1 else 1
            out[beta] = out.get(beta, 0) + sign * c
    terms = {}
    for beta, c in out.items():
        members = tuple(i + 1 for i in range(n - 1) if beta >> i & 1)
        terms[composition_of_subset(DescentSubset(n, members))] = c
    return QSymElement(n, basis, terms)


def peeled_monomial_to_fundamental(x: QSymElement) -> QSymElement:
    """Invert the refinement expansion by a triangular solve: refining
    strictly increases length, so peeling off the shortest remaining index
    solves the unitriangular system.  The oracle for the Moebius formula."""
    remaining = dict(x.coeffs)
    result = {}
    while remaining:
        alpha = min(remaining, key=lambda a: (len(a), a))
        c = remaining.pop(alpha)
        if not c:
            continue
        result[alpha] = c
        for beta in product_refinements(alpha):
            if beta != alpha:
                remaining[beta] = remaining.get(beta, 0) - c
    return QSymElement(x.degree, "F", result)


def _as_sparse(row) -> dict[int, int]:
    # dict first: the Mapping check alone is slow on the many sparse rows
    if isinstance(row, (dict, Mapping)):
        return {c: v for c, v in row.items() if v}
    return {c: v for c, v in enumerate(row) if v}


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for value in row.values():
        g = gcd(g, value)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class _Echelon:
    """Row echelon accumulator keyed by pivot column (the least index),
    by integer cross-multiplication with content removal, so no fraction
    appears."""

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    def insert(self, row) -> None:
        row = _as_sparse(row)
        while row:
            p = min(row)
            pivot_row = self.pivot_rows.get(p)
            if pivot_row is None:
                row = _strip_content(row)
                if row[p] < 0:
                    row = {c: -v for c, v in row.items()}
                self.pivot_rows[p] = row
                return
            a = row[p]
            b = pivot_row[p]
            combined = {c: v * b for c, v in row.items()}
            for c, v in pivot_row.items():
                combined[c] = combined.get(c, 0) - a * v
            row = _strip_content({c: v for c, v in combined.items() if v})


def nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : R x = 0}, one vector per free
    column, rows sparse (dicts from column to integer) or dense.

    Each basis vector is scaled to coprime integer entries with positive
    first nonzero entry.  Back-substitution stays in integers: the whole
    vector, a multiple of the solution over one common denominator, is
    scaled up whenever a pivot does not divide the sum it must cancel,
    and the gcd is divided out at the end.  :func:`rref_nullspace` is its
    oracle.
    """
    echelon = _Echelon()
    for row in rows:
        echelon.insert(row)
    pivots = echelon.pivot_rows
    pivot_cols = sorted(pivots)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = {free: 1}
        for p in reversed(pivot_cols):
            if p > free:
                continue
            prow = pivots[p]
            total = sum(v * x[c] for c, v in prow.items() if c in x)
            if total:
                g = gcd(total, prow[p])
                scale = prow[p] // g
                if scale > 1:
                    x = {c: v * scale for c, v in x.items()}
                x[p] = -total // g
        basis.append(_to_primitive(x, ncols))
    return basis


def _to_primitive(x: dict[int, int], ncols: int) -> tuple[int, ...]:
    """The vector with entries ``x``, zero elsewhere, divided by the gcd of
    its entries and signed so that its first nonzero entry is positive."""
    g = 0
    for value in x.values():
        g = gcd(g, value)
    if x[min(x)] < 0:
        g = -g
    ints = [0] * ncols
    for c, v in x.items():
        ints[c] = v // g
    return tuple(ints)


def rank(rows) -> int:
    """Rank of the row family (rows given sparse or dense)."""
    echelon = _Echelon()
    for row in rows:
        echelon.insert(row)
    return len(echelon.pivot_rows)


def pinned_rank(rows) -> int:
    """Rank of the row family (rows given sparse or dense), the rank the
    package counted for :func:`weight_dimension`.

    A row with one nonzero entry pins its column: ``rank R = |Z| +
    rank(R without the columns in Z)``, ``Z`` the pinned columns, and the
    pinning rows vanish there.  So those rows and columns are counted and
    dropped before the rest goes through the echelon accumulator, and
    nothing is back-substituted.
    """
    rows = [_as_sparse(row) for row in rows]
    pinned = {c for row in rows if len(row) == 1 for c in row}
    echelon = _Echelon()
    for row in rows:
        if len(row) > 1:
            row = {c: v for c, v in row.items() if c not in pinned}
            if row:
                echelon.insert(row)
    return len(pinned) + len(echelon.pivot_rows)


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """Product of integer matrices given as nested sequences."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("inner dimensions do not match")
    cols = len(b[0]) if inner else 0
    return tuple(
        tuple(sum(row[k] * b[k][c] for k in range(inner)) for c in range(cols))
        for row in a
    )


def identity_matrix(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if r == c else 0 for c in range(size)) for r in range(size))


def searched_preceq(s: Tableau, t: Tableau) -> bool:
    """Reachability of s from t by exhaustive closure search over
    ``pi_quotient``, annihilated images discarded: the oracle for the
    inversion-set test in ``preceq``."""
    if s == t:
        return True
    seen = {t}
    stack = [t]
    while stack:
        current = stack.pop()
        for i in range(1, t.size):
            result = pi_quotient(i, current)
            if isinstance(result, Swapped) and result.tableau not in seen:
                if result.tableau == s:
                    return True
                seen.add(result.tableau)
                stack.append(result.tableau)
    return False


def bareiss_determinant(matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination):
    the oracle for the unitriangular ``KMatrix.determinant``."""
    m = [list(row) for row in matrix]
    size = len(m)
    for row in m:
        if len(row) != size:
            raise ValueError("matrix must be square")
    if size == 0:
        return 1
    sign = 1
    previous = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
            m[i][k] = 0
        previous = m[k][k]
    return sign * m[-1][-1]


def column_word(rows: Rows) -> tuple[int, ...]:
    """Entries read column by column, right to left, each column bottom to
    top."""
    width = max((len(row) for row in rows), default=0)
    return tuple(row[c] for c in reversed(range(width)) for row in rows if c < len(row))


def inversion_set(w) -> frozenset[tuple[int, int]]:
    """Position pairs ``(p, q)``, ``p < q``, with ``w[p] > w[q]``."""
    return frozenset((p, q) for p in range(len(w)) for q in range(p + 1, len(w)) if w[p] > w[q])


def interval_module(alpha):
    """The quotient module of alpha as the left weak order interval
    ``[sigma, rho]``, built from the shape alone.

    ``sigma`` is the column word of the filling numbered row by row (the
    super-standard tableau), ``rho`` that of the filling numbered column by
    column, left to right, each column bottom to top.  A breadth-first
    search from ``sigma`` swaps the values i and i+1 and keeps the words
    whose inversion sets lie between those of ``sigma`` and ``rho``.  The
    i-th operator fixes a word where i+1 comes before i, sends it to the
    swapped word when that stays in the interval, and to 0 otherwise.

    Returns the words in search order and a function mapping ``(i, word)``
    to the image word, or ``None`` for 0.
    """
    parts = tuple(Composition(alpha))
    n = sum(parts)
    offsets = [sum(parts[:r]) for r in range(len(parts))]
    sigma = column_word(tuple(
        tuple(offsets[r] + c + 1 for c in range(part)) for r, part in enumerate(parts)
    ))
    boxes = sorted((c, r) for r, part in enumerate(parts) for c in range(part))
    label = {box: v for v, box in enumerate(boxes, start=1)}
    rho = column_word(tuple(
        tuple(label[c, r] for c in range(part)) for r, part in enumerate(parts)
    ))
    low, high = inversion_set(sigma), inversion_set(rho)

    def swap(i, w):
        return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)

    def act(i, w):
        if w.index(i + 1) < w.index(i):
            return w
        image = swap(i, w)
        return image if low <= inversion_set(image) <= high else None

    words = [sigma]
    seen = {sigma}
    for w in words:
        for i in range(1, n):
            image = act(i, w)
            if image is not None and image not in seen:
                seen.add(image)
                words.append(image)
    return words, act


# The fields of each record class, in order, written out as the frozen
# dataclasses that the records replaced declared them.
RECORD_FIELDS = {
    DescentSubset: ("n", "members"),
    Tableau: ("rows",),
    Fixed: ("tableau",),
    Zero: (),
    Swapped: ("tableau",),
    RelationViolation: ("relation", "i", "j", "tableau"),
    RelationReport: ("alpha", "kind", "tableaux_checked", "violations"),
    Filtration: ("alpha", "order"),
    QSymElement: ("degree", "basis", "coeffs"),
    KMatrix: ("n", "compositions", "entries"),
    ModuleMatrices: ("alpha", "order", "mats"),
    EndomorphismSpace: ("alpha", "basis"),
    Indecomposable: (),
}


def dataclass_twin(cls) -> type:
    """A real ``@dataclass(frozen=True)`` named as the record class ``cls``,
    with its fields from :data:`RECORD_FIELDS` and no validation: the
    oracle for the record's construction, repr, equality, hashing and
    frozen messages.  ``DescentSubset.members`` defaults to ``()``, and
    ``QSymElement`` keeps its own hash, as their dataclasses had them."""
    specs = [
        (name, object, field(default=())) if (cls, name) == (DescentSubset, "members")
        else (name, object)
        for name in RECORD_FIELDS[cls]
    ]
    namespace = {"__hash__": QSymElement.__hash__} if cls is QSymElement else {}
    return make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)
