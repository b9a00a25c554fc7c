import copy
import csv
import gc
import io
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bareiss_determinant,
    hook_length,
    laplace_determinant,
    peeled_monomial_to_fundamental,
    product_basis_change,
    tableau_k_matrix,
    tableau_schur_in_F,
    walked_refine_masks,
)
from extschur.compositions import (
    Composition,
    _mask,
    compositions_of,
    format_composition,
    is_partition,
    refinements,
)
from extschur.qsym import (
    BASES,
    KMatrix,
    QSymElement,
    _refine_masks,
    extended_schur_in_F,
    extended_schur_in_M,
    fundamental,
    fundamental_to_monomial,
    hook_length_count,
    k_matrix,
    monomial,
    monomial_to_fundamental,
    ribbon_in_shin,
    schur_in_F,
    specialize,
)
from extschur.tableaux import _descent_masks, enumerate_set


@st.composite
def qsym_elements(draw, basis, max_degree=5):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = {}
    for alpha in compositions_of(degree):
        value = draw(st.integers(min_value=-3, max_value=3))
        if value:
            coeffs[alpha] = value
    return QSymElement(degree, basis, coeffs)


def test_element_normalization():
    x = QSymElement(3, "M", {(1, 2): 2, (2, 1): 0})
    assert x.coeffs == {(1, 2): 2}
    assert x.coefficient((2, 1)) == 0
    assert not x.is_zero()
    assert QSymElement(4, "F", {}).is_zero()


def test_element_is_hashable():
    x = fundamental((1, 2))
    assert hash(x) == hash(fundamental((1, 2)))
    assert hash(QSymElement(3, "M", {(1, 2): 2, (2, 1): 0})) == hash(
        QSymElement(3, "M", {(1, 2): 2})
    )
    assert {x: "a"}[QSymElement(3, "F", {(1, 2): 1})] == "a"
    assert len({x, fundamental((1, 2)), monomial((1, 2))}) == 2


def test_element_refuses_mutation():
    source = {(1, 2): 1}
    x = QSymElement(3, "F", source)
    source[(1, 2)] = 5  # the element keeps its own copy
    assert x.coefficient((1, 2)) == 1
    with pytest.raises(TypeError):
        x.coeffs[(1, 2)] = 2
    with pytest.raises(TypeError):
        del x.coeffs[(1, 2)]
    assert dict(x.coeffs) == {(1, 2): 1}
    assert x == fundamental((1, 2))
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x


def test_element_validation():
    with pytest.raises(ValueError):
        QSymElement(3, "G", {})
    with pytest.raises(ValueError):
        QSymElement(3, "M", {(1, 1): 1})  # weight 2 in degree 3
    with pytest.raises(ValueError):
        QSymElement(-1, "M", {})
    with pytest.raises(ValueError):
        QSymElement(2, "M", {(2,): 1.5})
    # plain tuples are validated as parts, a Composition key keeps its
    # weight check
    with pytest.raises(ValueError, match="positive integers"):
        QSymElement(3, "M", {(0, 3): 1})
    with pytest.raises(ValueError, match="positive integers"):
        QSymElement(3, "M", {(True, 2): 1})
    with pytest.raises(ValueError, match="weight 2"):
        QSymElement(3, "F", {Composition((1, 1)): 1})


def test_element_rejects_bool_coefficients():
    for flag in (True, False):
        with pytest.raises(ValueError, match="integers"):
            QSymElement(1, "F", {(1,): flag})
    assert QSymElement(1, "F", {(1,): 1}).to_json()["terms"][0]["coefficient"] == 1


def test_element_json_terms_sorted():
    x = QSymElement(3, "F", {(2, 1): 1, (1, 1, 1): 4})
    assert x.to_json() == {
        "degree": 3,
        "basis": "F",
        "terms": [
            {"composition": [1, 1, 1], "coefficient": 4},
            {"composition": [2, 1], "coefficient": 1},
        ],
    }


def test_fundamental_to_monomial_examples():
    assert fundamental_to_monomial(fundamental((1, 3, 1))) == QSymElement(
        5, "M", {(1, 3, 1): 1, (1, 2, 1, 1): 1, (1, 1, 2, 1): 1, (1, 1, 1, 1, 1): 1}
    )
    assert fundamental_to_monomial(fundamental((1, 1))) == QSymElement(2, "M", {(1, 1): 1})
    assert fundamental_to_monomial(fundamental((2,))) == QSymElement(
        2, "M", {(2,): 1, (1, 1): 1}
    )


def test_monomial_to_fundamental_examples():
    assert monomial_to_fundamental(monomial((2,))) == QSymElement(
        2, "F", {(2,): 1, (1, 1): -1}
    )
    assert monomial_to_fundamental(monomial((1, 1))) == QSymElement(2, "F", {(1, 1): 1})


def test_monomial_to_fundamental_matches_triangular_solve():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            for x in (monomial(alpha), extended_schur_in_M(alpha)):
                assert monomial_to_fundamental(x) == peeled_monomial_to_fundamental(x)


def _change_basis(x):
    return fundamental_to_monomial(x) if x.basis == "F" else monomial_to_fundamental(x)


def test_basis_changes_match_product_route_on_basis_elements():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            for x in (fundamental(alpha), monomial(alpha)):
                assert _change_basis(x) == product_basis_change(x), x


@settings(deadline=None)
@given(st.sampled_from(("F", "M")).flatmap(lambda basis: qsym_elements(basis, max_degree=7)))
def test_basis_changes_match_product_route(x):
    assert _change_basis(x) == product_basis_change(x)


def _assert_same_element(x, checked):
    # built from masks without the checks, x must still be the element
    # the checking constructor gives, down to its keys and its hash
    assert all(type(key) is Composition for key in x.coeffs)
    assert all(isinstance(c, int) and c for c in x.coeffs.values())
    assert x == checked
    assert hash(x) == hash(checked)


def _assert_matches_the_walk(n, masks):
    for basis in BASES:
        _assert_same_element(_refine_masks(n, masks, basis), walked_refine_masks(n, masks, basis))


def test_superset_sums_match_the_submask_walk():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            mask = _mask(alpha)
            for masks in ({mask: 1}, {mask: -3}, _descent_masks(alpha)):
                _assert_matches_the_walk(n, masks)


def _signed_sparse_masks(rng, n):
    """A few random masks of weight n with signed coefficients, plus pairs
    that cancel: towards F, c on a mask and on the mask with one more bit
    give 0 on the finer one; towards M, c and -c do."""
    width = n - 1
    masks = {rng.getrandbits(width): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 4))}
    for _ in range(rng.randint(1, 3)):
        coarse = rng.getrandbits(width)
        free = [1 << i for i in range(width) if not coarse >> i & 1]
        if free:
            c = rng.choice((-1, 1))
            masks[coarse] = c
            masks[coarse | rng.choice(free)] = rng.choice((c, -c))
    return masks


def test_superset_sums_match_the_walk_on_signed_sparse_input():
    rng = random.Random(1906)
    cancelled = 0
    for n in range(1, 9):
        for _ in range(40):
            masks = _signed_sparse_masks(rng, n)
            for basis in BASES:
                walked = walked_refine_masks(n, masks, basis)
                _assert_same_element(_refine_masks(n, masks, basis), walked)
                touched = [b for b in range(1 << n - 1) if any(b & m == m for m in masks)]
                cancelled += len(touched) - len(walked.coeffs)
    assert cancelled > 0
    # zero coefficients in, nothing out
    assert _refine_masks(5, {0b0101: 0}, "M").is_zero()
    assert _refine_masks(5, {}, "F").is_zero()


def test_superset_sums_match_the_walk_at_weights_12_to_16():
    shapes = [(2, 2, 2, 2, 2, 2), (3, 1, 3, 1, 3, 2), (1, 2, 1, 2, 1, 2, 1, 2, 2),
              (2, 1, 1, 3, 1, 1, 2, 1, 1, 2), (1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2)]
    for alpha in shapes:
        _assert_matches_the_walk(sum(alpha), _descent_masks(Composition(alpha)))
    rng = random.Random(16)
    for n in range(12, 17):
        for _ in range(4):
            _assert_matches_the_walk(n, _signed_sparse_masks(rng, n))


def test_built_elements_match_the_checking_constructor():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            built = [extended_schur_in_F(alpha), extended_schur_in_M(alpha)]
            built += [monomial_to_fundamental(built[1]), fundamental_to_monomial(built[0])]
            for x in built:
                plain = {tuple(a): c for a, c in x.coeffs.items()}
                checked = QSymElement(x.degree, x.basis, plain)
                _assert_same_element(x, checked)
                assert {x: alpha}[checked] == alpha
                assert pickle.loads(pickle.dumps(x)) == x


def test_conversion_rejects_wrong_basis():
    with pytest.raises(ValueError):
        fundamental_to_monomial(monomial((2,)))
    with pytest.raises(ValueError):
        monomial_to_fundamental(fundamental((2,)))


def test_round_trips_on_basis_elements():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            f = fundamental(alpha)
            assert monomial_to_fundamental(fundamental_to_monomial(f)) == f
            m = monomial(alpha)
            assert fundamental_to_monomial(monomial_to_fundamental(m)) == m


@settings(deadline=None)
@given(qsym_elements("F"))
def test_round_trip_fundamental(x):
    assert monomial_to_fundamental(fundamental_to_monomial(x)) == x


@settings(deadline=None)
@given(qsym_elements("M"))
def test_round_trip_monomial(x):
    assert fundamental_to_monomial(monomial_to_fundamental(x)) == x


def test_extended_schur_in_F_examples():
    assert extended_schur_in_F((2, 1, 3)) == QSymElement(
        6, "F", {(2, 1, 3): 1, (1, 2, 3): 1, (1, 1, 2, 2): 1}
    )
    assert extended_schur_in_F((5,)) == fundamental((5,))
    assert extended_schur_in_F((1, 2)) == fundamental((1, 2))
    assert extended_schur_in_F(()) == fundamental(())


def test_extended_schur_in_F_matches_tableau_route():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            assert extended_schur_in_F(alpha) == tableau_schur_in_F(alpha), alpha


def test_few_term_results_at_large_weight():
    # weight 40 has 2^39 compositions; a result with one term must not
    # build anything of that size
    ones = Composition((1,) * 40)
    assert refinements(ones) == [ones]
    assert extended_schur_in_F((40,)) == fundamental((40,))
    assert extended_schur_in_F(ones) == fundamental(ones)
    assert extended_schur_in_F((1, 39)) == fundamental((1, 39))
    assert monomial_to_fundamental(monomial(ones)) == fundamental(ones)
    assert fundamental_to_monomial(fundamental(ones)) == monomial(ones)
    assert fundamental_to_monomial(fundamental((1,) * 38 + (2,))) == QSymElement(
        40, "M", {(1,) * 38 + (2,): 1, ones: 1}
    )


def test_extended_schur_in_M_examples():
    assert extended_schur_in_M((1, 1)) == monomial((1, 1))
    assert extended_schur_in_M((2,)) == QSymElement(2, "M", {(2,): 1, (1, 1): 1})
    # frozen expansion computed by refining each fundamental term
    assert extended_schur_in_M((2, 1, 3)) == QSymElement(6, "M", {
        (1, 1, 1, 1, 1, 1): 3,
        (1, 1, 1, 1, 2): 3,
        (1, 1, 1, 2, 1): 2,
        (1, 1, 1, 3): 2,
        (1, 1, 2, 1, 1): 1,
        (1, 1, 2, 2): 1,
        (1, 2, 1, 1, 1): 1,
        (1, 2, 1, 2): 1,
        (1, 2, 2, 1): 1,
        (1, 2, 3): 1,
        (2, 1, 1, 1, 1): 1,
        (2, 1, 1, 2): 1,
        (2, 1, 2, 1): 1,
        (2, 1, 3): 1,
    })
    assert extended_schur_in_M((2, 1, 3)).coefficient((2, 1, 3)) == 1


def test_extended_schur_monomial_positivity():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            assert all(c > 0 for c in extended_schur_in_M(alpha).coeffs.values())


def test_specialize_examples():
    assert specialize(monomial((1, 3, 1)), 3) == {(1, 3, 1): 1}
    assert specialize(monomial((1, 1)), 3) == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert specialize(monomial((2, 1)), 0) == {}
    assert specialize(monomial(()), 0) == {(): 1}


def test_specialize_rejects_bad_input():
    with pytest.raises(ValueError):
        specialize(fundamental((2,)), 3)
    with pytest.raises(ValueError):
        specialize(monomial((2,)), -1)


@pytest.mark.parametrize("degree", [True, False, 2.0])
def test_a_bool_or_a_float_degree_is_refused(degree):
    # bool subclasses int, but True is not the degree 1
    for call in (compositions_of, k_matrix, lambda k: specialize(monomial((1,)), k),
                 lambda d: QSymElement(d, "F", {(1,) * int(d): 1})):
        with pytest.raises(ValueError, match="must be an integer"):
            call(degree)


def test_specialized_fundamentals_are_quasisymmetric():
    # coefficients of x_{i_1}^{a_1}...x_{i_r}^{a_r} agree for every
    # increasing choice of indices
    k = 4
    for n in range(1, 6):
        for alpha in compositions_of(n):
            poly = specialize(fundamental_to_monomial(fundamental(alpha)), k)
            by_pattern: dict[tuple[int, ...], set[int]] = {}
            for exponents, coefficient in poly.items():
                pattern = tuple(e for e in exponents if e)
                by_pattern.setdefault(pattern, set()).add(coefficient)
            for pattern, values in by_pattern.items():
                assert len(values) == 1, (alpha, pattern, values)


def test_k_matrix_n3():
    km = k_matrix(3)
    assert km.compositions == ((1, 1, 1), (1, 2), (2, 1), (3,))
    assert km.entries == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 0, 1),
    )
    assert km.entry((2, 1), (1, 2)) == 1


def test_k_matrix_n1_n2_are_identities():
    assert k_matrix(1).entries == ((1,),)
    assert k_matrix(2).entries == ((1, 0), (0, 1))


def test_k_matrix_rejects_small_n():
    with pytest.raises(ValueError):
        k_matrix(0)


def test_k_matrix_unit_diagonal_and_unimodular():
    for n in range(1, 7):
        km = k_matrix(n)
        size = len(km.compositions)
        assert all(km.entries[i][i] == 1 for i in range(size))
        assert km.determinant() in (1, -1)


def test_k_matrix_determinant_matches_cofactor_expansion():
    for n in range(1, 5):
        km = k_matrix(n)
        assert km.determinant() == laplace_determinant([list(r) for r in km.entries])


def test_k_matrix_determinant_matches_bareiss():
    for n in range(1, 9):
        km = k_matrix(n)
        assert km.determinant() == bareiss_determinant(km.entries) == 1, n


def test_k_matrix_matches_tableau_route():
    for n in range(1, 9):
        assert k_matrix(n).entries == tableau_k_matrix(n), n


def test_k_matrix_determinant_refuses_entry_above_diagonal():
    comps = tuple(compositions_of(2))
    km = KMatrix(2, comps, ((1, 3), (0, 1)))
    with pytest.raises(ValueError, match=r"entry \(1,1, 2\) = 3 lies above the diagonal"):
        km.determinant()
    with pytest.raises(ValueError, match="square"):
        KMatrix(2, comps, ((1,), (0, 1))).determinant()


def test_k_matrix_row_2_1_3():
    km = k_matrix(6)
    row = {
        beta: km.entry((2, 1, 3), beta)
        for beta in km.compositions
        if km.entry((2, 1, 3), beta)
    }
    assert row == {(2, 1, 3): 1, (1, 2, 3): 1, (1, 1, 2, 2): 1}


def test_k_matrix_csv():
    lines = k_matrix(2).to_csv().splitlines()
    assert lines == [',"1,1",2', '"1,1",1,0', "2,0,1"]


def csv_writer_text(km: KMatrix) -> str:
    """The CSV text of ``km`` as ``csv.writer`` writes it: the oracle for
    the joined lines of ``KMatrix.to_csv``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    labels = [format_composition(alpha) for alpha in km.compositions]
    writer.writerow([""] + labels)
    for label, row in zip(labels, km.entries):
        writer.writerow([label] + list(row))
    return buffer.getvalue()


def test_k_matrix_csv_matches_csv_writer():
    for n in range(1, 9):
        km = k_matrix(n)
        assert km.to_csv() == csv_writer_text(km), n
    # weight 0: one empty label; no compositions: a row of one empty field
    for km in (KMatrix(0, (Composition(()),), ((1,),)), KMatrix(0, (), ())):
        assert km.to_csv() == csv_writer_text(km)


def test_ribbon_in_shin_examples():
    assert ribbon_in_shin((1, 2)) == {(1, 2): 1, (2, 1): 1}
    assert ribbon_in_shin((3,)) == {(3,): 1}
    assert ribbon_in_shin((1, 1, 1)) == {(1, 1, 1): 1}


def test_ribbon_in_shin_is_the_matrix_column():
    for n in range(1, 6):
        km = k_matrix(n)
        for beta in km.compositions:
            column = {
                alpha: km.entry(alpha, beta)
                for alpha in km.compositions
                if km.entry(alpha, beta)
            }
            assert ribbon_in_shin(beta) == column


def test_schur_in_F_examples():
    assert schur_in_F((2, 1)) == QSymElement(3, "F", {(2, 1): 1, (1, 2): 1})
    assert schur_in_F((4,)) == fundamental((4,))
    assert schur_in_F((1, 1)) == fundamental((1, 1))


def test_schur_in_F_leaves_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        schur_in_F((3, 2, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_schur_in_F_grows_a_long_row_without_recursion():
    assert schur_in_F((1200,)) == fundamental((1200,))


def test_schur_in_F_rejects_non_partitions():
    with pytest.raises(ValueError):
        schur_in_F((1, 2))


def test_extended_schur_contains_schur():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            if is_partition(alpha):
                assert extended_schur_in_F(alpha) == schur_in_F(alpha)


def test_hook_length_count():
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count((3, 2, 1)) == 16
    assert hook_length_count(()) == 1
    with pytest.raises(ValueError):
        hook_length_count((1, 2))
    for n in range(1, 7):
        for alpha in compositions_of(n):
            if is_partition(alpha):
                assert hook_length_count(alpha) == hook_length(tuple(alpha))
                assert len(enumerate_set(alpha)) == hook_length_count(alpha)
