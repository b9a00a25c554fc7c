from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    action_table,
    cyclic_commutant_basis,
    dense_commutant_basis,
    dense_matrices,
    dense_rank,
    erratic_full_step,
    filtration_words,
    identity_matrix,
    mat_mul,
    rank,
    row_swapping_full_step,
    shape_with_table,
    table_of,
    tableau_submodule_closure,
    weight_dimension as _weight_dimension,
    weight_space as _weight_space,
)
from extschur import hecke_action, module_analysis
from extschur.compositions import Composition, compositions_of
from extschur.hecke_action import (
    Fixed,
    Swapped,
    Zero,
    filtration,
    pi_quotient,
    verify_relations,
)
from extschur.module_analysis import (
    Indecomposable,
    analysis_report,
    characteristic,
    commutant_basis,
    composition_factors,
    ModuleMatrices,
    _Shape,
    is_indecomposable,
    matrices,
    verify_submodule_closure,
)
from extschur.qsym import QSymElement, extended_schur_in_F, extended_schur_in_M
from extschur.tableaux import descent_composition, enumerate_set, super_standard


def test_matrices_one_dimensional_cases():
    assert matrices(Composition((1, 1))).mats == (((0,),),)
    assert matrices(Composition((2,))).mats == (((1,),),)
    assert matrices(Composition((1,))).mats == ()
    assert matrices(Composition()).mats == ()


def test_matrices_shape_2_1_3():
    mod = matrices(Composition((2, 1, 3)))
    # filtration order puts the super-standard tableau last
    words = [t.rows for t in mod.order.order]
    assert words == [
        ((1, 4), (2,), (3, 5, 6)),
        ((1, 3), (2,), (4, 5, 6)),
        ((1, 2), (3,), (4, 5, 6)),
    ]
    assert mod.mats == (
        ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (0, 1, 1), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )


def test_matrix_columns_and_triangularity():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            mod = matrices(alpha)
            m = len(mod.order)
            for mat in mod.mats:
                for j in range(m):
                    column = [mat[k][j] for k in range(m)]
                    assert sum(column) in (0, 1)
                    assert all(v in (0, 1) for v in column)
                    for k in range(m):
                        if mat[k][j]:
                            assert k <= j


def test_matrices_satisfy_relations():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            mats = matrices(alpha).mats
            for i, a in enumerate(mats):
                assert mat_mul(a, a) == a
                for j in range(i + 2, len(mats)):
                    b = mats[j]
                    assert mat_mul(a, b) == mat_mul(b, a)
                if i + 1 < len(mats):
                    b = mats[i + 1]
                    assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)


def test_matrices_match_dense_rebuild():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            assert matrices(alpha) == dense_matrices(alpha), alpha


@given(st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.sampled_from(compositions_of(n))
))
def test_action_table_matches_pi_quotient(alpha):
    filt = filtration(alpha)
    table = action_table(filt.order, "quotient")
    assert len(table) == max(alpha.weight - 1, 0)
    for i, images in enumerate(table, start=1):
        assert len(images) == len(filt)
        for j, t in enumerate(filt.order):
            result = pi_quotient(i, t)
            if isinstance(result, Fixed):
                assert images[j] == j
            elif isinstance(result, Zero):
                assert images[j] is None
            else:
                assert isinstance(result, Swapped)
                assert images[j] == filt.index_of(result.tableau)


def test_composition_factors_examples():
    assert composition_factors(Composition((2, 1, 3))) == (
        (1, 1, 2, 2),
        (1, 2, 3),
        (2, 1, 3),
    )
    assert composition_factors(Composition((4,))) == ((4,),)
    assert composition_factors(Composition((1, 1))) == ((1, 1),)
    # weight 40 has 2^39 compositions, but each shape has one factor
    assert composition_factors(Composition((40,))) == ((40,),)
    assert composition_factors(Composition((1,) * 40)) == ((1,) * 40,)


def test_composition_factors_match_descent_compositions():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            from extschur.hecke_action import filtration

            filt = filtration(alpha)
            factors = composition_factors(alpha)
            assert len(factors) == len(filt.order)
            for factor, t in zip(factors, filt.order):
                assert factor == descent_composition(t)


def test_characteristic_examples():
    assert characteristic(Composition((2, 1, 3))) == QSymElement(
        6, "F", {(2, 1, 3): 1, (1, 2, 3): 1, (1, 1, 2, 2): 1}
    )
    assert characteristic(Composition((4,))) == QSymElement(4, "F", {(4,): 1})
    assert characteristic(Composition((1, 1, 1))) == QSymElement(3, "F", {(1, 1, 1): 1})


def test_characteristic_equals_extended_schur():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            assert characteristic(alpha) == extended_schur_in_F(alpha)


def test_characteristic_keys_and_hash_match_the_checking_constructor():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            x = characteristic(alpha)
            checked = QSymElement(x.degree, x.basis, {tuple(a): c for a, c in x.coeffs.items()})
            assert all(type(key) is Composition for key in x.coeffs)
            assert x == checked
            assert hash(x) == hash(checked)
            assert analysis_report(alpha)["characteristic"] == checked.to_json()


def test_commutant_dimension_examples():
    assert commutant_basis(Composition((6,))).dimension == 1
    assert commutant_basis(Composition((2, 1, 3))).dimension == 1
    assert commutant_basis(Composition()).dimension == 1


def test_commutant_matrices_commute_and_span_identity():
    for n in range(0, 6):
        for alpha in compositions_of(n):
            mod = matrices(alpha)
            space = commutant_basis(alpha)
            m = len(mod.order)
            for e in space.basis:
                for a in mod.mats:
                    assert mat_mul(e, a) == mat_mul(a, e)
            flat = [[v for row in e for v in row] for e in space.basis]
            eye = [v for row in identity_matrix(m) for v in row]
            assert rank(flat) == rank(flat + [eye])


def test_commutant_dimension_one_sweep():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            assert commutant_basis(alpha).dimension == 1


def test_commutant_matches_dense_rank_computation():
    # independent dense cross-check of the solution-space dimension
    for alpha in [Composition((2, 1)), Composition((2, 2)), Composition((2, 1, 3))]:
        mod = matrices(alpha)
        m = len(mod.order)
        dense_rows = []
        for a in mod.mats:
            for r in range(m):
                for c in range(m):
                    row = [0] * (m * m)
                    for k in range(m):
                        row[r * m + k] += a[k][c]
                        row[k * m + c] -= a[r][k]
                    if any(row):
                        dense_rows.append(row)
        nullity = m * m - dense_rank(dense_rows, m * m)
        assert commutant_basis(alpha).dimension == nullity


def test_commutant_matches_dense_oracle():
    # the certificate and the cyclic solve it replaced
    for n in range(0, 8):
        for alpha in compositions_of(n):
            mod = matrices(alpha)
            dense = dense_commutant_basis(mod)
            assert commutant_basis(alpha) == dense, alpha
            assert cyclic_commutant_basis(shape_with_table(alpha, table_of(mod))) == dense, alpha


def test_commutant_dimension_matches_dense_oracle_weight_8():
    for alpha in compositions_of(8):
        if len(alpha) <= 4:
            mod = matrices(alpha)
            dense = dense_commutant_basis(mod)
            assert commutant_basis(alpha).dimension == dense.dimension, alpha
            cyclic = cyclic_commutant_basis(shape_with_table(alpha, table_of(mod)))
            assert cyclic.dimension == dense.dimension, alpha


def generator_weight_space(alpha):
    filt = filtration(alpha)
    table = action_table(filt.order, "quotient")
    return filt, table, _weight_space(table, filt.index_of(super_standard(alpha)), len(filt))


def test_weight_space_of_the_generator_is_a_line():
    # so the certificate decides every shape here; the cyclic solve agrees
    for n in range(0, 9):
        for alpha in compositions_of(n):
            filt, table, space = generator_weight_space(alpha)
            assert len(space) == 1, alpha
            shape = shape_with_table(alpha, table)
            assert shape.commutant_basis() == cyclic_commutant_basis(shape), alpha


def test_shape_reads_the_filtration_words_with_the_generator_last():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            shape = _Shape(alpha)
            filt = filtration(alpha)
            assert shape.words == list(filtration_words(filt)), alpha
            assert shape.quotient_table == action_table(filt.order, "quotient"), alpha
            assert shape.generator == len(shape.words) - 1, alpha


def test_weight_rank_matches_weight_space_oracle():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            shape = _Shape(alpha)
            table = shape.quotient_table
            g = shape.generator
            m = len(shape.words)
            assert _weight_dimension(table, g, m) == len(_weight_space(table, g, m)), alpha


@settings(deadline=None, max_examples=200)
@given(st.lists(
    st.tuples(*[st.sampled_from([None, 0, 1, 2])] * 3), min_size=3, max_size=3
))
def test_weight_rank_matches_weight_space_oracle_on_arbitrary_tables(table):
    # any table on the three SETs of (3,1), generated by g (index 2) or not
    table = tuple(table)
    assert _weight_dimension(table, 2, 3) == len(_weight_space(table, 2, 3))


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([
    alpha for n in (9, 10) for alpha in compositions_of(n) if len(alpha) <= 4
]))
def test_weight_space_of_the_generator_is_a_line_at_weights_9_and_10(alpha):
    assert len(generator_weight_space(alpha)[2]) == 1


def test_fixed_point_count_is_the_monomial_coefficient_and_dim_w():
    # pi_i fixes a SET exactly when i is not a descent of it, and the
    # descents of g are the partial sums of alpha: the count from the
    # operator table is the coefficient of M_alpha read off the expansion,
    # and it equals the rank-based dim W it bounds
    for n in range(0, 9):
        for alpha in compositions_of(n):
            shape = _Shape(alpha)
            table = shape.quotient_table
            count = shape.fixed_point_count
            assert count == extended_schur_in_M(alpha).coeffs.get(alpha, 0) == 1, alpha
            assert count == _weight_dimension(table, shape.generator, len(shape.words)), alpha


def test_fixed_point_count_is_the_monomial_coefficient_at_weights_9_and_10():
    # every one of the 768 shapes: the commutant refuses a count above 1
    for n in (9, 10):
        for alpha in compositions_of(n):
            count = _Shape(alpha).fixed_point_count
            assert count == extended_schur_in_M(alpha).coeffs.get(alpha, 0) == 1, alpha


def module_of(alpha, table) -> ModuleMatrices:
    """0/1 operator matrices on the filtration of alpha with the given
    images, column by column (None for an annihilated tableau); the
    super-standard tableau is the last index."""
    filt = filtration(Composition(alpha))
    assert filt.order[-1] == super_standard(filt.alpha)
    m = len(filt)
    mats = tuple(
        tuple(tuple(int(images[j] == k) for j in range(m)) for k in range(m))
        for images in table
    )
    return ModuleMatrices(filt.alpha, filt, mats)


def same_span(a, b) -> bool:
    flat_a = [[v for row in e for v in row] for e in a]
    flat_b = [[v for row in e for v in row] for e in b]
    return rank(flat_a) == rank(flat_b) == rank(flat_a + flat_b)


def test_commutant_checks_generation_before_the_weight_space():
    # on (2,1) the super-standard tableau is index 1; both operators kill it
    # and fix index 0, so W is the line of g, yet the commutant is a plane
    mod = module_of((2, 1), [(0, None), (0, None)])
    table = table_of(mod)
    assert len(_weight_space(table, 1, 2)) == 1
    assert dense_commutant_basis(mod).dimension == 2
    with pytest.raises(ValueError, match="not reached"):
        shape_with_table((2, 1), table).commutant_basis()
    with pytest.raises(ValueError, match="not reached"):
        cyclic_commutant_basis(shape_with_table((2, 1), table))


def test_commutant_refuses_a_fixed_point_count_above_one(monkeypatch):
    # operator 1 sends g (index 1) to index 0 and fixes it, operator 2 is
    # the identity: g generates, W is the whole plane and so is End, which
    # the cyclic solve finds; the package refuses, naming the count and
    # the other tableau operator 2 fixes
    mod = module_of((2, 1), [(0, 0), (0, 1)])
    table = table_of(mod)
    assert len(_weight_space(table, 1, 2)) == 2
    dense = dense_commutant_basis(mod)
    assert dense.dimension == 2
    assert cyclic_commutant_basis(shape_with_table((2, 1), table)) == dense
    other = str(mod.order.order[0].rows)
    monkeypatch.setattr(module_analysis, "_Shape", lambda alpha: shape_with_table(alpha, table))
    for read in (commutant_basis, is_indecomposable, analysis_report):
        with pytest.raises(ValueError, match="fixed-point count is 2") as caught:
            read((2, 1))
        assert other in str(caught.value)


def test_weight_space_rows_hold_without_idempotence():
    # operator 3 swaps indices 0 and 1 (g is index 2), so pi_3 is not
    # idempotent: dropping v_u for each u it does not fix would leave only
    # the line of g, but the commutant is a plane.  The rows of W still
    # hold for E(g), which the cyclic solve finds; the package refuses,
    # naming the operator
    mod = module_of((3, 1), [(None, None, None), (None, None, 0), (1, 0, 2)])
    table = table_of(mod)
    dense = dense_commutant_basis(mod)
    assert dense.dimension == 2
    space = cyclic_commutant_basis(shape_with_table((3, 1), table))
    assert space.dimension == 2
    assert same_span(space.basis, dense.basis)
    w = _weight_space(table, 2, 3)
    images = [tuple(row[2] for row in e) for e in dense.basis]
    assert rank(w) == rank(w + images) == 2
    with pytest.raises(ValueError, match="operator 3 fixes it but is not idempotent"):
        shape_with_table((3, 1), table).commutant_basis()


@settings(deadline=None, max_examples=200)
@given(st.lists(
    st.tuples(*[st.sampled_from([None, 0, 1, 2])] * 3), min_size=3, max_size=3
))
def test_commutant_matches_dense_oracle_on_arbitrary_tables(table):
    # any table on the three SETs of (3,1): the cyclic solve refuses exactly
    # when g (index 2) does not generate, and otherwise spans the dense
    # commutant; the package refuses then too, or returns that commutant
    mod = module_of((3, 1), table)
    reached = {2}
    frontier = [2]
    while frontier:
        s = frontier.pop()
        for images in table:
            t = images[s]
            if t is not None and t not in reached:
                reached.add(t)
                frontier.append(t)
    if len(reached) < 3:
        with pytest.raises(ValueError, match="not reached"):
            cyclic_commutant_basis(shape_with_table((3, 1), table))
        with pytest.raises(ValueError, match="not reached"):
            shape_with_table((3, 1), table).commutant_basis()
        return
    space = cyclic_commutant_basis(shape_with_table((3, 1), table))
    dense = dense_commutant_basis(mod)
    assert space.dimension == dense.dimension
    assert same_span(space.basis, dense.basis)
    try:
        assert shape_with_table((3, 1), table).commutant_basis() == dense
    except ValueError as refusal:
        assert "not certified one-dimensional" in str(refusal)


def test_fixed_point_count_checks_generation_first():
    # on (2,1) both operators kill index 0 and fix g (index 1), so g alone
    # is fixed by them all, yet g generates only itself and the commutant
    # is a plane
    mod = module_of((2, 1), [(None, 1), (None, 1)])
    table = table_of(mod)
    assert dense_commutant_basis(mod).dimension == 2
    with pytest.raises(ValueError, match="not reached"):
        shape_with_table((2, 1), table).commutant_basis()


@settings(deadline=None, max_examples=200)
@given(st.lists(
    st.tuples(*[st.sampled_from([None, 0, 1, 2])] * 3), min_size=3, max_size=3
))
def test_fixed_point_route_matches_dense_oracle_on_arbitrary_tables(table):
    # any table on the three SETs of (3,1), g the index 2: the count bounds
    # dim W when the operators fixing g are idempotent and is skipped
    # otherwise; whenever the commutant is returned, the dense one is the
    # line of the identity, and otherwise the refusal names the count or
    # the operator
    table = tuple(table)
    mod = module_of((3, 1), table)
    shape = shape_with_table((3, 1), table)
    try:
        count = shape.fixed_point_count
    except ValueError:
        with pytest.raises(ValueError, match="not reached"):
            shape.commutant_basis()
        return
    fixing = [images for images in table if images[2] == 2]
    idempotent = all(k is None or images[k] == k for images in fixing for k in images)
    assert (count is not None) == idempotent
    dense = dense_commutant_basis(mod)
    if idempotent:
        assert count >= len(_weight_space(table, 2, 3)) >= dense.dimension
    if count == 1:
        assert dense.dimension == 1
        assert shape.commutant_basis() == dense
    else:
        reason = f"fixed-point count is {count}" if idempotent else "is not idempotent"
        with pytest.raises(ValueError, match=reason):
            shape.commutant_basis()


class SearchCountingShape(_Shape):
    """A ``_Shape`` that records each breadth-first search it makes."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.searches = []

    @cached_property
    def search(self):
        self.searches.append(self.alpha)
        return _Shape.search.func(self)


def test_refusal_searches_the_table_once():
    # operator 3 swaps indices 0 and 1 and fixes g (index 2), so it is not
    # idempotent and the commutant is refused after the fixed-point count;
    # the generation guard, the count, each refusal and the cyclic solve's
    # guard read one search
    table = [(None, None, None), (None, None, 0), (1, 0, 2)]
    shape = shape_with_table((3, 1), table, SearchCountingShape)
    assert shape.fixed_point_count is None
    for _ in range(2):
        with pytest.raises(ValueError, match="operator 3"):
            shape.commutant_basis()
    assert cyclic_commutant_basis(shape).dimension == 2
    assert shape.searches == [(3, 1)]


def test_certified_analysis_searches_each_shape_once(monkeypatch):
    shapes = []

    def counted(alpha):
        shapes.append(SearchCountingShape(alpha))
        return shapes[-1]

    monkeypatch.setattr(module_analysis, "_Shape", counted)
    for alpha in compositions_of(5):
        report = analysis_report(alpha)
        assert report["indecomposable"] is True
        assert shapes[-1].fixed_point_count == 1
    assert [shape.searches for shape in shapes] == [[tuple(a)] for a in compositions_of(5)]


def test_commutant_refuses_a_module_not_generated_by_super_standard():
    # identity operators on the two tableaux of (2,1): nothing moves, so the
    # super-standard tableau generates only itself
    filt = filtration(Composition((2, 1)))
    eye = ((1, 0), (0, 1))
    mod = ModuleMatrices(filt.alpha, filt, (eye, eye))
    assert dense_commutant_basis(mod).dimension == 4
    unreached = next(t for t in filt.order if t.rows != ((1, 2), (3,)))
    with pytest.raises(ValueError, match="not reached") as caught:
        shape_with_table((2, 1), table_of(mod)).commutant_basis()
    assert str(unreached.rows) in str(caught.value)


def test_is_indecomposable_verdicts():
    assert is_indecomposable(Composition((2, 1, 3))) == Indecomposable()
    assert is_indecomposable(Composition((1, 1, 1, 1))) == Indecomposable()
    for alpha in compositions_of(5):
        assert isinstance(is_indecomposable(alpha), Indecomposable)


def test_verify_submodule_closure_examples():
    assert verify_submodule_closure(Composition((2, 1, 3)))
    assert verify_submodule_closure(Composition((1, 1)))
    assert verify_submodule_closure(Composition((5,)))


def test_verify_submodule_closure_sweep():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            assert verify_submodule_closure(alpha)


def test_verify_submodule_closure_fails_with_broken_operator(monkeypatch):
    monkeypatch.setattr(hecke_action, "_full_step", row_swapping_full_step)
    assert not verify_submodule_closure(Composition((2, 2)))
    assert verify_submodule_closure(Composition((3,)))


@pytest.mark.parametrize("step", [None, row_swapping_full_step, erratic_full_step])
def test_verify_submodule_closure_matches_tableau_oracle(monkeypatch, step):
    if step is not None:
        monkeypatch.setattr(hecke_action, "_full_step", step)
    verdicts = []
    for n in range(0, 7):
        for alpha in compositions_of(n):
            verdict = verify_submodule_closure(alpha)
            assert verdict == tableau_submodule_closure(alpha), alpha
            verdicts.append(verdict)
    # the correct operator keeps every closure; each broken one breaks some
    assert all(verdicts) == (step is None)


def test_matrix_monoid_orbit_of_super_standard_spans():
    # the last basis vector generates everything: repeated application of
    # the action matrices reaches every index
    for n in range(0, 7):
        for alpha in compositions_of(n):
            mod = matrices(alpha)
            m = len(mod.order)
            maps = []
            for mat in mod.mats:
                image = {}
                for j in range(m):
                    for k in range(m):
                        if mat[k][j]:
                            image[j] = k
                maps.append(image)
            reached = {m - 1}
            frontier = [m - 1]
            while frontier:
                j = frontier.pop()
                for image in maps:
                    k = image.get(j)
                    if k is not None and k not in reached:
                        reached.add(k)
                        frontier.append(k)
            assert reached == set(range(m))


def test_analysis_report_shape_2_1_3():
    report = analysis_report(Composition((2, 1, 3)))
    assert report == {
        "alpha": [2, 1, 3],
        "dim": 3,
        "factors": [[1, 1, 2, 2], [1, 2, 3], [2, 1, 3]],
        "characteristic": {
            "degree": 6,
            "basis": "F",
            "terms": [
                {"composition": [1, 1, 2, 2], "coefficient": 1},
                {"composition": [1, 2, 3], "coefficient": 1},
                {"composition": [2, 1, 3], "coefficient": 1},
            ],
        },
        "commutant_dimension": 1,
        "indecomposable": True,
    }


def test_quotient_relations_hold_on_set_basis():
    for alpha in [Composition((2, 1, 3)), Composition((3, 2)), Composition((1, 2, 2))]:
        assert verify_relations(alpha, "quotient").ok
