from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    PLACEMENT_TWINS,
    action_table,
    annihilating_placement,
    growth_preceded,
    per_placement,
    preceding_all_but_the_generator,
    witnessing_shared_columns,
    word_column_pass,
    column_rule_submodule_closure,
    column_word,
    cyclic_commutant_basis,
    dense_commutant_basis,
    dense_matrices,
    dense_rank,
    erratic_full_step,
    filtration_words,
    fixed_point_count,
    identity_matrix,
    interval_module,
    later_swaps,
    mat_mul,
    rank,
    annihilating_quotient_step,
    column_swapping_quotient_step,
    per_word,
    quotient_step,
    reached_from,
    row_swapping_full_step,
    shape_with_table,
    swapping_quotient_step,
    table_factors,
    table_of,
    table_refusal,
    table_rule,
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
from extschur.tableaux import _row_word, descent_composition, enumerate_set, super_standard


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
            assert shape.words[-1] == _row_word(super_standard(alpha)), alpha


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([alpha for n in range(9, 12) for alpha in compositions_of(n)]))
def test_shape_reads_the_filtration_words_at_weights_9_to_11(alpha):
    # the words decoded from the sorted marked keys are those the plain
    # growth keeps, sorted by its order keys
    shape = _Shape(alpha)
    assert shape.words == hecke_action._filtration_words(alpha)
    assert shape.words[-1] == _row_word(super_standard(alpha))


def test_weight_rank_matches_weight_space_oracle():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            shape = _Shape(alpha)
            table = shape.quotient_table
            m = len(shape.words)
            g = m - 1
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
            table, g = shape.quotient_table, len(shape.words) - 1
            count = fixed_point_count(table, g)
            assert count == extended_schur_in_M(alpha).coeffs.get(alpha, 0) == 1, alpha
            assert count == _weight_dimension(table, g, len(shape.words)), alpha
            assert shape.column_pass[1] is None, alpha


def test_fixed_point_count_is_the_monomial_coefficient_at_weights_9_and_10():
    # every one of the 768 shapes: the commutant refuses a count above 1
    for n in (9, 10):
        for alpha in compositions_of(n):
            shape = _Shape(alpha)
            count = fixed_point_count(shape.quotient_table, len(shape.words) - 1)
            assert count == extended_schur_in_M(alpha).coeffs.get(alpha, 0) == 1, alpha
            assert shape.column_pass[1] is None, alpha


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
    # naming the swap of index 0 onto the later index 1 (no table on (3,1)
    # without a later swap shows this)
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
    assert "operator 3 fixes it but is not idempotent" in table_refusal((3, 1), table)
    with pytest.raises(ValueError, match="operator 3 sends .* so the order is not a filtration"):
        shape_with_table((3, 1), table).commutant_basis()


@settings(deadline=None, max_examples=200)
@given(st.lists(
    st.tuples(*[st.sampled_from([None, 0, 1, 2])] * 3), min_size=3, max_size=3
))
def test_commutant_matches_dense_oracle_on_arbitrary_tables(table):
    # any table on the three SETs of (3,1): the cyclic solve refuses exactly
    # when g (index 2) does not generate, and otherwise spans the dense
    # commutant; the package refuses then too (for a swap onto a later
    # index first), or returns that commutant
    mod = module_of((3, 1), table)
    if len(reached_from(table, 2)) < 3:
        with pytest.raises(ValueError, match="not reached"):
            cyclic_commutant_basis(shape_with_table((3, 1), table))
        reason = "not a filtration" if later_swaps(table) else "not reached"
        with pytest.raises(ValueError, match=reason):
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
    # the operator, unless it names a swap onto a later index first
    table = tuple(table)
    mod = module_of((3, 1), table)
    shape = shape_with_table((3, 1), table)
    refusal = shape.column_pass[1]
    if later_swaps(table):
        assert refusal.endswith("so the order is not a filtration")
    try:
        cyclic_commutant_basis(shape)
    except ValueError:
        if not later_swaps(table):
            assert_refusal(shape, "not reached")
        return
    count = fixed_point_count(table, 2)
    fixing = [images for images in table if images[2] == 2]
    idempotent = all(k is None or images[k] == k for images in fixing for k in images)
    assert (count is not None) == idempotent
    dense = dense_commutant_basis(mod)
    if idempotent:
        assert count >= len(_weight_space(table, 2, 3)) >= dense.dimension
    if count == 1:
        assert dense.dimension == 1
    if later_swaps(table):
        return
    if count == 1:
        assert refusal is None
        assert shape.commutant_basis() == dense
    else:
        assert_refusal(shape, f"fixed-point count is {count}" if idempotent else "is not idempotent")


def assert_refusal(shape, reason) -> None:
    assert reason in shape.column_pass[1]
    with pytest.raises(ValueError, match=reason):
        shape.commutant_basis()


TABLES_3_1 = st.lists(st.tuples(*[st.sampled_from([None, 0, 1, 2])] * 3), min_size=3, max_size=3)


@settings(deadline=None, max_examples=300)
@given(TABLES_3_1)
def test_column_pass_never_certifies_what_the_search_or_the_dense_commutant_refuses(table):
    # any table on the three SETs of (3,1), g the index 2
    table = tuple(table)
    if shape_with_table((3, 1), table).column_pass[1] is None:
        assert table_refusal((3, 1), table) is None
        assert dense_commutant_basis(module_of((3, 1), table)).dimension == 1


@settings(deadline=None, max_examples=300)
@given(TABLES_3_1)
def test_column_pass_gives_the_searched_verdict_and_reason_without_a_later_swap(table):
    # a swap onto a later index is refused first, naming the first one;
    # otherwise the refusal is the search's, except that an unreached
    # tableau it names may be another unreached one
    table = tuple(table)
    shape = shape_with_table((3, 1), table)
    refusal, searched = shape.column_pass[1], table_refusal((3, 1), table)
    if swaps := later_swaps(table):
        i, j, k = swaps[0]
        assert refusal.endswith(
            f"; operator {i} sends tableau {shape.tableau(j)} to the later tableau "
            f"{shape.tableau(k)}, so the order is not a filtration"
        )
    elif searched and " is not reached " in searched:
        named, reason = refusal.split(" is not reached ")
        assert reason == searched.split(" is not reached ")[1]
        unreached = set(range(3)) - reached_from(table, 2)
        assert named in {f"tableau {shape.tableau(u)}" for u in unreached}
    else:
        assert refusal == searched


def counted_growth(monkeypatch):
    """Count the growths and the word rule's calls, and make building an
    action table fail."""
    calls = Counter()
    grown, images = module_analysis._grown, hecke_action._quotient_images

    def counted_grown(*args):
        calls["grown"] += 1
        return grown(*args)

    def counted_images(w):
        calls["word rule"] += 1
        return images(w)

    def no_table(*_):
        raise AssertionError("an action table was built")

    monkeypatch.setattr(module_analysis, "_grown", counted_grown)
    monkeypatch.setattr(hecke_action, "_quotient_images", counted_images)
    monkeypatch.setattr(module_analysis, "_word_table", no_table)
    return calls


def inverted_placement(q: int, c: int) -> str:
    """A broken placement rule: kills where the true one fixes and fixes
    where it kills."""
    return "kill" if q < c else "fix" if q == c else "swap"


def test_refusal_is_decided_in_one_pass(monkeypatch):
    # under the inverted rule operator 3 fixes g of (2,1,1) and swaps a SET
    # onto ((1, 4), (2,), (3,)), which it kills, so it is not idempotent.
    # The refusal read three times grows the SETs once, calls no word rule,
    # builds no table, and is the refusal of the per-word oracle under the
    # same operators
    oracle = word_column_pass(_Shape((2, 1, 1)), per_placement(inverted_placement))[2]
    monkeypatch.setattr(hecke_action, "_placement", inverted_placement)
    calls = counted_growth(monkeypatch)
    shape = _Shape((2, 1, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="operator 3 fixes it but is not idempotent"):
            shape.commutant_basis()
    assert shape.column_pass[1] == oracle
    assert oracle.endswith(
        "operator 3 fixes it but is not idempotent: it moves tableau ((1, 4), (2,), (3,)), "
        "one of its images"
    )
    assert calls == {"grown": 1}


def test_certified_analysis_makes_one_pass_per_shape(monkeypatch):
    # one growth per shape, and no word rule: the pass reads the marks alone
    calls = counted_growth(monkeypatch)
    for alpha in compositions_of(5):
        calls.clear()
        assert analysis_report(alpha)["indecomposable"] is True
        assert calls == {"grown": 1}, alpha


def check_column_pass(alpha) -> None:
    # the pass calls the rule and builds no table; a second shape builds
    # the table, whose factors and search must agree, and whose pass, under
    # the rule reading that table, must find what the rule gave
    shape, table = _Shape(alpha), _Shape(alpha).quotient_table
    assert shape.factors == table_factors(table, len(shape.words), shape.alpha.weight), alpha
    assert shape.column_pass[1] is None, alpha
    assert "quotient_table" not in shape.__dict__, alpha
    assert table_refusal(alpha, table) is None, alpha
    masks, *table_pass, _ = word_column_pass(shape, table_rule(shape.words, table))
    assert (list(shape.masks()), *shape.column_pass) == (masks, *table_pass), alpha


def test_column_pass_matches_the_table_route():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            check_column_pass(alpha)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([alpha for n in range(9, 12) for alpha in compositions_of(n)]))
def test_column_pass_matches_the_table_route_at_weights_9_to_11(alpha):
    check_column_pass(alpha)


def check_column_pass_against_the_interval_module(alpha) -> None:
    # the weak order interval model shares no code with the row-word rules:
    # each SET, through its column word, has the interval's mask, and the
    # pass certifies exactly when the interval's generator sigma (the
    # column word of the last SET) reaches every word, each operator fixing
    # it is idempotent and they fix sigma alone
    shape = _Shape(alpha)
    words, act = interval_module(alpha)
    sigma, operators = words[0], range(1, shape.alpha.weight)
    columns = [column_word(shape.tableau(j)) for j in range(len(shape.words))]
    assert sorted(columns) == sorted(words) and columns[-1] == sigma, alpha
    masks = [sum(1 << i - 1 for i in operators if act(i, c) != c) for c in columns]
    assert list(shape.masks()) == masks, alpha
    fixing = [i for i in operators if act(i, sigma) == sigma]
    images = [(i, act(i, c)) for i in fixing for c in words]
    idempotent = all(act(i, image) == image for i, image in images if image is not None)
    count = sum(all(act(i, c) == c for i in fixing) for c in words)
    assert (shape.column_pass[1] is None) == (idempotent and count == 1), alpha


def test_column_pass_matches_the_interval_module():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            check_column_pass_against_the_interval_module(alpha)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(compositions_of(9) + compositions_of(10)))
def test_column_pass_matches_the_interval_module_at_weights_9_and_10(alpha):
    check_column_pass_against_the_interval_module(alpha)


def check_growth_pass(alpha, rule=None) -> None:
    # the growth pass and the per-word oracle under the same operators, the
    # true ones unless a placement rule is given: the same error, or the
    # masks in filtration order, their counts, the verdict text and which
    # indices a later one swaps onto
    def outcome(read):
        try:
            return read()
        except KeyError as exc:
            return repr(exc)

    shape = _Shape(alpha)
    grown = outcome(lambda: (list(shape.masks()), *shape.column_pass, growth_preceded(shape)))
    oracle = outcome(lambda: word_column_pass(_Shape(alpha), rule and per_placement(rule)))
    assert grown == oracle, alpha


def test_growth_pass_matches_the_word_oracle():
    for n in range(0, 10):
        for alpha in compositions_of(n):
            check_growth_pass(alpha)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(compositions_of(10) + compositions_of(11)))
def test_growth_pass_matches_the_word_oracle_at_weights_10_and_11(alpha):
    check_growth_pass(alpha)


PLACEMENT_RULES = st.lists(st.sampled_from(["fix", "kill", "swap"]), min_size=16, max_size=16)


@settings(deadline=None, max_examples=60)
@given(PLACEMENT_RULES)
def test_growth_pass_matches_the_word_oracle_under_any_placement_rule(acts):
    # any rule on the columns 0..3: every refusal, and every image out of
    # the basis, that the per-word pass finds, the growth pass finds too
    def rule(q, c):
        return acts[4 * q + c]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hecke_action, "_placement", rule)
        for n in range(0, 7):
            for alpha in compositions_of(n):
                if max(alpha, default=0) <= 4:
                    check_growth_pass(alpha, rule)


def test_a_growth_that_precedes_every_set_but_the_generator_shows_only_against_the_oracle(
    monkeypatch
):
    # on the true operators every SET but g is preceded anyway, so the pass
    # certifies as before; under the annihilating twin nothing is preceded,
    # and the oracle, unlike the broken growth, refuses
    shapes = [alpha for n in range(1, 7) for alpha in compositions_of(n)]
    monkeypatch.setattr(module_analysis, "_grown",
                        preceding_all_but_the_generator(module_analysis._grown))
    for alpha in shapes:
        check_growth_pass(alpha)
    monkeypatch.setattr(hecke_action, "_placement", annihilating_placement)
    missed = []
    for alpha in shapes:
        try:
            check_growth_pass(alpha, annihilating_placement)
        except AssertionError:
            missed.append(alpha)
    assert len(missed) == 42
    assert " is not reached " in word_column_pass(
        _Shape((2, 1)), per_placement(annihilating_placement))[2]
    assert _Shape((2, 1)).column_pass[1] != word_column_pass(
        _Shape((2, 1)), per_placement(annihilating_placement))[2]


def test_a_shared_column_counted_as_a_witness_is_refused(monkeypatch):
    # v and v+1 in one column of two rows mark g itself as preceded wherever
    # a part of 1 lies under another row: 43 of the 63 shapes of weight 6 or
    # less, each refused by the pass and each unlike the oracle
    monkeypatch.setattr(module_analysis, "_row_pair_marks",
                        witnessing_shared_columns(module_analysis._row_pair_marks))
    shapes = [alpha for n in range(1, 7) for alpha in compositions_of(n)]
    refused = [alpha for alpha in shapes if _Shape(alpha).column_pass[1] is not None]
    assert len(shapes) == 63 and len(refused) == 43
    for alpha in refused:
        assert _Shape(alpha).column_pass[1].endswith(
            "; it is marked as the image of a later tableau, so the order is not a filtration")
        assert growth_preceded(_Shape(alpha)) != word_column_pass(_Shape(alpha))[3], alpha


def copying_quotient_step(i, w):
    """The true operator with every image a fresh tuple: a fixed image is
    equal to ``w`` but not ``w`` itself, which the table reads as fixed."""
    image = quotient_step(i, w)
    return image and tuple(list(image))


@pytest.mark.parametrize("mutant", [
    swapping_quotient_step, annihilating_quotient_step, column_swapping_quotient_step,
    copying_quotient_step,
])
def test_column_pass_gives_the_table_route_verdict_under_a_broken_operator(monkeypatch, mutant):
    # the table route reads the word-level mutant, the growth pass its
    # placement twin (the true rule for the copying mutant, whose images
    # only fail to be the word itself): the same error, or the same factors
    # and, shape by shape, the search's refusal text; where the table swaps
    # onto a later index (only under the swapping mutant) the pass refuses,
    # naming the swap
    monkeypatch.setattr(hecke_action, "_quotient_images", per_word(mutant))
    monkeypatch.setattr(hecke_action, "_placement",
                        PLACEMENT_TWINS.get(mutant, hecke_action._placement))

    def outcome(read):
        try:
            return read()
        except KeyError as exc:
            return repr(exc)

    def table_route(alpha):
        table = _Shape(alpha).quotient_table
        m = len(_Shape(alpha).words)
        return table, table_refusal(alpha, table), table_factors(table, m, alpha.weight)

    for n in range(0, 6):
        for alpha in compositions_of(n):
            shape = _Shape(alpha)
            pass_route = outcome(lambda: (shape.column_pass[1], shape.factors))
            searched = outcome(lambda: table_route(alpha))
            if isinstance(searched, str):
                assert pass_route == searched, alpha
                continue
            table, refusal, factors = searched
            assert pass_route[1] == factors, alpha
            if later_swaps(table):
                assert mutant is swapping_quotient_step, alpha
                assert pass_route[0].endswith("so the order is not a filtration"), alpha
            else:
                assert pass_route[0] == refusal, alpha


def test_a_swap_onto_a_later_index_is_refused():
    # on (3,1) operator 3 sends g (index 2) to index 0 and index 0 to the
    # later index 1, so g generates; operators 1 and 2 fix g, are
    # idempotent and fix no other index in common.  The search certifies
    # and the dense commutant is the line of the identity, but the leading
    # subspaces are not submodules, so the pass refuses, naming the swap
    order = filtration(Composition((3, 1))).order
    table = [(0, None, 2), (None, 1, 2), (1, 1, 0)]
    assert dense_commutant_basis(module_of((3, 1), table)).dimension == 1
    assert table_refusal((3, 1), table) is None
    with pytest.raises(ValueError) as caught:
        shape_with_table((3, 1), table).commutant_basis()
    assert str(caught.value) == (
        f"the commutant of the module on the super-standard tableau {order[2].rows} "
        f"is not certified one-dimensional; operator 3 sends tableau {order[0].rows} "
        f"to the later tableau {order[1].rows}, so the order is not a filtration"
    )
    # operator 1 fixes g and swaps index 0 onto the later index 1, which it
    # kills, so it is not idempotent: the search says so, the pass names
    # the swap
    table = [(1, None, 2), (None, 0, 1), (None, None, 2)]
    assert "operator 1 fixes it but is not idempotent" in table_refusal((3, 1), table)
    assert shape_with_table((3, 1), table).column_pass[1].endswith(
        f"; operator 1 sends tableau {order[0].rows} to the later tableau "
        f"{order[1].rows}, so the order is not a filtration"
    )


def test_the_last_tableau_must_be_the_super_standard_one(monkeypatch):
    # keys whose row sums ascend put g first, and the order is refused,
    # naming the tableau it ends with, rebuilt from the unchanged reading key
    grown = module_analysis._grown

    def rows_ascending(alpha, marks=None):
        words, keys = grown(alpha, marks)
        shift, n = marks[0], alpha.weight
        low = (1 << shift) - 1
        # reading + rows * n^n in place of reading - rows * n^n
        return words, [(2 * ((key >> shift) % n**n) - (key >> shift)) << shift | key & low
                       for key in keys]

    monkeypatch.setattr(module_analysis, "_grown", rows_ascending)
    with pytest.raises(ValueError) as caught:
        commutant_basis((2, 1))
    assert str(caught.value) == (
        "the commutant of the module on the super-standard tableau ((1, 2), (3,)) is not "
        "certified one-dimensional; the order ends with tableau ((1, 3), (2,)) instead"
    )


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


@pytest.mark.parametrize("step", [None, row_swapping_full_step, erratic_full_step])
def test_submodule_check_matches_the_column_rule(monkeypatch, step):
    # extendedness read off the SET basis against the column rule on every
    # row word, under the true full operator and two broken ones
    if step is not None:
        monkeypatch.setattr(hecke_action, "_full_step", step)
    for n in range(0, 8):
        for alpha in compositions_of(n):
            assert verify_submodule_closure(alpha) == column_rule_submodule_closure(alpha), alpha


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
