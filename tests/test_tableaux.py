import copy
import gc
import pickle
from itertools import accumulate
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    box_of_entries,
    brute_set,
    brute_srit,
    columns_increase,
    combination_srit,
    composition_from_descents,
    descents_by_row_rule,
    filtered_set,
    grown_descent_masks,
    hook_length,
    order_key_of_rows,
    positional_descent_composition,
    positional_swap,
)
from extschur.compositions import Composition, _mask, compositions_of, is_partition
from extschur.tableaux import (
    Tableau,
    _descent_masks,
    _from_row_word,
    _is_column_strict,
    _grown,
    _words_of_keys,
    _row_word,
    _set_count,
    _set_words,
    _srit_words,
    descent_composition,
    enumerate_set,
    enumerate_srit,
    is_standard_extended,
    reading_word,
    row_sum_vector,
    super_standard,
    swap_entries,
)

@st.composite
def small_compositions(draw, max_weight=6):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    return draw(st.sampled_from(compositions_of(n)))

# the three standard extended tableaux of shape (2,1,3), rows bottom-up
SET_213 = (
    Tableau(((1, 2), (3,), (4, 5, 6))),
    Tableau(((1, 3), (2,), (4, 5, 6))),
    Tableau(((1, 4), (2,), (3, 5, 6))),
)


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row not increasing
    with pytest.raises(ValueError):
        Tableau(((1, 2), (2,)))  # not a bijection
    with pytest.raises(ValueError):
        Tableau(((1, 3),))  # skips 2
    with pytest.raises(ValueError):
        Tableau(((1,), ()))  # empty row
    # 1.0 and True equal 1, but neither is the entry 1
    for rows, entry in (([[1.0, 2]], "1.0"), ([[True, 2]], "True"), ([[1, "2"]], "'2'")):
        with pytest.raises(ValueError, match=f"^tableau entry must be an integer, got {entry}$"):
            Tableau(rows)


def test_tableau_basics():
    t = SET_213[0]
    assert t.shape == (2, 1, 3)
    assert t.size == 6
    assert t.positions[3] == (2, 1)
    assert t.entry(3, 2) == 5
    assert str(t) == "4 5 6\n3\n1 2"
    assert t.to_json() == {"shape": [2, 1, 3], "rows": [[1, 2], [3], [4, 5, 6]]}
    assert reading_word(t) == (1, 2, 3, 4, 5, 6)


def test_empty_tableau():
    t = Tableau(())
    assert t.shape == ()
    assert t.size == 0
    assert is_standard_extended(t)
    assert row_sum_vector(t) == ()


def test_enumerate_srit_shape_1_1():
    tableaux = enumerate_srit(Composition((1, 1)))
    assert [t.rows for t in tableaux] == [((1,), (2,)), ((2,), (1,))]


def test_enumerate_srit_shape_2_2_count():
    assert len(enumerate_srit(Composition((2, 2)))) == 6
    assert 6 == factorial(4) // (factorial(2) * factorial(2))


def test_enumerate_srit_single_row():
    assert [t.rows for t in enumerate_srit(Composition((2,)))] == [((1, 2),)]


def test_enumerate_srit_matches_brute_force():
    for n in range(0, 6):
        for alpha in compositions_of(n):
            got = [t.rows for t in enumerate_srit(alpha)]
            assert set(got) == brute_srit(tuple(alpha))
            assert len(got) == len(set(got))


def test_srit_count_formula():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            expected = factorial(n) // prod(factorial(part) for part in alpha)
            assert len(enumerate_srit(alpha)) == expected


def test_srit_order_is_lex_on_reading_words():
    for alpha in [Composition((2, 2)), Composition((1, 2, 1)), Composition((3, 1))]:
        words = [reading_word(t) for t in enumerate_srit(alpha)]
        assert words == sorted(words)


def test_srit_words_are_the_row_words_of_enumerate_srit_in_order():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            oracle = combination_srit(alpha)
            assert _srit_words(alpha) == [_row_word(t) for t in oracle], alpha
            assert enumerate_srit(alpha) == oracle, alpha


def test_column_flag_of_each_row_word_is_column_strictness():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            srits = enumerate_srit(alpha)
            flags = [_is_column_strict(alpha, _row_word(t)) for t in srits]
            assert flags == [columns_increase(t.rows) for t in srits], alpha


def test_srit_words_leave_no_garbage_cycle():
    # a cycle would keep each word list alive until the cyclic collector
    # runs, so a sweep over many shapes would hold many lists at once
    alpha = Composition((2, 1, 2))
    gc.collect()
    gc.disable()
    try:
        _srit_words(alpha)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_set_leaves_no_garbage_cycle():
    alpha = Composition((2, 1, 2))
    gc.collect()
    gc.disable()
    try:
        enumerate_set(alpha)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _srit_count(alpha) -> int:
    return factorial(sum(alpha)) // prod(factorial(part) for part in alpha)


# (1^10) alone has 10! = 3,628,800 SRITs; the cap keeps every shape of
# weight up to 7 (at most 7! = 5,040) and those of weight 8 to 10 that
# are listed in a fraction of a second
WORD_SHAPES = [
    alpha for n in range(0, 11) for alpha in compositions_of(n) if _srit_count(alpha) <= 20_000
]


@settings(deadline=None)
@given(st.sampled_from(WORD_SHAPES))
def test_srit_words_are_the_arrangements_of_the_row_letters(alpha):
    words = _srit_words(alpha)
    assert len(words) == _srit_count(alpha)
    assert len(set(words)) == len(words)
    letters = [r for r, part in enumerate(alpha) for _ in range(part)]
    assert all(sorted(w) == letters for w in words)


def test_enumerate_set_shape_2_1_3():
    assert tuple(enumerate_set(Composition((2, 1, 3)))) == SET_213


def test_enumerate_set_trivial_shapes():
    assert [t.rows for t in enumerate_set(Composition((1, 1, 1)))] == [((1,), (2,), (3,))]
    assert [t.rows for t in enumerate_set(Composition((1, 2)))] == [((1,), (2, 3))]


def test_enumerate_set_matches_brute_force():
    for n in range(0, 6):
        for alpha in compositions_of(n):
            got = {t.rows for t in enumerate_set(alpha)}
            assert got == brute_set(tuple(alpha))


def test_enumerate_set_matches_filter_in_order():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            assert enumerate_set(alpha) == filtered_set(alpha)


def test_grown_lists_the_row_words_of_the_filter():
    # the growth hands out row words, and enumerate_set's sort puts them in
    # the order of the SRIT filter (test_enumerate_set_matches_filter_in_order
    # pits enumerate_set against helpers.filtered_set itself); here the
    # filter runs on the row words, through the column rule that
    # test_column_flag_of_each_row_word_is_column_strictness checks
    for n in range(0, 9):
        for alpha in compositions_of(n):
            words = _srit_words(alpha)
            kept = [w for w in words if _is_column_strict(alpha, w)]
            grown, keys = _grown(alpha)
            assert all(type(w) is tuple and len(w) == n for w in grown), alpha
            assert len(keys) == len(grown), alpha
            assert sorted(grown) == sorted(kept), alpha
            assert _set_words(alpha) == kept, alpha


def check_set_words(alpha) -> None:
    """Each order key of the growth is the one read off the tableau's
    rows, and ``_set_words`` is the grown words sorted by the reading word
    read off the rows: the rows concatenated."""
    words, keys = _grown(alpha)
    rows = [_from_row_word(w).rows for w in words]
    assert keys == list(map(order_key_of_rows, rows)), alpha
    by_reading = sorted(zip(words, rows), key=lambda pair: sum(pair[1], ()))
    assert _set_words(alpha) == [w for w, _ in by_reading], alpha


def test_set_words_match_the_sort_by_the_rows():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            check_set_words(alpha)


def test_marked_growth_keeps_the_words_and_shifts_the_keys():
    # marks ride below the shifted order key: a marked growth keeps no word,
    # but its keys hold the words and their order, those of the plain
    # growth, each key above the shift is its order key, and the bits below
    # it are the marks of its placements, each moved up to bit v-1
    for n in range(0, 8):
        for alpha in compositions_of(n):
            words, keys = _grown(alpha)
            table = [[[[1 + 2 * (q + 3 * c) for c in range(8)] for q in range(8)]
                      for _ in alpha] for _ in alpha]
            shift = 64
            marked_words, marked = _grown(alpha, (shift, table))
            assert marked_words is None, alpha
            assert _words_of_keys(alpha, marked, shift) == words, alpha
            assert [key >> shift for key in marked] == keys, alpha
            for w, key in zip(words, marked):
                rows, expected = _from_row_word(w).rows, 0
                box = {v: (r, c) for r, row in enumerate(rows) for c, v in enumerate(row)}
                for v in range(1, n):
                    q, c = box[v][1], box[v + 1][1]
                    expected += 2 * (q + 3 * c) + (1 << v - 1)
                assert key & (1 << shift) - 1 == expected, (alpha, w)


def test_each_grown_word_is_rebuilt_from_its_key():
    # shifted over any marks below it, each order key still gives its word
    for n in range(0, 9):
        for alpha in compositions_of(n):
            words, keys = _grown(alpha)
            assert _words_of_keys(alpha, keys, 0) == words, alpha
            marked = [(key << 7) + (j * 37 & 127) for j, key in enumerate(keys)]
            assert _words_of_keys(alpha, marked, 7) == words, alpha


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([alpha for n in range(9, 12) for alpha in compositions_of(n)]))
# the smallest shape whose growth order breaks a row-sum tie unlike the
# reading words
@example(Composition((4, 3, 2)))
def test_set_words_match_the_sort_by_the_rows_at_weights_9_to_11(alpha):
    check_set_words(alpha)


def test_set_count_is_the_total_of_the_descent_masks():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            assert _set_count(alpha) == sum(_descent_masks(alpha).values()), alpha
    assert _set_count(Composition((2, 1, 3))) == len(SET_213)
    # two equal rows of k: the standard Young tableaux of a 2 x k rectangle
    assert _set_count(Composition((40, 40))) == factorial(80) // factorial(40) // factorial(41)


def test_descent_mask_totals_count_the_tableaux():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            masks = _descent_masks(alpha)
            assert sum(masks.values()) == len(enumerate_set(alpha)), alpha
            assert all(0 <= mask < 2 ** max(n - 1, 0) for mask in masks), alpha


def test_descent_mask_recursion_matches_the_grown_tableaux():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            assert _descent_masks(alpha) == grown_descent_masks(alpha), alpha


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([alpha for n in range(9, 13) for alpha in compositions_of(n)]))
def test_descent_mask_recursion_matches_the_grown_tableaux_at_weights_9_to_12(alpha):
    assert _descent_masks(alpha) == grown_descent_masks(alpha)


def test_monomial_coefficient_of_the_own_shape_is_one_up_to_weight_12():
    # F_beta contains M_alpha exactly when the descents of beta are among
    # those of alpha, so the M_alpha coefficient of E_alpha counts the SETs
    # whose descent mask lies inside alpha's: the one fixed point that the
    # commutant certificate relies on
    for n in range(0, 13):
        for alpha in compositions_of(n):
            own = _mask(alpha)
            inside = sum(c for mask, c in _descent_masks(alpha).items() if mask & ~own == 0)
            assert inside == 1, alpha


def test_descent_masks_hand_out_a_fresh_counter():
    alpha = Composition((2, 1, 3))
    expected = grown_descent_masks(alpha)
    masks = _descent_masks(alpha)
    masks[0] += 5
    masks[1 << 4] = 7
    assert _descent_masks(alpha) == expected
    masks.clear()
    assert _descent_masks(alpha) == expected


@given(small_compositions(max_weight=10))
def test_generated_tableaux_are_standard_extended_of_shape(alpha):
    for t in enumerate_set(alpha):
        assert is_standard_extended(t)
        assert t.shape == alpha


def test_set_subset_of_srit_and_membership():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            srit = enumerate_srit(alpha)
            extended = set(enumerate_set(alpha))
            assert extended <= set(srit)
            for t in srit:
                assert (t in extended) == is_standard_extended(t)


def test_is_standard_extended_examples():
    assert is_standard_extended(SET_213[0])
    assert not is_standard_extended(Tableau(((2,), (1,))))
    assert is_standard_extended(Tableau(((1, 2, 3, 4),)))


def test_column_condition_skips_short_rows():
    # column 2 exists in rows 1 and 3 only; 6 above 4 breaks it
    assert not is_standard_extended(Tableau(((1, 6), (2,), (3, 4, 5))))
    assert is_standard_extended(Tableau(((1, 4), (2,), (3, 5, 6))))


def test_descent_composition_shape_2_1_3():
    assert descent_composition(SET_213[0]) == (2, 1, 3)
    assert descent_composition(SET_213[1]) == (1, 2, 3)
    assert descent_composition(SET_213[2]) == (1, 1, 2, 2)


def test_descent_composition_weight():
    for n in range(0, 6):
        for alpha in compositions_of(n):
            for t in enumerate_set(alpha):
                assert descent_composition(t).weight == n


def test_super_standard():
    assert super_standard(Composition((2, 1, 3))) == SET_213[0]
    assert super_standard(Composition((4,))).rows == ((1, 2, 3, 4),)
    assert super_standard(Composition((1, 1, 1))).rows == ((1,), (2,), (3,))
    assert super_standard(Composition()).rows == ()


def test_super_standard_is_extended_with_descents_alpha():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            t = super_standard(alpha)
            assert is_standard_extended(t)
            assert descent_composition(t) == alpha


def test_row_sum_vector_examples():
    assert row_sum_vector(SET_213[0]) == (3, 6, 21)
    assert row_sum_vector(SET_213[2]) == (5, 7, 21)
    assert row_sum_vector(Tableau(((1, 2, 3, 4, 5),))) == (15,)


def test_row_sum_vector_is_weakly_increasing_to_total():
    for alpha in compositions_of(5):
        for t in enumerate_srit(alpha):
            sums = row_sum_vector(t)
            assert all(a <= b for a, b in zip(sums, sums[1:]))
            if sums:
                assert sums[-1] == 5 * 6 // 2


def test_set_of_partition_is_standard_young_tableaux():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            if not is_partition(alpha):
                continue
            got = {t.rows for t in enumerate_set(alpha)}
            assert got == brute_set(tuple(alpha))
            assert len(got) == hook_length(tuple(alpha))


def test_descent_rules_agree_on_partitions():
    # column rule (weakly right) vs row rule (strictly above) coincide on
    # standard Young tableaux
    for n in range(1, 7):
        for alpha in compositions_of(n):
            if not is_partition(alpha):
                continue
            for t in enumerate_set(alpha):
                by_rows = composition_from_descents(descents_by_row_rule(t.rows), n)
                assert descent_composition(t) == by_rows


def test_swap_entries():
    t = swap_entries(SET_213[0], 2)
    assert t == SET_213[1]
    assert swap_entries(t, 2) == SET_213[0]
    # a slice of the word would wrap round at 0 and -1; a bool or a float
    # is refused like an index outside 1..n-1, not read as an integer
    for i in (-1, 0, 6, 7, True, 1.0):
        with pytest.raises(KeyError):
            swap_entries(t, i)
    with pytest.raises(KeyError):
        swap_entries(super_standard((2, 1, 3)), True)


def _swap_outcome(swap, t, i):
    """The row word of ``swap(t, i)``, or the type and text of the
    KeyError or ValueError it raises."""
    try:
        return _row_word(swap(t, i))
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def test_word_built_tableaux_are_the_row_built_ones():
    # every row word of weight <= 7, stored unvalidated, against the
    # tableau validated from rows chosen as combinations of entries, and
    # every read of the word against its oracle on those rows
    for n in range(0, 8):
        for alpha in compositions_of(n):
            ends = tuple(accumulate(alpha))
            ss_rows = tuple(tuple(range(a + 1, b + 1)) for a, b in zip((0,) + ends, ends))
            assert repr(super_standard(alpha)) == repr(Tableau(ss_rows)), alpha
            assert _row_word(super_standard(alpha)) == _row_word(Tableau(ss_rows)), alpha
            oracle = combination_srit(alpha)
            words = _srit_words(alpha)
            assert len(words) == len(oracle), alpha
            # the clones carry the word alone, and build every view anew
            fresh = list(map(_from_row_word, words))
            for clones in (pickle.loads(pickle.dumps(fresh)), copy.deepcopy(fresh)):
                for clone, u in zip(clones, oracle):
                    assert type(clone) is Tableau
                    assert repr(clone) == repr(u) and clone == u and hash(clone) == hash(u)
            for w, u in zip(words, oracle):
                t = _from_row_word(w)
                assert repr(t) == repr(u) and str(t) == str(u)
                assert t == u and u == t and hash(t) == hash(u)
                assert t.to_json() == u.to_json()
                assert t.rows == u.rows and t.shape == u.shape == alpha
                assert type(t.shape) is Composition and t.size == u.size == n
                boxes = box_of_entries(u.rows)
                assert t.positions == u.positions == boxes
                assert all(t.entry(r, c) == v for v, (r, c) in boxes.items())
                assert is_standard_extended(t) == columns_increase(u.rows)
                assert descent_composition(t) == positional_descent_composition(u)
                # the indices outside 1..n-1 on the first tableau of each shape
                for i in range(1, n) if u is not oracle[0] else range(-1, n + 2):
                    assert _swap_outcome(swap_entries, t, i) == _swap_outcome(positional_swap, u, i)
                assert reading_word(t) == tuple(v for row in u.rows for v in row)
                assert row_sum_vector(t) == tuple(accumulate(sum(row) for row in u.rows))


@given(small_compositions())
def test_enumeration_is_deterministic(alpha):
    first = [t.rows for t in enumerate_set(alpha)]
    second = [t.rows for t in enumerate_set(alpha)]
    assert first == second
