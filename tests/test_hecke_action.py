import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    PLACEMENT_TWINS,
    action_table,
    column_word,
    erratic_full_step,
    filtration_words,
    interval_module,
    per_placement,
    per_word,
    positional_pi_full,
    positional_pi_quotient,
    quotient_step,
    replayed_relations,
    row_swapping_full_step,
    searched_preceq,
    swapping_quotient_step,
    tableau_filtration_order,
    tableau_generation_path,
)
from extschur import hecke_action
from extschur.compositions import Composition, compositions_of
from extschur.hecke_action import (
    Fixed,
    Swapped,
    Zero,
    _filtration_words,
    apply_word,
    filtration,
    generation_path,
    pi_full,
    pi_quotient,
    preceq,
    verify_relations,
)
from extschur.tableaux import (
    Tableau,
    _from_row_word,
    _row_word,
    _set_words,
    descent_composition,
    enumerate_set,
    enumerate_srit,
    is_standard_extended,
    row_sum_vector,
    super_standard,
)

# shape (4,2,3), rows bottom-up
SRIT_423 = Tableau(((2, 3, 8, 9), (1, 5), (4, 6, 7)))
SET_423 = Tableau(((1, 2, 5, 6), (3, 7), (4, 8, 9)))

SET_213 = tuple(  # reading-word order: super-standard first
    Tableau(rows)
    for rows in (((1, 2), (3,), (4, 5, 6)), ((1, 3), (2,), (4, 5, 6)), ((1, 4), (2,), (3, 5, 6)))
)


def test_pi_full_shape_4_2_3():
    assert pi_full(4, SRIT_423) == SRIT_423
    assert pi_full(8, SRIT_423) == SRIT_423
    assert pi_full(5, SRIT_423) == Tableau(((2, 3, 8, 9), (1, 6), (4, 5, 7)))


def test_pi_full_rejects_bad_index():
    with pytest.raises(ValueError):
        pi_full(0, SRIT_423)
    with pytest.raises(ValueError):
        pi_full(9, SRIT_423)


def test_pi_quotient_shape_4_2_3():
    assert pi_quotient(5, SET_423) == Fixed(SET_423)
    assert pi_quotient(7, SET_423) == Zero()
    result = pi_quotient(6, SET_423)
    assert result == Swapped(Tableau(((1, 2, 5, 7), (3, 6), (4, 8, 9))))


def test_pi_quotient_rejects_bad_input():
    with pytest.raises(ValueError):
        pi_quotient(0, SET_423)
    with pytest.raises(ValueError):
        pi_quotient(1, SRIT_423)  # not standard extended


def test_operator_indices_refuse_bools():
    # bool subclasses int, so True would otherwise act as operator 1
    t = Tableau(((1, 2),))
    calls = (
        lambda: pi_full(True, t),
        lambda: pi_quotient(True, t),
        lambda: apply_word((True,), t),
        lambda: apply_word((True,), t, "full"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="operator index must be an integer, got True"):
            call()


def test_pi_full_closure():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            srit = set(enumerate_srit(alpha))
            for t in srit:
                for i in range(1, n):
                    image = pi_full(i, t)
                    assert image in srit
                    assert image == positional_pi_full(i, t)


def test_pi_quotient_closure():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            extended = set(enumerate_set(alpha))
            for t in extended:
                for i in range(1, n):
                    result = pi_quotient(i, t)
                    assert result == positional_pi_quotient(i, t)
                    if isinstance(result, Swapped):
                        assert result.tableau in extended
                        assert result.tableau != t


def test_non_extended_tableaux_closed_under_full_action():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            for t in enumerate_srit(alpha):
                if is_standard_extended(t):
                    continue
                for i in range(1, n):
                    assert not is_standard_extended(pi_full(i, t))


def test_row_sums_never_decrease_under_full_action():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            for t in enumerate_srit(alpha):
                before = row_sum_vector(t)
                for i in range(1, n):
                    image = pi_full(i, t)
                    after = row_sum_vector(image)
                    assert all(a >= b for a, b in zip(after, before))
                    if image != t:
                        row_of_i = t.positions[i][0]
                        assert after[row_of_i - 1] > before[row_of_i - 1]


def test_apply_word_identity_and_example():
    sup = super_standard(Composition((2, 1, 3)))
    assert apply_word((), sup) == sup
    assert apply_word((2, 3), sup, "quotient") == SET_213[2]
    assert apply_word((2,), sup, "quotient") == SET_213[1]


def test_apply_word_zero_absorbs():
    column = Tableau(((1,), (2,)))
    assert apply_word((1,), column, "quotient") == Zero()
    assert apply_word((1, 1), column, "quotient") == Zero()


def test_apply_word_idempotent():
    for alpha in compositions_of(5):
        for t in enumerate_set(alpha):
            for i in range(1, 5):
                assert apply_word((i, i), t) == apply_word((i,), t)


def test_apply_word_reads_a_one_shot_word_once():
    # the letters are checked and then applied: an iterator or a generator
    # must not be used up by the check
    sup = super_standard(Composition((2, 1, 3)))
    for kind in ("full", "quotient"):
        for word in ((1, 3), (2, 3), (3, 2, 3)):
            expected = apply_word(word, sup, kind)
            assert expected != sup, (kind, word)
            assert apply_word(iter(word), sup, kind) == expected, (kind, word)
            assert apply_word((i for i in word), sup, kind) == expected, (kind, word)


def test_apply_word_rejects_bad_letters():
    sup = super_standard(Composition((2, 1)))
    with pytest.raises(ValueError):
        apply_word((3,), sup)
    with pytest.raises(ValueError):
        apply_word((1,), sup, "sideways")


def test_verify_relations_quotient_2_1_3():
    report = verify_relations(Composition((2, 1, 3)), "quotient")
    assert report.ok
    assert report.tableaux_checked == 3
    assert report.to_json() == []


def test_violation_json_shape():
    from extschur.hecke_action import RelationViolation

    violation = RelationViolation("commute", 1, 3, SET_213[0])
    assert violation.to_json() == {
        "relation": "commute",
        "i": 1,
        "j": 3,
        "tableau": {"shape": [2, 1, 3], "rows": [[1, 2], [3], [4, 5, 6]]},
    }


def test_verify_relations_full_4_2_3():
    report = verify_relations(Composition((4, 2, 3)), "full")
    assert report.ok
    assert report.tableaux_checked == 9 * 8 * 7 * 6 * 5 // (2 * 6)  # 9!/(4!2!3!)


def test_verify_relations_single_row():
    for kind in ("full", "quotient"):
        report = verify_relations(Composition((5,)), kind)
        assert report.ok
        assert report.tableaux_checked == 1


def test_verify_relations_sweep():
    for n in range(0, 6):
        for alpha in compositions_of(n):
            assert verify_relations(alpha, "full").ok
            assert verify_relations(alpha, "quotient").ok


def test_verify_relations_matches_replay():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            for kind in ("full", "quotient"):
                assert verify_relations(alpha, kind) == replayed_relations(alpha, kind)


def test_verify_relations_rejects_unknown_kind_at_every_weight():
    for alpha in ((), (1,), (2,)):
        with pytest.raises(ValueError, match="unknown action kind 'bogus'"):
            verify_relations(Composition(alpha), "bogus")


def test_verify_relations_matches_replay_with_broken_operator(monkeypatch):
    monkeypatch.setattr(hecke_action, "_full_step", row_swapping_full_step)
    total = 0
    for n in range(0, 6):
        for alpha in compositions_of(n):
            report = verify_relations(alpha, "full")
            assert report == replayed_relations(alpha, "full")
            total += len(report.violations)
    assert total == 2072


def test_verify_relations_matches_replay_when_every_relation_breaks(monkeypatch):
    monkeypatch.setattr(hecke_action, "_full_step", erratic_full_step)
    seen = set()
    for n in range(0, 6):
        for alpha in compositions_of(n):
            report = verify_relations(alpha, "full")
            assert report == replayed_relations(alpha, "full")
            seen.update(violation.relation for violation in report.violations)
    assert seen == {"idempotent", "commute", "braid"}


def test_verify_relations_matches_replay_with_broken_quotient_operator(monkeypatch):
    monkeypatch.setattr(hecke_action, "_quotient_images", per_word(swapping_quotient_step))
    total = 0
    for n in range(0, 6):
        for alpha in compositions_of(n):
            report = verify_relations(alpha, "quotient")
            assert report == replayed_relations(alpha, "quotient")
            total += len(report.violations)
    assert total == 130


def positional_table(basis, kind):
    index = {t: j for j, t in enumerate(basis)}
    n = basis[0].size if basis else 0
    table = []
    for i in range(1, n):
        row = []
        for t in basis:
            if kind == "full":
                row.append(index[positional_pi_full(i, t)])
            else:
                result = positional_pi_quotient(i, t)
                row.append(None if isinstance(result, Zero) else index[result.tableau])
        table.append(tuple(row))
    return tuple(table)


def test_action_table_matches_positional_oracle():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            for kind, basis in (("full", enumerate_srit(alpha)), ("quotient", enumerate_set(alpha))):
                assert action_table(basis, kind) == positional_table(basis, kind), (alpha, kind)


@st.composite
def row_increasing_tableaux(draw, max_weight=10):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    alpha = draw(st.sampled_from(compositions_of(n)))
    entries = draw(st.permutations(range(1, n + 1)))
    rows, start = [], 0
    for part in alpha:
        rows.append(tuple(sorted(entries[start:start + part])))
        start += part
    return Tableau(tuple(rows))


@given(row_increasing_tableaux())
def test_row_word_round_trip(t):
    word = _row_word(t)
    assert len(word) == t.size
    assert _from_row_word(word) == t


def test_action_table_matches_pi_full():
    for alpha in [Composition((2, 1)), Composition((1, 2, 2)), Composition((3,))]:
        basis = enumerate_srit(alpha)
        table = action_table(basis, "full")
        assert len(table) == alpha.weight - 1
        for i, images in enumerate(table, start=1):
            assert [basis[k] for k in images] == [pi_full(i, t) for t in basis]
    assert action_table([], "full") == ()


def test_action_table_rejects_image_outside_basis():
    # the full operator sends ((1,), (2,)) to the non-extended ((2,), (1,))
    with pytest.raises(KeyError, match=r"\(2,\), \(1,\)"):
        action_table(enumerate_set(Composition((1, 1))), "full")


def test_action_table_checks_kind_and_basis_first():
    with pytest.raises(ValueError, match="unknown action kind 'bogus'"):
        action_table([], "bogus")
    with pytest.raises(ValueError, match="not standard extended"):
        action_table([Tableau(((2,), (1,)))], "quotient")


def test_preceq_shape_2_1_3():
    t1, t2, t3 = SET_213
    assert preceq(t3, t1)
    assert preceq(t2, t1)
    assert not preceq(t1, t3)
    assert not preceq(t1, t2)
    assert preceq(t1, t1)
    assert preceq(t3, t3)


def test_preceq_shape_mismatch():
    with pytest.raises(ValueError):
        preceq(super_standard(Composition((2,))), super_standard(Composition((1, 1))))


def test_preceq_validates_both_tableaux():
    bad = Tableau(((2, 3), (1, 4)))
    good = super_standard(Composition((2, 2)))
    assert not is_standard_extended(bad)
    for s, t in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(ValueError, match="not standard extended"):
            preceq(s, t)


def test_preceq_is_a_partial_order():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            extended = enumerate_set(alpha)
            for s in extended:
                assert preceq(s, s)
                for t in extended:
                    if s != t and preceq(s, t):
                        assert not preceq(t, s)


def test_preceq_matches_closure_search():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            extended = enumerate_set(alpha)
            for s in extended:
                for t in extended:
                    assert preceq(s, t) == searched_preceq(s, t), (s, t)


@st.composite
def set_pairs(draw):
    """Two standard extended tableaux of one shape of weight 8 to 10: both
    sampled, or the first walked by genuine swaps from the second, itself
    walked from the super-standard tableau."""
    n = draw(st.integers(min_value=8, max_value=10))
    alpha = draw(st.sampled_from(compositions_of(n)))
    if draw(st.booleans()):
        extended = enumerate_set(alpha)
        return draw(st.sampled_from(extended)), draw(st.sampled_from(extended))

    def walk(t):
        letters = st.lists(st.integers(min_value=1, max_value=n - 1), min_size=n, max_size=3 * n)
        for i in draw(letters):
            result = pi_quotient(i, t)
            if isinstance(result, Swapped):
                t = result.tableau
        return t

    t = walk(super_standard(alpha))
    return walk(t), t


@settings(deadline=None, max_examples=100)
@given(set_pairs())
def test_preceq_matches_closure_search_at_weights_8_to_10(pair):
    s, t = pair
    assert preceq(s, t) == searched_preceq(s, t)
    assert preceq(t, s) == searched_preceq(t, s)


def assert_interval_module_matches(alpha):
    extended = enumerate_set(alpha)
    words, act = interval_module(alpha)
    basis_words = [column_word(t.rows) for t in extended]
    assert len(words) == len(extended), alpha
    assert set(words) == set(basis_words), alpha
    index = {w: j for j, w in enumerate(basis_words)}
    for i, row in enumerate(action_table(extended, "quotient"), start=1):
        images = [act(i, w) for w in basis_words]
        assert [None if w is None else index[w] for w in images] == list(row), (alpha, i)


def test_interval_module_matches_set_and_quotient_table():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            assert_interval_module_matches(alpha)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(compositions_of(9) + compositions_of(10)))
def test_interval_module_matches_at_weights_9_and_10(alpha):
    assert_interval_module_matches(alpha)


def test_generation_path_examples():
    sup = super_standard(Composition((2, 1, 3)))
    assert generation_path(sup) == ()
    assert generation_path(SET_213[1]) == (2,)
    assert generation_path(SET_213[2]) == (2, 3)


def test_generation_path_replays_without_vanishing():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            sup = super_standard(alpha)
            for t in enumerate_set(alpha):
                word = generation_path(t)
                current = sup
                for letter in word:
                    result = pi_quotient(letter, current)
                    assert not isinstance(result, Zero)
                    current = result.tableau
                assert current == t


def test_generation_path_matches_the_tableau_walk():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            for t in enumerate_set(alpha):
                assert generation_path(t) == tableau_generation_path(t), t


def test_generation_path_rejects_non_extended():
    for walk in (generation_path, tableau_generation_path):
        with pytest.raises(ValueError, match="not standard extended"):
            walk(Tableau(((2,), (1,))))


def test_super_standard_is_the_unique_fully_fixed_tableau():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            boundary = set(descent_subset_members(alpha))
            fixed_everywhere = [
                t
                for t in enumerate_set(alpha)
                if all(
                    isinstance(pi_quotient(i, t), Fixed)
                    for i in range(1, n)
                    if i not in boundary
                )
            ]
            assert fixed_everywhere == [super_standard(alpha)]


def descent_subset_members(alpha):
    total = 0
    out = []
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return out


def test_filtration_shape_2_1_3():
    filt = filtration(Composition((2, 1, 3)))
    assert filt.order == (SET_213[2], SET_213[1], SET_213[0])
    assert [row_sum_vector(t) for t in filt.order] == [(5, 7, 21), (4, 6, 21), (3, 6, 21)]
    assert filt.index_of(SET_213[0]) == 2
    assert len(filt) == 3


def test_filtration_trivial_shapes():
    assert len(filtration(Composition((4,)))) == 1
    assert len(filtration(Composition((1, 1, 1, 1)))) == 1


def test_filtration_is_a_linear_extension():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            filt = filtration(alpha)
            for j, t in enumerate(filt.order):
                for k, s in enumerate(filt.order):
                    if preceq(s, t) and s != t:
                        assert k < j


def test_filtration_images_never_move_later():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            filt = filtration(alpha)
            for j, t in enumerate(filt.order):
                for i in range(1, n):
                    result = pi_quotient(i, t)
                    if isinstance(result, Fixed):
                        continue
                    if isinstance(result, Swapped):
                        assert filt.index_of(result.tableau) < j


def test_filtration_words_match_tableau_sort():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            order = tableau_filtration_order(alpha)
            words = _filtration_words(alpha)
            assert words == [_row_word(t) for t in order], alpha
            assert filtration(alpha).order == tuple(order), alpha
            assert filtration_words(filtration(alpha)) == tuple(words), alpha
            # the super-standard tableau comes last
            assert order[-1] == super_standard(alpha), alpha


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([alpha for n in range(9, 12) for alpha in compositions_of(n)]))
# the smallest shape whose growth order breaks a row-sum tie unlike the
# reading words, so a re-sort of the grown words fails here
@example(Composition((4, 3, 2)))
def test_filtration_words_match_tableau_sort_at_weights_9_to_11(alpha):
    order = tableau_filtration_order(alpha)
    assert _filtration_words(alpha) == [_row_word(t) for t in order]
    assert filtration(alpha).order == tuple(order)


def test_the_first_set_in_filtration_order_is_the_column_filling():
    # rho_alpha numbers the boxes column by column, left to right, each
    # column bottom to top (first row first), so letter v-1 of its row word
    # is the row of the v-th box
    for n in range(0, 9):
        for alpha in compositions_of(n):
            boxes = sorted((c, r) for r, part in enumerate(alpha) for c in range(part))
            assert _filtration_words(alpha)[0] == tuple(r for _, r in boxes), alpha


def check_quotient_images(alpha) -> None:
    """The one-pass rule gives every operator's image of every basis word
    as the count-based oracle does, and returns a fixed word itself, which
    is how ``_word_table`` reads a fixed word."""
    for w in _set_words(alpha):
        images = hecke_action._quotient_images(w)
        expected = [quotient_step(i, w) for i in range(1, len(w))]
        assert images == expected, w
        assert [image is w for image in images] == [image is w for image in expected], w


def test_quotient_images_match_the_counted_step():
    for n in range(0, 9):
        for alpha in compositions_of(n):
            check_quotient_images(alpha)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([alpha for n in range(9, 12) for alpha in compositions_of(n)]))
def test_quotient_images_match_the_counted_step_at_weights_9_to_11(alpha):
    check_quotient_images(alpha)


def test_the_placement_rule_is_the_quotient_rule():
    # read at each placement from two columns, the rule gives the images
    # the one-pass word rule gives, and so does each mutant's placement
    # twin, on every SET
    for n in range(0, 9):
        for alpha in compositions_of(n):
            for w in _set_words(alpha):
                assert per_placement(hecke_action._placement)(w) == hecke_action._quotient_images(w)
                for mutant, twin in PLACEMENT_TWINS.items():
                    assert per_placement(twin)(w) == per_word(mutant)(w), (mutant, w)
