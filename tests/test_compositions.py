import pytest
from hypothesis import given, strategies as st

from helpers import product_refinements
from extschur.compositions import (
    Composition,
    DescentSubset,
    _composition_of_mask,
    _mask,
    composition_of_subset,
    compositions_of,
    descent_subset,
    format_composition,
    is_partition,
    parse_composition,
    refinements,
    refines,
)


@st.composite
def compositions(draw, max_weight=10):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    return draw(st.sampled_from(compositions_of(n)))


def test_lex_order_is_the_lowest_differing_descent():
    # beta < alpha exactly when the lowest bit where their descent masks
    # differ is set in beta's: the first part where they differ ends first
    # in beta; the kmatrix check of verify reads K's triangularity this way
    for n in range(1, 10):
        comps = compositions_of(n)
        for alpha in comps:
            own = _mask(alpha)
            for beta in comps:
                m = _mask(beta)
                assert (beta < alpha) == bool(m & (m ^ own) & -(m ^ own)), (alpha, beta)


def test_composition_is_a_tuple_value():
    alpha = Composition((2, 1, 3))
    assert alpha == (2, 1, 3)
    assert alpha.weight == 6
    assert alpha.length == 3
    assert hash(alpha) == hash((2, 1, 3))
    assert {alpha: "x"}[(2, 1, 3)] == "x"


def test_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    with pytest.raises(ValueError):
        Composition((-1,))


def test_composition_rejects_bools():
    # bool subclasses int, so True would otherwise pass as the part 1
    with pytest.raises(ValueError):
        Composition((True, 2))
    with pytest.raises(ValueError):
        Composition((False,))


def test_empty_composition():
    empty = Composition()
    assert empty.weight == 0
    assert empty.length == 0


def test_descent_subset_examples():
    assert descent_subset(Composition((2, 1, 3))) == DescentSubset(6, (2, 3))
    assert descent_subset(Composition((6,))) == DescentSubset(6, ())
    assert descent_subset(Composition((1, 1, 1))) == DescentSubset(3, (1, 2))


def test_descent_subset_validation():
    with pytest.raises(ValueError):
        DescentSubset(3, (3,))
    with pytest.raises(ValueError):
        DescentSubset(5, (2, 2))
    with pytest.raises(ValueError):
        DescentSubset(-1, ())
    # 1.0 and True equal 1, but neither is the integer 1
    for n, members, name in ((3, (1.0,), "member"), (3, (True,), "member"),
                             (3.0, (1,), "n"), (True, (), "n")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            DescentSubset(n, members)


def test_composition_of_subset_examples():
    assert composition_of_subset(DescentSubset(6, (2, 3))) == (2, 1, 3)
    assert composition_of_subset(DescentSubset(5, ())) == (5,)
    assert composition_of_subset(DescentSubset(3, (1, 2))) == (1, 1, 1)
    assert composition_of_subset(DescentSubset(0, ())) == ()


@given(compositions())
def test_subset_round_trip(alpha):
    assert composition_of_subset(descent_subset(alpha)) == alpha


def test_subset_map_is_a_bijection_small_weights():
    for n in range(0, 11):
        subsets = {descent_subset(alpha).members for alpha in compositions_of(n)}
        assert len(subsets) == len(compositions_of(n))
        for alpha in compositions_of(n):
            assert composition_of_subset(descent_subset(alpha)) == alpha


def test_refines_examples():
    assert refines(Composition((2, 1, 3)), Composition((2, 4)))
    assert not refines(Composition((2, 1, 3)), Composition((4, 2)))
    assert refines(Composition((2, 1, 3)), Composition((2, 1, 3)))
    assert not refines(Composition((2,)), Composition((3,)))


def test_refinement_matches_subset_containment_exhaustively():
    for n in range(0, 9):
        comps = compositions_of(n)
        for beta in comps:
            sb = set(descent_subset(beta).members)
            for alpha in comps:
                expected = set(descent_subset(alpha).members) <= sb
                assert refines(beta, alpha) == expected


def test_is_partition():
    assert is_partition(Composition((3, 2, 1)))
    assert not is_partition(Composition((2, 1, 3)))
    assert is_partition(Composition())
    assert is_partition(Composition((2, 2)))


def test_compositions_of_counts_and_order():
    assert compositions_of(0) == [()]
    assert compositions_of(1) == [(1,)]
    assert compositions_of(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 13):
        comps = compositions_of(n)
        assert len(comps) == 2 ** (n - 1)
        assert comps == sorted(comps)
        assert all(alpha.weight == n for alpha in comps)


def test_compositions_of_rejects_negative():
    with pytest.raises(ValueError):
        compositions_of(-1)


def test_refinements():
    assert set(refinements(Composition((2,)))) == {(2,), (1, 1)}
    assert refinements(Composition()) == [()]
    fine = refinements(Composition((1, 3, 1)))
    assert set(fine) == {(1, 3, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 1, 1)}
    for beta in fine:
        assert refines(beta, Composition((1, 3, 1)))


def test_refinements_match_product_route():
    for n in range(0, 8):
        for alpha in compositions_of(n):
            assert refinements(alpha) == product_refinements(alpha), alpha


def test_masks_are_the_descent_subsets():
    for n in range(0, 11):
        masks = set()
        for alpha in compositions_of(n):
            members = descent_subset(alpha).members
            mask = _mask(alpha)
            assert mask == sum(1 << i - 1 for i in members), alpha
            assert _composition_of_mask(mask, n) == alpha
            assert type(_composition_of_mask(mask, n)) is Composition
            masks.add(mask)
        assert masks == set(range(2 ** max(n - 1, 0)))


@given(compositions(max_weight=8))
def test_refinements_are_exactly_the_refining_compositions(alpha):
    fine = set(refinements(alpha))
    assert len(fine) == 2 ** max(alpha.weight - alpha.length, 0)
    for beta in compositions_of(alpha.weight):
        assert (beta in fine) == refines(beta, alpha)


def test_parse_and_format():
    assert parse_composition("2,1,3") == (2, 1, 3)
    assert parse_composition("") == ()
    assert parse_composition(" 4 ") == (4,)
    assert format_composition(Composition((2, 1, 3))) == "2,1,3"
    assert format_composition(Composition()) == ""
    with pytest.raises(ValueError):
        parse_composition("2,x")
    with pytest.raises(ValueError):
        parse_composition("0,1")
    with pytest.raises(ValueError):
        parse_composition("1,,2")


@pytest.mark.parametrize("text", ["2_0,1", "+2,1", "\u0662,1"])
def test_parse_refuses_what_int_alone_accepts(text):
    # int() reads these as 20, 2 and the Arabic-Indic digit 2
    with pytest.raises(ValueError, match="malformed composition string"):
        parse_composition(text)


def test_parse_allows_spaces_around_each_part():
    assert parse_composition(" 2 , 1 ") == (2, 1)


@given(compositions())
def test_parse_format_round_trip(alpha):
    assert parse_composition(format_composition(alpha)) == alpha
