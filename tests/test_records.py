"""The immutable records against frozen dataclasses of the same fields.

Each record class is a plain class on ``compositions._Record``; its oracle
is ``helpers.dataclass_twin``, a real ``@dataclass(frozen=True)`` with the
fields the record had as a dataclass.  Every sample is compared with its
twin, built from the same field values.
"""

import copy
import pickle
from itertools import product

import pytest

from extschur.compositions import Composition, DescentSubset
from extschur.hecke_action import (
    Filtration,
    Fixed,
    RelationReport,
    RelationViolation,
    Swapped,
    Zero,
    filtration,
    verify_relations,
)
from extschur.module_analysis import (
    EndomorphismSpace,
    Indecomposable,
    ModuleMatrices,
    commutant_basis,
    matrices,
)
from extschur.qsym import KMatrix, QSymElement, fundamental, k_matrix, monomial
from extschur.tableaux import Tableau

from helpers import RECORD_FIELDS, dataclass_twin


def _samples() -> dict[type, list]:
    """Instances of every record class; within a class some are equal and
    some are not."""
    t = Tableau(((1, 3), (2,)))
    u = Tableau(((1, 2), (3,)))
    alpha = Composition((2, 1))
    violation = RelationViolation("braid", 1, 2, t)
    return {
        DescentSubset: [
            DescentSubset(4, (1, 3)), DescentSubset(4, [1, 3]),
            DescentSubset(4, (2,)), DescentSubset(3),
        ],
        Tableau: [t, Tableau([[1, 3], [2]]), u],
        Fixed: [Fixed(t), Fixed(Tableau(t.rows)), Fixed(u)],
        Zero: [Zero(), Zero()],
        Swapped: [Swapped(t), Swapped(u), Swapped(tableau=u)],
        RelationViolation: [
            violation, RelationViolation("idempotent", 1, None, t),
            RelationViolation("braid", 1, 2, Tableau(t.rows)),
        ],
        RelationReport: [
            verify_relations(alpha), verify_relations(alpha, "full"),
            RelationReport(alpha, "quotient", 2, (violation,)),
            RelationReport(alpha, "quotient", 2, ()),
        ],
        Filtration: [filtration(alpha), filtration((1, 2)), filtration((2, 1))],
        QSymElement: [
            fundamental((2, 1)), QSymElement(3, "F", {(2, 1): 1}), monomial((2, 1)),
            QSymElement(3, "M", {(2, 1): 2, (1, 1, 1): -1, (3,): 0}),
        ],
        KMatrix: [k_matrix(3), k_matrix(3), k_matrix(2)],
        ModuleMatrices: [matrices((2, 1)), matrices((1, 2)), matrices((2, 1))],
        EndomorphismSpace: [
            commutant_basis((2, 1)), commutant_basis((1, 2, 1)), commutant_basis((2, 1)),
        ],
        Indecomposable: [Indecomposable(), Indecomposable()],
    }


SAMPLES = _samples()
TWINS = {cls: dataclass_twin(cls) for cls in RECORD_FIELDS}


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in RECORD_FIELDS[type(record)])


def _twin_of(record):
    return TWINS[type(record)](*_values(record))


def _failure(action, *args) -> str:
    """The text of the AttributeError that ``action(*args)`` raises."""
    with pytest.raises(AttributeError) as info:
        action(*args)
    return str(info.value)


def test_every_record_class_is_sampled_with_equal_and_unequal_pairs():
    assert set(SAMPLES) == set(RECORD_FIELDS)
    assert len(RECORD_FIELDS) == 13
    for cls, records in SAMPLES.items():
        pairs = [(a, b) for a, b in product(records, repeat=2) if a is not b]
        assert any(a == b for a, b in pairs), cls
        assert any(a != b for a, b in pairs) or not RECORD_FIELDS[cls], cls


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_repr_hash_and_match_args_are_the_dataclass_ones(cls):
    assert cls.__match_args__ == TWINS[cls].__match_args__ == RECORD_FIELDS[cls]
    for record in SAMPLES[cls]:
        twin = _twin_of(record)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_equality_is_the_dataclass_one(cls):
    records = SAMPLES[cls]
    twins = [_twin_of(record) for record in records]
    for (a, ta), (b, tb) in product(zip(records, twins), repeat=2):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
        if a == b:
            assert hash(a) == hash(b)


def test_fields_compare_as_tuples_do():
    # a tuple compares its items by identity first, so a field unequal to
    # itself still leaves the record equal to one holding the same object
    nan = float("nan")
    for cls, args in ((Fixed, (nan,)), (Filtration, (nan, ()))):
        a, b = cls(*args), cls(*args)
        twin = TWINS[cls]
        assert (a == b, a != b) == (twin(*args) == twin(*args), twin(*args) != twin(*args))
        assert a == b
        assert cls(float("nan"), *args[1:]) != a


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_a_record_equals_neither_its_twin_nor_a_tuple(cls):
    for record in SAMPLES[cls]:
        twin = _twin_of(record)
        values = _values(record)
        assert record != twin and twin != record
        assert not record == twin
        assert record != values and values != record
        assert record != list(values)


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_fail_as_in_the_dataclass(cls):
    record = SAMPLES[cls][0]
    twin = _twin_of(record)
    for name in RECORD_FIELDS[cls] + ("other",):
        assert _failure(setattr, record, name, 1) == _failure(setattr, twin, name, 1)
        assert _failure(delattr, record, name) == _failure(delattr, twin, name)
    assert _values(record) == tuple(getattr(twin, name) for name in RECORD_FIELDS[cls])
    assert not hasattr(record, "other")


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction(cls):
    for record in SAMPLES[cls]:
        fields = dict(zip(RECORD_FIELDS[cls], _values(record)))
        by_keyword = cls(**fields)
        assert by_keyword == record == cls(*fields.values())
        assert repr(by_keyword) == repr(TWINS[cls](**fields))


def test_descent_subset_defaults_to_no_members():
    assert DescentSubset(3) == DescentSubset(3, ()) == DescentSubset(n=3)
    assert repr(DescentSubset(3)) == repr(TWINS[DescentSubset](3))
    assert repr(DescentSubset(3)) == "DescentSubset(n=3, members=())"


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_bad_arguments_are_refused_as_in_the_dataclass(cls):
    names = RECORD_FIELDS[cls]
    values = _values(SAMPLES[cls][0])
    bad_calls = [(values + (None,), {}), (values, {"bogus": None})]
    if names:  # no first field, or the first field twice
        bad_calls += [((), {}), (values, {names[0]: values[0]})]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            TWINS[cls](*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    for record in SAMPLES[cls]:
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is cls
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)
