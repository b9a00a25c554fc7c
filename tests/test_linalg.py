from hypothesis import given, strategies as st

from helpers import (
    bareiss_determinant as determinant,
    dense_rank,
    identity_matrix,
    laplace_determinant,
    mat_mul,
    nullspace,
    pinned_rank as linalg_rank,
    rank,
    rref_nullspace,
)

import pytest

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda size: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    )
)

rect_matrices = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).flatmap(
    lambda dims: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=dims[1], max_size=dims[1]),
        min_size=dims[0],
        max_size=dims[0],
    )
)


def test_determinant_known_values():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1
    assert determinant(identity_matrix(5)) == 1


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


@given(small_matrices)
def test_determinant_matches_cofactor_expansion(matrix):
    assert determinant(matrix) == laplace_determinant(matrix)


def test_rank_examples():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0]]) == 0
    assert rank([]) == 0
    assert rank([{0: 1, 3: -2}, {3: 4}]) == 2  # sparse rows accepted


@given(rect_matrices)
def test_rank_matches_dense_elimination(matrix):
    assert rank(matrix) == dense_rank(matrix, len(matrix[0]))


def test_nullspace_known_case():
    basis = nullspace([[1, 1]], 2)
    assert basis == [(1, -1)]


def test_nullspace_of_empty_system_is_full():
    basis = nullspace([], 3)
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_vectors_are_primitive():
    basis = nullspace([[2, 4]], 2)
    assert basis == [(2, -1)]  # coprime entries, positive leading entry


@given(rect_matrices)
def test_nullspace_properties(matrix):
    ncols = len(matrix[0])
    basis = nullspace(matrix, ncols)
    # rank-nullity
    assert len(basis) == ncols - dense_rank(matrix, ncols)
    # every basis vector is annihilated and nonzero
    for vector in basis:
        assert any(vector)
        for row in matrix:
            assert sum(r * v for r, v in zip(row, vector)) == 0
    # the vectors are independent
    assert rank(basis) == len(basis)


# sparse rows over at most six columns, with explicit zero coefficients,
# negative entries, empty rows and many one-entry rows
sparse_rows = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=5), st.integers(min_value=-3, max_value=3),
        max_size=3,
    ),
    max_size=8,
)


def dense(rows, ncols=6):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def test_linalg_rank_examples():
    assert linalg_rank([[1, 2], [2, 4]]) == 1
    assert linalg_rank([[0, 3], [1, 1], [0, 0]]) == 2
    assert linalg_rank([{0: 1, 1: 0}, {0: 2, 1: 5}]) == 2  # a zero entry does not count
    assert linalg_rank([{0: -1}, {0: 3}, {1: 0}]) == 1
    assert linalg_rank([]) == 0


@given(rect_matrices)
def test_linalg_rank_matches_echelon_rank_dense(matrix):
    assert linalg_rank(matrix) == rank(matrix) == dense_rank(matrix, len(matrix[0]))


@given(sparse_rows)
def test_linalg_rank_matches_echelon_rank_sparse(rows):
    assert linalg_rank(rows) == rank(rows) == dense_rank(dense(rows), 6)


@given(rect_matrices)
def test_nullspace_matches_reduced_echelon_form(matrix):
    assert nullspace(matrix, len(matrix[0])) == rref_nullspace(matrix, len(matrix[0]))


@given(sparse_rows)
def test_nullspace_matches_reduced_echelon_form_sparse(rows):
    assert nullspace(rows, 6) == rref_nullspace(dense(rows), 6)


def test_mat_mul():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert mat_mul(a, identity_matrix(2)) == a
    with pytest.raises(ValueError):
        mat_mul(((1, 2, 3),), ((1, 2),))
