"""Bit-packed linear algebra over GF(2), cross-checked against dense
elimination and brute-force span enumeration on small random instances."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from covertype import gf2
from covertype.errors import PreconditionError

from oracles import (
    identity_matrix,
    matrix_column,
    matrix_entry,
    matrix_from_columns,
    matrix_from_rows,
    matrix_from_vectors,
    rank_mod2_dense,
    span_bits,
    unit_vector,
    vector_coords,
    vector_dot,
    vector_from_coords,
    vector_weight,
)


def random_matrix(rng, rows, cols):
    return gf2.Gf2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def dense(m):
    return [[matrix_entry(m, i, j) for j in range(m.cols)] for i in range(m.rows)]


# ---------------------------------------------------------------------
# vectors


def test_vector_roundtrips():
    v = vector_from_coords([1, 0, 1, 1, 0])
    assert v.length == 5
    assert vector_coords(v) == [1, 0, 1, 1, 0]
    assert v.support() == (0, 2, 3)
    assert vector_weight(v) == 3
    assert len(v) == 5
    assert [v[i] for i in range(5)] == vector_coords(v)
    assert gf2.Gf2Vector.from_support(5, (0, 2, 3)) == v
    assert str(v) == "10110"


def test_vector_arithmetic():
    a = vector_from_coords([1, 1, 0, 1])
    b = vector_from_coords([0, 1, 1, 1])
    assert vector_coords(a + b) == [1, 0, 1, 0]
    assert (a + a).is_zero()
    assert vector_dot(a, b) == 0  # overlap weight 2
    assert vector_dot(a, unit_vector(4, 0)) == 1
    assert unit_vector(4, 2).support() == (2,)


def test_vector_index_out_of_range():
    v = vector_from_coords([1, 0, 1])
    for i in (3, -1):
        with pytest.raises(IndexError, match=f"^{i}$"):
            v[i]


def test_vector_validation():
    with pytest.raises(PreconditionError):
        gf2.Gf2Vector(2, 0b100)
    with pytest.raises(PreconditionError):
        gf2.Gf2Vector(-1, 0)
    with pytest.raises(PreconditionError):
        a = gf2.Gf2Vector(3, 0)
        b = gf2.Gf2Vector(4, 0)
        a + b


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gf2.Gf2Vector.from_support(3, [0, 3]), "support index 3 out of range"),
        (lambda: gf2.Gf2Vector.from_support(3, [-1]), "support index -1 out of range"),
        (lambda: gf2.Gf2Matrix(-1, 0, ()), "matrix dimensions must be >= 0"),
        (lambda: gf2.Gf2Matrix(0, -1, ()), "matrix dimensions must be >= 0"),
        (
            lambda: matrix_from_vectors([gf2.Gf2Vector(2), gf2.Gf2Vector(3)]),
            "mixed vector lengths",
        ),
        (
            lambda: matrix_from_vectors([gf2.Gf2Vector(2)], 3),
            "declared length does not match vectors",
        ),
        (lambda: identity_matrix(2) @ identity_matrix(3), "inner dimensions differ"),
        (
            lambda: gf2.subspace_intersection([gf2.Gf2Vector(2, 1)], [gf2.Gf2Vector(3, 1)]),
            "ambient dimensions differ",
        ),
    ],
)
def test_shape_errors_name_their_cause(build, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------
# matrices


def test_matrix_constructors_agree():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = matrix_from_rows(rows)
    assert (m.rows, m.cols) == (2, 3)
    assert dense(m) == rows
    assert m == matrix_from_vectors([m.row(0), m.row(1)])
    assert m == matrix_from_columns([matrix_column(m, j) for j in range(3)])
    assert gf2.Gf2Matrix.zero(2, 3).is_zero()
    assert dense(identity_matrix(3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_transpose_involution():
    rng = random.Random(1)
    m = random_matrix(rng, 5, 8)
    t = m.transpose()
    assert (t.rows, t.cols) == (8, 5)
    assert all(matrix_entry(t, j, i) == matrix_entry(m, i, j) for i in range(5) for j in range(8))
    assert t.transpose() == m


def test_transpose_is_computed_once_without_a_cycle():
    rng = random.Random(3)
    m = random_matrix(rng, 6, 4)
    t = m.transpose()
    assert m.transpose() is t
    assert t.transpose() == m and t.transpose() is not m
    # only the matrix points at its transpose, so dropping the matrix
    # frees it without the cycle collector
    gc.disable()
    try:
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_kernel_of_a_tall_matrix():
    # columns c0, c1, c0 + c1, c1, 0 of a 7 x 5 matrix: free columns 2, 3, 4
    c0, c1 = 0b1010011, 0b0110101
    m = matrix_from_columns(
        [gf2.Gf2Vector(7, bits) for bits in (c0, c1, c0 ^ c1, c1, 0)]
    )
    assert [v.support() for v in gf2.kernel_basis(m)] == [(0, 1, 2), (1, 3), (4,)]


def test_matmul_identities():
    rng = random.Random(2)
    a = random_matrix(rng, 4, 6)
    b = random_matrix(rng, 6, 3)
    c = random_matrix(rng, 3, 5)
    assert (a @ b) @ c == a @ (b @ c)
    assert identity_matrix(4) @ a == a
    assert a @ identity_matrix(6) == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_matmul_vector():
    m = matrix_from_rows([[1, 1, 0], [0, 1, 1]])
    v = vector_from_coords([1, 1, 1])
    assert vector_coords(m @ v) == [0, 0]
    assert vector_coords(m @ unit_vector(3, 0)) == [1, 0]
    with pytest.raises(PreconditionError):
        m @ vector_from_coords([1, 1])


# ---------------------------------------------------------------------
# rank / kernel / image / solve, against the dense oracle


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_dense_elimination(seed):
    rng = random.Random(seed)
    m = random_matrix(rng, rng.randint(0, 9), rng.randint(1, 9))
    r = gf2.rank(m)
    assert r == rank_mod2_dense(dense(m))
    assert r == gf2.rank(m.transpose())


@pytest.mark.parametrize("seed", range(12))
def test_kernel_basis_properties(seed):
    rng = random.Random(100 + seed)
    m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 10))
    kernel = gf2.kernel_basis(m)
    assert len(kernel) == m.cols - gf2.rank(m)
    for v in kernel:
        assert (m @ v).is_zero()
    # independence: every pattern in the span is reached exactly once
    assert len(span_bits(kernel)) == 2 ** len(kernel)
    # completeness: brute-force kernel membership over the whole space
    if m.cols <= 10:
        spanned = span_bits(kernel)
        for bits in range(2**m.cols):
            v = gf2.Gf2Vector(m.cols, bits)
            assert ((m @ v).is_zero()) == (bits in spanned)


@pytest.mark.parametrize("seed", range(12))
def test_image_basis_properties(seed):
    rng = random.Random(200 + seed)
    m = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
    image = gf2.image_basis(m)
    assert len(image) == gf2.rank(m)
    spanned = span_bits(image)
    assert len(spanned) == 2 ** len(image)
    for j in range(m.cols):
        assert (m @ unit_vector(m.cols, j)).bits in spanned


@pytest.mark.parametrize("seed", range(20))
def test_solve_consistent_and_inconsistent(seed):
    rng = random.Random(300 + seed)
    m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    x = gf2.Gf2Vector(m.cols, rng.getrandbits(m.cols))
    b = m @ x
    got = gf2.solve(m, b)
    assert got is not None
    assert m @ got == b
    image = span_bits(gf2.image_basis(m))
    outside = next(
        (bits for bits in range(2**m.rows) if bits not in image), None
    )
    if outside is not None:
        assert gf2.solve(m, gf2.Gf2Vector(m.rows, outside)) is None


def test_solve_free_variables_default_to_zero():
    m = matrix_from_rows([[1, 1]])
    got = gf2.solve(m, vector_from_coords([1]))
    assert got is not None and vector_coords(got) == [1, 0]


def test_solve_rejects_wrong_length():
    m = matrix_from_rows([[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        gf2.solve(m, vector_from_coords([1, 0, 0]))


def test_intersection_explicit():
    a = [vector_from_coords(c) for c in ([1, 1, 0, 0], [0, 0, 1, 1])]
    b = [vector_from_coords(c) for c in ([1, 1, 1, 1], [1, 0, 1, 0])]
    meet = gf2.subspace_intersection(a, b)
    assert [vector_coords(v) for v in meet] == [[1, 1, 1, 1]]
    a = [unit_vector(3, 0), unit_vector(3, 1)]
    b = [vector_from_coords(c) for c in ([1, 1, 0], [0, 1, 1])]
    meet = gf2.subspace_intersection(a, b)
    assert [vector_coords(v) for v in meet] == [[1, 1, 0]]


@pytest.mark.parametrize("seed", range(10))
def test_intersection_matches_enumeration(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(1, 8)
    a = [gf2.Gf2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 4))]
    b = [gf2.Gf2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 4))]
    meet = gf2.subspace_intersection(a, b)
    assert span_bits(meet) == span_bits(a) & span_bits(b)
    assert len(span_bits(meet)) == 2 ** len(meet)


def test_results_are_deterministic():
    rng = random.Random(7)
    m = random_matrix(rng, 6, 9)
    assert gf2.kernel_basis(m) == gf2.kernel_basis(m)
    assert gf2.image_basis(m) == gf2.image_basis(m)
    a = [m.row(i) for i in range(3)]
    b = [m.row(i) for i in range(2, 6)]
    assert gf2.subspace_intersection(a, b) == gf2.subspace_intersection(a, b)
