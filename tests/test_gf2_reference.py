"""The pivot-dictionary eliminator against the Gauss-Jordan reference in
oracles.py: rank, kernel, image, solve and intersection must agree
exactly (the canonical results bit for bit), on Hypothesis-generated
matrices and on the boundary matrices of the bundled complexes and their
first subdivisions.  So must the quotient basis ker m / im A that the
homology and cohomology bases are read from."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import covertype as ct
from covertype import gf2
from covertype.homology import chain_data
from helpers import barycentric_subdivision
from oracles import (
    image_reference,
    intersection_reference,
    kernel_modulo_image_reference,
    kernel_reference,
    rref_reference,
    solve_reference,
    unit_vector,
    vector_coords,
)

# Deterministic, so the suite gives the same verdict on every run.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _random_bits(rng, width, density):
    if density == 0.5:
        return rng.getrandbits(width)
    bits = 0
    for j in rng.sample(range(width), round(width * density)):
        bits |= 1 << j
    return bits


@st.composite
def matrices(draw, max_dim=200):
    """Dense, sparse and low-rank matrices, tall or wide, up to max_dim
    rows and columns, including empty ones.  "nearly-tall" has a few
    more rows than columns, so that a tall matrix often has a kernel."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(("square", "tall", "nearly-tall", "wide")))
    big = draw(st.integers(0, max_dim))
    small = draw(st.integers(0, max(1, big // 4)))
    rows, cols = {
        "square": (big, big),
        "tall": (big, small),
        "nearly-tall": (big, big - small),
        "wide": (small, big),
    }[shape]
    kind = draw(st.sampled_from(("dense", "sparse", "low-rank")))
    if kind == "low-rank":
        inner = draw(st.integers(0, 6))
        left = gf2.Gf2Matrix(rows, inner, tuple(rng.getrandbits(inner) for _ in range(rows)))
        right = gf2.Gf2Matrix(inner, cols, tuple(rng.getrandbits(cols) for _ in range(inner)))
        return left @ right
    density = 0.5 if kind == "dense" else draw(st.sampled_from((0.01, 0.03, 0.1)))
    return gf2.Gf2Matrix(rows, cols, tuple(_random_bits(rng, cols, density) for _ in range(rows)))


def _bits(vectors):
    return [v.bits for v in vectors]


def check_against_reference(m):
    _, pivots = rref_reference(m.row_bits, m.cols)
    assert gf2.rank(m) == len(pivots)
    assert gf2.rank(m.transpose()) == len(pivots)
    assert _bits(gf2.kernel_basis(m)) == kernel_reference(m)
    assert _bits(gf2.image_basis(m)) == image_reference(m)


@SETTINGS
@given(matrices())
def test_matrix_kernel_agrees_with_reference(m):
    check_against_reference(m)


@st.composite
def kernel_image_pairs(draw, max_dim=40):
    """(m, a) with m @ a = 0, m tall, wide or without rows: a has
    random low rank, and each row of m is a random sum of some of the
    basis vectors of the kernel of a's transpose, so that ker m / im a
    is often nonzero."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(("tall", "wide", "empty")))
    n = draw(st.integers(0, max_dim))
    inner = draw(st.integers(0, n))
    k = draw(st.integers(0, max_dim))
    left = gf2.Gf2Matrix(n, inner, tuple(rng.getrandbits(inner) for _ in range(n)))
    right = gf2.Gf2Matrix(inner, k, tuple(rng.getrandbits(k) for _ in range(inner)))
    a = left @ right
    rows = {"tall": n + 1 + draw(st.integers(0, n)), "wide": draw(st.integers(0, n)), "empty": 0}
    dual = kernel_reference(a.transpose())
    dual = rng.sample(dual, draw(st.integers(0, len(dual))))
    m_rows = []
    for _ in range(rows[shape]):
        bits = 0
        for v in dual:
            if rng.random() < 0.5:
                bits ^= v
        m_rows.append(bits)
    return gf2.Gf2Matrix(len(m_rows), n, tuple(m_rows)), a


@settings(SETTINGS, max_examples=150)
@given(kernel_image_pairs())
def test_kernel_modulo_image_agrees_with_reference(pair):
    m, a = pair
    assert (m @ a).is_zero()
    kept = _bits(gf2._kernel_modulo_image(m, a))
    assert kept == kernel_modulo_image_reference(m, a)
    assert len(kept) == m.cols - gf2.rank(m) - gf2.rank(a)


@SETTINGS
@given(st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_vector_support_lists_the_set_coordinates(case):
    n, bits = case
    v = gf2.Gf2Vector(n, bits)
    assert v.support() == tuple(i for i, c in enumerate(vector_coords(v)) if c)


@SETTINGS
@given(matrices(max_dim=120), st.data())
def test_solve_agrees_with_reference(m, data):
    rng = data.draw(st.randoms(use_true_random=False))
    x = gf2.Gf2Vector(m.cols, rng.getrandbits(m.cols))
    for b in (m @ x, gf2.Gf2Vector(m.rows, rng.getrandbits(m.rows))):
        got = gf2.solve(m, b)
        expected = solve_reference(m, b.bits)
        assert (None if got is None else got.bits) == expected
        if got is not None:
            assert m @ got == b


@SETTINGS
@given(
    st.integers(0, 200).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 2**n - 1), max_size=12),
            st.lists(st.integers(0, 2**n - 1), max_size=12),
            st.integers(0, 2**n - 1),
        )
    )
)
def test_intersection_agrees_with_reference(case):
    n, a_bits, b_bits, shared = case
    # a common vector, so the intersection is often nonzero
    if a_bits and b_bits:
        a_bits = a_bits + [shared ^ a_bits[0]]
        b_bits = b_bits + [shared ^ b_bits[0]]
    a = [gf2.Gf2Vector(n, bits) for bits in a_bits]
    b = [gf2.Gf2Vector(n, bits) for bits in b_bits]
    assert _bits(gf2.subspace_intersection(a, b)) == intersection_reference(a_bits, b_bits, n)


def _complexes():
    out = []
    for name in ct.bundled_names():
        k = ct.load_bundled(name)
        out.append((name, k))
        out.append((f"{name}-sd1", barycentric_subdivision(k)))
    return out


COMPLEXES = _complexes()


@pytest.mark.parametrize("name,complex_", COMPLEXES, ids=[c[0] for c in COMPLEXES])
def test_boundary_matrices_agree_with_reference(name, complex_):
    data = chain_data(complex_)
    for n in range(1, complex_.dim + 1):
        d = data.boundary_matrix(n)
        check_against_reference(d)
        check_against_reference(d.transpose())
        # a right-hand side in the image, and a unit vector that may not be
        x = sum(1 << j for j in range(0, d.cols, 2))
        b = d @ gf2.Gf2Vector(d.cols, x)
        assert gf2.solve(d, b).bits == solve_reference(d, b.bits)
        unit = unit_vector(d.rows, 0)
        got = gf2.solve(d, unit)
        assert (None if got is None else got.bits) == solve_reference(d, unit.bits)
        # cycles supported on the first half of the n-simplices
        cycles = gf2.kernel_basis(d)
        half = [unit_vector(d.cols, j) for j in range(d.cols // 2)]
        assert _bits(gf2.subspace_intersection(cycles, half)) == intersection_reference(
            _bits(cycles), _bits(half), d.cols
        )
