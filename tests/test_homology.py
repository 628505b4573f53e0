"""Mod-2 homology: Betti numbers against a dense-elimination oracle,
cycle bases, surplus-cycle search, and the H_2 re-homing witness."""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest

import covertype as ct
from covertype import gf2, homology
from covertype.homology import (
    chain_data,
    chain_from_vector,
    chain_vector,
    h2_epi_witness,
    homology_basis,
    surplus_cycle,
)
from covertype.errors import (
    InconsistencyError,
    MalformedInputError,
    NotFoundError,
    PreconditionError,
)

from helpers import dunce_hat, independent, random_small_complex, randomized_thickening
from oracles import (
    betti_oracle,
    kernel_modulo_image_reference,
    matrix_column,
    transpose_reference,
    unit_vector,
    vector_coords,
    vector_weight,
)


def test_boundary_shapes_and_identity(torus):
    data = chain_data(torus)
    d1, d2 = data.boundary_matrix(1), data.boundary_matrix(2)
    assert (d1.rows, d1.cols) == (7, 21)
    assert (d2.rows, d2.cols) == (21, 14)
    assert (d1 @ d2).is_zero()
    assert data.boundary_matrix(0) == gf2.Gf2Matrix.zero(0, 7)
    assert data.boundary_matrix(3) == gf2.Gf2Matrix.zero(14, 0)
    assert data.count(2) == 14
    assert data.count(9) == 0


def test_boundary_of_triangle():
    k = ct.build_complex([("a", "b", "c")])
    data = chain_data(k)
    d2 = data.boundary_matrix(2)
    v = d2 @ unit_vector(1, 0)
    assert chain_from_vector(data, 1, v) == (("a", "b"), ("a", "c"), ("b", "c"))
    edge = ct.build_complex([("a", "b")])
    d1 = chain_data(edge).boundary_matrix(1)
    assert (d1.rows, d1.cols) == (2, 1)
    assert vector_coords(matrix_column(d1, 0)) == [1, 1]


def test_boundaries_of_tetrahedron():
    solid = ct.build_complex([("a", "b", "c", "d")])
    hollow = solid.skeleton(2)
    d2 = chain_data(hollow).boundary_matrix(2)
    assert (d2.rows, d2.cols) == (6, 4)
    assert all(vector_weight(matrix_column(d2, j)) == 3 for j in range(4))
    # the unique 2-cycle of the boundary sphere is the sum of all faces
    assert [vector_coords(v) for v in gf2.kernel_basis(d2)] == [[1, 1, 1, 1]]
    # and it is exactly what the solid's top boundary map hits
    d3 = chain_data(solid).boundary_matrix(3)
    assert [vector_coords(v) for v in gf2.image_basis(d3)] == [[1, 1, 1, 1]]


def _bundled_and_random():
    complexes = [ct.load_bundled(name) for name in ct.bundled_names()]
    return complexes + [random_small_complex(random.Random(seed)) for seed in range(20)]


def test_boundary_matrices_keep_their_columns_as_transpose():
    for k in _bundled_and_random():
        data = chain_data(k)
        for n in range(1, k.dim + 1):
            d = data.boundary_matrix(n)
            t = d.transpose()
            assert (t.rows, t.cols) == (d.cols, d.rows)
            assert list(t.row_bits) == transpose_reference(d.row_bits, d.cols)


def test_boundary_matrices_are_freed_without_the_collector():
    """Chain data does not point back at its complex, nor a transpose at
    its matrix: with the cyclic collector off, the chain data, its
    matrices and their transposes all go with the last reference to the
    complex, with no cache to clear."""
    gc.disable()
    try:
        k = ct.build_complex([("a", "b", "c", "d"), ("c", "d", "e")])
        data = chain_data(k)
        matrices = [data.boundary_matrix(n) for n in (1, 2, 3)]
        refs = [weakref.ref(m) for m in matrices]
        refs += [weakref.ref(m.transpose()) for m in matrices]
        refs.append(weakref.ref(data))
        del data, matrices
        assert all(r() is not None for r in refs)  # the complex keeps them
        del k
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_a_missing_facet_is_malformed_input():
    """A complex made directly from simplices that are not closed under
    faces names the simplex and its missing facet."""
    vertices = (("a",), ("b",), ("c",))
    k = ct.SimplicialComplex((vertices, (("a", "b"), ("b", "c")), (("a", "b", "c"),)))
    message = r"\('a', 'b', 'c'\) is in it but its facet \('a', 'c'\) is not"
    with pytest.raises(MalformedInputError, match=message):
        ct.betti_numbers(k)
    with pytest.raises(MalformedInputError, match=message):
        ct.check_closed_surface(ct.SimplicialComplex(k.by_dim))
    stray = ct.SimplicialComplex((vertices, (("a", "d"),)))
    with pytest.raises(MalformedInputError, match=r"its facet \('d',\) is not"):
        ct.betti_numbers(stray)


def test_boundary_of_boundary_guard_fires(monkeypatch):
    """Drop one entry of d_2: the triangle's boundary is then a path,
    whose own boundary is not zero."""
    combinations = itertools.combinations

    def one_facet_short(s, n):
        facets = list(combinations(s, n))
        return facets[1:] if s == ("a", "b", "c") else facets

    monkeypatch.setattr(homology, "combinations", one_facet_short)
    k = ct.build_complex([("a", "b", "c"), ("b", "c", "d")])
    with pytest.raises(InconsistencyError, match="boundary of boundary is nonzero in degree 2"):
        chain_data(k)


BETTI_CASES = [
    ("sphere", (1, 0, 1)),
    ("projective_plane", (1, 1, 1)),
    ("torus", (1, 2, 1)),
    ("klein_bottle", (1, 2, 1)),
    ("n3_surface", (1, 3, 1)),
    ("genus2", (1, 4, 1)),
    ("side_sphere", (1, 0, 1, 0)),
    ("torus_wedge_circle", (1, 3, 1)),
    ("m2_homotopy", (1, 4, 1)),
]


@pytest.mark.parametrize("fixture_name,expected", BETTI_CASES)
def test_betti_numbers_frozen(fixture_name, expected, request):
    complex_ = request.getfixturevalue(fixture_name)
    assert ct.betti_numbers(complex_) == expected
    assert betti_oracle(complex_) == expected


def test_betti_small_examples():
    circle = ct.build_complex([("a", "b"), ("b", "c"), ("a", "c")])
    assert ct.betti_numbers(circle) == (1, 1)
    two_points = ct.build_complex([("a",), ("b",)])
    assert ct.betti_numbers(two_points) == (2,)
    solid = ct.build_complex([("a", "b", "c", "d")])
    assert ct.betti_numbers(solid) == (1, 0, 0, 0)
    assert ct.betti_numbers(dunce_hat()) == (1, 0, 0)


@pytest.mark.parametrize("seed", range(25))
def test_betti_matches_oracle_on_random_complexes(seed):
    rng = random.Random(seed)
    k = random_small_complex(rng)
    assert ct.betti_numbers(k) == betti_oracle(k)


@pytest.mark.parametrize("seed", range(4))
def test_betti_matches_oracle_on_thickenings(seed):
    k, _, _ = randomized_thickening(seed)
    assert ct.betti_numbers(k) == betti_oracle(k)


def test_euler_characteristic_is_alternating_betti_sum():
    rng = random.Random(99)
    for _ in range(15):
        k = random_small_complex(rng)
        betti = ct.betti_numbers(k)
        assert k.euler_characteristic() == sum(
            (-1) ** n * b for n, b in enumerate(betti)
        )


def test_homology_basis_properties(torus, genus2):
    for k, n, expected in ((torus, 1, 2), (genus2, 1, 4), (genus2, 2, 1)):
        data = chain_data(k)
        reps = homology_basis(k, n)
        assert len(reps) == expected
        boundary = data.boundary_matrix(n)
        vectors = [chain_vector(data, n, rep) for rep in reps]
        for v in vectors:
            assert (boundary @ v).is_zero()
        # independent modulo boundaries
        boundaries = gf2.image_basis(data.boundary_matrix(n + 1))
        assert independent(boundaries + vectors, data.count(n))
    assert homology_basis(torus, 0) == ((("1",),),)
    assert homology_basis(torus, 5) == ()


def _basis_reference(k, n):
    data = chain_data(k)
    reference = kernel_modulo_image_reference(data.boundary_matrix(n), data.boundary_matrix(n + 1))
    return tuple(chain_from_vector(data, n, gf2.Gf2Vector(data.count(n), v)) for v in reference)


@pytest.mark.parametrize("seed", range(20))
def test_degree_zero_basis_agrees_with_reference(seed):
    """The smallest vertex of each component is the vector the walk over
    the canonical kernel of d_0 keeps."""
    k = random_small_complex(random.Random(seed))
    assert homology_basis(k, 0) == _basis_reference(k, 0)


def test_degree_zero_basis_of_a_disjoint_union(torus, sphere):
    # the sphere's labels sort between the torus's, so the components interleave
    relabel = {v: f"{v}5" for v in "1234"}
    spheres = [[relabel[v] for v in s] for s in sphere.maximal_simplices()]
    k = ct.build_complex(list(torus.maximal_simplices()) + spheres)
    assert homology_basis(k, 0) == _basis_reference(k, 0) == ((("1",),), (("15",),))


def test_homology_basis_where_a_boundary_matrix_is_empty(torus):
    points = ct.build_complex([("a",), ("b",), ("c",)])
    # d_1 is 3 x 0: no boundaries, so every vertex is a class
    assert homology_basis(points, 0) == _basis_reference(points, 0) == ((("a",),), (("b",),), (("c",),))
    empty = ct.build_complex([])
    assert homology_basis(empty, 0) == _basis_reference(empty, 0) == ()
    for n in (-1, 3):
        assert homology_basis(torus, n) == _basis_reference(torus, n) == ()


def test_homology_basis_small_cases(sphere):
    assert homology_basis(sphere, 2) == (tuple(sphere.simplices(2)),)
    hollow_triangle = ct.build_complex([("a", "b"), ("a", "c"), ("b", "c")])
    assert homology_basis(hollow_triangle, 1) == (
        ((("a", "b"), ("a", "c"), ("b", "c"))),
    )
    cone = ct.build_complex(
        [("a", "b", "z"), ("b", "c", "z"), ("c", "d", "z"), ("a", "d", "z")]
    )
    assert homology_basis(cone, 1) == ()


def test_chain_vector_roundtrip(torus):
    data = chain_data(torus)
    chain = (("1", "2"), ("3", "5"))
    v = chain_vector(data, 1, chain)
    assert vector_weight(v) == 2
    assert chain_from_vector(data, 1, v) == chain
    with pytest.raises(PreconditionError):
        chain_vector(data, 1, [("1", "2", "3")])
    with pytest.raises(NotFoundError):
        chain_vector(data, 1, [("1", "9")])
    with pytest.raises(PreconditionError):
        chain_from_vector(data, 1, gf2.Gf2Vector(3, 0))


def test_surplus_cycle_worked_example(side_sphere):
    # two hollow spheres share the triangle (1,2,3); the tetrahedron
    # boundary bounds in the ambient complex, so it is surplus
    skeleton = side_sphere.skeleton(2)
    found = surplus_cycle(side_sphere, skeleton.simplices(2))
    assert found is not None
    cycle, sigma = found
    assert cycle == (("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4"))
    assert sigma == ("1", "2", "3")
    remaining = [t for t in skeleton.simplices(2) if t != sigma]
    assert surplus_cycle(side_sphere, remaining) is None


def test_surplus_cycle_none_without_threes(sphere):
    assert surplus_cycle(sphere, sphere.simplices(2)) is None
    assert surplus_cycle(sphere, []) is None
    with pytest.raises(PreconditionError):
        surplus_cycle(sphere, [("1", "2")])
    with pytest.raises(PreconditionError):
        surplus_cycle(sphere, [("1", "2", "9")])


def test_h2_epi_witness_worked_example(side_sphere):
    sub, _ = ct.remove_two_simplex(side_sphere.skeleton(2), ("1", "2", "3"))
    z = (("1", "2", "3"), ("1", "2", "5"), ("1", "3", "5"), ("2", "3", "5"))
    witness = h2_epi_witness(side_sphere, sub, z)
    assert witness == (
        ("1", "2", "4"),
        ("1", "2", "5"),
        ("1", "3", "4"),
        ("1", "3", "5"),
        ("2", "3", "4"),
        ("2", "3", "5"),
    )
    # the witness is a cycle supported in the subcomplex
    data = chain_data(side_sphere)
    v = chain_vector(data, 2, witness)
    assert (data.boundary_matrix(2) @ v).is_zero()
    assert all(t in sub for t in witness)


def test_h2_epi_witness_identity_case(sphere):
    z = sphere.simplices(2)
    assert h2_epi_witness(sphere, sphere, z) == z


def test_h2_epi_witness_failure_cases():
    hollow = ct.build_complex(list(itertools.combinations("abcd", 3)))
    sub, _ = ct.remove_two_simplex(hollow, ("a", "b", "c"))
    z = hollow.simplices(2)
    # nothing bounds in a hollow sphere, so the class cannot be re-homed
    assert h2_epi_witness(hollow, sub, z) is None
    with pytest.raises(PreconditionError):
        h2_epi_witness(hollow, sub, [("a", "b", "c")])  # not a cycle


def test_h2_epi_witness_refuses_a_subcomplex_outside_the_complex(side_sphere):
    stray = ct.build_complex([("1", "2", "9")])
    with pytest.raises(PreconditionError, match=r"^\('1', '2', '9'\) is not a 2-simplex of the ambient"):
        h2_epi_witness(side_sphere, stray, ())


def test_h2_epi_witness_refuses_a_witness_outside_the_subcomplex(side_sphere, monkeypatch):
    """A solve that answers 0 leaves the cycle itself as the witness,
    and its triangle 123 is not in the subcomplex."""
    sub, _ = ct.remove_two_simplex(side_sphere.skeleton(2), ("1", "2", "3"))
    z = (("1", "2", "3"), ("1", "2", "5"), ("1", "3", "5"), ("2", "3", "5"))
    monkeypatch.setattr(gf2, "solve", lambda m, b: gf2.Gf2Vector(m.cols))
    with pytest.raises(InconsistencyError, match="^witness cycle escaped the subcomplex$"):
        h2_epi_witness(side_sphere, sub, z)


def test_chain_data_is_cached(torus):
    """Kept on the complex, and counted as the benchmark's tracer reads
    it: a first call is a miss, a repeat is a hit."""
    k = ct.SimplicialComplex(torus.by_dim)
    before = chain_data.cache_info()
    assert isinstance(before.hits, int) and isinstance(before.misses, int)
    data = chain_data(k)
    first = chain_data.cache_info()
    assert (first.hits, first.misses) == (before.hits, before.misses + 1)
    assert chain_data(k) is data
    second = chain_data.cache_info()
    assert (second.hits, second.misses) == (first.hits + 1, first.misses)


def test_repeated_reductions_keep_memory_flat():
    """20 different reductions: the numbers of live chain data and live
    complexes stop growing after the first few."""
    data, live = [], []
    for seed in range(20):
        k, surface, _ = randomized_thickening(seed)
        ct.reduce_to_certificate(k, surface)
        del k
        gc.collect()
        objects = gc.get_objects()
        data.append(sum(isinstance(o, homology.ChainData) for o in objects))
        live.append(sum(isinstance(o, ct.SimplicialComplex) for o in objects))
    assert max(data[10:]) <= max(data[:10])
    assert max(live[10:]) <= max(live[:10])


def _rank_calls(monkeypatch) -> list:
    """Record every gf2.rank call made from here on."""
    calls = []
    rank = gf2.rank
    monkeypatch.setattr(gf2, "rank", lambda m: calls.append(m) or rank(m))
    return calls


def test_betti_numbers_ranks_each_boundary_matrix_once(torus, monkeypatch):
    calls = _rank_calls(monkeypatch)
    assert ct.betti_numbers(ct.SimplicialComplex(torus.by_dim)) == (1, 2, 1)
    assert 0 < len(calls) <= 4  # d_0, d_1, d_2, d_3, each once


def test_invariants_are_kept_per_complex_object(torus, monkeypatch):
    """A second call on the same complex is free; an equal but distinct
    complex computes its own, so a from-scratch check stays one; and
    the kept value does not keep its complex alive."""
    calls = _rank_calls(monkeypatch)
    k = ct.SimplicialComplex(torus.by_dim)
    assert ct.betti_numbers(k) == (1, 2, 1)
    first = len(calls)
    assert first > 0
    assert ct.betti_numbers(k) == (1, 2, 1)
    assert len(calls) == first
    assert ct.betti_numbers(ct.SimplicialComplex(k.by_dim)) == (1, 2, 1)
    assert len(calls) == 2 * first
    ref = weakref.ref(k)
    del k
    gc.collect()
    assert ref() is None
