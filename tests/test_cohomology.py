"""Mod-2 cohomology: coboundaries, the ordered cup product on degree-1
cochains, the pairing tensor, and cup-product regularity (property A)."""

from __future__ import annotations

import itertools
import random

import pytest

import covertype as ct
from covertype import gf2
from covertype.cli import main
from covertype.cohomology import (
    Cochain,
    coboundary_matrix,
    cochain_support,
    h1_cocycle_basis,
    has_property_A,
    pairing_tensor,
    property_a_witness,
)
from covertype.homology import chain_data, chain_vector, homology_basis
from covertype.errors import PreconditionError

from helpers import barycentric_subdivision, independent, package_cup
from oracles import (
    cup_reference,
    is_degenerate_class_reference,
    kernel_modulo_image_reference,
    matrix_is_zero,
    matrix_product,
    matrix_row,
    property_a_reference,
    vector_coords,
    vector_dot,
    vector_from_coords,
    vector_from_support,
    vector_weight,
)


def random_cochain(rng, complex_, degree):
    n = len(complex_.simplices(degree))
    return Cochain(degree, gf2.Gf2Vector(n, rng.getrandbits(n)))


# the package's cup product and the oracle's, which shares no code with it
CUPS = (package_cup, cup_reference)


def test_coboundary_is_dual_to_boundary(torus):
    d2 = chain_data(torus).boundary_matrix(2)
    assert coboundary_matrix(torus, 1) == d2.transpose()
    delta0 = coboundary_matrix(torus, 0)
    delta1 = coboundary_matrix(torus, 1)
    assert matrix_is_zero(matrix_product(delta1, delta0))


def test_coboundary_evaluation():
    k = ct.build_complex([("a", "b", "c")])
    f = Cochain(0, vector_from_coords([1, 0, 0]))  # indicator of a
    df = coboundary_matrix(k, 0) @ f.values
    # (delta f)(uv) = f(u) + f(v): exactly the edges touching a
    assert cochain_support(k, Cochain(1, df)) == (("a", "b"), ("a", "c"))


def test_coboundary_shapes():
    edge = ct.build_complex([("a", "b")])
    d0 = coboundary_matrix(edge, 0)
    assert (d0.rows, d0.cols) == (1, 2)
    assert vector_coords(matrix_row(d0, 0)) == [1, 1]
    triangle = ct.build_complex([("a", "b", "c")])
    d1 = coboundary_matrix(triangle, 1)
    assert (d1.rows, d1.cols) == (1, 3)
    assert vector_coords(matrix_row(d1, 0)) == [1, 1, 1]


def test_cup_product_front_back_rule():
    k = ct.build_complex([("a", "b", "c")])
    edges = k.simplices(1)

    def indicator(*picked):
        return Cochain(1, vector_from_support(len(edges), [edges.index(e) for e in picked]))

    front = indicator(("a", "b"))
    back = indicator(("b", "c"))
    # order matters: only front-edge then back-edge evaluates to 1
    for cup in CUPS:
        assert cup(k, front, back).bits == 1
        assert cup(k, back, front).bits == 0
        assert cup(k, front, front).bits == 0


def test_cup_is_bilinear(torus):
    rng = random.Random(5)
    for cup in CUPS:
        for _ in range(10):
            a = random_cochain(rng, torus, 1)
            b = random_cochain(rng, torus, 1)
            c = random_cochain(rng, torus, 1)
            ab = Cochain(1, a.values + b.values)
            assert cup(torus, ab, c) == cup(torus, a, c) + cup(torus, b, c)
            right = cup(torus, a, Cochain(1, b.values + c.values))
            assert right == cup(torus, a, b) + cup(torus, a, c)


def test_cochain_support_rejects_a_cochain_of_another_complex(torus, sphere):
    one = Cochain(1, gf2.Gf2Vector(len(torus.simplices(1)), 0))
    with pytest.raises(PreconditionError, match="indexed against a different complex"):
        cochain_support(sphere, one)
    # a degree-2 cochain with one value per edge is refused by its degree
    with pytest.raises(PreconditionError, match="indexed against a different complex"):
        cochain_support(torus, Cochain(2, one.values))


def test_a_cochain_of_negative_degree_is_refused(torus):
    # a degree of -1 would index the simplex groups from the end: the triangles
    with pytest.raises(PreconditionError, match="a cochain has no degree -1"):
        cochain_support(torus, Cochain(-1, gf2.Gf2Vector(len(torus.simplices(2)), 1)))


def test_h1_cocycle_basis_sizes_and_cocycle_property():
    for name, b1 in (
        ("sphere_4", 0),
        ("projective_plane_6", 1),
        ("torus_7", 2),
        ("klein_bottle_8", 2),
        ("nonorientable_genus3_9", 3),
        ("genus2_10", 4),
        ("m2_homotopy_9", 4),
    ):
        k = ct.load_bundled(name)
        basis = h1_cocycle_basis(k)
        assert len(basis) == b1
        delta1 = coboundary_matrix(k, 1)
        for rep in basis:
            assert (delta1 @ rep.values).is_zero()
        # independent modulo coboundaries
        coboundaries = gf2.image_basis(coboundary_matrix(k, 0))
        assert independent(coboundaries + [rep.values for rep in basis], len(k.simplices(1)))


def test_h1_cocycle_basis_hollow_triangle():
    k = ct.build_complex([("a", "b"), ("a", "c"), ("b", "c")])
    basis = h1_cocycle_basis(k)
    assert len(basis) == 1
    assert vector_weight(basis[0].values) == 1  # a single-edge indicator suffices


def test_h1_cocycle_basis_without_edges():
    # delta^1 is 0 x 0 and delta^0 is 0 x 3: no 1-cochain at all
    k = ct.build_complex([("a",), ("b",), ("c",)])
    reference = kernel_modulo_image_reference(coboundary_matrix(k, 1), coboundary_matrix(k, 0))
    assert h1_cocycle_basis(k) == tuple(reference) == ()


def test_pairing_tensor_torus(torus):
    tensor = pairing_tensor(torus)
    assert (tensor.b1, tensor.b2) == (2, 1)
    # the intersection form of the torus is the hyperbolic plane
    assert tensor.entries == (((0,), (1,)), ((1,), (0,)))
    assert gf2.rank(tensor.flattened()) == 2


def test_pairing_tensor_projective_plane(projective_plane):
    tensor = pairing_tensor(projective_plane)
    assert (tensor.b1, tensor.b2) == (1, 1)
    assert tensor.entries == (((1,),),)  # the generator squares to 1


def test_pairing_tensor_empty_when_h1_vanishes(sphere):
    tensor = pairing_tensor(sphere)
    assert (tensor.b1, tensor.b2) == (0, 1)
    assert tensor.entries == ()


def _bundled_and_subdivided():
    out = []
    for name in ct.bundled_names():
        k = ct.load_bundled(name)
        out += [(name, k), (f"{name}-sd1", barycentric_subdivision(k))]
    return out


BUNDLED_AND_SUBDIVIDED = _bundled_and_subdivided()


@pytest.mark.parametrize(
    "name,complex_", BUNDLED_AND_SUBDIVIDED, ids=[c[0] for c in BUNDLED_AND_SUBDIVIDED]
)
def test_pairing_tensor_is_the_cup_products_on_the_cycles(name, complex_):
    """Every entry of the tensor is the cup product of its two classes,
    one product at a time, evaluated on its 2-cycle; and each product of
    the package's cup table is the oracle's front-face/back-face rule
    applied triangle by triangle."""
    data = chain_data(complex_)
    classes = h1_cocycle_basis(complex_)
    cycles = [chain_vector(data, 2, z) for z in homology_basis(complex_, 2)]
    expected = []
    for a in classes:
        row = []
        for b in classes:
            product = cup_reference(complex_, a, b)
            assert package_cup(complex_, a, b) == product
            row.append(tuple(vector_dot(product, z) for z in cycles))
        expected.append(tuple(row))
    assert pairing_tensor(complex_).entries == tuple(expected)


def test_property_a_degenerate_cases():
    point = ct.build_complex([("a",)])
    assert has_property_A(point)  # vacuous: nothing to pair
    circle = ct.build_complex([("a", "b"), ("a", "c"), ("b", "c")])
    assert not has_property_A(circle)  # b1 = 1 but H^2 = 0


def test_pairing_tensor_shape(genus2):
    tensor = pairing_tensor(genus2)
    assert (tensor.b1, tensor.b2) == (4, 1)
    flat = tensor.flattened()
    assert (flat.rows, flat.cols) == (4, 4)
    assert gf2.rank(flat) == 4
    # mod 2 the pairing is symmetric
    assert all(
        tensor.entries[i][j] == tensor.entries[j][i]
        for i in range(4)
        for j in range(4)
    )


@pytest.mark.parametrize(
    "name,expected",
    [
        ("sphere_4", True),  # vacuous: b1 = 0
        ("projective_plane_6", True),
        ("torus_7", True),
        ("klein_bottle_8", True),
        ("nonorientable_genus3_9", True),
        ("genus2_10", True),
        ("m2_homotopy_9", True),
        ("side_sphere_5", True),
        ("torus_wedge_circle_9", False),
    ],
)
def test_property_a_on_bundled(name, expected):
    k = ct.load_bundled(name)
    assert has_property_A(k) is expected
    witness = property_a_witness(k)
    assert (witness is None) is expected


def test_witness_class_on_wedge(torus_wedge_circle):
    """The circle summand of the wedge pairs to zero with everything."""
    k = torus_wedge_circle
    witness = property_a_witness(k)
    assert witness is not None
    assert cochain_support(k, witness) == (("1", "8"),)
    # verify the witness directly: nonzero class, all pairings vanish
    data = chain_data(k)
    cycles = [chain_vector(data, 2, z) for z in homology_basis(k, 2)]
    coboundaries = gf2.image_basis(coboundary_matrix(k, 0))
    assert independent(coboundaries + [witness.values], len(k.simplices(1)))
    for beta in h1_cocycle_basis(k):
        for z in cycles:
            assert vector_dot(cup_reference(k, witness, beta), z) == 0
            assert vector_dot(cup_reference(k, beta, witness), z) == 0
    # and against the oracle's own bases of H^1 and H_2
    assert is_degenerate_class_reference(k, witness)


def _hollow_tetrahedron(*labels):
    return list(itertools.combinations(labels, 3))


def _maximal(name):
    return list(ct.load_bundled(name).maximal_simplices())


# b2 != 1: the pairing matrix is b1 x b1*b2, not square; each case is
# (faces, Betti numbers, the command's witness line or None if regular)
WIDE_PAIRINGS = {
    "circle": ([("a", "b"), ("b", "c"), ("a", "c")], (1, 1), "a b"),
    # the sphere's triangles sort after the projective plane's, then before
    "rp2-wedge-sphere-after": (
        _maximal("projective_plane_6") + _hollow_tetrahedron("1", "s1", "s2", "s3"),
        (1, 1, 2),
        None,
    ),
    "rp2-wedge-sphere-before": (
        _maximal("projective_plane_6") + _hollow_tetrahedron("0a", "0b", "0c", "1"),
        (1, 1, 2),
        None,
    ),
    "torus-wedge-sphere": (
        _maximal("torus_7") + _hollow_tetrahedron("1", "s1", "s2", "s3"),
        (1, 2, 2),
        None,
    ),
    # two spheres joined by the edge a e, and the circle a x y on a
    "two-spheres-and-a-circle": (
        _hollow_tetrahedron("a", "b", "c", "d")
        + _hollow_tetrahedron("e", "f", "g", "h")
        + [("a", "e"), ("a", "x"), ("x", "y"), ("a", "y")],
        (1, 1, 2),
        "a x",
    ),
}


@pytest.mark.parametrize("name", WIDE_PAIRINGS)
def test_property_a_when_b2_is_not_one(name, tmp_path, capsys):
    """The library and the command give one verdict, the oracle's, and
    a witness cups to zero with every class on every 2-cycle."""
    faces, betti, witness_line = WIDE_PAIRINGS[name]
    k = ct.build_complex(faces)
    assert ct.betti_numbers(k) == betti
    witness = property_a_witness(k)
    assert has_property_A(k) is (witness is None) is (witness_line is None)
    assert property_a_reference(k) is (witness is None)
    if witness is not None:
        assert "; ".join(" ".join(e) for e in cochain_support(k, witness)) == witness_line
        assert is_degenerate_class_reference(k, witness)
    path = tmp_path / "in.cplx"
    path.write_text(ct.complex_to_text(k), encoding="utf-8")
    code = main(["--machine", "property-a", str(path)])
    out, err = capsys.readouterr()
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert (code, err) == (0 if witness_line is None else 1, "")
    assert fields["property_a"] == ("true" if witness_line is None else "false")
    assert fields.get("witness") == witness_line


@pytest.mark.parametrize("seed", range(8))
def test_pairing_ignores_coboundary_perturbations(seed, torus, klein_bottle):
    """Cup pairings against homology classes only depend on the
    cohomology class of each factor."""
    rng = random.Random(seed)
    for k in (torus, klein_bottle):
        data = chain_data(k)
        cycles = [chain_vector(data, 2, z) for z in homology_basis(k, 2)]
        basis = h1_cocycle_basis(k)
        delta0 = coboundary_matrix(k, 0)
        alpha = rng.choice(basis)
        f = gf2.Gf2Vector(len(k.vertices), rng.getrandbits(len(k.vertices)))
        perturbed = Cochain(1, alpha.values + delta0 @ f)
        for cup in CUPS:
            for beta in basis:
                for z in cycles:
                    assert vector_dot(cup(k, alpha, beta), z) == vector_dot(cup(k, perturbed, beta), z)
                    assert vector_dot(cup(k, beta, alpha), z) == vector_dot(cup(k, beta, perturbed), z)


def test_property_a_insensitive_to_vertex_relabeling(torus):
    """Relabeling vertices permutes the canonical bases but cannot
    change the regularity verdict."""
    relabeled = ct.build_complex(
        [[f"v{ord(x)}" for x in s] for s in torus.maximal_simplices()]
    )
    assert has_property_A(relabeled) is True
    tensor = pairing_tensor(relabeled)
    assert (tensor.b1, tensor.b2) == (2, 1)


def test_each_matrix_is_reduced_once(monkeypatch):
    """betti_numbers, pairing_tensor and property_a_witness on one
    surface share the kept reductions: no matrix is reduced twice, and
    the column reduction of d2, the row reduction of delta^1, runs
    exactly once for the Betti numbers, H^1 and H_2 together."""
    k = ct.parse_complex_text(ct.bundled_text("genus2_10")).complex()
    original = gf2.Gf2Matrix._reduction
    reduced = []  # (matrix, reduction), one entry per cache miss

    def counting(self):
        result = original(self)
        if not any(result is r for _, r in reduced):
            reduced.append((self, result))
        return result

    monkeypatch.setattr(gf2.Gf2Matrix, "_reduction", counting)
    assert ct.betti_numbers(k) == (1, 4, 1)
    assert pairing_tensor(k).b1 == 4
    assert property_a_witness(k) is None
    matrices = [m for m, _ in reduced]
    assert len(set(matrices)) == len(matrices)
    d2 = chain_data(k).boundary_matrix(2)
    assert sum(m == d2.transpose() for m in matrices) == 1
