"""Builders for the randomized test corpus: homotopy-preserving
thickenings of the bundled surfaces (stellar subdivisions, coned-on
tetrahedra, edge flaps, a dunce hat on a bridge) and small random
complexes for oracle comparisons; and a from-scratch replay of a
reduction trace."""

from __future__ import annotations

import itertools
import random

import covertype as ct
from covertype import gf2
from covertype.engine import COLLAPSE, CONTRACTION, EXCISION
from oracles import free_faces_reference, matrix_from_vectors, replay_reference

SURFACE_FILES = (
    ("sphere_4", ct.SurfaceClass(True, 0)),
    ("projective_plane_6", ct.SurfaceClass(False, 1)),
    ("torus_7", ct.SurfaceClass(True, 1)),
    ("klein_bottle_8", ct.SurfaceClass(False, 2)),
    ("nonorientable_genus3_9", ct.SurfaceClass(False, 3)),
    ("genus2_10", ct.SurfaceClass(True, 2)),
)


def _maximal(complex_):
    return [list(s) for s in complex_.maximal_simplices()]


def _tet_free_triangles(complex_):
    """Triangles not contained in any 3-simplex."""
    out = []
    for t in complex_.simplices(2):
        if not complex_._facet_cofaces[t]:
            out.append(t)
    return out


def subdivide_triangle(complex_, triangle, new_label):
    """Stellar subdivision at a triangle with no 3-coface."""
    t = ct.make_simplex(triangle)
    faces = [s for s in _maximal(complex_) if tuple(s) != t]
    for i in range(3):
        faces.append([new_label, t[i], t[(i + 1) % 3]])
    return ct.build_complex(faces)


def subdivide_edge(complex_, edge, new_label):
    """Stellar subdivision at an edge none of whose triangles lies in a
    3-simplex."""
    e = ct.make_simplex(edge)
    cofaces = complex_._facet_cofaces[e]
    faces = []
    for s in _maximal(complex_):
        st = tuple(s)
        if st == e or (len(st) == 3 and e[0] in st and e[1] in st):
            continue
        faces.append(s)
    for t in cofaces:
        apex = next(x for x in t if x not in e)
        faces.append([new_label, e[0], apex])
        faces.append([new_label, e[1], apex])
    if not cofaces:
        faces.append([new_label, e[0]])
        faces.append([new_label, e[1]])
    return ct.build_complex(faces)


def flip_edge(complex_, edge):
    """The 2-2 move on a surface: the two triangles on the edge ab,
    abc and abd, become acd and bcd; c and d must not be adjacent."""
    a, b = ct.make_simplex(edge)
    pair = complex_._facet_cofaces[(a, b)]
    (c,), (d,) = (set(t) - {a, b} for t in pair)
    faces = [s for s in _maximal(complex_) if tuple(s) not in pair]
    return ct.build_complex(faces + [[a, c, d], [b, c, d]])


def glue_tetrahedron(complex_, triangle, new_label):
    """Cone a new vertex over a triangle, solid: adds one 3-simplex."""
    t = ct.make_simplex(triangle)
    return ct.build_complex(_maximal(complex_) + [[new_label, *t]])


def attach_flap(complex_, edge, new_label):
    """Cone a new vertex over an edge: adds one collapsible triangle."""
    e = ct.make_simplex(edge)
    return ct.build_complex(_maximal(complex_) + [[new_label, *e]])


def dunce_hat():
    """A 13-vertex contractible complex with no free faces: a 9-gon disk
    whose boundary word runs around a 3-cycle as r0 r1 r2 r0 r1 r2 r0 r2 r1."""
    rim = ["r0", "r1", "r2", "r0", "r1", "r2", "r0", "r2", "r1"]
    mid = [f"m{i}" for i in range(9)]
    faces = []
    for i in range(9):
        j = (i + 1) % 9
        faces.append([rim[i], rim[j], mid[i]])
        faces.append([rim[j], mid[i], mid[j]])
        faces.append([mid[i], mid[j], "cc"])
    return ct.build_complex(faces)


def attach_dunce_with_bridge(complex_, vertex, prefix):
    """Hang a relabeled dunce hat off the given vertex by one maximal
    edge; homotopy equivalent to the input."""
    hat = dunce_hat()
    renamed = [[f"{prefix}{v}" for v in s] for s in _maximal(hat)]
    return ct.build_complex(_maximal(complex_) + renamed + [[vertex, f"{prefix}cc"]])


def barycentric_subdivision(complex_):
    """Barycentric subdivision; new vertices are named by the simplices
    they subdivide."""

    def name(s):
        return "-".join(s)

    faces = []
    for s in complex_.maximal_simplices():
        for order in itertools.permutations(s):
            chain = [name(tuple(sorted(order[: k + 1]))) for k in range(len(order))]
            faces.append(chain)
    return ct.build_complex(faces)


def randomized_thickening(seed):
    """One corpus member: a bundled surface thickened by 3-8 random
    homotopy-preserving moves.  Returns (complex, surface class, log)."""
    rng = random.Random(seed)
    base_name, surface = SURFACE_FILES[seed % len(SURFACE_FILES)]
    complex_ = ct.load_bundled(base_name)
    log = [base_name]
    n_moves = rng.randint(3, 8)
    fresh = 0
    for _ in range(n_moves):
        move = rng.choice(
            ("subdivide_triangle", "subdivide_edge", "glue_tet", "flap", "dunce")
        )
        fresh += 1
        label = f"n{fresh}"
        if move == "subdivide_triangle":
            pool = _tet_free_triangles(complex_)
            if not pool:
                continue
            complex_ = subdivide_triangle(complex_, rng.choice(pool), label)
        elif move == "subdivide_edge":
            pool = []
            for e in complex_.simplices(1):
                cofs = complex_._facet_cofaces[e]
                if cofs and all(not complex_._facet_cofaces[t] for t in cofs):
                    pool.append(e)
            if not pool:
                continue
            complex_ = subdivide_edge(complex_, rng.choice(pool), label)
        elif move == "glue_tet":
            pool = _tet_free_triangles(complex_)
            if not pool:
                continue
            complex_ = glue_tetrahedron(complex_, rng.choice(pool), label)
        elif move == "flap":
            complex_ = attach_flap(complex_, rng.choice(complex_.simplices(1)), label)
        else:
            complex_ = attach_dunce_with_bridge(
                complex_, rng.choice(complex_.vertices), f"d{fresh}_"
            )
        log.append(move)
    return complex_, surface, " ".join(log)


def independent(vectors, length):
    """True when the vectors of GF(2)^length are linearly independent."""
    return gf2.rank(matrix_from_vectors(vectors, length)) == len(vectors)


def random_small_complex(rng, labels="abcdefghijkl", largest=4):
    """Random complex on at most 12 vertices: a handful of simplices of
    at most `largest` vertices plus their downward closure."""
    n = rng.randint(3, len(labels))
    verts = list(labels[:n])
    faces = []
    for _ in range(rng.randint(2, 10)):
        size = rng.randint(1, min(largest, n))
        faces.append(rng.sample(verts, size))
    return ct.build_complex(faces)


def replay_from_scratch(complex_, trace):
    """Replay every move of a reduction of complex_ on frozen complexes
    with apply_move, recomputing each step from scratch: the Betti
    numbers after it, the free face a collapse must take (the
    smallest, also by the strict-coface reference), the excision the
    surplus-cycle search picks, the maximal edge a contraction must
    take, and the complex the move's rebuilding reference gives.
    Returns the final complex."""
    current = complex_.skeleton(2)
    assert current.f_vector == trace.initial_f
    assert ct.betti_numbers(current) == trace.betti_steps[0]
    for move, betti in zip(trace.moves, trace.betti_steps[1:]):
        if move.kind == COLLAPSE:
            assert current.free_faces()[0] == move.simplices
            assert free_faces_reference(current)[0] == move.simplices
        elif move.kind == EXCISION:
            found = ct.surplus_cycle(complex_, current.simplices(2))
            assert found == (move.aux, move.simplices[0])
        elif move.kind == CONTRACTION:
            assert not current.free_faces()
            assert not free_faces_reference(current)
            maximal = [e for e in current.simplices(1) if not current._facet_cofaces[e]]
            assert maximal[0] == move.simplices[0]
        else:
            raise AssertionError(f"unexpected move kind {move.kind}")
        expected = replay_reference(current, move)
        current = ct.apply_move(current, move)
        assert current == expected
        assert ct.betti_numbers(current) == betti
    assert current.f_vector == trace.final_f
    assert ct.has_property_A(current) == trace.property_a_final
    return current
