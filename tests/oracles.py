"""Slow reference implementations, kept deliberately independent of the
package's linear algebra and move engine: dense 0/1 integer matrices,
list-of-lists elimination, integer scans, and moves that rebuild the
whole complex.  These are the second route the fast code is checked
against."""

from __future__ import annotations

import itertools
from collections import deque

from covertype.complexes import SimplicialComplex, check_label, make_simplex
from covertype.engine import COLLAPSE, CONTRACTION, EXCISION, IDENTIFICATION, MoveRecord
from covertype.errors import (
    InconsistencyError,
    NotFoundError,
    PreconditionError,
    PropertyAViolationError,
)
from covertype.gf2 import Gf2Matrix, Gf2Vector
from covertype.surfaces import SurfaceCheckReport


def group_by_dim(simplices):
    """The complex of the given canonical simplices, grouped by
    dimension; closing them under faces is the caller's part.  The
    references rebuild complexes this way, not with build_complex."""
    groups = {}
    for s in simplices:
        groups.setdefault(len(s) - 1, set()).add(s)
    top = max(groups, default=-1)
    return SimplicialComplex(tuple(tuple(sorted(groups.get(n, ()))) for n in range(top + 1)))


def boundary_matrix_dense(complex_, n):
    """Dense 0/1 integer boundary matrix from degree n to n-1."""
    rows = complex_.simplices(n - 1)
    cols = complex_.simplices(n)
    idx = {s: i for i, s in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for facet in itertools.combinations(s, n):
            matrix[idx[facet]][j] = 1
    return matrix


def rank_mod2_dense(matrix):
    """Gaussian elimination over the integers mod 2, no bit packing."""
    work = [row[:] for row in matrix]
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if work[i][c] % 2 == 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(n_rows):
            if i != r and work[i][c] % 2 == 1:
                work[i] = [(x + y) % 2 for x, y in zip(work[i], work[r])]
        r += 1
        if r == n_rows:
            break
    return r


def rref_reference(row_bits, cols):
    """Gauss-Jordan reduced row echelon form of bit-packed rows, column
    by column: returns (rows, pivot columns); the first len(pivots) rows
    are the reduced basis.  The reference the package's pivot-dictionary
    eliminator is checked against."""
    rows = list(row_bits)
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if (rows[i] >> c) & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def transpose_reference(row_bits, cols):
    """Bit-packed transpose by scanning every entry."""
    out = []
    for j in range(cols):
        bits = 0
        for i, row in enumerate(row_bits):
            if (row >> j) & 1:
                bits |= 1 << i
        out.append(bits)
    return out


def kernel_reference(m):
    """Reduced-echelon kernel basis as bit patterns: one vector per free
    column, ascending, with a 1 in its free coordinate."""
    return _kernel_bits(m.row_bits, m.cols)


def _kernel_bits(row_bits, cols):
    rows, pivots = rref_reference(row_bits, cols)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        bits = 1 << f
        for r_idx, p in enumerate(pivots):
            if (rows[r_idx] >> f) & 1:
                bits |= 1 << p
        basis.append(bits)
    return basis


def image_reference(m):
    """Reduced-echelon basis of the column space, as bit patterns."""
    rows, pivots = rref_reference(transpose_reference(m.row_bits, m.cols), m.rows)
    return rows[: len(pivots)]


def kernel_modulo_image_reference(m, image_of):
    """Bit patterns of a basis of ker m / im image_of, by the walk: each
    vector of the canonical kernel basis of m, in order, is kept when it
    raises the rank of the image together with the vectors kept so far."""
    span = image_reference(image_of)
    kept = []
    for v in kernel_reference(m):
        if len(rref_reference(span + [v], m.cols)[1]) > len(rref_reference(span, m.cols)[1]):
            span.append(v)
            kept.append(v)
    return kept


def solve_reference(m, b_bits):
    """Bit pattern of the solution of m x = b with free variables 0, or
    None when there is none."""
    aug = [r | (((b_bits >> i) & 1) << m.cols) for i, r in enumerate(m.row_bits)]
    rows, pivots = rref_reference(aug, m.cols)
    if any(rows[len(pivots) :]):
        return None
    bits = 0
    for r_idx, p in enumerate(pivots):
        if (rows[r_idx] >> m.cols) & 1:
            bits |= 1 << p
    return bits


def intersection_reference(a_bits, b_bits, n):
    """Reduced-echelon basis of span(a) & span(b) in GF(2)^n: solve
    A.l + B.m = 0 and map each solution back through A."""
    if not a_bits or not b_bits:
        return []
    vecs = list(a_bits) + list(b_bits)
    members = []
    for k in _kernel_bits(transpose_reference(vecs, n), len(vecs)):
        bits = 0
        for j, v in enumerate(a_bits):
            if (k >> j) & 1:
                bits ^= v
        members.append(bits)
    rows, pivots = rref_reference(members, n)
    return rows[: len(pivots)]


def betti_oracle(complex_):
    """Mod-2 Betti numbers by the rank-nullity bookkeeping alone."""
    if complex_.is_empty:
        return ()
    out = []
    for n in range(complex_.dim + 1):
        a_n = len(complex_.simplices(n))
        rank_d_n = rank_mod2_dense(boundary_matrix_dense(complex_, n)) if n >= 1 else 0
        if n + 1 <= complex_.dim:
            rank_d_next = rank_mod2_dense(boundary_matrix_dense(complex_, n + 1))
        else:
            rank_d_next = 0
        out.append(a_n - rank_d_n - rank_d_next)
    return tuple(out)


def rho_scan(chi):
    """Least n with 2n-7 >= 0 and (2n-7)^2 >= 49-24*chi, by trying
    n = 0, 1, 2, ... in order."""
    n = 0
    while True:
        if 2 * n - 7 >= 0 and (2 * n - 7) ** 2 >= 49 - 24 * chi:
            return n
        n += 1


def span_bits(vectors):
    """All bit patterns in the GF(2) span of the given vectors."""
    out = {0}
    for v in vectors:
        out |= {x ^ v.bits for x in out}
    return out


def strict_coface_reference(complex_):
    """Every simplex with the list of strictly larger simplices that
    contain it, found by enumerating all 2^k - 2 proper faces of each
    k-vertex simplex: the definition of a maximal simplex (an empty
    list) and of a free face (a list of one) the package's
    codimension-1 rule is checked against."""
    cofaces = {s: [] for s in complex_.all_simplices()}
    for s in complex_.all_simplices():
        for k in range(1, len(s)):
            for f in itertools.combinations(s, k):
                cofaces[f].append(s)
    return cofaces


def free_faces_reference(complex_):
    """Sorted (face, coface) pairs of the faces in exactly one strictly
    larger simplex."""
    return sorted((s, cof[0]) for s, cof in strict_coface_reference(complex_).items() if len(cof) == 1)


def link(complex_, vertex):
    """The link of a vertex: each simplex on it, less the vertex."""
    v = check_label(vertex)
    if (v,) not in complex_:
        raise NotFoundError(f"vertex {v!r} is not in the complex")
    sims = []
    for s in complex_.all_simplices():
        if v in s and len(s) > 1:
            sims.append(tuple(x for x in s if x != v))
    return group_by_dim(sims)


def path_exists(complex_, a, b, forbidden=None):
    """Is there an edge path from a to b, optionally avoiding one edge?"""
    va, vb = check_label(a), check_label(b)
    for v in (va, vb):
        if (v,) not in complex_:
            raise NotFoundError(f"vertex {v!r} is not in the complex")
    banned = None
    if forbidden is not None:
        banned = make_simplex(forbidden)
        if len(banned) != 2 or banned not in complex_:
            raise PreconditionError(f"forbidden simplex {banned} is not an edge of the complex")
    if va == vb:
        return True
    seen = {va}
    queue = deque([va])
    while queue:
        cur = queue.popleft()
        for nxt in complex_._adjacency[cur]:
            if banned is not None and tuple(sorted((cur, nxt))) == banned:
                continue
            if nxt == vb:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def closed_surface_reference(complex_):
    """The closed-surface check built from one link() per vertex and one
    path_exists search per link vertex: O(f0 * sum f) membership tests.
    Returns the SurfaceCheckReport that check_closed_surface must give."""
    if complex_.is_empty:
        return SurfaceCheckReport(False, False, False, False)
    bad_max = tuple(
        s for s, cof in sorted(strict_coface_reference(complex_).items()) if not cof and len(s) != 3
    )
    pure = complex_.dim == 2 and not bad_max
    bad_edges = []
    for e in complex_.simplices(1):
        c = edge_triangle_count(complex_, e)
        if c != 2:
            bad_edges.append((e, c))
    two_tris = complex_.dim >= 1 and not bad_edges and bool(complex_.simplices(1))
    components = triangle_components_reference(complex_)
    bad_vertices = tuple(
        v for v in complex_.vertices if not _link_is_circle_reference(link(complex_, v))
    )
    return SurfaceCheckReport(
        pure_two_dimensional=pure,
        every_edge_in_two_triangles=two_tris,
        strongly_connected=components == 1,
        all_links_single_circles=not bad_vertices,
        bad_maximal_simplices=bad_max,
        bad_edges=tuple(bad_edges),
        bad_vertices=bad_vertices,
        component_count=components,
    )


def triangle_components_reference(complex_):
    """Number of classes of triangles joined by chains of triangles
    that share two vertices: a union-find over every pair of triangles."""
    triangles = complex_.simplices(2)
    parent = list(range(len(triangles)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(triangles)), 2):
        if len(set(triangles[i]) & set(triangles[j])) == 2:
            parent[root(i)] = root(j)
    return sum(1 for i, up in enumerate(parent) if i == up)


def _link_is_circle_reference(link):
    if link.dim != 1:
        return False
    a0, a1 = link.f_vector
    if a0 != a1 or a0 < 3:
        return False
    if any(link.vertex_degree(v) != 2 for v in link.vertices):
        return False
    start = link.vertices[0]
    return all(path_exists(link, start, v) for v in link.vertices)


# Constructors and checks that only tests use; the package builds its
# vectors and matrices from bit patterns and keeps its complexes valid
# by construction.


def vector_from_coords(coords):
    """The Gf2Vector with the parities of the coordinates, in order."""
    coords = list(coords)
    return Gf2Vector(len(coords), sum((c & 1) << i for i, c in enumerate(coords)))


def vector_coords(v):
    """The coordinates of a vector, in order, as 0s and 1s."""
    return [(v.bits >> i) & 1 for i in range(v.length)]


def vector_weight(v):
    """The number of nonzero coordinates."""
    return v.bits.bit_count()


def unit_vector(length, i):
    """The vector of the given length with its one 1 at i."""
    return Gf2Vector.from_support(length, (i,))


def vector_dot(a, b):
    """The GF(2) inner product of two vectors of one length."""
    if a.length != b.length:
        raise PreconditionError("vector lengths differ")
    return (a.bits & b.bits).bit_count() & 1


def matrix_from_vectors(vectors, length=None):
    """The Gf2Matrix whose rows are the vectors, all of one length; with
    no vectors, length (default 0) gives the column count."""
    if vectors:
        width = vectors[0].length
        for v in vectors:
            if v.length != width:
                raise PreconditionError("mixed vector lengths")
        if length is not None and length != width:
            raise PreconditionError("declared length does not match vectors")
    else:
        width = 0 if length is None else length
    return Gf2Matrix(len(vectors), width, tuple(v.bits for v in vectors))


def matrix_from_rows(rows):
    """The Gf2Matrix with the parities of the entries of the rows."""
    return matrix_from_vectors([vector_from_coords(r) for r in rows])


def matrix_from_columns(vectors):
    """The Gf2Matrix whose columns are the vectors."""
    return matrix_from_vectors(vectors).transpose()


def identity_matrix(n):
    """The n x n identity matrix."""
    return Gf2Matrix(n, n, tuple(1 << i for i in range(n)))


def matrix_entry(m, i, j):
    """Entry (i, j) of a matrix."""
    return (m.row_bits[i] >> j) & 1


def matrix_column(m, j):
    """Column j of a matrix, as a vector."""
    return Gf2Vector(m.rows, sum(matrix_entry(m, i, j) << i for i in range(m.rows)))


def edge_triangle_count(complex_, edge):
    """The number of triangles that contain the edge, by a scan of all
    triangles."""
    e = make_simplex(edge)
    if len(e) != 2 or e not in complex_:
        raise NotFoundError(f"{e} is not an edge of the complex")
    return sum(1 for t in complex_.simplices(2) if set(e) <= set(t))


def validate_complex(complex_):
    """Re-check a complex's structural invariants from scratch; raises
    InconsistencyError on any violation."""
    seen = set()
    for n, group in enumerate(complex_.by_dim):
        if list(group) != sorted(set(group)):
            raise InconsistencyError(f"dimension {n} group is not strictly sorted")
        for s in group:
            if len(s) != n + 1:
                raise InconsistencyError(f"{s} filed under wrong dimension {n}")
            if make_simplex(s) != s:
                raise InconsistencyError(f"{s} is not in canonical form")
            seen.add(s)
    for s in seen:
        for k in range(1, len(s)):
            for f in itertools.combinations(s, k):
                if f not in seen:
                    raise InconsistencyError(f"face {f} of {s} missing: not downward closed")
    f = complex_.f_vector
    if len(f) >= 2 and 2 * f[1] > f[0] * (f[0] - 1):
        raise InconsistencyError("more edges than a simple graph allows")
    if any(a == 0 for a in f):
        raise InconsistencyError("empty dimension group inside the complex")


# The four structural moves, each by rebuilding the whole complex from
# its simplex list, as the package did before it moved them onto
# WorkingComplex: the second route the in-place engine is checked
# against.  Each takes a frozen complex and returns (new complex,
# MoveRecord).


def excise_reference(complex_, triangle, aux=()):
    t = make_simplex(triangle)
    if len(t) != 3 or t not in complex_:
        raise PreconditionError(f"{t} is not a 2-simplex of the complex")
    if complex_._facet_cofaces[t]:
        raise PreconditionError(f"{t} lies in a higher simplex; removing it would break closure")
    new = group_by_dim(s for s in complex_.all_simplices() if s != t)
    return new, MoveRecord(EXCISION, (t,), complex_.f_vector, new.f_vector, aux)


def collapse_reference(complex_, face):
    f = make_simplex(face)
    if f not in complex_:
        raise NotFoundError(f"{f} is not in the complex")
    cofaces = complex_._facet_cofaces[f]
    if len(cofaces) != 1:
        raise PreconditionError(
            f"{f} has {len(cofaces)} codimension-1 cofaces; a free face has exactly one"
        )
    (coface,) = cofaces
    removed = {f, coface}
    new = group_by_dim(s for s in complex_.all_simplices() if s not in removed)
    return new, MoveRecord(COLLAPSE, (f, coface), complex_.f_vector, new.f_vector)


def _relabel(simplices, keep, drop):
    out = set()
    for s in simplices:
        if drop in s:
            s = tuple(sorted({keep if x == drop else x for x in s}))
        out.add(s)
    return out


def contract_reference(complex_, edge):
    e = make_simplex(edge)
    if len(e) != 2 or e not in complex_:
        raise NotFoundError(f"{e} is not an edge of the complex")
    if complex_._facet_cofaces[e]:
        raise PreconditionError(f"edge {e} is not maximal")
    a, b = e
    if path_exists(complex_, a, b, forbidden=e):
        raise PropertyAViolationError(
            f"endpoints of {e} remain connected without it; contracting would kill an essential circle"
        )
    new = group_by_dim(_relabel(complex_.all_simplices(), a, b))
    f0, f1 = complex_.f_vector, new.f_vector
    # contracting a lone segment leaves a point, so f1 may lack an edge entry
    g1 = f1 + (0,) * (len(f0) - len(f1))
    if g1[0] != f0[0] - 1 or g1[1] != f0[1] - 1 or g1[2:] != f0[2:]:
        raise InconsistencyError(f"contraction of {e} changed the f-vector unexpectedly: {f0} -> {f1}")
    return new, MoveRecord(CONTRACTION, (e,), f0, f1)


def identify_reference(complex_, v, w):
    va, vb = check_label(v), check_label(w)
    for x in (va, vb):
        if (x,) not in complex_:
            raise NotFoundError(f"vertex {x!r} is not in the complex")
    if va == vb:
        raise PreconditionError("the two vertices must be distinct")
    if complex_.dim > 2:
        raise PreconditionError("vertex identification is only defined in dimension <= 2")
    if make_simplex((va, vb)) in complex_:
        raise PreconditionError(f"{va} and {vb} are adjacent; identification needs non-adjacent vertices")
    shared = sorted(set(complex_._adjacency[va]) & set(complex_._adjacency[vb]))
    if shared:
        raise PreconditionError(f"links of {va} and {vb} share vertices {shared}; they must be disjoint")
    keep, drop = sorted((va, vb))
    new = group_by_dim(_relabel(complex_.all_simplices(), keep, drop))
    f0, f1 = complex_.f_vector, new.f_vector
    if f1[0] != f0[0] - 1 or f1[1:] != f0[1:]:
        raise InconsistencyError(f"identification of {va},{vb} changed the f-vector unexpectedly: {f0} -> {f1}")
    return new, MoveRecord(IDENTIFICATION, ((keep,), (drop,)), f0, f1)


def replay_reference(complex_, record):
    """The complex after a recorded move, by the move's reference, which
    must make the same record."""
    if record.kind == EXCISION:
        new, rec = excise_reference(complex_, record.simplices[0], record.aux)
    elif record.kind == COLLAPSE:
        new, rec = collapse_reference(complex_, record.simplices[0])
    elif record.kind == CONTRACTION:
        new, rec = contract_reference(complex_, record.simplices[0])
    else:
        (keep,), (drop,) = record.simplices
        new, rec = identify_reference(complex_, keep, drop)
    assert rec == record
    return new
