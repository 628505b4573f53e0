"""Slow reference implementations, kept deliberately independent of the
package's linear algebra: dense 0/1 integer matrices, list-of-lists
elimination, and integer scans.  These are the second route the fast
code is checked against."""

from __future__ import annotations

import itertools

from covertype.surfaces import SurfaceCheckReport


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
        c = complex_.edge_triangle_count(e)
        if c != 2:
            bad_edges.append((e, c))
    two_tris = complex_.dim >= 1 and not bad_edges and bool(complex_.simplices(1))
    comps = complex_.strongly_connected_components()
    bad_vertices = tuple(
        v for v in complex_.vertices if not _link_is_circle_reference(complex_.link(v))
    )
    return SurfaceCheckReport(
        pure_two_dimensional=pure,
        every_edge_in_two_triangles=two_tris,
        strongly_connected=len(comps) == 1,
        all_links_single_circles=not bad_vertices,
        bad_maximal_simplices=bad_max,
        bad_edges=tuple(bad_edges),
        bad_vertices=bad_vertices,
        component_count=len(comps),
    )


def _link_is_circle_reference(link):
    if link.dim != 1:
        return False
    a0, a1 = link.f_vector
    if a0 != a1 or a0 < 3:
        return False
    if any(link.vertex_degree(v) != 2 for v in link.vertices):
        return False
    start = link.vertices[0]
    return all(link.path_exists(start, v) for v in link.vertices)
