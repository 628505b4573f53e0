"""Mod-2 chain complexes, Betti numbers and cycle bases.

Chains cross the API as sorted tuples of simplices (over GF(2) a chain
IS a set of simplices), so they can be carried from a complex to a
subcomplex and back; internally they become bit vectors indexed by the
canonical simplex order of one specific complex.

ChainData builds each boundary matrix d_n in one pass over the
n-simplices, filling its rows and its columns at once, and keeps the
columns as d_n.transpose(): the coboundary matrices, and the column
reductions behind rank, kernel and image, read them with no bit-by-bit
transpose.  The matrices this module restricts to some triangles
(surplus_cycle, h2_epi_witness) are still transposed bit by bit.

chain_data builds a complex's ChainData once and keeps it on the complex
object (value.per_complex), so an equal but distinct complex builds its
own.  ChainData holds no reference to its complex, and a transpose none
to the matrix that keeps it, so the chain data, its matrices and their
transposes are freed with the complex by reference counting.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from . import gf2
from .complexes import Simplex, SimplicialComplex, make_simplex, missing_facet
from .errors import InconsistencyError, NotFoundError, PreconditionError
from .value import per_complex

__all__ = [
    "ChainData",
    "chain_data",
    "chain_vector",
    "chain_from_vector",
    "betti_numbers",
    "homology_basis",
    "surplus_cycle",
    "h2_epi_witness",
]

Chain = tuple[Simplex, ...]


class ChainData:
    """Boundary matrices of a complex plus simplex<->index tables.

    boundary_matrix(n) maps n-chains to (n-1)-chains; rows are indexed
    by the canonical order of the (n-1)-simplices, columns by the
    n-simplices.  The identity d(d(x)) = 0 is asserted on construction,
    column by column as each is filled.  A simplex whose facet is not in
    the complex is a MalformedInputError.
    """

    def __init__(self, complex_: SimplicialComplex):
        self.simplices: tuple[tuple[Simplex, ...], ...] = tuple(
            complex_.simplices(n) for n in range(complex_.dim + 1)
        )
        self.index: tuple[dict[Simplex, int], ...] = tuple(
            {s: i for i, s in enumerate(group)} for group in self.simplices
        )
        self._boundary: dict[int, gf2.Gf2Matrix] = {}
        below: tuple[int, ...] = (0,) * self.count(0)  # the columns of d_(n-1)
        for n in range(1, complex_.dim + 1):
            index = self.index[n - 1]
            rows = [0] * len(index)
            cols = []
            for j, s in enumerate(self.simplices[n]):
                # boundary collects d_(n-1) of column j: the XOR of the
                # columns of d_(n-1) at the facets of s
                bit, col, boundary = 1 << j, 0, 0
                try:
                    for facet in combinations(s, n):
                        i = index[facet]
                        rows[i] |= bit
                        col |= 1 << i
                        boundary ^= below[i]
                except KeyError:
                    raise missing_facet(s, facet) from None
                if boundary:
                    raise InconsistencyError(f"boundary of boundary is nonzero in degree {n}")
                cols.append(col)
            below = tuple(cols)
            self._boundary[n] = gf2.Gf2Matrix.with_transpose(
                len(rows), len(cols), tuple(rows), below
            )

    def count(self, n: int) -> int:
        if 0 <= n < len(self.simplices):
            return len(self.simplices[n])
        return 0

    def boundary_matrix(self, n: int) -> gf2.Gf2Matrix:
        if n in self._boundary:
            return self._boundary[n]
        if n <= 0:
            return gf2.Gf2Matrix.zero(0, self.count(0) if n == 0 else 0)
        return gf2.Gf2Matrix.zero(self.count(n - 1), 0)


@per_complex
def chain_data(complex_: SimplicialComplex) -> ChainData:
    return ChainData(complex_)


def chain_vector(data: ChainData, n: int, chain: Iterable[Iterable[str]]) -> gf2.Gf2Vector:
    """Pack a set of n-simplices into a coordinate vector."""
    bits = 0
    for raw in chain:
        s = make_simplex(raw)
        if len(s) != n + 1:
            raise PreconditionError(f"{s} does not have dimension {n}")
        if not 0 <= n < len(data.index) or s not in data.index[n]:
            raise NotFoundError(f"{s} is not a {n}-simplex of the complex")
        bits |= 1 << data.index[n][s]
    return gf2.Gf2Vector(data.count(n), bits)


def chain_from_vector(data: ChainData, n: int, vec: gf2.Gf2Vector) -> Chain:
    if vec.length != data.count(n):
        raise PreconditionError("vector length does not match the simplex count")
    return tuple(data.simplices[n][i] for i in vec.support())


@per_complex
def betti_numbers(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Mod-2 Betti numbers (b_0, ..., b_dim)."""
    if complex_.is_empty:
        return ()
    data = chain_data(complex_)
    ranks = [gf2.rank(data.boundary_matrix(n)) for n in range(complex_.dim + 2)]
    return tuple(data.count(n) - ranks[n] - ranks[n + 1] for n in range(complex_.dim + 1))


def homology_basis(complex_: SimplicialComplex, n: int) -> tuple[Chain, ...]:
    """Cycle representatives of a basis of H_n, deterministically chosen.

    Walks the canonical kernel basis of d_n and keeps each vector that
    is independent modulo the boundaries collected so far.  In degree 0
    every vertex is a cycle and the boundaries are the even vertex sets
    of each component, so that keeps the smallest vertex of each
    component, ascending.  Outside 0..dim, d_n has no kernel.
    """
    data = chain_data(complex_)
    reps = gf2._kernel_modulo_image(data.boundary_matrix(n), data.boundary_matrix(n + 1))
    return tuple(chain_from_vector(data, n, v) for v in reps)


def surplus_cycle(
    complex_: SimplicialComplex, kept_two_simplices: Iterable[Iterable[str]]
) -> tuple[Chain, Simplex] | None:
    """A 2-cycle supported on the kept triangles that bounds in the
    ambient complex, or None.

    Returns (cycle, sigma) where sigma is the lexicographically
    smallest triangle in the cycle's support.  Deleting sigma kills
    this cycle and nothing else, which is how the excision stage peels
    surplus second homology off a 2-skeleton one step at a time.
    """
    data = chain_data(complex_)
    kept = sorted({make_simplex(t) for t in kept_two_simplices})
    for t in kept:
        if len(t) != 3 or t not in complex_:
            raise PreconditionError(f"{t} is not a 2-simplex of the complex")
    if not kept:
        return None
    d2 = data.boundary_matrix(2)
    cols = [data.index[2][t] for t in kept]
    boundaries = d2.transpose().row_bits  # row j is the boundary of triangle j
    restricted = gf2.Gf2Matrix(len(cols), d2.rows, tuple(boundaries[j] for j in cols)).transpose()
    kernel = []
    for k in gf2.kernel_basis(restricted):
        bits = 0
        for new_j in k.support():
            bits |= 1 << cols[new_j]
        kernel.append(gf2.Gf2Vector(data.count(2), bits))
    bounding = gf2.image_basis(data.boundary_matrix(3))
    meet = gf2.subspace_intersection(kernel, bounding)
    if not meet:
        return None
    cycle = meet[0]
    sigma = data.simplices[2][cycle.support()[0]]
    return chain_from_vector(data, 2, cycle), sigma


def h2_epi_witness(
    complex_: SimplicialComplex,
    subcomplex: SimplicialComplex,
    cycle: Iterable[Iterable[str]],
) -> Chain | None:
    """A 2-cycle inside the subcomplex homologous (in the ambient
    complex) to the given one, or None if no such cycle exists.

    Solves d_3(y) = Z on the coordinates outside the subcomplex; then
    C = Z + d_3(y) is supported in the subcomplex and C + Z bounds.
    """
    data = chain_data(complex_)
    z = chain_vector(data, 2, cycle)
    if not (data.boundary_matrix(2) @ z).is_zero():
        raise PreconditionError("the given chain is not a cycle")
    inside = set()
    for t in subcomplex.simplices(2):
        if t not in complex_:
            raise PreconditionError(f"{t} is not a 2-simplex of the ambient complex")
        inside.add(data.index[2][t])
    d3 = data.boundary_matrix(3)
    outside = [i for i in range(data.count(2)) if i not in inside]
    rows = tuple(d3.row_bits[i] for i in outside)
    target_bits = 0
    for new_i, i in enumerate(outside):
        if (z.bits >> i) & 1:
            target_bits |= 1 << new_i
    y = gf2.solve(
        gf2.Gf2Matrix(len(outside), d3.cols, rows),
        gf2.Gf2Vector(len(outside), target_bits),
    )
    if y is None:
        return None
    witness = z + (d3 @ y)
    if any(i not in inside for i in witness.support()):
        raise InconsistencyError("witness cycle escaped the subcomplex")
    return chain_from_vector(data, 2, witness)
