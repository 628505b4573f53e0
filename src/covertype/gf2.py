"""Dense bit-packed linear algebra over the two-element field.

Rows of a matrix (and whole vectors) are stored as Python integers used
as bit sets, so field addition is a single XOR on machine words.

There is one elimination routine, `Gf2Matrix._reduction`, the
pivot-dictionary reduction of persistent-homology software
(Zomorodian-Carlsson 2005; PHAT, Bauer et al. 2017).  It reduces a
matrix's rows in order, each carrying the set of rows it sums, and the
matrix keeps the result, as it keeps its transpose, in its own
__dict__ through value.per_complex; neither points back at the matrix,
so there is no reference cycle.

Each boundary matrix d_n is built together with its transpose, the
coboundary matrix delta^(n-1): homology.ChainData fills rows and
columns in one pass and hands both to `Gf2Matrix.with_transpose`, and
surplus_cycle hands it the kept triangles' boundaries, from which its
restricted d_2 is transposed.  Every other transpose is built bit by
bit when it is first read: that of a matrix restricted to some rows or
columns (h2_epi_witness, _kernel_modulo_image), of the pairing tensor's
flattening, of a Zassenhaus matrix, and the transpose of a coboundary
matrix, which is a new matrix equal to d_n and not d_n itself.  Every entry
point reads a kept reduction, so a matrix is eliminated at most once:
`rank` reads the side with fewer vectors and never back-substitutes;
`kernel_basis`, `image_basis` and `solve` read the transpose's, the
column reduction; `subspace_intersection` reads that of its stacked
Zassenhaus matrix.  The bases they return are canonical (reduced row
echelon); the rest of the package relies on that for deterministic
tie-breaking.  Homology and cohomology share these reductions: the
column reduction of d_2 is the row reduction of delta^1.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import PreconditionError
from .value import Value, per_complex

__all__ = [
    "Gf2Vector",
    "Gf2Matrix",
    "rank",
    "kernel_basis",
    "image_basis",
    "solve",
    "subspace_intersection",
]


def _bit_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits, ascending, in O(weight) steps."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class Gf2Vector(Value):
    """Fixed-length GF(2) vector; bit i of ``bits`` is coordinate i."""

    length: int
    bits: int = 0

    def _check(self) -> None:
        length, bits = self.length, self.bits
        if length < 0:
            raise PreconditionError("vector length must be >= 0")
        if bits < 0 or bits >> length != 0:
            raise PreconditionError("bit pattern wider than declared length")

    def __add__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise PreconditionError("vector lengths differ")
        return Gf2Vector(self.length, self.bits ^ other.bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(_bit_indices(self.bits))


class Gf2Matrix(Value):
    """rows x cols matrix over GF(2); bit j of row_bits[i] is entry (i, j)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def _check(self) -> None:
        rows, cols, row_bits = self.rows, self.cols, self.row_bits
        if rows < 0 or cols < 0:
            raise PreconditionError("matrix dimensions must be >= 0")
        if len(row_bits) != rows:
            raise PreconditionError("row count does not match row data")
        for r in row_bits:
            if r < 0 or r >> cols != 0:
                raise PreconditionError("row wider than declared column count")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def with_transpose(
        cls, rows: int, cols: int, row_bits: tuple[int, ...], col_bits: tuple[int, ...]
    ) -> "Gf2Matrix":
        """The matrix with these rows, keeping the matrix whose rows are
        col_bits, which must be its columns, as its transpose(): a
        caller that fills rows and columns in one pass saves the bit-by-
        bit transpose.  Only the matrix points at its transpose, so the
        two make no reference cycle; the transpose's own transpose, if
        asked for, is built bit by bit."""
        matrix = cls(rows, cols, row_bits)
        vars(matrix)[cls.transpose.key] = cls(cols, rows, col_bits)
        return matrix

    @per_complex
    def transpose(self) -> "Gf2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:
                lsb = r & -r
                out[lsb.bit_length() - 1] |= 1 << i
                r ^= lsb
        return Gf2Matrix(self.cols, self.rows, tuple(out))

    @per_complex
    def _reduction(self) -> tuple[dict[int, int], list[int]]:
        """The echelon rows keyed by pivot, and the tags of the rows that
        reduced to zero, computed once and kept like the transpose.

        Row i enters with bit cols + i set: above bit cols each row
        carries the set of rows it sums, its tag.  It is reduced by
        XOR-ing in the row whose pivot is its lowest set bit until that
        bit is no pivot.  Then it is stored with that bit as its pivot,
        or, when no bit below cols is left, its tag is a dependency
        among the rows.  Stored rows are never rewritten.
        """
        cols = self.cols
        pivots: dict[int, int] = {}
        zeros = []
        for i, bits in enumerate(self.row_bits):
            bits |= 1 << (cols + i)
            while True:
                p = (bits & -bits).bit_length() - 1
                row = pivots.get(p)
                if row is None:
                    break
                bits ^= row
            if p < cols:
                pivots[p] = bits
            else:
                zeros.append(bits >> cols)
        return pivots, zeros

    def __matmul__(self, other):
        if isinstance(other, Gf2Vector):
            if other.length != self.cols:
                raise PreconditionError("vector length does not match column count")
            bits = 0
            for i, r in enumerate(self.row_bits):
                bits |= ((r & other.bits).bit_count() & 1) << i
            return Gf2Vector(self.rows, bits)
        return NotImplemented


def rank(m: Gf2Matrix) -> int:
    # rank(m) = rank(m^T): read the side with fewer vectors
    side = m if m.rows <= m.cols else m.transpose()
    return len(side._reduction()[0])


def kernel_basis(m: Gf2Matrix) -> list[Gf2Vector]:
    """Canonical basis of the null space {x : m @ x = 0}.

    One basis vector per free column, in ascending column order, each
    with a 1 in its free coordinate; this is the reduced-echelon kernel
    basis, so equal matrices always yield the identical list.

    It is read off the column reduction.  A column reduces to zero
    exactly when it is free, and its tag, itself plus stored columns
    that each sum columns that were not free, is its canonical vector.
    """
    return [Gf2Vector(m.cols, tag) for tag in m.transpose()._reduction()[1]]


def image_basis(m: Gf2Matrix) -> list[Gf2Vector]:
    """Canonical basis of the column space, as reduced-echelon rows."""
    rows = _reduced_rows(m.transpose()._reduction()[0], m.rows)
    return [Gf2Vector(m.rows, row) for _, row in rows]


def solve(m: Gf2Matrix, b: Gf2Vector) -> Gf2Vector | None:
    """One solution of m @ x = b with free variables 0, or None.

    b is reduced against the stored columns, whose tags sum only
    columns that are not free; if nothing of b is left, they sum to b.
    """
    if b.length != m.rows:
        raise PreconditionError("right-hand side length does not match row count")
    pivots = m.transpose()._reduction()[0]
    bits = b.bits
    while bits:
        row = pivots.get((bits & -bits).bit_length() - 1)
        if row is None:
            break
        bits ^= row
    if bits & ((1 << m.rows) - 1):
        return None  # b is not in the column space
    return Gf2Vector(m.cols, bits >> m.rows)


def subspace_intersection(a: Sequence[Gf2Vector], b: Sequence[Gf2Vector]) -> list[Gf2Vector]:
    """Canonical basis of span(a) ∩ span(b), as reduced-echelon rows.

    Zassenhaus: the rows (v | v) for v in a and (v | 0) for v in b, with
    the left half in the low bits, span {(x + y | x)}; its members with
    a zero left half are exactly (0 | x) for x in the intersection, and
    the echelon rows whose pivot lies in the right half are an echelon
    basis of them.
    """
    vecs = list(a) + list(b)
    if not a or not b:
        return []
    n = vecs[0].length
    for v in vecs:
        if v.length != n:
            raise PreconditionError("ambient dimensions differ")
    stacked = [v.bits | (v.bits << n) for v in a] + [v.bits for v in b]
    pivots = Gf2Matrix(len(stacked), 2 * n, tuple(stacked))._reduction()[0]
    meet = {p - n: row >> n for p, row in pivots.items() if p >= n}
    return [Gf2Vector(n, row) for _, row in _reduced_rows(meet, n)]


def _reduced_rows(pivots: dict[int, int], width: int) -> list[tuple[int, int]]:
    """The reduced row echelon basis of echelon rows keyed by pivot, the
    unique one in which every pivot column is zero outside its own row,
    as (pivot, row) pairs with pivots ascending.  Bits from width up,
    the tags, are dropped.

    Back substitution from the highest pivot down: a stored row has
    no bits below its pivot, so every other pivot it touches is
    higher and its row is already reduced; XOR-ing that row in
    clears the pivot bit and adds only non-pivot bits.
    """
    low = (1 << width) - 1
    mask = 0
    for p in pivots:
        mask |= 1 << p
    reduced: dict[int, int] = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p] & low
        for q in _bit_indices((row & mask) ^ (1 << p)):
            row ^= reduced[q]
        reduced[p] = row
    return sorted(reduced.items())


def _kernel_modulo_image(m: Gf2Matrix, image_of: Gf2Matrix) -> list[Gf2Vector]:
    """The vectors of the canonical kernel basis of m that are
    independent modulo the image of image_of and the vectors kept
    before them: a basis of ker m / im image_of, for m @ image_of = 0.

    Taking the coordinates in m's free columns F maps ker m onto
    GF(2)^F, v_f to e_f, and the image onto the column space of W,
    image_of's rows at F.  So v_f is dropped exactly when some image
    vector has f as its highest coordinate in F: with F taken in
    descending order, when f is a pivot of image_basis(W).

    A tall m reads F and the kept v_f from kernel_basis(m).  A wide m
    reads F off its row echelon, and builds only the kept v_f, highest
    pivot p first: a row has no bit below its pivot, so v_f[p] is the
    parity of the row's bits among those of v_f already set.
    """
    if m.rows > m.cols:
        kernel = {v.bits.bit_length() - 1: v for v in kernel_basis(m)}
        free = list(kernel)
    else:
        echelon = m._reduction()[0]
        free = [f for f in range(m.cols) if f not in echelon]
    descending = free[::-1]
    on_free = Gf2Matrix(len(free), image_of.cols, tuple(image_of.row_bits[f] for f in descending))
    dropped = {descending[(v.bits & -v.bits).bit_length() - 1] for v in image_basis(on_free)}
    kept = [f for f in free if f not in dropped]
    if m.rows > m.cols:
        return [kernel[f] for f in kept]
    rows = sorted(echelon.items(), reverse=True)
    reps = []
    for f in kept:
        bits = 1 << f
        for p, row in rows:
            if (row & bits).bit_count() & 1:
                bits |= 1 << p
        reps.append(Gf2Vector(m.cols, bits))
    return reps
