"""Dense bit-packed linear algebra over the two-element field.

Rows of a matrix (and whole vectors) are stored as Python integers used
as bit sets, so field addition is a single XOR on machine words.

There is one elimination routine, the pivot-dictionary reduction of
persistent-homology software (Zomorodian-Carlsson 2005; PHAT, Bauer et
al. 2017): a `Span` keeps one row per pivot, keyed by the row's lowest
set bit, and reduces each new vector against it.  `rank` reads off the
number of pivots and never back-substitutes.  `kernel_basis`,
`image_basis`, `solve` and `subspace_intersection` back-substitute once
and return canonical (reduced row echelon) results; the rest of the
package relies on that for deterministic tie-breaking.  `rank` and
`kernel_basis` eliminate the side with fewer vectors: the rows of a
wide matrix, the columns of a tall one.  A matrix keeps its transpose
in its own __dict__, which does not point back: no reference cycle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import PreconditionError
from .value import Value

__all__ = [
    "Gf2Vector",
    "Gf2Matrix",
    "Span",
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
    bits: int

    def __init__(self, length: int, bits: int = 0) -> None:
        vars(self).update(length=length, bits=bits)
        if length < 0:
            raise PreconditionError("vector length must be >= 0")
        if bits < 0 or bits >> length != 0:
            raise PreconditionError("bit pattern wider than declared length")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "Gf2Vector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise PreconditionError(f"support index {i} out of range")
            bits |= 1 << i
        return cls(length, bits)

    @classmethod
    def unit(cls, length: int, i: int) -> "Gf2Vector":
        return cls.from_support(length, (i,))

    def __add__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise PreconditionError("vector lengths differ")
        return Gf2Vector(self.length, self.bits ^ other.bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __len__(self) -> int:
        return self.length

    def is_zero(self) -> bool:
        return self.bits == 0

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(_bit_indices(self.bits))

    def coords(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))


class Gf2Matrix(Value):
    """rows x cols matrix over GF(2); bit j of row_bits[i] is entry (i, j)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __init__(self, rows: int, cols: int, row_bits: tuple[int, ...]) -> None:
        vars(self).update(rows=rows, cols=cols, row_bits=row_bits)
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
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_row_vectors(cls, vectors: Sequence[Gf2Vector], length: int | None = None) -> "Gf2Matrix":
        if vectors:
            width = vectors[0].length
            for v in vectors:
                if v.length != width:
                    raise PreconditionError("mixed vector lengths")
            if length is not None and length != width:
                raise PreconditionError("declared length does not match vectors")
        else:
            width = 0 if length is None else length
        return cls(len(vectors), width, tuple(v.bits for v in vectors))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.row_bits[i] >> j) & 1

    def row(self, i: int) -> Gf2Vector:
        return Gf2Vector(self.cols, self.row_bits[i])

    def column(self, j: int) -> Gf2Vector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r >> j) & 1) << i
        return Gf2Vector(self.rows, bits)

    def transpose(self) -> "Gf2Matrix":
        memo = self.__dict__
        if "_transpose" not in memo:
            out = [0] * self.cols
            for i, r in enumerate(self.row_bits):
                while r:
                    lsb = r & -r
                    out[lsb.bit_length() - 1] |= 1 << i
                    r ^= lsb
            memo["_transpose"] = Gf2Matrix(self.cols, self.rows, tuple(out))
        return memo["_transpose"]

    def __matmul__(self, other):
        if isinstance(other, Gf2Vector):
            if other.length != self.cols:
                raise PreconditionError("vector length does not match column count")
            bits = 0
            for i, r in enumerate(self.row_bits):
                bits |= ((r & other.bits).bit_count() & 1) << i
            return Gf2Vector(self.rows, bits)
        if isinstance(other, Gf2Matrix):
            if self.cols != other.rows:
                raise PreconditionError("inner dimensions differ")
            out = []
            for r in self.row_bits:
                acc = 0
                while r:
                    lsb = r & -r
                    acc ^= other.row_bits[lsb.bit_length() - 1]
                    r ^= lsb
                out.append(acc)
            return Gf2Matrix(self.rows, other.cols, tuple(out))
        return NotImplemented

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)


def rank(m: Gf2Matrix) -> int:
    # rank(m) = rank(m^T): eliminate whichever side has fewer vectors
    if m.rows <= m.cols:
        return Span._of_bits(m.cols, m.row_bits).dim
    return Span._of_bits(m.rows, m.transpose().row_bits).dim


def kernel_basis(m: Gf2Matrix) -> list[Gf2Vector]:
    """Canonical basis of the null space {x : m @ x = 0}.

    One basis vector per free column, in ascending column order, each
    with a 1 in its free coordinate; this is the reduced-echelon kernel
    basis, so equal matrices always yield the identical list.

    A tall matrix reduces its columns in order, each carrying above bit
    m.rows the set of columns it sums.  A column reducing to zero is
    free, and that set, its column plus stored rows that each sum
    columns that were not free, is its canonical vector.
    """
    if m.rows > m.cols:
        span = Span(m.rows + m.cols)
        basis = []
        for j, col in enumerate(m.transpose().row_bits):
            bits = span._reduce(col | 1 << (m.rows + j))
            if (bits & -bits) >> m.rows:  # the column part reduced to zero
                basis.append(Gf2Vector(m.cols, bits >> m.rows))
            else:
                span._insert(bits)
        return basis
    rows = Span._of_bits(m.cols, m.row_bits)._reduced_rows()
    pivots = {p for p, _ in rows}
    basis = {f: 1 << f for f in range(m.cols) if f not in pivots}
    # a reduced row is its pivot plus free columns: x_p = sum of those x_f
    for p, row in rows:
        for f in _bit_indices(row ^ (1 << p)):
            basis[f] |= 1 << p
    return [Gf2Vector(m.cols, bits) for bits in basis.values()]


def image_basis(m: Gf2Matrix) -> list[Gf2Vector]:
    """Canonical basis of the column space, as reduced-echelon rows."""
    rows = Span._of_bits(m.rows, m.transpose().row_bits)._reduced_rows()
    return [Gf2Vector(m.rows, row) for _, row in rows]


def solve(m: Gf2Matrix, b: Gf2Vector) -> Gf2Vector | None:
    """One solution of m @ x = b with free variables 0, or None."""
    if b.length != m.rows:
        raise PreconditionError("right-hand side length does not match row count")
    # augment each row with the matching coordinate of b in bit position `cols`
    aug = [r | (((b.bits >> i) & 1) << m.cols) for i, r in enumerate(m.row_bits)]
    span = Span._of_bits(m.cols + 1, aug)
    if span.contains(Gf2Vector.unit(m.cols + 1, m.cols)):
        return None  # 0 = 1 is a consequence of the equations
    bits = 0
    for p, row in span._reduced_rows():
        if (row >> m.cols) & 1:
            bits |= 1 << p
    return Gf2Vector(m.cols, bits)


def subspace_intersection(a: Sequence[Gf2Vector], b: Sequence[Gf2Vector]) -> list[Gf2Vector]:
    """Canonical basis of span(a) ∩ span(b), as reduced-echelon rows.

    Zassenhaus: the rows (v | v) for v in a and (v | 0) for v in b, with
    the left half in the low bits, span {(x + y | x)}; its members with
    a zero left half are exactly (0 | x) for x in the intersection, and
    an echelon basis keyed by lowest set bit spans them by the rows
    whose pivot lies in the right half.
    """
    vecs = list(a) + list(b)
    if not a or not b:
        return []
    n = vecs[0].length
    for v in vecs:
        if v.length != n:
            raise PreconditionError("ambient dimensions differ")
    stacked = [v.bits | (v.bits << n) for v in a] + [v.bits for v in b]
    span = Span._of_bits(2 * n, stacked)
    meet = Span._of_bits(n, (row >> n for p, row in span._pivots.items() if p >= n))
    return [Gf2Vector(n, row) for _, row in meet._reduced_rows()]


class Span:
    """A subspace of GF(2)^length, held as an echelon basis: one row per
    pivot, keyed by the row's lowest set bit.  This is the package's one
    elimination routine.

    A vector is reduced by XOR-ing in the row whose pivot is its lowest
    set bit until that bit is no pivot (the vector is independent, and
    joins with that bit as its pivot) or nothing is left (it lies in the
    span).  Rows are never rewritten once stored.
    """

    def __init__(self, length: int, vectors: Iterable[Gf2Vector] = ()):
        self.length = length
        self._pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    @classmethod
    def _of_bits(cls, length: int, rows: Iterable[int]) -> "Span":
        """The span of raw bit rows, each narrower than length."""
        span = cls(length)
        for bits in rows:
            span._insert(bits)
        return span

    def _reduce(self, bits: int) -> int:
        """0 if bits lies in the span, else a nonzero remainder whose
        lowest set bit is no pivot."""
        pivots = self._pivots
        while bits:
            row = pivots.get((bits & -bits).bit_length() - 1)
            if row is None:
                return bits
            bits ^= row
        return 0

    def contains(self, v: Gf2Vector) -> bool:
        if v.length != self.length:
            raise PreconditionError("ambient dimensions differ")
        return self._reduce(v.bits) == 0

    def add(self, v: Gf2Vector) -> bool:
        """Insert v; True if it was independent of the current span."""
        if v.length != self.length:
            raise PreconditionError("ambient dimensions differ")
        return self._insert(v.bits)

    def _insert(self, bits: int) -> bool:
        bits = self._reduce(bits)
        if bits == 0:
            return False
        self._pivots[(bits & -bits).bit_length() - 1] = bits
        return True

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def _reduced_rows(self) -> list[tuple[int, int]]:
        """The reduced row echelon basis, the unique one in which every
        pivot column is zero outside its own row, as (pivot, row) pairs
        with pivots ascending.

        Back substitution from the highest pivot down: a stored row has
        no bits below its pivot, so every other pivot it touches is
        higher and its row is already reduced; XOR-ing that row in
        clears the pivot bit and adds only non-pivot bits.
        """
        mask = 0
        for p in self._pivots:
            mask |= 1 << p
        reduced: dict[int, int] = {}
        for p, row in sorted(self._pivots.items(), reverse=True):
            for q in _bit_indices((row & mask) ^ (1 << p)):
                row ^= reduced[q]
            reduced[p] = row
        return sorted(reduced.items())
