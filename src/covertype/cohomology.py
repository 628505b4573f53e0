"""Mod-2 cochains, cup products of degree-1 classes, and the
cup-product regularity test.

The only cup product needed here is 1 x 1 -> 2.  With every simplex
written in ascending vertex order, the product of two 1-cochains
evaluates on a triangle (v0, v1, v2) as

    (alpha . beta)(v0 v1 v2) = alpha(v0 v1) * beta(v1 v2),

the front-face/back-face rule in the canonical order, which the pairing
tensor applies through one table per complex.  A complex has property A
when the pairing H^1 x H^1 -> H^2 has no nonzero class that multiplies
everything to zero; on a closed surface this is Poincare duality, and
the reduction pipeline leans on it staying true.  The degenerate
classes are the combinations of rows of the b1 x (b1*b2) pairing matrix
that sum to zero, its left kernel.  One routine, property_a_witness,
reads it for both the `property-a` command's witness and the
pipeline's verdict.
"""

from __future__ import annotations

from . import gf2
from .complexes import SimplicialComplex
from .errors import PreconditionError
from .homology import chain_data, homology_basis
from .value import Value, per_complex

__all__ = [
    "Cochain",
    "PairingTensor",
    "coboundary_matrix",
    "h1_cocycle_basis",
    "pairing_tensor",
    "has_property_A",
    "property_a_witness",
    "cochain_support",
]


class Cochain(Value):
    """A mod-2 cochain: its degree and one value bit per simplex, in the
    canonical simplex order of the complex it belongs to."""

    degree: int
    values: gf2.Gf2Vector

    def _check(self) -> None:
        if self.degree < 0:
            raise PreconditionError(f"a cochain has no degree {self.degree}")


def coboundary_matrix(complex_: SimplicialComplex, n: int) -> gf2.Gf2Matrix:
    """Matrix of delta^n: C^n -> C^(n+1), the transpose of d_(n+1)."""
    return chain_data(complex_).boundary_matrix(n + 1).transpose()


@per_complex
def _cup_table(complex_: SimplicialComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per edge, the triangles whose front edge (v0 v1) is that edge and
    those whose back edge (v1 v2) is, as bit sets over the triangles."""
    data = chain_data(complex_)
    front, back = [0] * data.count(1), [0] * data.count(1)
    for t, (v0, v1, v2) in enumerate(complex_.simplices(2)):
        front[data.index[1][(v0, v1)]] |= 1 << t
        back[data.index[1][(v1, v2)]] |= 1 << t
    return tuple(front), tuple(back)


def _triangles(table: tuple[int, ...], cochain: Cochain) -> int:
    """The union of the table's entries at the cochain's support."""
    out = 0
    for e in cochain.values.support():
        out |= table[e]
    return out


@per_complex
def h1_cocycle_basis(complex_: SimplicialComplex) -> tuple[Cochain, ...]:
    """Cocycle representatives of a basis of H^1, deterministically
    chosen from the canonical kernel of delta^1 modulo coboundaries."""
    reps = gf2._kernel_modulo_image(coboundary_matrix(complex_, 1), coboundary_matrix(complex_, 0))
    return tuple(Cochain(1, v) for v in reps)


def cochain_support(complex_: SimplicialComplex, cochain: Cochain):
    """The simplices on which the cochain evaluates to 1."""
    data = chain_data(complex_)
    group = data.simplices[cochain.degree] if cochain.degree <= complex_.dim else ()
    if cochain.values.length != len(group):
        raise PreconditionError("cochain is indexed against a different complex")
    return tuple(group[i] for i in cochain.values.support())


class PairingTensor(Value):
    """entries[i][j][k] = (alpha_i . alpha_j) evaluated on the k-th
    2-cycle representative, alpha_i the i-th cocycle of
    h1_cocycle_basis; shape (b1, b1, b2)."""

    b1: int
    b2: int
    entries: tuple[tuple[tuple[int, ...], ...], ...]

    def flattened(self) -> gf2.Gf2Matrix:
        """b1 x (b1*b2) matrix whose row i lists all pairings of the
        i-th class; its left kernel is the classes that pair to zero
        with everything, so full row rank is exactly property A."""
        rows = []
        for i in range(self.b1):
            bits = 0
            pos = 0
            for j in range(self.b1):
                for k in range(self.b2):
                    if self.entries[i][j][k]:
                        bits |= 1 << pos
                    pos += 1
            rows.append(bits)
        return gf2.Gf2Matrix(self.b1, self.b1 * self.b2, tuple(rows))


@per_complex
def pairing_tensor(complex_: SimplicialComplex) -> PairingTensor:
    """(alpha_i . alpha_j)(z_k): the parity of the triangles of z_k
    whose front edge alpha_i and back edge alpha_j take to 1."""
    data = chain_data(complex_)
    classes = h1_cocycle_basis(complex_)
    # the representatives are the complex's own triangles: read them
    # into bits through the index, without checking their labels again
    cycles = [sum(1 << data.index[2][t] for t in z) for z in homology_basis(complex_, 2)]
    front, back = _cup_table(complex_)
    fronts = [_triangles(front, a) for a in classes]
    backs = [_triangles(back, b) for b in classes]
    entries = tuple(
        tuple(tuple((f & b & z).bit_count() & 1 for z in cycles) for b in backs) for f in fronts
    )
    return PairingTensor(len(classes), len(cycles), entries)


def property_a_witness(complex_: SimplicialComplex) -> Cochain | None:
    """A cocycle representing a nonzero class all of whose cup products
    vanish, or None when the complex has property A: the sum of the
    classes at the first vector of the canonical left kernel of the
    flattened pairing matrix, whose rows there sum to zero."""
    kernel = gf2.kernel_basis(pairing_tensor(complex_).flattened().transpose())
    if not kernel:
        return None
    classes = h1_cocycle_basis(complex_)
    bits = 0
    for i in kernel[0].support():
        bits ^= classes[i].values.bits
    return Cochain(1, gf2.Gf2Vector(classes[0].values.length, bits))


@per_complex
def has_property_A(complex_: SimplicialComplex) -> bool:
    """True when no nonzero degree-1 class cups to zero against every
    degree-1 class, evaluated on a homology basis in degree 2.

    Vacuously true when b1 = 0.
    """
    return property_a_witness(complex_) is None
