"""Mod-2 cochains, cup products of degree-1 classes, and the
cup-product regularity test.

The only cup product needed here is 1 x 1 -> 2.  With every simplex
written in ascending vertex order, the product of two 1-cochains
evaluates on a triangle (v0, v1, v2) as

    (alpha . beta)(v0 v1 v2) = alpha(v0 v1) * beta(v1 v2),

the front-face/back-face rule in the canonical order.  A complex has
property A when the pairing H^1 x H^1 -> H^2 has no nonzero class that
multiplies everything to zero; on a closed surface this is Poincare
duality, and the reduction pipeline leans on it staying true.
"""

from __future__ import annotations

from . import gf2
from .complexes import SimplicialComplex, per_complex
from .errors import PreconditionError
from .homology import _kernel_modulo_image, chain_data, chain_vector, homology_basis
from .value import Value

__all__ = [
    "Cochain",
    "PairingTensor",
    "coboundary_matrix",
    "cup_1_1",
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

    def __init__(self, degree: int, values: gf2.Gf2Vector) -> None:
        vars(self).update(degree=degree, values=values)


def coboundary_matrix(complex_: SimplicialComplex, n: int) -> gf2.Gf2Matrix:
    """Matrix of delta^n: C^n -> C^(n+1), the transpose of d_(n+1)."""
    return chain_data(complex_).boundary_matrix(n + 1).transpose()


def _check_degree_one(complex_: SimplicialComplex, cochain: Cochain) -> None:
    if cochain.degree != 1:
        raise PreconditionError("cup product here is defined for degree-1 cochains")
    if cochain.values.length != len(complex_.simplices(1)):
        raise PreconditionError("cochain is indexed against a different complex")


def cup_1_1(complex_: SimplicialComplex, alpha: Cochain, beta: Cochain) -> Cochain:
    """Cup product of two 1-cochains, a 2-cochain."""
    _check_degree_one(complex_, alpha)
    _check_degree_one(complex_, beta)
    data = chain_data(complex_)
    edge_index = data.index[1] if len(data.index) > 1 else {}
    bits = 0
    for t, (v0, v1, v2) in enumerate(data.simplices[2] if complex_.dim >= 2 else ()):
        front = edge_index[(v0, v1)]
        back = edge_index[(v1, v2)]
        if alpha.values[front] and beta.values[back]:
            bits |= 1 << t
    n2 = len(complex_.simplices(2))
    return Cochain(2, gf2.Gf2Vector(n2, bits))


@per_complex
def h1_cocycle_basis(complex_: SimplicialComplex) -> tuple[Cochain, ...]:
    """Cocycle representatives of a basis of H^1, deterministically
    chosen from the canonical kernel of delta^1 modulo coboundaries."""
    if not complex_.simplices(1):
        return ()
    reps = _kernel_modulo_image(coboundary_matrix(complex_, 1), coboundary_matrix(complex_, 0))
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

    def __init__(self, b1: int, b2: int, entries: tuple[tuple[tuple[int, ...], ...], ...]) -> None:
        vars(self).update(b1=b1, b2=b2, entries=entries)

    def flattened(self) -> gf2.Gf2Matrix:
        """b1 x (b1*b2) matrix whose row i lists all pairings of the
        i-th class; full row rank is exactly property A."""
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
    data = chain_data(complex_)
    classes = h1_cocycle_basis(complex_)
    cycles = [chain_vector(data, 2, z) for z in homology_basis(complex_, 2)]
    entries = []
    for a in classes:
        row = []
        for b in classes:
            product = cup_1_1(complex_, a, b)
            row.append(tuple(product.values.dot(z) for z in cycles))
        entries.append(tuple(row))
    return PairingTensor(len(classes), len(cycles), tuple(entries))


@per_complex
def has_property_A(complex_: SimplicialComplex) -> bool:
    """True when no nonzero degree-1 class cups to zero against every
    degree-1 class, evaluated on a homology basis in degree 2.

    Vacuously true when b1 = 0.
    """
    tensor = pairing_tensor(complex_)
    if tensor.b1 == 0:
        return True
    return gf2.rank(tensor.flattened()) == tensor.b1


def property_a_witness(complex_: SimplicialComplex) -> Cochain | None:
    """A cocycle representing a nonzero class all of whose cup products
    vanish, or None when the complex has property A."""
    tensor = pairing_tensor(complex_)
    if tensor.b1 == 0:
        return None
    kernel = gf2.kernel_basis(tensor.flattened())
    if not kernel:
        return None
    classes = h1_cocycle_basis(complex_)
    bits = 0
    for i in kernel[0].support():
        bits ^= classes[i].values.bits
    return Cochain(1, gf2.Gf2Vector(classes[0].values.length, bits))
