"""The paper's table: closed surfaces by name and by Betti numbers, and
the vertex-count bounds rho, delta and the covering type of each.

rho(chi) is the smallest n with n >= 7/2 + sqrt(49 - 24*chi)/2, the
classical lower bound for the number of vertices of a triangulation
with Euler characteristic chi; it is computed in exact integer
arithmetic.  delta adds one exactly for the three exceptional surfaces
(orientable genus 2, non-orientable genus 2 and 3) where rho is not
attained by any triangulation.  The covering type equals delta for
every closed surface except orientable genus 2, where a 9-vertex
complex homotopy equivalent to the surface exists even though no
9-vertex triangulation does; surfaces.build_nine_vertex_m2 constructs
it.

The table needs no complex, so this module imports no layer: the
`bounds` command runs it alone, and `reduce`, which reads the table but
checks no closed surface, never runs `surfaces`.
"""

from __future__ import annotations

import math

from .errors import DomainError, shown
from .value import Value

__all__ = [
    "SurfaceClass",
    "surface_from_name",
    "surfaces_with_betti",
    "rho",
    "delta",
    "covering_type",
]


class SurfaceClass(Value):
    """Homeomorphism type of a closed surface."""

    orientable: bool
    genus: int

    def _check(self) -> None:
        if self.genus < 0:
            raise DomainError("genus must be >= 0")
        if not self.orientable and self.genus == 0:
            raise DomainError("a non-orientable surface has genus >= 1")

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    @property
    def name(self) -> str:
        if self.orientable:
            if self.genus == 0:
                return "S^2"
            if self.genus == 1:
                return "T^2"
            return f"M_{self.genus}"
        if self.genus == 1:
            return "RP^2"
        return f"N_{self.genus}"


# Python refuses int <-> str conversions beyond a digit limit that can be
# set as low as 640, and chi = 2 - 2g has one digit more than the genus
MAX_GENUS_DIGITS = 600


def surface_from_name(name: str) -> SurfaceClass:
    """Parse a surface name; accepts S2/S^2, T2/T^2, RP2/RP^2, M_g/Mg,
    N_k/Nk (case-insensitive), with g and k in ASCII decimal digits."""
    text = name.strip().upper().replace("^", "").replace("_", "")
    if text in ("S2", "SPHERE", "M0"):
        return SurfaceClass(True, 0)
    if text in ("T2", "TORUS", "M1"):
        return SurfaceClass(True, 1)
    if text in ("RP2", "N1"):
        return SurfaceClass(False, 1)
    if text in ("KLEIN", "KLEINBOTTLE"):
        return SurfaceClass(False, 2)
    digits = text[1:]
    if text[:1] in ("M", "N") and digits.isascii() and digits.isdigit():
        if len(digits) > MAX_GENUS_DIGITS:
            raise DomainError(
                f"genus with {len(digits)} digits; at most {MAX_GENUS_DIGITS} are allowed"
            )
        return SurfaceClass(text[0] == "M", int(digits))
    raise DomainError(f"unknown surface name {shown(name)}")


def surfaces_with_betti(betti: tuple[int, ...]) -> tuple[SurfaceClass, ...]:
    """The closed surfaces with these mod-2 Betti numbers, which must
    read (1, b1, 1) and then zeros: the sphere for b1 = 0, N_b1 for an
    odd b1, and both M_(b1/2) and N_b1 for an even b1 > 0."""
    b0, b1, b2, *higher = betti + (0,) * max(0, 3 - len(betti))
    if (b0, b2) != (1, 1) or any(higher):
        return ()
    if b1 == 0:
        return (SurfaceClass(True, 0),)
    if b1 % 2 == 1:
        return (SurfaceClass(False, b1),)
    return (SurfaceClass(True, b1 // 2), SurfaceClass(False, b1))


def rho(chi: int) -> int:
    """Least n with 2n - 7 >= 0 and (2n - 7)^2 >= 49 - 24*chi, i.e. the
    ceiling of 7/2 + sqrt(49 - 24*chi)/2, in exact integer arithmetic."""
    if chi > 2:
        raise DomainError(f"no closed surface has Euler characteristic {chi}")
    disc = 49 - 24 * chi
    root = math.isqrt(disc)
    if root * root == disc:
        # exact square: nearest integer at or above (7 + root)/2
        return (7 + root + 1) // 2
    return (7 + root) // 2 + 1


def delta(surface: SurfaceClass) -> int:
    """Minimum vertex count of a triangulation of the surface: rho(chi)
    except for the three surfaces where that bound is not attained."""
    exceptional = surface in (
        SurfaceClass(True, 2),
        SurfaceClass(False, 2),
        SurfaceClass(False, 3),
    )
    return rho(surface.chi) + (1 if exceptional else 0)


def covering_type(surface: SurfaceClass) -> int:
    """Minimum vertex count of a complex homotopy equivalent to the
    surface.  Equals delta except for orientable genus 2, where the
    pinch-and-fill construction saves one vertex."""
    if surface == SurfaceClass(True, 2):
        return 9
    return delta(surface)
