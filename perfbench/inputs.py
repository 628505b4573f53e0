"""Seeded inputs for the benchmark and the answers expected for them.

The generators here are the benchmark's own copies (barycentric
subdivision, glued solid tetrahedron, flap, dunce hat on a bridge
edge), so edits to the package or to its tests cannot shift the
inputs.  A complex is handled as a list of simplices, each a sorted
tuple of vertex labels; files list the maximal simplices.

The seed relabels the vertices of each base complex and chooses where
the thickenings go; sizes do not depend on it.  New vertices get labels
that sort after every base label, so the canonical order of the base
simplices is the same in every thickened input.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
TETRAHEDRON_EVERY = 4  # a solid tetrahedron on every 4th triangle
FLAPS = 40
DUNCE_HATS = 3


@dataclass(frozen=True)
class Base:
    """A base complex and what is known about it independently of the
    program: its mod-2 Betti numbers, Euler characteristic, whether it
    has property A, and its surface class when it is a closed surface."""

    name: str
    betti: tuple[int, int, int]
    chi: int
    property_a: bool
    surface: tuple[bool, int] | None  # (orientable, genus)


SURFACES = (
    Base("sphere_4", (1, 0, 1), 2, True, (True, 0)),
    Base("projective_plane_6", (1, 1, 1), 1, True, (False, 1)),
    Base("torus_7", (1, 2, 1), 0, True, (True, 1)),
    Base("klein_bottle_8", (1, 2, 1), 0, True, (False, 2)),
    Base("nonorientable_genus3_9", (1, 3, 1), -1, True, (False, 3)),
    Base("genus2_10", (1, 4, 1), -2, True, (True, 2)),
)
# T^2 v S^1: the extra circle cups to zero with everything.
TORUS_WEDGE_CIRCLE = Base("torus_wedge_circle_9", (1, 3, 1), -1, False, None)
# Homotopy equivalent to M_2 but not a surface (the covering-type model).
M2_HOMOTOPY = Base("m2_homotopy_9", (1, 4, 1), -2, True, None)


@dataclass
class Item:
    """One generated input file and the thickenings applied to it."""

    base: Base
    path: Path
    sha256: str
    f_vector: tuple[int, ...]
    tetrahedra: int = 0
    flaps: int = 0
    dunce_hats: int = 0


def read_simplices(text: str) -> list[tuple[str, ...]]:
    """Simplex lines of a complex file; '#' starts a comment."""
    out = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            out.append(tuple(sorted(tokens)))
    return out


def closure(simplices) -> dict[int, set[tuple[str, ...]]]:
    """All faces of the given simplices, grouped by dimension."""
    by_dim: dict[int, set[tuple[str, ...]]] = {}
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            by_dim.setdefault(k - 1, set()).update(itertools.combinations(s, k))
    return by_dim


def f_vector(by_dim) -> tuple[int, ...]:
    return tuple(len(by_dim[n]) for n in range(len(by_dim)))


def maximal(simplices) -> list[tuple[str, ...]]:
    """The simplices of the closure that lie in no larger one."""
    by_dim = closure(simplices)
    covered = set()
    for n in range(1, len(by_dim)):
        for s in by_dim[n]:
            covered.update(itertools.combinations(s, n))
    return sorted(s for group in by_dim.values() for s in group if s not in covered)


def relabel(simplices, rng: random.Random) -> list[tuple[str, ...]]:
    """Rename the vertices by a seeded permutation of a00, a01, ..."""
    labels = sorted({v for s in simplices for v in s})
    order = rng.sample(range(len(labels)), len(labels))
    new = {v: f"a{i:02d}" for v, i in zip(labels, order)}
    return [tuple(sorted(new[v] for v in s)) for s in simplices]


def barycentric(simplices, sep: str) -> list[tuple[str, ...]]:
    """Barycentric subdivision; a new vertex is named by the labels of
    the simplex it subdivides, joined by sep."""
    faces = []
    for s in maximal(simplices):
        for order in itertools.permutations(s):
            chain = (sep.join(sorted(order[: k + 1])) for k in range(len(order)))
            faces.append(tuple(sorted(chain)))
    return faces


def glue_tetrahedron(simplices, triangle, label):
    """Cone a new vertex over a triangle, solid: one more 3-simplex."""
    return simplices + [tuple(sorted((label, *triangle)))]


def attach_flap(simplices, edge, label):
    """Cone a new vertex over an edge: one collapsible triangle."""
    return simplices + [tuple(sorted((label, *edge)))]


def dunce_hat(prefix: str) -> list[tuple[str, ...]]:
    """A 13-vertex contractible complex with no free faces: a 9-gon disk
    whose rim runs around a 3-cycle as r0 r1 r2 r0 r1 r2 r0 r2 r1."""
    rim = [f"{prefix}r{i}" for i in (0, 1, 2, 0, 1, 2, 0, 2, 1)]
    mid = [f"{prefix}m{i}" for i in range(9)]
    faces = []
    for i in range(9):
        j = (i + 1) % 9
        faces.append((rim[i], rim[j], mid[i]))
        faces.append((rim[j], mid[i], mid[j]))
        faces.append((mid[i], mid[j], f"{prefix}cc"))
    return [tuple(sorted(t)) for t in faces]


def attach_dunce_with_bridge(simplices, vertex, prefix):
    """Hang a dunce hat off a vertex by one maximal edge."""
    return simplices + dunce_hat(prefix) + [tuple(sorted((vertex, f"{prefix}cc")))]


def _base(base: Base, rng: random.Random) -> list[tuple[str, ...]]:
    text = (DATA / f"{base.name}.cplx").read_text("utf-8")
    return relabel(read_simplices(text), rng)


def _write(base: Base, simplices, out_dir: Path, **counts) -> Item:
    faces = maximal(simplices)
    text = "".join(" ".join(s) + "\n" for s in faces)
    data = text.encode("utf-8")
    path = out_dir / f"{base.name}.cplx"
    path.write_bytes(data)
    return Item(
        base, path, hashlib.sha256(data).hexdigest(), f_vector(closure(faces)), **counts
    )


def second_subdivisions(seed: int, out_dir: Path) -> list[Item]:
    """Second barycentric subdivisions of the six surfaces, T^2 v S^1
    and the M_2 model."""
    rng = random.Random(seed)
    items = []
    for base in SURFACES + (TORUS_WEDGE_CIRCLE, M2_HOMOTOPY):
        sd1 = barycentric(_base(base, rng), "-")
        items.append(_write(base, barycentric(sd1, "+"), out_dir))
    return items


def glued_tetrahedra(seed: int, out_dir: Path) -> list[Item]:
    """First subdivisions of the surfaces with a solid tetrahedron on
    every 4th triangle, counted from a seeded offset."""
    rng = random.Random(seed)
    items = []
    for base in SURFACES:
        faces = barycentric(_base(base, rng), "-")
        triangles = sorted(faces)
        chosen = triangles[rng.randrange(TETRAHEDRON_EVERY) :: TETRAHEDRON_EVERY]
        for i, t in enumerate(chosen):
            faces = glue_tetrahedron(faces, t, f"x{i:03d}")
        items.append(_write(base, faces, out_dir, tetrahedra=len(chosen)))
    return items


def flaps_and_dunce_hats(seed: int, out_dir: Path) -> list[Item]:
    """First subdivisions of the surfaces with seeded flaps on surface
    edges and dunce hats hung on bridge edges from surface vertices."""
    rng = random.Random(seed)
    items = []
    for base in SURFACES:
        faces = barycentric(_base(base, rng), "-")
        by_dim = closure(faces)
        edges = sorted(by_dim[1])
        vertices = sorted(v for (v,) in by_dim[0])
        for i in range(FLAPS):
            faces = attach_flap(faces, rng.choice(edges), f"y{i:03d}")
        for i in range(DUNCE_HATS):
            faces = attach_dunce_with_bridge(faces, rng.choice(vertices), f"z{i}")
        items.append(_write(base, faces, out_dir, flaps=FLAPS, dunce_hats=DUNCE_HATS))
    return items
