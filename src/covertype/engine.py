"""The structural moves: how each runs and what it records.

WorkingComplex is a mutable complex on which excision, elementary
collapse, edge contraction and vertex identification each have their one
implementation, a method that changes it in place and returns the
MoveRecord; the last two share _glue, which renames one vertex's star.
Each method also states the one check of its move's evidence: the
excision cycle given as aux, the collapse witness, the path test of a
contraction and the link test of an identification.  The module-level
move functions in complexes are the entry points: they run these
methods on a WorkingComplex, or on a working copy of a frozen complex
(_in_place).  The engine checks each move's evidence when it makes the
move; the tests replay every recorded move against references that
rebuild the complex without it (tests/oracles.py).  The reduction
pipeline runs each stage on one WorkingComplex and freezes it only at
the stage's end.

Only the commands that move simplices (reduce and construct-m2) run this
module; the rest never compile it.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterable

from .complexes import Simplex, SimplicialComplex, check_label, make_simplex
from .errors import (
    InconsistencyError,
    NotFoundError,
    PreconditionError,
    PropertyAViolationError,
)
from .value import Value

__all__ = [
    "WorkingComplex",
    "MoveRecord",
    "COLLAPSE",
    "CONTRACTION",
    "EXCISION",
    "IDENTIFICATION",
]

COLLAPSE = "collapse"
CONTRACTION = "edge-contraction"
EXCISION = "simplex-excision"
IDENTIFICATION = "vertex-identification"


class MoveRecord(Value):
    """One audited structural move: what kind, which simplices, and the
    f-vectors before and after.  ``aux`` carries optional evidence, e.g.
    the support of the 2-cycle that justified an excision, which the
    move checks when it is given."""

    kind: str
    simplices: tuple[Simplex, ...]
    before_f: tuple[int, ...]
    after_f: tuple[int, ...]
    aux: tuple[Simplex, ...] = ()


class WorkingComplex:
    """A mutable complex on which every move kind runs in place.

    It keeps the simplices of each dimension, the codimension-1 cofaces
    of each simplex, and a min-heap of (free face, coface) pairs.  A
    face is free when it has exactly one codimension-1 coface; as for
    SimplicialComplex.free_faces, that coface is then maximal, so this
    is the same as lying in exactly one strictly larger simplex.  Each
    move pushes every pair it may have made free (_remove, _glue), but
    an entry can go stale: its face no longer free, or free through
    another coface once a glue has renamed its coface.  So an entry is
    live only when its face is free through its coface; stale ones are
    dropped at the top, and the smallest live entry is exactly
    free_faces()[0] of a snapshot.
    """

    def __init__(self, complex_: SimplicialComplex):
        self._groups = [set(group) for group in complex_.by_dim]
        cofaces = complex_._facet_cofaces
        self._cofaces = {s: set(cof) for s, cof in cofaces.items()}
        self._free = [(s, cof[0]) for s, cof in cofaces.items() if len(cof) == 1]
        heapq.heapify(self._free)

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self._cofaces

    @property
    def dim(self) -> int:
        return len(self._groups) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self._groups)

    def _is_free(self, face: Simplex) -> bool:
        return len(self._cofaces.get(face, ())) == 1

    def _neighbours(self, vertex: str) -> set[str]:
        return {x for edge in self._cofaces[(vertex,)] for x in edge if x != vertex}

    def smallest_free_face(self) -> tuple[Simplex, Simplex] | None:
        """The smallest (face, coface) pair whose face lies in exactly
        one strictly larger simplex, or None when there is none."""
        free = self._free
        while free:
            face, coface = free[0]
            if self._is_free(face) and coface in self._cofaces[face]:
                return face, coface
            heapq.heappop(free)
        return None

    def smallest_maximal_edge(self) -> Simplex | None:
        edges = self._groups[1] if len(self._groups) > 1 else ()
        return min((e for e in edges if not self._cofaces[e]), default=None)

    def freeze(self) -> SimplicialComplex:
        return SimplicialComplex(tuple(tuple(sorted(group)) for group in self._groups))

    def _push_free(self, faces: Iterable[Simplex]) -> None:
        for f in faces:
            if self._is_free(f):
                heapq.heappush(self._free, (f, next(iter(self._cofaces[f]))))

    def _remove(self, *simplices: Simplex) -> None:
        """Delete simplices, each maximal once those before it are gone,
        and push every face this leaves free.

        Only a facet of a deleted simplex can become free: a face is
        free when one codimension-1 coface is left, and it loses a
        coface only when that coface is deleted.  Nor can a deletion
        free a face h by leaving its coface g = s - {x} maximal:
        h = s - {x, y} also lies in the facet s - {y} of s, which stays
        unless it is deleted too, and then h is one of its facets.
        """
        facets: set[Simplex] = set()
        for s in simplices:
            del self._cofaces[s]
            self._groups[len(s) - 1].remove(s)
            if len(s) > 1:
                for f in itertools.combinations(s, len(s) - 1):
                    self._cofaces[f].discard(s)
                    facets.add(f)
        while self._groups and not self._groups[-1]:
            self._groups.pop()
        self._push_free(facets)

    def _glue(self, keep: str, drop: str) -> None:
        """Rename drop to keep in every simplex of drop's star.

        keep and drop must be non-adjacent with no common neighbour, so
        only the two vertices merge: t = g + {keep}, g nonempty, is new,
        else g would lie in both links.  Only the renamed simplices and
        their facets g gain or swap cofaces, so only they can become
        free through a new coface; those that are free are pushed.
        """
        cofaces, groups = self._cofaces, self._groups
        # every simplex with drop is a coface of a coface ... of (drop,)
        renamed = {(drop,): (keep,)}
        stack = [(drop,)]
        while stack:
            for c in cofaces[stack.pop()]:
                if c not in renamed:
                    renamed[c] = tuple(sorted(keep if x == drop else x for x in c))
                    stack.append(c)
        for s, t in renamed.items():
            if len(s) > 1 and t in cofaces:
                raise InconsistencyError(f"gluing {drop!r} to {keep!r} would merge {s} with {t}")
        old = {s: cofaces.pop(s) for s in renamed}
        for s, t in renamed.items():
            groups[len(s) - 1].remove(s)
            if len(s) > 1:
                g = tuple(x for x in s if x != drop)
                cofaces[g].remove(s)
                cofaces[g].add(t)
                cofaces[t] = {renamed[c] for c in old[s]}
                groups[len(t) - 1].add(t)
        cofaces[(keep,)].update(renamed[c] for c in old[(drop,)])
        touched = set(renamed.values())
        for t in renamed.values():
            touched.update(itertools.combinations(t, len(t) - 1))
        self._push_free(touched)

    def _excise(self, triangle: Iterable[str], aux: tuple[Simplex, ...]) -> MoveRecord:
        """Delete a maximal triangle t.  Evidence z, when given, must be
        a 2-cycle on the current triangles that contains t: distinct
        triangles, each present, with d_2 z = 0, that is, every edge of
        z's triangles occurs an even number of times."""
        t = make_simplex(triangle)
        if aux:
            edges: set[Simplex] = set()
            for s in aux:
                edges.symmetric_difference_update(itertools.combinations(s, 2))
            if (
                edges
                or t not in aux
                or len(set(aux)) < len(aux)
                or not all(len(s) == 3 and s in self for s in aux)
            ):
                raise InconsistencyError(f"{aux} is not a 2-cycle on the current triangles")
        if len(t) != 3 or t not in self:
            raise PreconditionError(f"{t} is not a 2-simplex of the complex")
        if self._cofaces[t]:
            raise PreconditionError(f"{t} lies in a higher simplex; removing it would break closure")
        before = self.f_vector
        self._remove(t)
        return MoveRecord(EXCISION, (t,), before, self.f_vector, aux)

    def _collapse(self, face: Iterable[str]) -> MoveRecord:
        f = make_simplex(face)
        if f not in self:
            raise NotFoundError(f"{f} is not in the complex")
        if not self._is_free(f):
            raise PreconditionError(
                f"{f} has {len(self._cofaces[f])} codimension-1 cofaces; a free face has exactly one"
            )
        (coface,) = self._cofaces[f]
        # the witness: row f of the boundary matrix is a single 1, in the
        # column of a maximal coface, whose other facets all stay, so the
        # boundary of f is the sum of theirs
        facets = list(itertools.combinations(coface, len(coface) - 1))
        if (
            coface not in self
            or self._cofaces[coface]
            or f not in facets
            or not all(g in self for g in facets)
        ):
            raise InconsistencyError(f"collapse of {f} into {coface} has no valid witness")
        before = self.f_vector
        self._remove(coface, f)
        return MoveRecord(COLLAPSE, (f, coface), before, self.f_vector)

    def _contract(self, edge: Iterable[str]) -> MoveRecord:
        e = make_simplex(edge)
        if len(e) != 2 or e not in self:
            raise NotFoundError(f"{e} is not an edge of the complex")
        if self._cofaces[e]:
            raise PreconditionError(f"edge {e} is not maximal")
        keep, drop = e  # ascending, so keep is the smaller label
        # a search from keep for a path to drop other than e
        seen, todo = {keep, drop}, [keep]
        for v in todo:
            neighbours = self._neighbours(v)
            if v != keep and drop in neighbours:
                raise PropertyAViolationError(
                    f"endpoints of {e} remain connected without it; contracting would kill an essential circle"
                )
            todo += neighbours - seen
            seen |= neighbours
        before = self.f_vector
        self._remove(e)
        self._glue(keep, drop)
        return MoveRecord(CONTRACTION, (e,), before, self.f_vector)

    def _identify(self, v: str, w: str) -> MoveRecord:
        va, vb = check_label(v), check_label(w)
        for x in (va, vb):
            if (x,) not in self:
                raise NotFoundError(f"vertex {x!r} is not in the complex")
        if va == vb:
            raise PreconditionError("the two vertices must be distinct")
        if self.dim > 2:
            raise PreconditionError("vertex identification is only defined in dimension <= 2")
        if make_simplex((va, vb)) in self:
            raise PreconditionError(f"{va} and {vb} are adjacent; identification needs non-adjacent vertices")
        # a vertex's neighbours are exactly the vertices of its link
        shared = sorted(self._neighbours(va) & self._neighbours(vb))
        if shared:
            raise PreconditionError(f"links of {va} and {vb} share vertices {shared}; they must be disjoint")
        keep, drop = sorted((va, vb))
        before = self.f_vector
        self._glue(keep, drop)
        return MoveRecord(IDENTIFICATION, ((keep,), (drop,)), before, self.f_vector)


def _in_place(
    complex_: SimplicialComplex | WorkingComplex, move: Callable[..., MoveRecord], *args
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Run a WorkingComplex move on a working complex, returned changed,
    or on a working copy of a frozen complex, whose snapshot is returned."""
    work = complex_ if isinstance(complex_, WorkingComplex) else WorkingComplex(complex_)
    record = move(work, *args)
    return (work if work is complex_ else work.freeze()), record
