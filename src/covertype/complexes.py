"""Finite abstract simplicial complexes with a canonical vertex order.

A simplex is a tuple of vertex labels in ascending lexicographic order;
a complex stores its simplices grouped by dimension with every group
sorted, which fixes a canonical order for each iteration, tie-break and
search in the package.  Complexes are immutable; the structural moves
(excision, elementary collapse, edge contraction, vertex identification)
are module-level functions that return a fresh complex together with a
MoveRecord, so a reduction pipeline can be audited and replayed.

A long run of excisions and collapses goes through a WorkingComplex
instead: the same move functions change it in place and return it, with
the same MoveRecord, and freeze() takes a SimplicialComplex snapshot.

Invariants of a complex (Betti numbers, property A, the surface check)
are computed once per complex object and kept on it, by per_complex.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property, wraps

from .errors import (
    InconsistencyError,
    MalformedInputError,
    NotFoundError,
    PreconditionError,
    PropertyAViolationError,
)
from .value import Value

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "MoveRecord",
    "WorkingComplex",
    "make_simplex",
    "per_complex",
    "build_complex",
    "remove_two_simplex",
    "collapse_free_face",
    "contract_edge",
    "identify_vertices",
    "apply_move",
    "COLLAPSE",
    "CONTRACTION",
    "EXCISION",
    "IDENTIFICATION",
]

Simplex = tuple[str, ...]

COLLAPSE = "collapse"
CONTRACTION = "edge-contraction"
EXCISION = "simplex-excision"
IDENTIFICATION = "vertex-identification"


def check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise MalformedInputError("vertex labels must be non-empty strings")
    # every whitespace character but " " is unprintable; "#" would start
    # a comment in the file format, so the label could not be read back
    if not label.isprintable() or " " in label or "#" in label:
        raise MalformedInputError(
            f"invalid vertex label {label!r}: labels must be printable and contain"
            " no whitespace or '#'"
        )
    return label


def make_simplex(vertices: Iterable[str]) -> Simplex:
    """Canonical (ascending) form of a simplex given by its vertices."""
    vs = tuple(sorted(check_label(v) for v in vertices))
    if not vs:
        raise MalformedInputError("a simplex needs at least one vertex")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise MalformedInputError(f"duplicate vertex {a!r} in simplex")
    return vs


class SimplicialComplex(Value):
    """Simplices grouped by dimension: by_dim[n] lists the n-simplices."""

    by_dim: tuple[tuple[Simplex, ...], ...]

    def __init__(self, by_dim: tuple[tuple[Simplex, ...], ...]) -> None:
        vars(self).update(by_dim=by_dim)

    @classmethod
    def from_simplices(cls, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """Group canonical simplices by dimension.

        Downward closure is the caller's responsibility; use
        build_complex for raw input.
        """
        groups: dict[int, set[Simplex]] = {}
        for s in simplices:
            groups.setdefault(len(s) - 1, set()).add(s)
        if not groups:
            return cls(())
        top = max(groups)
        return cls(tuple(tuple(sorted(groups.get(n, ()))) for n in range(top + 1)))

    # ------------------------------------------------------------------
    # queries

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.by_dim)

    @property
    def is_empty(self) -> bool:
        return not self.by_dim

    @property
    def vertices(self) -> tuple[str, ...]:
        if not self.by_dim:
            return ()
        return tuple(s[0] for s in self.by_dim[0])

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        if 0 <= n < len(self.by_dim):
            return self.by_dim[n]
        return ()

    def all_simplices(self) -> Iterator[Simplex]:
        return itertools.chain.from_iterable(self.by_dim)

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self._facet_cofaces

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * a for n, a in enumerate(self.f_vector))

    def skeleton(self, n: int) -> "SimplicialComplex":
        """Subcomplex of all simplices of dimension at most n (the
        complex itself when n >= dim)."""
        if n < 0:
            raise PreconditionError("skeleton dimension must be >= 0")
        if n >= self.dim:
            return self
        return SimplicialComplex(self.by_dim[: n + 1])

    def link(self, vertex: str) -> "SimplicialComplex":
        v = check_label(vertex)
        if (v,) not in self:
            raise NotFoundError(f"vertex {v!r} is not in the complex")
        sims = []
        for s in self.all_simplices():
            if v in s and len(s) > 1:
                sims.append(tuple(x for x in s if x != v))
        return SimplicialComplex.from_simplices(sims)

    @cached_property
    def _facet_cofaces(self) -> dict[Simplex, tuple[Simplex, ...]]:
        """Codimension-1 cofaces of every simplex, the one incidence
        table of the complex; its keys are the simplices."""
        cof: dict[Simplex, list[Simplex]] = {s: [] for s in self.all_simplices()}
        for group in self.by_dim[1:]:
            for s in group:
                for i in range(len(s)):
                    cof[s[:i] + s[i + 1 :]].append(s)
        return {s: tuple(sorted(v)) for s, v in cof.items()}

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The simplices with no codimension-1 coface, which in a
        downward-closed complex are those in no larger simplex."""
        return tuple(sorted(s for s, cof in self._facet_cofaces.items() if not cof))

    def free_faces(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """Pairs (face, coface) where the face lies in exactly one
        strictly larger simplex.  Sorted by face, so index 0 is the
        lexicographically smallest free face.

        A face f is free exactly when it has one codimension-1 coface
        c: every simplex strictly containing f contains a codimension-1
        coface of f, hence c, and c is maximal, since a coface c + {y}
        would contain a second codimension-1 coface f + {y} of f.
        """
        return tuple(
            sorted((s, cof[0]) for s, cof in self._facet_cofaces.items() if len(cof) == 1)
        )

    def edge_triangle_count(self, edge: Iterable[str]) -> int:
        e = make_simplex(edge)
        if len(e) != 2 or e not in self:
            raise NotFoundError(f"{e} is not an edge of the complex")
        return len(self._facet_cofaces[e])

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbours of each vertex, ascending: the other ends of its
        edges, whose canonical order lists every (u, v) with u < v
        before every (v, w)."""
        cofaces = self._facet_cofaces
        return {v: tuple(a if b == v else b for a, b in cofaces[(v,)]) for v in self.vertices}

    def vertex_degree(self, vertex: str) -> int:
        v = check_label(vertex)
        if (v,) not in self:
            raise NotFoundError(f"vertex {v!r} is not in the complex")
        return len(self._adjacency[v])

    def path_exists(self, a: str, b: str, forbidden: Iterable[str] | None = None) -> bool:
        """Is there an edge path from a to b, optionally avoiding one edge?"""
        va, vb = check_label(a), check_label(b)
        for v in (va, vb):
            if (v,) not in self:
                raise NotFoundError(f"vertex {v!r} is not in the complex")
        banned: Simplex | None = None
        if forbidden is not None:
            banned = make_simplex(forbidden)
            if len(banned) != 2 or banned not in self:
                raise PreconditionError(f"forbidden simplex {banned} is not an edge of the complex")
        if va == vb:
            return True
        seen = {va}
        queue = deque([va])
        while queue:
            cur = queue.popleft()
            for nxt in self._adjacency[cur]:
                if banned is not None and tuple(sorted((cur, nxt))) == banned:
                    continue
                if nxt == vb:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def strongly_connected_components(self) -> tuple[tuple[Simplex, ...], ...]:
        """Partition of the 2-simplices into classes connected through
        shared edges, each class sorted, classes ordered by first member."""
        tris = self.simplices(2)
        if not tris:
            return ()
        visited: set[Simplex] = set()
        comps: list[tuple[Simplex, ...]] = []
        for start in tris:
            if start in visited:
                continue
            comp = []
            queue = deque([start])
            visited.add(start)
            while queue:
                t = queue.popleft()
                comp.append(t)
                for i in range(3):
                    edge = t[:i] + t[i + 1 :]
                    for other in self._facet_cofaces[edge]:
                        if len(other) == 3 and other not in visited:
                            visited.add(other)
                            queue.append(other)
            comps.append(tuple(sorted(comp)))
        comps.sort()
        return tuple(comps)

    def validate(self) -> None:
        """Re-check the structural invariants from scratch; raises
        InconsistencyError on any violation.  Intended for tests."""
        seen: set[Simplex] = set()
        for n, group in enumerate(self.by_dim):
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
        f = self.f_vector
        if len(f) >= 2 and 2 * f[1] > f[0] * (f[0] - 1):
            raise InconsistencyError("more edges than a simple graph allows")
        if any(a == 0 for a in f):
            raise InconsistencyError("empty dimension group inside the complex")


TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TypeVar

    T = TypeVar("T")


def per_complex(fn: Callable[[SimplicialComplex], T]) -> Callable[[SimplicialComplex], T]:
    """Run fn once per complex object: the value is kept in the
    immutable complex's own __dict__, as cached_property does, so it is
    freed with the complex, and an equal but distinct complex computes
    its own."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def once(complex_: SimplicialComplex) -> T:
        memo = complex_.__dict__
        if key not in memo:
            memo[key] = fn(complex_)
        return memo[key]

    return once


def build_complex(maximal_simplices: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Downward closure of the given simplices."""
    closure: set[Simplex] = set()
    for raw in maximal_simplices:
        s = make_simplex(raw)
        for k in range(1, len(s) + 1):
            closure.update(itertools.combinations(s, k))
    return SimplicialComplex.from_simplices(closure)


# ----------------------------------------------------------------------
# structural moves


class MoveRecord(Value):
    """One audited structural move: what kind, which simplices, and the
    f-vectors before and after.  ``aux`` carries optional evidence, e.g.
    the support of the 2-cycle that justified an excision."""

    kind: str
    simplices: tuple[Simplex, ...]
    before_f: tuple[int, ...]
    after_f: tuple[int, ...]
    aux: tuple[Simplex, ...]

    def __init__(
        self,
        kind: str,
        simplices: tuple[Simplex, ...],
        before_f: tuple[int, ...],
        after_f: tuple[int, ...],
        aux: tuple[Simplex, ...] = (),
    ) -> None:
        vars(self).update(
            kind=kind, simplices=simplices, before_f=before_f, after_f=after_f, aux=aux
        )


class WorkingComplex:
    """A mutable complex for a long run of excisions and collapses.

    It keeps the simplices of each dimension, the codimension-1 cofaces
    of each simplex, and a min-heap of (free face, coface) pairs with
    lazy deletion: an entry is discarded when its face is found no
    longer free.  A face is free when it has exactly one codimension-1
    coface; as for SimplicialComplex.free_faces, that coface is then
    maximal, so this is the same as lying in exactly one strictly
    larger simplex.  Cofaces are only ever removed, so a face becomes
    free at most once and is pushed at most once; the heap's smallest
    live entry is therefore exactly free_faces()[0] of a snapshot.
    """

    def __init__(self, complex_: SimplicialComplex):
        self._groups = [set(group) for group in complex_.by_dim]
        self._cofaces = {s: set(cof) for s, cof in complex_._facet_cofaces.items()}
        self._free = [(s, next(iter(self._cofaces[s]))) for s in self._cofaces if self._is_free(s)]
        heapq.heapify(self._free)

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self._cofaces

    @property
    def dim(self) -> int:
        return len(self._groups) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self._groups)

    def facet_cofaces(self, simplex: Simplex) -> frozenset[Simplex]:
        return frozenset(self._cofaces[simplex])

    def _is_free(self, face: Simplex) -> bool:
        return len(self._cofaces.get(face, ())) == 1

    def smallest_free_face(self) -> tuple[Simplex, Simplex] | None:
        """The smallest (face, coface) pair whose face lies in exactly
        one strictly larger simplex, or None when there is none."""
        free = self._free
        while free:
            face, coface = free[0]
            if self._is_free(face):
                return face, coface
            heapq.heappop(free)
        return None

    def smallest_maximal_edge(self) -> Simplex | None:
        edges = self._groups[1] if len(self._groups) > 1 else ()
        return min((e for e in edges if not self._cofaces[e]), default=None)

    def freeze(self) -> SimplicialComplex:
        return SimplicialComplex(tuple(tuple(sorted(group)) for group in self._groups))

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
        for f in facets:
            if self._is_free(f):
                heapq.heappush(self._free, (f, next(iter(self._cofaces[f]))))

    def _excise(self, triangle: Iterable[str], aux: tuple[Simplex, ...]) -> MoveRecord:
        t = make_simplex(triangle)
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
        before = self.f_vector
        self._remove(coface, f)
        return MoveRecord(COLLAPSE, (f, coface), before, self.f_vector)


def remove_two_simplex(
    complex_: SimplicialComplex | WorkingComplex,
    triangle: Iterable[str],
    aux: tuple[Simplex, ...] = (),
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Delete one 2-simplex (its edges and vertices stay).  A
    WorkingComplex is changed in place and returned."""
    if isinstance(complex_, WorkingComplex):
        return complex_, complex_._excise(triangle, aux)
    t = make_simplex(triangle)
    if len(t) != 3 or t not in complex_:
        raise PreconditionError(f"{t} is not a 2-simplex of the complex")
    if complex_._facet_cofaces[t]:
        raise PreconditionError(f"{t} lies in a higher simplex; removing it would break closure")
    new = SimplicialComplex.from_simplices(s for s in complex_.all_simplices() if s != t)
    rec = MoveRecord(EXCISION, (t,), complex_.f_vector, new.f_vector, aux)
    return new, rec


def collapse_free_face(
    complex_: SimplicialComplex | WorkingComplex, face: Iterable[str]
) -> tuple[SimplicialComplex | WorkingComplex, MoveRecord]:
    """Elementary collapse: remove a free face and its unique coface.  A
    WorkingComplex is changed in place and returned."""
    if isinstance(complex_, WorkingComplex):
        return complex_, complex_._collapse(face)
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
    new = SimplicialComplex.from_simplices(
        s for s in complex_.all_simplices() if s not in removed
    )
    rec = MoveRecord(COLLAPSE, (f, coface), complex_.f_vector, new.f_vector)
    return new, rec


def _relabel(simplices: Iterable[Simplex], keep: str, drop: str) -> set[Simplex]:
    out = set()
    for s in simplices:
        if drop in s:
            s = tuple(sorted({keep if x == drop else x for x in s}))
        out.add(s)
    return out


def contract_edge(
    complex_: SimplicialComplex, edge: Iterable[str]
) -> tuple[SimplicialComplex, MoveRecord]:
    """Contract a maximal edge whose endpoints have no other connection.

    The edge must lie in no larger simplex, and removing it must
    disconnect its endpoints; otherwise the contraction would collapse
    an essential circle, which is exactly the configuration ruled out
    for complexes with cup-product regularity, so that case raises
    PropertyAViolationError.
    """
    e = make_simplex(edge)
    if len(e) != 2 or e not in complex_:
        raise NotFoundError(f"{e} is not an edge of the complex")
    if complex_._facet_cofaces[e]:
        raise PreconditionError(f"edge {e} is not maximal")
    a, b = e
    if complex_.path_exists(a, b, forbidden=e):
        raise PropertyAViolationError(
            f"endpoints of {e} remain connected without it; contracting would kill an essential circle"
        )
    keep, drop = e  # ascending, so keep is the smaller label
    new = SimplicialComplex.from_simplices(_relabel(complex_.all_simplices(), keep, drop))
    f0, f1 = complex_.f_vector, new.f_vector
    # contracting a lone segment leaves a point, so f1 may lack an edge entry
    g1 = f1 + (0,) * (len(f0) - len(f1))
    if g1[0] != f0[0] - 1 or g1[1] != f0[1] - 1 or g1[2:] != f0[2:]:
        raise InconsistencyError(f"contraction of {e} changed the f-vector unexpectedly: {f0} -> {f1}")
    rec = MoveRecord(CONTRACTION, (e,), f0, f1)
    return new, rec


def identify_vertices(
    complex_: SimplicialComplex, v: str, w: str
) -> tuple[SimplicialComplex, MoveRecord]:
    """Glue two non-adjacent vertices with vertex-disjoint links.

    Defined for complexes of dimension <= 2.  Under these hypotheses no
    simplices merge except the two vertices, so the quotient is again a
    simplicial complex with one vertex fewer.
    """
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
    # a vertex's neighbours are exactly the vertices of its link
    shared = sorted(set(complex_._adjacency[va]) & set(complex_._adjacency[vb]))
    if shared:
        raise PreconditionError(f"links of {va} and {vb} share vertices {shared}; they must be disjoint")
    keep, drop = sorted((va, vb))
    new = SimplicialComplex.from_simplices(_relabel(complex_.all_simplices(), keep, drop))
    f0, f1 = complex_.f_vector, new.f_vector
    if f1[0] != f0[0] - 1 or f1[1:] != f0[1:]:
        raise InconsistencyError(f"identification of {va},{vb} changed the f-vector unexpectedly: {f0} -> {f1}")
    rec = MoveRecord(IDENTIFICATION, ((keep,), (drop,)), f0, f1)
    return new, rec


def apply_move(complex_: SimplicialComplex, record: MoveRecord) -> SimplicialComplex:
    """Replay a recorded move; the complex must match the record's
    before state and the result must match its after state."""
    if complex_.f_vector != record.before_f:
        raise PreconditionError(
            f"complex f-vector {complex_.f_vector} does not match the record's {record.before_f}"
        )
    if record.kind == COLLAPSE:
        new, rec = collapse_free_face(complex_, record.simplices[0])
        if rec.simplices != record.simplices:
            raise InconsistencyError("collapse replay paired the face with a different coface")
    elif record.kind == CONTRACTION:
        new, _ = contract_edge(complex_, record.simplices[0])
    elif record.kind == EXCISION:
        new, _ = remove_two_simplex(complex_, record.simplices[0])
    elif record.kind == IDENTIFICATION:
        (keep,), (drop,) = record.simplices
        new, _ = identify_vertices(complex_, keep, drop)
    else:
        raise PreconditionError(f"unknown move kind {record.kind!r}")
    if new.f_vector != record.after_f:
        raise InconsistencyError("replayed move produced a different f-vector")
    return new
