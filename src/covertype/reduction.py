"""The homotopy-preserving reduction pipeline and its certificate.

Given a complex whose homology (and cup structure) matches a closed
surface, the pipeline excises surplus 2-cycles from the 2-skeleton,
collapses free faces, and contracts maximal edges, logging every move
with the Betti numbers after each step.  The final complex is pure
2-dimensional with no free faces, so counting arguments on its f-vector
certify the vertex lower bound rho for anything homotopy equivalent to
the surface.  The final complex's cup squares then name its class, here
and nowhere else (surface_from_cup_squares): the answer when none was
declared, and a declared class of the other kind is refused.

The stages continue one run (_Run) on one WorkingComplex: each applies
its moves in place through the entry points in complexes, which return
the engine's MoveRecords, and ends by freezing a SimplicialComplex
snapshot only to check it; the next stage goes on with the same working
complex, and the run's one trace covers every stage.  Every recorded
Betti entry is exact by a rule below, stated once in _betti_after and
checked by the ReductionTrace: a witness the engine checks as it makes
the move.  A trace is refused unless it composes, and the tests replay
every trace against independent references.

- Collapse of (f, c), dim f = k: c has no coface and f has no
  codimension-1 coface but c, so row f of d_(k+1) is a single 1 in
  column c and rank d_(k+1) falls by exactly 1; the boundary of f is
  the sum of the boundaries of the other facets of c, which stay, so
  rank d_k does not move.  The Betti numbers are unchanged (the top one, then 0,
  goes when c was the last simplex of its dimension).
- Excision of sigma with evidence z: d_2 z = 0, z lies on the current
  triangles and contains sigma, so column sigma of d_2 is a sum of
  other columns: rank d_2 stays and b_2 falls by 1.
- Contraction of a maximal edge ab: contract_edge refuses it when an
  edge path joins a and b without ab.  So no vertex neighbours both,
  no two simplices merge, and collapsing the contractible edge is a
  homotopy equivalence: the Betti numbers stay, as for a collapse.
- Seam: betti_numbers of the snapshot, recomputed from scratch, must equal
  the tracked numbers (the trace against the complex), else InconsistencyError.

The excisions are read off one canonical basis, the reduced-echelon
rows r_0, r_1, ... of im d_3 in the ambient complex, pivots ascending:
excision i deletes the pivot triangle of r_i, with r_i as its
evidence.  That is what the from-scratch search surplus_cycle picks at
each step: once the pivots of r_0..r_(i-1) are gone, the 2-cycles on
the remaining triangles that bound in the ambient complex are exactly
the span of r_i, r_(i+1), ..., whose reduced basis starts with r_i.
surplus_cycle itself runs once per excision stage, to check row 0.

Invariants are computed once per complex object (per_complex): the
contraction gate reads property A of the collapse seam's snapshot, and
the trace that of the last one.
"""

from __future__ import annotations

from .bounds import SurfaceClass, rho, surfaces_with_betti
from .cohomology import has_property_A, pairing_tensor
from .complexes import (
    SimplicialComplex,
    collapse_free_face,
    contract_edge,
    remove_two_simplex,
)
from .engine import COLLAPSE, CONTRACTION, EXCISION, MoveRecord, WorkingComplex
from .errors import (
    CoveringTypeError,
    InconsistencyError,
    PreconditionError,
    StageError,
)
from .gf2 import Gf2Vector, image_basis
from .homology import (
    betti_numbers,
    chain_data,
    chain_from_vector,
    h2_epi_witness,
    homology_basis,
    surplus_cycle,
)
from .value import Value

__all__ = [
    "ReductionTrace",
    "BoundCertificate",
    "reduce_to_certificate",
    "surface_from_cup_squares",
]


def _betti_after(move: MoveRecord, betti: tuple[int, ...]) -> tuple[int, ...]:
    """The Betti numbers after a reduction's move: an excision lowers b2 by one; a
    collapse or contraction keeps them, except that the top one, then 0, goes
    when the dimension drops.  An excision lowers b2 only with the cycle it
    breaks as evidence, and a reduction makes no other kind of move."""
    if move.kind == EXCISION:
        if not move.aux:
            raise InconsistencyError(f"excision of {move.simplices[0]} records no cycle")
        return betti[:2] + (betti[2] - 1,) + betti[3:]
    if move.kind not in (COLLAPSE, CONTRACTION):
        raise InconsistencyError(f"a reduction makes no {move.kind!r} move")
    if any(betti[len(move.after_f) :]):
        raise InconsistencyError(f"{move.kind} of {move.simplices[0]} dropped a dimension with homology")
    return betti[: len(move.after_f)]


class ReductionTrace(Value):
    """Replayable log of a reduction run, from the 2-skeleton through
    every stage to the final complex, which must compose: f-vectors from
    initial_f through the moves to final_f, and each Betti entry the
    _betti_after of the one before it.

    betti_steps[0] holds the Betti numbers of the initial complex and
    betti_steps[i] those after the i-th move (one more entry than there
    are moves).  property_a_final is property A of the final complex.
    """

    initial_f: tuple[int, ...]
    final_f: tuple[int, ...]
    moves: tuple[MoveRecord, ...]
    betti_steps: tuple[tuple[int, ...], ...]
    property_a_final: bool

    def _check(self) -> None:
        if len(self.betti_steps) != len(self.moves) + 1:
            raise InconsistencyError("trace needs one Betti entry per step plus the initial one")
        ends = (self.initial_f, *(m.after_f for m in self.moves))
        starts = (*(m.before_f for m in self.moves), self.final_f)
        if ends != starts:
            raise InconsistencyError("traces do not compose: f-vectors disagree at the seam")
        for move, before, after in zip(self.moves, self.betti_steps, self.betti_steps[1:]):
            if _betti_after(move, before) != after:
                raise InconsistencyError(
                    f"{move.kind} of {move.simplices[0]} takes the Betti numbers {before} to {after}"
                )

    def move_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for m in self.moves:
            counts[m.kind] = counts.get(m.kind, 0) + 1
        return counts


class _Run:
    """A reduction in progress, which every stage continues: the working
    complex, the moves and Betti entries recorded so far, and the last
    snapshot whose Betti numbers are known to be the tracked ones (None
    after a move).  betti is the start's Betti numbers."""

    def __init__(self, start: SimplicialComplex, betti: tuple[int, ...]):
        self.work = WorkingComplex(start)
        self.initial_f = start.f_vector
        self.moves: list[MoveRecord] = []
        self.betti_steps = [betti]
        self._snapshot = start

    @property
    def betti(self) -> tuple[int, ...]:
        return self.betti_steps[-1]

    def _record(self, record: MoveRecord) -> None:
        self.moves.append(record)
        self.betti_steps.append(_betti_after(record, self.betti))
        self._snapshot = None

    def snapshot(self) -> SimplicialComplex:
        """Freeze the working complex at a seam and check the tracked
        Betti numbers against it from scratch."""
        if self._snapshot is None:
            frozen = self.work.freeze()
            actual = betti_numbers(frozen)
            if actual != self.betti:
                raise InconsistencyError(
                    f"tracked Betti numbers {self.betti} differ from the recomputed {actual}"
                )
            self._snapshot = frozen
        return self._snapshot

    def trace(self) -> ReductionTrace:
        """The whole run so far, up to its checked snapshot."""
        final = self.snapshot()
        return ReductionTrace(
            self.initial_f, final.f_vector, tuple(self.moves), tuple(self.betti_steps),
            has_property_A(final),
        )

    def excise(self, ambient: SimplicialComplex, basis: list[Gf2Vector]) -> None:
        """Delete the pivot triangle of each basis row of im d_3, with the
        row as evidence, which the engine checks is a 2-cycle on the
        current triangles."""
        data = chain_data(ambient)
        for z in basis:
            cycle = chain_from_vector(data, 2, z)
            self._record(remove_two_simplex(self.work, cycle[0], aux=cycle)[1])

    def collapse(self) -> None:
        """Collapse free faces until none remain, smallest pair first."""
        while (pair := self.work.smallest_free_face()) is not None:
            self._record(collapse_free_face(self.work, pair[0])[1])

    def contract(self) -> None:
        """Contract maximal edges, smallest first, and re-collapse after
        each, until none remain."""
        while (edge := self.work.smallest_maximal_edge()) is not None:
            self._record(contract_edge(self.work, edge)[1])
            self.collapse()


def collapse_all(run: _Run) -> SimplicialComplex:
    """Collapse free faces of the run's complex until none remain,
    lexicographically smallest face first, and return the checked
    snapshot.  Each elementary collapse is a homotopy equivalence, so
    the Betti numbers stay constant along the way.
    """
    run.collapse()
    return run.snapshot()


def eliminate_maximal_edges(run: _Run) -> SimplicialComplex:
    """Contract maximal edges of the run's complex (and re-collapse)
    until none remain, and return the checked snapshot.

    Requires a complex with no free faces.  When the complex carries
    2-dimensional homology, cup-product regularity is checked up front:
    it is the hypothesis that makes every maximal edge contractible.
    Without 2-cycles every cup product vanishes and the check carries
    no information, so each edge is vetted only by the path test inside
    contract_edge, which raises PropertyAViolationError on failure.
    """
    if run.work.smallest_free_face() is not None:
        raise PreconditionError("eliminate_maximal_edges expects a complex with no free faces")
    if len(run.betti) > 2 and run.betti[2] >= 1 and not has_property_A(run.snapshot()):
        raise PreconditionError(
            "complex has 2-cycles but lacks cup-product regularity; contraction is not justified"
        )
    run.contract()
    return run.snapshot()


def excise_to_surface_homology(complex_: SimplicialComplex) -> _Run:
    """Start a run at the 2-skeleton and cut it down to a single 2-cycle class.

    Requires b2 = 1.  While the 2-skeleton has extra second homology,
    delete the lowest triangle of a 2-cycle that bounds in the ambient
    complex, and record the cycle as evidence; each excision lowers b2
    by exactly one and leaves b0, b1 alone.  Afterwards a cycle
    generating H_2 of the ambient complex is re-homed inside the checked
    snapshot as a final check, and the run is returned.
    """
    ambient_betti = betti_numbers(complex_)
    if len(ambient_betti) < 3 or ambient_betti[2] != 1:
        raise PreconditionError(
            f"excision expects one-dimensional H_2, found Betti numbers {ambient_betti}"
        )
    skeleton = complex_.skeleton(2)
    basis = image_basis(chain_data(complex_).boundary_matrix(3))
    if basis:
        # with every triangle kept, the from-scratch search must pick row 0
        triangles = skeleton.simplices(2)
        first = tuple(triangles[i] for i in basis[0].support())
        if surplus_cycle(complex_, triangles) != (first, first[0]):
            raise InconsistencyError("the surplus-cycle search and the im d_3 basis disagree")
    b0, b1, b2 = ambient_betti[:3]
    # rank d_3 = len(basis), so the skeleton has that many more 2-cycles;
    # with no 3-simplex the skeleton is the complex itself
    run = _Run(skeleton, (b0, b1, b2 + len(basis)))
    run.excise(complex_, basis)
    current = run.snapshot()
    generator = homology_basis(complex_, 2)[0]
    if h2_epi_witness(complex_, current, generator) is None:
        raise InconsistencyError(
            "no cycle inside the excised skeleton represents the ambient H_2 generator"
        )
    return run


class BoundCertificate(Value):
    """Surface class and final f-vector of a reduction run plus the
    counting inequalities that turn them into the vertex lower bound rho.

    For a pure 2-complex with no free faces: every edge lies in at
    least two triangles (3*a2 >= 2*a1), the 1-skeleton is a simple
    graph (2*a1 <= a0*(a0-1)), and together with chi = a0 - a1 + a2
    these force 6*chi >= 6*a0 - a0*(a0-1), which is exactly the
    statement a0 >= rho(chi).  chi and rho are read off the class.
    """

    surface: SurfaceClass
    f_vector: tuple[int, int, int]

    @property
    def chi(self) -> int:
        return self.surface.chi

    @property
    def rho(self) -> int:
        return rho(self.chi)

    @property
    def triangles_cover_edges(self) -> bool:
        return 3 * self.f_vector[2] >= 2 * self.f_vector[1]

    @property
    def simple_graph_bound(self) -> bool:
        a0, a1 = self.f_vector[0], self.f_vector[1]
        return 2 * a1 <= a0 * (a0 - 1)

    @property
    def euler_vertex_bound(self) -> bool:
        a0 = self.f_vector[0]
        return 6 * self.chi >= 6 * a0 - a0 * (a0 - 1)

    def _check(self) -> None:
        a0, a1, a2 = self.f_vector
        if a0 - a1 + a2 != self.chi:
            raise InconsistencyError("certificate f-vector does not have the declared chi")
        for label, ok in (
            ("3*a2 >= 2*a1", self.triangles_cover_edges),
            ("2*a1 <= a0*(a0-1)", self.simple_graph_bound),
            ("6*chi >= 6*a0 - a0*(a0-1)", self.euler_vertex_bound),
        ):
            if not ok:
                raise InconsistencyError(f"certificate inequality {label} fails for {self.f_vector}")
        if a0 < self.rho:
            raise InconsistencyError(
                f"final complex has {a0} vertices, below the bound rho = {self.rho}"
            )


def surface_from_cup_squares(complex_: SimplicialComplex) -> SurfaceClass:
    """The class the complex's cup squares pick, for b1 its first Betti
    number: M_(b1/2) when every square a.a vanishes, else N_b1.  a -> a.a
    is linear over GF(2) and vanishes exactly on the orientable closed
    surfaces (Wu's formula), so a basis of H^1 decides it.  With b2 = 1
    and property A the pairing is nondegenerate, and then zero squares
    make it alternating, of even rank: an odd b1 always gets N_b1."""
    tensor = pairing_tensor(complex_)
    if any(any(tensor.entries[i][i]) for i in range(tensor.b1)):
        return SurfaceClass(False, tensor.b1)
    return SurfaceClass(True, tensor.b1 // 2)


def _certify(
    final: SimplicialComplex, property_a: bool, surface: SurfaceClass | None, vertices: int
) -> BoundCertificate:
    """The certificate stage: a pure 2-dimensional final complex with no free faces,
    property A, at most the input's vertices and cup squares that name the class
    or allow the declared one; BoundCertificate checks its chi against the final
    f-vector."""
    if any(len(s) != 3 for s in final.maximal_simplices()):
        raise InconsistencyError("final complex is not pure 2-dimensional")
    if final.free_faces():
        raise InconsistencyError("final complex still has free faces")
    if not property_a:
        raise InconsistencyError("final complex lost cup-product regularity")
    # property A has built the pairing tensor already
    found = surface_from_cup_squares(final)
    if surface is None:
        surface = found
    elif found.orientable != surface.orientable:
        some, kind = ("a", "orientable") if surface.orientable else ("no", "non-orientable")
        raise PreconditionError(
            f"the final complex has {some} nonzero cup square, which rules out the {kind} {surface.name}"
        )
    if final.f_vector[0] > vertices:
        raise InconsistencyError("reduction increased the vertex count")
    return BoundCertificate(surface, final.f_vector)


def reduce_to_certificate(
    complex_: SimplicialComplex, surface: SurfaceClass | None = None
) -> tuple[SimplicialComplex, ReductionTrace, BoundCertificate]:
    """Run the full pipeline against a declared surface class, or none.

    Stages: homology-check (Betti numbers must match the surface, or
    some closed surface when none is declared), excision, collapse,
    contraction, certificate.  The certificate stage also reads the cup
    squares of the final complex, which keeps H^1 and the cup products
    into H^2: they vanish exactly when the surface is orientable, so
    they name the class when none is declared and refuse a declared
    class of the other kind.  Excision, collapse and contraction
    continue one run, whose trace covers all three.  Any stage error is
    re-raised as StageError naming the stage.
    """
    stage = "homology-check"
    try:
        actual = betti_numbers(complex_)
        candidates = surfaces_with_betti(actual)
        if surface is None:
            if not candidates:
                raise PreconditionError(f"Betti numbers {actual} match no closed surface")
        elif surface not in candidates:
            expected = (1, 2 - surface.chi, 1)
            raise PreconditionError(
                f"Betti numbers {actual} do not match surface {surface.name} (expected {expected})"
            )

        stage = "excision"
        run = excise_to_surface_homology(complex_)

        stage = "collapse"
        collapse_all(run)

        stage = "contraction"
        final = eliminate_maximal_edges(run)
        trace = run.trace()

        stage = "certificate"
        certificate = _certify(final, trace.property_a_final, surface, complex_.f_vector[0])
    except CoveringTypeError as err:
        raise StageError(stage, err) from err
    return final, trace, certificate
