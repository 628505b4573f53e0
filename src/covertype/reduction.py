"""The homotopy-preserving reduction pipeline and its certificate.

Given a complex whose homology (and cup structure) matches a closed
surface, the pipeline excises surplus 2-cycles from the 2-skeleton,
collapses free faces, and contracts maximal edges, logging every move
with the Betti numbers after each step.  The final complex is pure
2-dimensional with no free faces, so counting arguments on its f-vector
certify the vertex lower bound rho for anything homotopy equivalent to
the surface.  The final complex's cup squares then decide whether the
surface is orientable, and a declared class of the other kind is
refused.

Each stage applies its moves in place to a WorkingComplex through the
entry points in complexes, which return the engine's MoveRecords, and
takes a frozen SimplicialComplex snapshot only at its end; the next
stage starts from that snapshot.  Every recorded Betti entry is exact by a rule
below, stated once in _betti_after and checked by every ReductionTrace: a
witness the engine checks as it makes the move, as apply_move does on a replay.

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

Invariants are computed once per complex object (per_complex): a stage
reads the Betti numbers and property A its predecessor found for the
snapshot it was handed, e.g. the contraction gate those of collapse.
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
    "collapse_all",
    "eliminate_maximal_edges",
    "excise_to_surface_homology",
    "reduce_to_certificate",
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
    """Replayable log of a reduction run, which must compose: f-vectors
    from initial_f through the moves to final_f, and each Betti entry the
    _betti_after of the one before it.

    betti_steps[0] holds the Betti numbers of the initial complex and
    betti_steps[i] those after the i-th move (one more entry than there
    are moves).  property_a_final is None for the excision stage.
    """

    initial_f: tuple[int, ...]
    final_f: tuple[int, ...]
    moves: tuple[MoveRecord, ...]
    betti_steps: tuple[tuple[int, ...], ...]
    property_a_final: bool | None

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


def _concat_traces(first: ReductionTrace, second: ReductionTrace) -> ReductionTrace:
    return ReductionTrace(
        first.initial_f,
        second.final_f,
        first.moves + second.moves,
        first.betti_steps + second.betti_steps[1:],
        second.property_a_final,
    )


class _Run:
    """A reduction in progress: the working complex, the moves and Betti
    entries recorded so far, and the last snapshot whose Betti numbers
    are known to be the tracked ones (None after a move)."""

    def __init__(self, start: SimplicialComplex, betti: tuple[int, ...] | None = None):
        self.work = WorkingComplex(start)
        self.initial_f = start.f_vector
        self.moves: list[MoveRecord] = []
        self.betti_steps = [betti_numbers(start) if betti is None else betti]
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

    def trace(self, final: SimplicialComplex, property_a: bool | None) -> ReductionTrace:
        return ReductionTrace(
            self.initial_f, final.f_vector, tuple(self.moves), tuple(self.betti_steps), property_a
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


def collapse_all(complex_: SimplicialComplex) -> tuple[SimplicialComplex, ReductionTrace]:
    """Collapse free faces until none remain, lexicographically smallest
    face first.  Each elementary collapse is a homotopy equivalence, so
    the Betti numbers stay constant along the way.
    """
    run = _Run(complex_)
    run.collapse()
    final = run.snapshot()
    return final, run.trace(final, has_property_A(final))


def eliminate_maximal_edges(complex_: SimplicialComplex) -> tuple[SimplicialComplex, ReductionTrace]:
    """Contract maximal edges (and re-collapse) until none remain.

    Requires a complex with no free faces.  When the complex carries
    2-dimensional homology, cup-product regularity is checked up front:
    it is the hypothesis that makes every maximal edge contractible.
    Without 2-cycles every cup product vanishes and the check carries
    no information, so each edge is vetted only by the path test inside
    contract_edge, which raises PropertyAViolationError on failure.
    """
    run = _Run(complex_)
    if run.work.smallest_free_face() is not None:
        raise PreconditionError("eliminate_maximal_edges expects a complex with no free faces")
    if len(run.betti) > 2 and run.betti[2] >= 1 and not has_property_A(complex_):
        raise PreconditionError(
            "complex has 2-cycles but lacks cup-product regularity; contraction is not justified"
        )
    run.contract()
    final = run.snapshot()
    return final, run.trace(final, has_property_A(final))


def excise_to_surface_homology(complex_: SimplicialComplex) -> tuple[SimplicialComplex, ReductionTrace]:
    """Cut the 2-skeleton down to a single 2-cycle class.

    Requires b2 = 1.  While the 2-skeleton has extra second homology,
    delete the lowest triangle of a 2-cycle that bounds in the ambient
    complex, and record the cycle as evidence; each excision lowers b2
    by exactly one and leaves b0, b1 alone.  Afterwards a cycle
    generating H_2 of the ambient complex is re-homed inside the result
    as a final check.  The trace's property_a_final is None.
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
    return current, run.trace(current, None)


class BoundCertificate(Value):
    """Final f-vector of a reduction run plus the counting inequalities
    that turn it into the vertex lower bound rho.

    For a pure 2-complex with no free faces: every edge lies in at
    least two triangles (3*a2 >= 2*a1), the 1-skeleton is a simple
    graph (2*a1 <= a0*(a0-1)), and together with chi = a0 - a1 + a2
    these force 6*chi >= 6*a0 - a0*(a0-1), which is exactly the
    statement a0 >= rho(chi).
    """

    chi: int
    f_vector: tuple[int, int, int]
    rho: int

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
        if self.rho != rho(self.chi):
            raise InconsistencyError("certificate rho does not match its chi")
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


def _certify(
    final: SimplicialComplex, property_a: bool | None, surface: SurfaceClass, vertices: int
) -> BoundCertificate:
    """The certificate stage: a pure 2-dimensional final complex with no free faces,
    property A, cup squares that allow the surface and at most the input's vertices;
    BoundCertificate checks the surface's chi against the final f-vector."""
    if any(len(s) != 3 for s in final.maximal_simplices()):
        raise InconsistencyError("final complex is not pure 2-dimensional")
    if final.free_faces():
        raise InconsistencyError("final complex still has free faces")
    if not property_a:
        raise InconsistencyError("final complex lost cup-product regularity")
    # a -> a.a is linear over GF(2) and vanishes exactly on the
    # orientable surfaces; property A has built the tensor already
    tensor = pairing_tensor(final)
    squares = any(any(tensor.entries[i][i]) for i in range(tensor.b1))
    if squares == surface.orientable:
        found, kind = ("a", "orientable") if squares else ("no", "non-orientable")
        raise PreconditionError(
            f"the final complex has {found} nonzero cup square, which rules out the {kind} {surface.name}"
        )
    if final.f_vector[0] > vertices:
        raise InconsistencyError("reduction increased the vertex count")
    return BoundCertificate(surface.chi, final.f_vector, rho(surface.chi))


def reduce_to_certificate(
    complex_: SimplicialComplex, surface: SurfaceClass
) -> tuple[SimplicialComplex, ReductionTrace, BoundCertificate]:
    """Run the full pipeline against a declared surface class.

    Stages: homology-check (Betti numbers must match the surface),
    excision, collapse, contraction, certificate.  The certificate
    stage also reads the cup squares of the final complex, which keeps
    H^1 and the cup products into H^2: they vanish exactly when the
    surface is orientable, so a declared class of the other kind is
    refused.  Any stage error is re-raised as StageError naming the
    stage.
    """
    stage = "homology-check"
    try:
        actual = betti_numbers(complex_)
        if surface not in surfaces_with_betti(actual):
            expected = (1, 2 - surface.chi, 1)
            raise PreconditionError(
                f"Betti numbers {actual} do not match surface {surface.name} (expected {expected})"
            )

        stage = "excision"
        skeleton_complex, trace = excise_to_surface_homology(complex_)

        stage = "collapse"
        collapsed, collapse_trace = collapse_all(skeleton_complex)
        trace = _concat_traces(trace, collapse_trace)

        stage = "contraction"
        final, contract_trace = eliminate_maximal_edges(collapsed)
        trace = _concat_traces(trace, contract_trace)

        stage = "certificate"
        certificate = _certify(final, trace.property_a_final, surface, complex_.f_vector[0])
    except CoveringTypeError as err:
        raise StageError(stage, err) from err
    return final, trace, certificate
