"""End-to-end acceptance checks.

Each test records one PASS/FAIL line and then asserts on it; the
conftest terminal-summary hook re-emits the collected lines after the
run so they are visible even under output capture."""

from __future__ import annotations

import itertools
import random
import time

import pytest

import covertype as ct
from covertype import gf2
from covertype.cli import main as cli_main
from covertype.cohomology import (
    Cochain,
    coboundary_matrix,
    h1_cocycle_basis,
)
from covertype.engine import COLLAPSE, CONTRACTION, EXCISION
from covertype.homology import chain_data, chain_vector, homology_basis
from covertype.reduction import reduce_to_certificate
from covertype.surfaces import SurfaceClass, classify_surface, check_closed_surface

from helpers import (
    dunce_hat,
    package_cup,
    random_small_complex,
    randomized_thickening,
    replay_from_scratch,
)
from oracles import betti_oracle, cup_reference, rho_scan, vector_dot


RESULTS: list[str] = []


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def run_cli(capsys, *argv):
    start = time.perf_counter()
    code = cli_main([str(a) for a in argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    return code, fields, elapsed


def write_bundled(tmp_path, name):
    p = tmp_path / f"{name}.cplx"
    p.write_text(ct.bundled_text(name), encoding="utf-8")
    return p


BOUNDS_EXPECTED = [
    ("S2", "S^2", 2, 4, 4, 4),
    ("RP2", "RP^2", 1, 6, 6, 6),
    ("T2", "T^2", 0, 7, 7, 7),
    ("N2", "N_2", 0, 7, 8, 8),
    ("N3", "N_3", -1, 8, 9, 9),
    ("M2", "M_2", -2, 9, 10, 9),
    ("M3", "M_3", -4, 10, 10, 10),
]


def test_criterion_1_bounds_table(capsys):
    """The rho/delta/covering-type table through the CLI, with rho
    cross-checked against an integer-scan oracle."""
    worst = 0.0
    for arg, name, chi, r, d, c in BOUNDS_EXPECTED:
        code, fields, elapsed = run_cli(capsys, "--machine", "bounds", "--surface", arg)
        worst = max(worst, elapsed)
        assert code == 0
        assert fields["surface"] == name
        assert int(fields["chi"]) == chi
        assert int(fields["rho"]) == r == rho_scan(chi)
        assert int(fields["delta"]) == d
        assert int(fields["covering_type"]) == c
        # the chi-only form must agree
        code, fields, elapsed = run_cli(capsys, "--machine", "bounds", "--chi", chi)
        worst = max(worst, elapsed)
        assert code == 0 and int(fields["rho"]) == r
    assert worst < 1.0
    report(1, True, f"7 surfaces, rho/delta/covering type as tabled, max {worst:.3f}s per call")


def test_criterion_2_construct_m2(tmp_path, capsys):
    """The 9-vertex genus-2 model built end to end through the CLI."""
    source = write_bundled(tmp_path, "genus2_10")
    out_path = tmp_path / "m2_out.cplx"
    code, fields, elapsed = run_cli(capsys, "--machine", "construct-m2", source, out_path)
    assert code == 0
    assert fields["f_vector"] == "9 36 25"
    assert fields["betti"] == "1 4 1"
    assert fields["property_a"] == "true"
    assert fields["closed_surface"] == "false"
    built = ct.parse_complex_file(out_path).complex()
    assert len(built.vertices) == 9
    assert built.euler_characteristic() == -2
    assert ct.betti_numbers(built) == (1, 4, 1)
    assert ct.has_property_A(built)
    assert not check_closed_surface(built).verdict
    assert elapsed < 1.0
    report(2, True, f"9 vertices, chi -2, betti (1, 4, 1), property A, in {elapsed:.3f}s")


def enumerate_twofold_triangle_systems(budget_seconds=600.0):
    """All 14-triangle subsets of K_7 covering every edge exactly twice.

    Branches on the first edge with unmet demand and completes its
    demand in all compatible ways, so each system is produced once.
    Returns (systems, exhaustive); stops early only past the budget.
    """
    verts = "1234567"
    tris = list(itertools.combinations(verts, 3))
    edges = list(itertools.combinations(verts, 2))
    eidx = {e: i for i, e in enumerate(edges)}
    tri_edges = [
        [eidx[(t[0], t[1])], eidx[(t[0], t[2])], eidx[(t[1], t[2])]] for t in tris
    ]
    edge_tris = [[] for _ in edges]
    for ti, te in enumerate(tri_edges):
        for e in te:
            edge_tris[e].append(ti)
    need = [2] * len(edges)
    chosen: list[int] = []
    chosen_set: set[int] = set()
    systems: list[tuple[int, ...]] = []
    deadline = time.monotonic() + budget_seconds
    exhausted = True

    def rec():
        nonlocal exhausted
        if time.monotonic() > deadline:
            exhausted = False
            return
        edge = next((i for i, n in enumerate(need) if n > 0), None)
        if edge is None:
            systems.append(tuple(sorted(chosen)))
            return
        candidates = [
            t
            for t in edge_tris[edge]
            if t not in chosen_set and all(need[f] > 0 for f in tri_edges[t])
        ]
        for combo in itertools.combinations(candidates, need[edge]):
            tally: dict[int, int] = {}
            feasible = True
            for t in combo:
                for f in tri_edges[t]:
                    tally[f] = tally.get(f, 0) + 1
                    if tally[f] > need[f]:
                        feasible = False
                        break
                if not feasible:
                    break
            if not feasible:
                continue
            for t in combo:
                chosen.append(t)
                chosen_set.add(t)
                for f in tri_edges[t]:
                    need[f] -= 1
            rec()
            for t in combo:
                chosen.pop()
                chosen_set.discard(t)
                for f in tri_edges[t]:
                    need[f] += 1

    rec()
    return [tuple(tris[t] for t in s) for s in set(systems)], exhausted


def test_criterion_3_twofold_triangle_systems():
    """Every twofold triangle system on 7 points is a torus."""
    systems, exhaustive = enumerate_twofold_triangle_systems()
    assert systems, "enumeration found nothing"
    torus = SurfaceClass(True, 1)
    for faces in systems:
        k = ct.build_complex(faces)
        assert k.f_vector == (7, 21, 14)
        assert check_closed_surface(k).verdict
        assert classify_surface(k) == torus
    assert exhaustive, "enumeration ran out of budget; result would be a sample only"
    assert len(systems) == 120
    mode = "exhaustive" if exhaustive else "sampled"
    report(
        3,
        True,
        f"{len(systems)} systems ({mode} enumeration), all orientable 7-vertex tori;"
        " no 7-vertex twofold system is a Klein bottle",
    )


def verify_trace(complex_, trace, certificate, surface):
    """Re-check every recorded step of a reduction run from the trace
    data, then replay it from scratch (helpers.replay_from_scratch)."""
    assert trace.initial_f == complex_.skeleton(2).f_vector
    if trace.moves:
        assert trace.moves[0].before_f == trace.initial_f
        assert trace.moves[-1].after_f == trace.final_f
    for first, second in zip(trace.moves, trace.moves[1:]):
        assert first.after_f == second.before_f

    def padded(b):
        return b + (0,) * (3 - len(b)) if len(b) < 3 else b

    for i, move in enumerate(trace.moves):
        prev, cur = padded(trace.betti_steps[i]), padded(trace.betti_steps[i + 1])
        if move.kind == EXCISION:
            assert cur[:2] == prev[:2] and cur[2] == prev[2] - 1
            assert move.aux, "excision must record its justifying cycle"
        elif move.kind in (COLLAPSE, CONTRACTION):
            assert cur == prev
        else:
            raise AssertionError(f"unexpected move kind {move.kind}")

    a0, a1, a2 = certificate.f_vector
    assert a0 - a1 + a2 == certificate.chi == surface.chi
    assert 3 * a2 >= 2 * a1
    assert 2 * a1 <= a0 * (a0 - 1)
    assert 6 * certificate.chi >= 6 * a0 - a0 * (a0 - 1)
    assert certificate.rho == rho_scan(certificate.chi)
    assert a0 >= certificate.rho
    assert trace.property_a_final
    assert replay_from_scratch(complex_, trace).f_vector == certificate.f_vector


def test_criterion_4_randomized_pipeline_runs():
    """At least 50 randomized thickenings reduced with every recorded
    step re-verified, replayed and recomputed from scratch, and every
    certificate inequality re-checked."""
    runs = 0
    for seed in range(50):
        k, surface, log = randomized_thickening(seed)
        final, trace, certificate = reduce_to_certificate(k, surface)
        verify_trace(k, trace, certificate, surface)
        assert final.f_vector == trace.final_f, log
        runs += 1
    report(4, runs >= 50, f"{runs} reductions, all step invariants and certificates verified")


def test_criterion_5_betti_against_dense_oracle():
    """The packed Betti computation agrees with dense elimination on
    every small-corpus complex."""
    corpus = [ct.load_bundled(name) for name in ct.bundled_names()]
    corpus.append(dunce_hat())
    rng = random.Random(1405)
    corpus.extend(random_small_complex(rng) for _ in range(50))
    for seed in range(10):
        corpus.append(randomized_thickening(seed)[0])
    checked = 0
    for k in corpus:
        if len(k.vertices) > 12:
            continue
        assert ct.betti_numbers(k) == betti_oracle(k)
        checked += 1
    report(5, checked >= 50, f"{checked} complexes with <= 12 vertices, all Betti numbers agree")


def test_criterion_6_pairing_is_class_level():
    """1000 random coboundary perturbations never move a pairing value,
    by the package's cup table or by the oracle's cup product."""
    pool = []
    for name in (
        "projective_plane_6",
        "torus_7",
        "klein_bottle_8",
        "nonorientable_genus3_9",
        "genus2_10",
        "m2_homotopy_9",
        "torus_wedge_circle_9",
    ):
        k = ct.load_bundled(name)
        data = chain_data(k)
        pool.append(
            (
                k,
                h1_cocycle_basis(k),
                [chain_vector(data, 2, z) for z in homology_basis(k, 2)],
                coboundary_matrix(k, 0),
            )
        )
    rng = random.Random(606)
    agreed = 0
    for _ in range(1000):
        k, basis, cycles, delta0 = rng.choice(pool)
        n1 = len(k.simplices(1))
        combo = gf2.Gf2Vector(n1, 0)
        for rep in basis:
            if rng.getrandbits(1):
                combo = combo + rep.values
        f = gf2.Gf2Vector(delta0.cols, rng.getrandbits(delta0.cols))
        alpha = Cochain(1, combo + delta0 @ f)
        g = gf2.Gf2Vector(delta0.cols, rng.getrandbits(delta0.cols))
        perturbed = Cochain(1, alpha.values + delta0 @ g)
        same = True
        for cup in (package_cup, cup_reference):
            for beta in basis:
                for z in cycles:
                    left = vector_dot(cup(k, alpha, beta), z)
                    right = vector_dot(cup(k, perturbed, beta), z)
                    mirrored_left = vector_dot(cup(k, beta, alpha), z)
                    mirrored_right = vector_dot(cup(k, beta, perturbed), z)
                    if left != right or mirrored_left != mirrored_right:
                        same = False
        agreed += same
    report(6, agreed == 1000, f"{agreed}/1000 perturbed cocycles left every pairing unchanged")


def test_criterion_7_tight_instances():
    """The three surfaces whose minimal triangulations meet the counting
    bound with equality, certified end to end."""
    tight = [
        ("sphere_4", SurfaceClass(True, 0)),
        ("projective_plane_6", SurfaceClass(False, 1)),
        ("torus_7", SurfaceClass(True, 1)),
    ]
    for name, surface in tight:
        k = ct.load_bundled(name)
        final, trace, certificate = reduce_to_certificate(k, surface)
        a0 = certificate.f_vector[0]
        assert 6 * certificate.chi == 6 * a0 - a0 * (a0 - 1)
        assert a0 == certificate.rho == rho_scan(certificate.chi)
        assert final == k
    report(7, True, "sphere_4, projective_plane_6, torus_7 all attain 6*chi = 6*a0 - a0*(a0-1)")
