"""Independent checks of the program's answers.

Expected values come from the known base space of each input, not from
the program under test.  Reduced complexes are re-read with the
benchmark's own parser, and their Betti numbers come from the
benchmark's own GF(2) rank.  Each check returns a list of problems; an
empty list means the answer is right.
"""

from __future__ import annotations

from inputs import Item, closure, f_vector, read_simplices


def rho(chi: int) -> int:
    """Least n with 2n - 7 >= 0 and (2n - 7)^2 >= 49 - 24*chi."""
    n = 4
    while (2 * n - 7) ** 2 < 49 - 24 * chi:
        n += 1
    return n


def surface_name(orientable: bool, genus: int) -> str:
    if orientable:
        return {0: "S^2", 1: "T^2"}.get(genus, f"M_{genus}")
    return "RP^2" if genus == 1 else f"N_{genus}"


def surface_chi(orientable: bool, genus: int) -> int:
    return 2 - 2 * genus if orientable else 2 - genus


def delta(orientable: bool, genus: int) -> int:
    """Minimum triangulation size (Jungerman-Ringel, with the three
    exceptions M_2, N_2 and N_3)."""
    exceptional = (orientable, genus) in ((True, 2), (False, 2), (False, 3))
    return rho(surface_chi(orientable, genus)) + exceptional


def covering_type(orientable: bool, genus: int) -> int:
    return 9 if (orientable, genus) == (True, 2) else delta(orientable, genus)


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bit-packed rows, by a pivot per leading bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def betti_numbers(by_dim) -> tuple[int, ...]:
    """Mod-2 Betti numbers from the full boundary matrices."""
    order = [sorted(by_dim[n]) for n in range(len(by_dim))]
    index = [{s: i for i, s in enumerate(group)} for group in order]
    ranks = [0] * (len(order) + 1)
    for n in range(1, len(order)):
        rows = []
        for s in order[n]:
            bits = 0
            for i in range(len(s)):
                bits |= 1 << index[n - 1][s[:i] + s[i + 1 :]]
            rows.append(bits)
        ranks[n] = gf2_rank(rows)
    return tuple(len(order[n]) - ranks[n] - ranks[n + 1] for n in range(len(order)))


def parse_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _expect(fields, expected: dict[str, str]) -> list[str]:
    problems = []
    for key, want in expected.items():
        got = fields.get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, want {want!r}")
    return problems


def _ints(values) -> str:
    return " ".join(str(v) for v in values)


def _exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, want {want}"]


def check_homology(item: Item, code: int, fields) -> list[str]:
    base = item.base
    return _exit(code, 0) + _expect(
        fields,
        {
            "command": "homology",
            "sha256": item.sha256,
            "f_vector": _ints(item.f_vector),
            "chi": str(base.chi),
            "betti": _ints(base.betti),
        },
    )


def check_property_a(item: Item, code: int, fields) -> list[str]:
    base = item.base
    problems = _exit(code, 0 if base.property_a else 1) + _expect(
        fields,
        {
            "command": "property-a",
            "sha256": item.sha256,
            "b1": str(base.betti[1]),
            "b2": str(base.betti[2]),
            "property_a": "true" if base.property_a else "false",
        },
    )
    if not base.property_a and not fields.get("witness"):
        problems.append("no witness for a failing property A")
    return problems


def check_surface(item: Item, code: int, fields) -> list[str]:
    base = item.base
    common = {"command": "surface", "sha256": item.sha256}
    if base.surface is None:
        problems = _exit(code, 1) + _expect(fields, {**common, "verdict": "false"})
        if not any(k.startswith("bad_") or k == "components" for k in fields):
            problems.append("no witness for a failing closed-surface check")
        return problems
    orientable, genus = base.surface
    chi = surface_chi(orientable, genus)
    return _exit(code, 0) + _expect(
        fields,
        {
            **common,
            "verdict": "true",
            "class": surface_name(orientable, genus),
            "orientable": "true" if orientable else "false",
            "genus": str(genus),
            "chi": str(chi),
            "rho": str(rho(chi)),
            "delta": str(delta(orientable, genus)),
            "covering_type": str(covering_type(orientable, genus)),
        },
    )


def check_reduce(item: Item, code: int, fields, out_bytes: bytes | None) -> list[str]:
    """The reported certificate, the move counts the thickening forces,
    and the reduced complex written to the output file."""
    base = item.base
    orientable, genus = base.surface
    chi = surface_chi(orientable, genus)
    expected = {
        "command": "reduce",
        "sha256": item.sha256,
        "surface": surface_name(orientable, genus),
        "betti": _ints(base.betti),
        "chi": str(chi),
        "rho": str(rho(chi)),
        "triangles_cover_edges": "true",
        "simple_graph_bound": "true",
        "euler_vertex_bound": "true",
        "property_a_final": "true",
        # each solid tetrahedron adds exactly one surplus 2-cycle
        "excisions": str(item.tetrahedra),
    }
    if item.flaps or item.dunce_hats:
        # a flap goes in two collapses; a bridge edge is the only maximal edge of its hat
        expected["collapses"] = str(2 * item.flaps)
        expected["contractions"] = str(item.dunce_hats)
    problems = _exit(code, 0) + _expect(fields, expected)
    if out_bytes is None:
        return problems + ["no output file"]
    simplices = read_simplices(out_bytes.decode("utf-8"))
    if any(len(s) != 3 for s in simplices):
        problems.append("output is not pure 2-dimensional")
    by_dim = closure(simplices)
    if len(by_dim) != 3:
        return problems + [f"output has dimension {len(by_dim) - 1}"]
    counts = dict.fromkeys(by_dim[1], 0)
    for t in by_dim[2]:
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            counts[e] += 1
    if min(counts.values()) < 2:
        problems.append("output has an edge in fewer than two triangles")
    f = f_vector(by_dim)
    if f[0] - f[1] + f[2] != chi:
        problems.append(f"output f-vector {f} does not have chi {chi}")
    if _ints(f) != fields.get("final_f_vector"):
        problems.append(f"output f-vector {f} differs from the reported one")
    if f[0] < rho(chi):
        problems.append(f"output has {f[0]} vertices, below rho = {rho(chi)}")
    found = betti_numbers(by_dim)
    if found != base.betti:
        problems.append(f"output Betti numbers {found}, want {base.betti}")
    return problems


def check_bounds(code: int, fields) -> list[str]:
    return _exit(code, 0) + _expect(
        fields, {"command": "bounds", "chi": "0", "rho": str(rho(0))}
    )

