"""Traced child process: runs the covertype CLI with spans around the
public functions of each layer, then writes the spans to a file.

    python tracer.py SPANS_OUT COVERTYPE_ARGS...

The covertype package must be importable (PYTHONPATH=src).  Each
function is wrapped in every covertype module that binds it, because
modules import functions by name (reduction, surfaces and cli each hold
their own reference to betti_numbers).  Spans are (name, start, end,
parent index) in memory; they are written once, when the command ends.
Nothing in the package itself is changed.

The parent turns spans into per-layer self times with layer_metrics().
"""

from __future__ import annotations

import json
import sys
import time

# Each traced function, as "<module>.<attribute>" (which is also its
# span name), and the per-layer metric its spans count toward.
SPAN_METRIC = {
    "gf2.rank": "gf2.rank",
    "gf2.kernel_basis": "gf2.kernel_basis",
    "gf2.image_basis": "gf2.image_basis",
    "gf2.solve": "gf2.solve",
    "gf2.subspace_intersection": "gf2.intersection",
    "homology.betti_numbers": "homology.betti",
    "homology.chain_data": "homology.chain_data",
    "homology.homology_basis": "homology.basis",
    "homology.surplus_cycle": "homology.surplus_cycle",
    "homology.h2_epi_witness": "homology.h2_epi_witness",
    "reduction.reduce_to_certificate": "reduction.pipeline_self",
    "reduction.excise_to_surface_homology": "reduction.excise",
    "reduction.collapse_all": "reduction.collapse",
    "reduction.eliminate_maximal_edges": "reduction.contract",
    "complexes.build_complex": "complexes.build",
    "complexes.remove_two_simplex": "complexes.move",
    "complexes.collapse_free_face": "complexes.move",
    "complexes.contract_edge": "complexes.move",
    "complexes.SimplicialComplex.free_faces": "complexes.free_faces",
    "cohomology.pairing_tensor": "cohomology.pairing_tensor",
    "cohomology.has_property_A": "cohomology.property_a",
    "cohomology.property_a_witness": "cohomology.property_a",
    "surfaces.check_closed_surface": "surfaces.check_closed_surface",
    "surfaces.classify_surface": "surfaces.classify_surface",
    "fileformat.parse_complex_file": "fileformat.parse",
    "fileformat.write_complex_file": "fileformat.write",
}

MOVES = {
    "complexes.remove_two_simplex": "reduction.excisions",
    "complexes.collapse_free_face": "reduction.collapses",
    "complexes.contract_edge": "reduction.contractions",
}


class Recorder:
    """Spans of one process, plus the shapes of the rank calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rank_shapes: list[tuple[int, int]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, package) -> list[str]:
        """Wrap each traced function wherever a covertype module binds
        it; returns the names that could not be found."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == package]
        missing = []
        for name in SPAN_METRIC:
            module_name, attr = name.split(".", 1)
            owner = sys.modules.get(f"{package}.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if module_name == "gf2" and attr == "rank":
                wrapper = self._shape_recording(wrapper)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing

    def _shape_recording(self, wrapper):
        shapes = self.rank_shapes

        def rank(m):
            shapes.append((m.rows, m.cols))
            return wrapper(m)

        return rank


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from covertype import cli
    from covertype.homology import chain_data

    import_s = time.perf_counter() - start
    recorder = Recorder()
    missing = recorder.install("covertype")
    code = recorder.wrap("cli.main", cli.main)(cli_args)
    sys.stdout.flush()
    info = chain_data.cache_info()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "missing": missing,
                "spans": recorder.spans,
                "rank_shapes": recorder.rank_shapes,
                "chain_data_hits": info.hits,
                "chain_data_misses": info.misses,
            },
            fh,
        )
    return code


def layer_metrics(records: list[tuple[dict, float]]) -> dict[str, float]:
    """Sum the spans of many traced processes into per-layer metrics:
    self time per layer ('_s'), call counts and rank shapes.  Each
    record comes with the factor that turns its times into reference
    seconds."""
    layers = {"cli.main", "cli.import", *SPAN_METRIC.values()}
    out: dict[str, float] = {f"{m}_s": 0.0 for m in layers}
    out.update({"gf2.rank_cells": 0, "gf2.rank_max_rows": 0, "gf2.rank_max_cols": 0})
    calls: dict[str, int] = {}
    hits = misses = 0
    for rec, scale in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child):
            metric = SPAN_METRIC.get(name, name)
            out[f"{metric}_s"] += (end - start - covered) * scale
            calls[name] = calls.get(name, 0) + 1
        out["cli.import_s"] += rec["import_s"] * scale
        for rows, cols in rec["rank_shapes"]:
            out["gf2.rank_cells"] += rows * cols
            out["gf2.rank_max_rows"] = max(out["gf2.rank_max_rows"], rows)
            out["gf2.rank_max_cols"] = max(out["gf2.rank_max_cols"], cols)
        hits += rec["chain_data_hits"]
        misses += rec["chain_data_misses"]
    out["gf2.rank_calls"] = calls.get("gf2.rank", 0)
    out["homology.betti_calls"] = calls.get("homology.betti_numbers", 0)
    out["homology.chain_data_misses"] = misses
    out["homology.chain_data_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cohomology.pairing_tensor_calls"] = calls.get("cohomology.pairing_tensor", 0)
    out["complexes.free_faces_calls"] = calls.get("complexes.SimplicialComplex.free_faces", 0)
    moves = 0
    for span, metric in MOVES.items():
        out[metric] = calls.get(span, 0)
        moves += out[metric]
    out["complexes.moves"] = moves
    out["reduction.betti_calls_per_move"] = out["homology.betti_calls"] / moves if moves else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
