"""Benchmark of the covertype command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop with
one client: one invocation at a time, each a fresh
`python -m covertype --machine ...` process, as a CLI user runs it.
Inputs are generated from the seed (inputs.py) and handed to the
program as .cplx files.  Every answer is checked afterwards by
independent means (check.py), outside the timed region.

With --trace 0 the run reports the end-to-end metrics; with --trace 1
each child runs through tracer.py and the run reports per-layer
metrics, the tracing overhead, and a self-test of which layers worked
on this workload.  The last line of stdout is one JSON object; a fuller
record goes to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9  # no-work invocations per run; setup_s is their median
HARD_LIMIT_S = 150.0  # invocations still pending then count as timed out
INVOCATION_TIMEOUT_S = 60.0
OUT = "{out}"  # stands for the output file in the arguments of `reduce`
# Median probe() time at the commit that added the benchmark (Python
# 3.11, 2-core VM).  Times are reported in reference seconds: each
# invocation's time is scaled by PROBE_REF_S over the mean of the probes
# just before and just after it.  The machine's speed drifts by +-30%
# over tens of seconds, and the probe follows the drift, so runs made
# while the machine is slower or faster stay comparable.
PROBE_REF_S = 0.0311


@dataclass
class Invocation:
    """One CLI call on a generated input (none for the setup call)."""

    args: list[str]
    item: inputs.Item | None = None

    @property
    def label(self) -> str:
        return f"{self.args[0]} {self.item.base.name}" if self.item else " ".join(self.args)


@dataclass
class Result:
    invocation: Invocation
    seconds: float  # spawn to exit
    max_rss_kb: int
    code: int  # -1 when it timed out
    stdout: Path
    output: Path | None
    trace: Path | None
    scale: float = 1.0  # to reference seconds
    problems: list[str] = field(default_factory=list)

    @property
    def ref_s(self) -> float:
        return self.seconds * self.scale


@dataclass
class Pass:
    """One run through an invocation list."""

    results: list[Result]
    probes: list[float]  # before each invocation, and one after the last

    @property
    def wall_s(self) -> float:
        """Reference seconds of the whole list, spawn to exit of each call."""
        return sum(r.ref_s for r in self.results)


def query_sd2(seed: int, work: Path) -> tuple[list[inputs.Item], list[Invocation]]:
    items = inputs.second_subdivisions(seed, work)
    commands = ("homology", "property-a", "surface")
    return items, [Invocation([c, str(i.path)], i) for i in items for c in commands]


def _reduce(items: list[inputs.Item]) -> tuple[list[inputs.Item], list[Invocation]]:
    calls = []
    for item in items:
        name = check.surface_name(*item.base.surface).replace("^", "").replace("_", "")
        calls.append(Invocation(["reduce", str(item.path), OUT, "--surface", name], item))
    return items, calls


WORKLOADS = {
    "query-sd2": query_sd2,
    "reduce-excise": lambda seed, work: _reduce(inputs.glued_tetrahedra(seed, work)),
    "reduce-collapse": lambda seed, work: _reduce(inputs.flaps_and_dunce_hats(seed, work)),
}

# What the traced run must show on each workload.  A wrapper that fails
# to intercept its function fails here instead of reporting 0 s.
SELF_TEST = {
    "query-sd2": {
        "zero": ["homology.surplus_cycle_s", "complexes.moves", "reduction.excise_s"],
        "positive": [
            "gf2.rank_s", "gf2.kernel_basis_s", "gf2.image_basis_s", "homology.betti_s",
            "homology.chain_data_s", "homology.basis_s", "cohomology.pairing_tensor_s",
            "cohomology.property_a_s", "surfaces.check_closed_surface_s",
            "surfaces.classify_surface_s", "complexes.build_s", "fileformat.parse_s",
            "cli.main_s", "cli.import_s",
        ],
    },
    "reduce-excise": {
        "zero": ["reduction.collapses"],
        "positive": [
            "homology.surplus_cycle_s", "gf2.intersection_s", "gf2.rank_s",
            "homology.betti_s", "homology.h2_epi_witness_s", "gf2.solve_s",
            "reduction.excise_s", "reduction.excisions", "reduction.pipeline_self_s",
            "complexes.move_s", "fileformat.parse_s", "fileformat.write_s",
            "cli.main_s", "cli.import_s",
        ],
    },
    "reduce-collapse": {
        "zero": ["reduction.excisions", "homology.surplus_cycle_s"],
        "positive": [
            "reduction.collapse_s", "reduction.collapses", "reduction.contract_s",
            "reduction.contractions", "complexes.move_s", "complexes.moves",
            "complexes.free_faces_s", "complexes.free_faces_calls", "gf2.rank_s",
            "homology.betti_s", "homology.chain_data_s", "fileformat.parse_s",
            "fileformat.write_s", "cli.main_s", "cli.import_s",
        ],
    },
}


def probe() -> float:
    """Seconds for a fixed stdlib-only CPU task: the machine's speed."""
    start = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for _ in range(150_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc ^= x >> 7
    return time.perf_counter() - start


class Spawner:
    """Runs one child at a time and reads its exit code, wall time and
    maximum RSS (from wait4's rusage)."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.count = 0
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, args: list[str], trace_out: Path | None):
        self.count += 1
        stdout = self.work / f"stdout-{self.count}.txt"
        if trace_out is None:
            argv = [sys.executable, "-m", "covertype", "--machine", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_out), "--machine", *args]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stdout.with_suffix(".err")), flags, 0o644),
        ]
        timeout = max(0.0, min(INVOCATION_TIMEOUT_S, self.deadline - time.monotonic()))
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        timed_out = False
        fd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            if not poller.poll(timeout * 1000):
                os.kill(pid, signal.SIGKILL)
                timed_out = True
        finally:
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        code = -1 if timed_out else os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_maxrss, code, stdout


def run_pass(spawner: Spawner, calls: list[Invocation], index: int, traced: bool) -> Pass:
    results, probes = [], []
    for n, call in enumerate(calls):
        output = spawner.work / f"out-{index}-{n}.cplx" if OUT in call.args else None
        args = [str(output) if a == OUT else a for a in call.args]
        trace = spawner.work / f"trace-{index}-{n}.json" if traced else None
        probes.append(probe())
        results.append(Result(call, *spawner.run(args, trace), output, trace))
    probes.append(probe())
    for i, r in enumerate(results):
        r.scale = 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
    return Pass(results, probes)


CHECKS = {
    "homology": check.check_homology,
    "property-a": check.check_property_a,
    "surface": check.check_surface,
}


def check_result(result: Result) -> list[str]:
    """Problems with one answer; an unreadable answer is a problem too."""
    call = result.invocation
    if result.code == -1:
        return ["timed out"]
    try:
        fields = check.parse_fields(result.stdout.read_text("utf-8"))
        if call.item is None:
            return check.check_bounds(result.code, fields)
        if result.output is not None:
            out = result.output.read_bytes() if result.output.is_file() else None
            return check.check_reduce(call.item, result.code, fields, out)
        return CHECKS[call.args[0]](call.item, result.code, fields)
    except (OSError, UnicodeDecodeError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable answer: {err!r}"]


def output_digests(passes: list[Pass]) -> tuple[dict[str, str], list[str]]:
    """sha256 of each reduced complex; every pass must write the same bytes."""
    digests: dict[str, str] = {}
    problems = []
    for p in passes:
        for r in p.results:
            if r.output is None or not r.output.is_file():
                continue
            name = r.invocation.item.base.name
            digest = hashlib.sha256(r.output.read_bytes()).hexdigest()
            if digests.setdefault(name, digest) != digest:
                problems.append(f"{name}: output differs between passes")
    return digests, problems


def end_to_end(setup: Pass, passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """Times in reference seconds."""
    items = sorted(r.ref_s for p in passes for r in p.results)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "item_p50_s": (statistics.median(items), "s"),
        # nearest rank, so the invocation it lands on does not depend on the pass count
        "item_p90_s": (items[math.ceil(0.9 * len(items)) - 1], "s"),
        "setup_s": (statistics.median(r.ref_s for r in setup.results), "s"),
        "peak_rss_mb": (max(r.max_rss_kb for p in passes for r in p.results) / 1024, "MB"),
    }


def stderr_tail(result: Result) -> str:
    err = result.stdout.with_suffix(".err")
    lines = err.read_text("utf-8", "replace").splitlines() if err.is_file() else []
    return lines[-1] if lines else ""


def pass_record(p: Pass) -> dict:
    return {
        "wall_s": p.wall_s,
        "probe_s": p.probes,
        "item_s": [[r.invocation.label, r.seconds, r.ref_s] for r in p.results],
    }


def self_test(workload: str, layers: dict, missing: list[str], reported: dict) -> list[str]:
    failures = [f"could not wrap {name}" for name in missing]
    expect = SELF_TEST[workload]
    for name in expect["zero"]:
        if layers[name] != 0:
            failures.append(f"{name} = {layers[name]}, expected 0")
    for name in expect["positive"]:
        if not layers[name] > 0:
            failures.append(f"{name} = {layers[name]}, expected > 0")
    for name, count in reported.items():
        if layers[f"reduction.{name}"] != count:
            failures.append(
                f"traced reduction.{name} = {layers[f'reduction.{name}']},"
                f" the CLI reported {count}"
            )
    return failures


def traced_layers(
    workload: str, passes: list[Pass], traced_passes: list[Pass], problems: list
) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced passes, times in reference
    seconds), the tracing overhead, and the self-test failures."""
    per_pass = []
    missing: set[str] = set()
    for p in traced_passes:
        records = []
        for r in p.results:
            try:
                records.append((json.loads(r.trace.read_text("utf-8")), r.scale))
            except (OSError, ValueError):
                problems.append({"args": r.invocation.args, "problems": ["no spans written"]})
        missing.update(m for rec, _ in records for m in rec["missing"])
        per_pass.append(tracer.layer_metrics(records))
    layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    layers["trace.overhead_ratio"] = statistics.median(
        p.wall_s for p in traced_passes
    ) / statistics.median(p.wall_s for p in passes)
    # the move counts the CLI printed, to compare with the traced ones
    reported = {}
    if traced_passes[0].results[0].output is not None:
        fields = [
            check.parse_fields(r.stdout.read_text("utf-8")) for r in traced_passes[0].results
        ]
        for key in ("excisions", "collapses", "contractions"):
            values = [f.get(key, "") for f in fields]
            reported[key] = sum(int(v) if v.isdigit() else -1 for v in values)
    return layers, self_test(workload, layers, sorted(missing), reported)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_ratio", "_per_move")) else "count"


def measure(args, work: Path) -> int:
    traced = bool(args.trace)
    items, calls = WORKLOADS[args.workload](args.seed, work)
    spawner = Spawner(work)
    bounds = Invocation(["bounds", "--chi", "0"])
    # warm-up: in a fresh checkout the first call writes the bytecode cache
    warm = run_pass(spawner, [bounds], -1, False)
    setup = run_pass(spawner, [bounds] * SETUP_REPS, -2, False)

    passes: list[Pass] = []
    traced_passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        last = time.perf_counter()
        passes.append(run_pass(spawner, calls, len(passes) + len(traced_passes), False))
        if traced:
            # alternate with untraced passes, so the overhead ratio
            # compares passes made under the same machine conditions
            traced_passes.append(run_pass(spawner, calls, len(passes) + len(traced_passes), True))
        now = time.perf_counter()
        if now - start + (now - last) > args.seconds:
            break

    results = [r for p in [warm, setup] + passes + traced_passes for r in p.results]
    for r in results:
        r.problems = check_result(r)
    problems = [
        {"args": r.invocation.args, "problems": r.problems, "stderr": stderr_tail(r)}
        for r in results
        if r.problems
    ]
    digests, digest_problems = output_digests(passes + traced_passes)
    problems += [{"problems": [p]} for p in digest_problems]
    failed = len(problems)
    metrics = end_to_end(setup, passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "probe_ref_s": PROBE_REF_S,
        "inputs": [
            {"name": i.base.name, "f_vector": list(i.f_vector), "sha256": i.sha256} for i in items
        ],
        "output_sha256": digests,
        "samples": {"passes": len(passes), "items": len(passes) * len(calls), "setup": SETUP_REPS},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup": pass_record(setup),
        "passes": [pass_record(p) for p in passes],
        "problems": problems,
    }
    reported = metrics
    if traced:
        layers, failures = traced_layers(args.workload, passes, traced_passes, problems)
        record["per_layer"] = layers
        record["self_test"] = failures or "passed"
        problems += [{"self_test": f} for f in failures]
        reported = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n", "utf-8")

    for key, (value, unit) in reported.items():
        print(f"{key}: {value} {unit}")
    print(f"samples: {json.dumps(record['samples'])}")
    for entry in problems:
        print(f"problem: {entry}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    selected = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    summary = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": reported[k][0], "unit": reported[k][1]} for k in selected},
    }
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covertype" / "__main__.py").is_file():
        print(f"error: no covertype sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
