"""exactcat session benchmark.

Runs one workload in this process, one session at a time (a closed loop with
a single client), through ``exactcat.cli.run_session`` with a fresh payload
each time, so every run pays for cold per-Algebra caches as a CLI user does.
Every session must exit 0 and write reports whose sha256 digests match
``reference.json``; a miss counts as a failure.

    python3 perfbench/run.py --workload stock --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 48 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(from alternating untraced and traced passes).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--record`` rewrites the workload's reference digests instead.
Run from the repository root.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".bench_out"

# BENCHMARK.json lists stock and gamma_kx3 only: three workloads do not fit its
# time budget with runs long enough to be steady (README.md says more).
WORKLOADS = {
    "stock": lambda: sorted((ROOT / "sessions").glob("*.json")),
    "lattice_kA4": lambda: [HERE / "sessions" / "lattice_kA4.json"],
    "gamma_kx3": lambda: [HERE / "sessions" / "gamma_kx3.json"],
}

# Set-up rounds run in blocks, one before every pass and one after the last.
# A block runs at least this many rounds and this share of --seconds.
SETUP_BLOCK_ROUNDS = 4
SETUP_BLOCK_SHARE = 0.05

END_TO_END = (
    ("session_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metrics, in report order.  "calls", "self_s" and ".s" (inclusive
# time) come from the tracer's wrapper of the same prefix.
PER_LAYER = (
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.tiny_frac", "ratio"),
    ("linalg.rref.large_frac", "ratio"),
    ("linalg.solve_right.calls", "count"),
    ("linalg.solve_right.self_s", "s"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.Matrix.calls", "count"),
    ("repmod.hom_basis.calls", "count"),
    ("repmod.hom_basis.self_s", "s"),
    ("repmod.hom_basis.hit_frac", "ratio"),
    ("repmod.decompose.calls", "count"),
    ("repmod.decompose.self_s", "s"),
    ("repmod.decompose.hit_frac", "ratio"),
    ("repmod.is_isomorphic.calls", "count"),
    ("repmod.is_isomorphic.hit_frac", "ratio"),
    ("repmod.ExtSpace.realize.calls", "count"),
    ("repmod.ExtSpace.realize.self_s", "s"),
    ("repmod.minimal_resolution.calls", "count"),
    ("repmod.minimal_resolution.self_s", "s"),
    ("repmod.all_indecomposables.s", "s"),
    ("functorcat.end_algebra.s", "s"),
    ("functorcat.presentation_in_category.calls", "count"),
    ("functorcat.presentation_in_category.self_s", "s"),
    ("functorcat.localize_map.calls", "count"),
    ("functorcat.localize_map.self_s", "s"),
    ("functorcat.unyoneda_map.calls", "count"),
    ("exactstruct.componentwise_classes.calls", "count"),
    ("exactstruct.componentwise_classes.self_s", "s"),
    ("exactstruct.classify_morphism.calls", "count"),
    ("exactstruct.classify_morphism.self_s", "s"),
    ("exactstruct.classify_morphism.per_structure", "calls/structure"),
    ("exactstruct.enumerate_exact_structures.s", "s"),
    ("exactstruct.brute_force_structures.s", "s"),
    ("exactstruct.is_exact_structure.s", "s"),
    ("auslander.context.s", "s"),
    ("auslander.build_subcategories.calls", "count"),
    ("auslander.build_subcategories.s", "s"),
    ("auslander.check_auslander_axioms.s", "s"),
    ("auslander.verify_formula_and_localization.s", "s"),
    ("auslander.verify_injective_projective_correspondence.s", "s"),
    ("auslander.round_trip.s", "s"),
    ("auslander.auslander_bridger_check.s", "s"),
    ("auslander.grade.s", "s"),
    ("cli.cmd_indecomposables.s", "s"),
    ("cli.cmd_exact_structures.s", "s"),
    ("cli.cmd_verify.s", "s"),
    ("cli.cmd_smodad.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

HIT_FRAC_CACHE = {
    "repmod.hom_basis": "hom_cache",
    "repmod.decompose": "decompose_cache",
    "repmod.is_isomorphic": "iso_cache",
}


class BenchError(Exception):
    pass


def import_exactcat():
    """Import exactcat from this checkout's src/, never from elsewhere."""
    if not (SRC / "exactcat" / "__init__.py").is_file():
        raise BenchError(f"no exactcat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import exactcat

    if not Path(exactcat.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"exactcat imported from {exactcat.__file__}, not from {SRC}")
    from exactcat import auslander, cli

    return cli, auslander


@dataclass
class SessionFile:
    name: str
    text: str

    def payload(self, seed: int) -> dict:
        """A fresh payload carrying the workload seed."""
        data = json.loads(self.text)
        data.pop("comment", None)
        data["seed"] = seed
        return data


def load_workload(name: str) -> list[SessionFile]:
    paths = WORKLOADS[name]()
    if not paths or not all(p.is_file() for p in paths):
        raise BenchError(f"workload {name}: session files missing")
    return [SessionFile(p.stem, p.read_text(encoding="utf-8")) for p in paths]


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())
    }


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    structures: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)


def run_pass(cli, sessions, seed: int, reference: dict | None, tracer=None) -> PassResult:
    """One pass over the sessions; only the run_session calls are timed."""
    result = PassResult()
    SCRATCH.mkdir(exist_ok=True)
    for s in sessions:
        payload = s.payload(seed)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            out_dir = Path(tmp) / s.name
            gc.collect()
            t0 = time.perf_counter()
            try:
                code, out = cli.run_session(payload, out_dir)
            except Exception as exc:  # a crash is a failed session, not a crashed benchmark
                code, out = f"by {type(exc).__name__}: {exc}", None
            result.seconds += time.perf_counter() - t0
            got = digests(out_dir) if out_dir.is_dir() else {}
        if tracer is not None:
            tracer.drain_algebras()
        result.attempted += 1
        result.digests[s.name] = got
        for command in out.json["commands"] if out is not None else []:
            if command["name"] == "exact_structures":
                result.structures += len(command["structures"])
        if reference is None:
            continue
        if code != 0:
            result.problems.append(f"{s.name}: exit {code}")
        elif got != reference.get(s.name):
            result.problems.append(f"{s.name}: report digests differ from reference.json")
        else:
            continue
        result.failed += 1
    return result


def setup_once(cli, auslander, sessions, seed: int) -> float:
    """Payload to ready context for every session, as run_session does it."""
    total = 0.0
    for s in sessions:
        payload = s.payload(seed)
        gc.collect()
        t0 = time.perf_counter()
        session = cli.Session(payload)
        auslander.AuslanderContext(
            session.algebra,
            dim_cap=session.dim_cap,
            cutoff=session.resolution_cutoff,
            seed=session.seed,
        )
        total += time.perf_counter() - t0
    return total


def tail_label(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"tail n/a (n={n}, needs >= 11)"
    q = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return f"p{q}={value:.4f}"


def end_to_end(cli, auslander, sessions, seed, seconds, reference):
    """Cycles of a set-up block and one pass while a whole cycle fits in
    ``seconds``, then a last set-up block.  Interleaving makes the set-ups
    sample the same spells of machine speed as the passes."""
    setup_once(cli, auslander, sessions, seed)  # warm-up: no sample pays first-use costs
    setups: list[float] = []
    passes: list[PassResult] = []

    def setup_block():
        spent, rounds = 0.0, 0
        while spent < SETUP_BLOCK_SHARE * seconds or rounds < SETUP_BLOCK_ROUNDS:
            setups.append(setup_once(cli, auslander, sessions, seed))
            spent += setups[-1]
            rounds += 1

    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        setup_block()
        passes.append(run_pass(cli, sessions, seed, reference))
        if len(passes) == 1:
            # read after one cycle, so that the number of cycles does not move it
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    setup_block()
    times = [p.seconds for p in passes]
    metrics = {
        "session_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak,
    }
    notes = {
        "session_s": f"median of {len(times)} passes, {tail_label(times)}",
        "setup_s": f"median of {len(setups)} set-ups in {len(passes) + 1} blocks",
        "peak_rss_mib": "peak resident memory after the first cycle",
    }
    return metrics, notes, passes


def layer_metrics(tracer: Tracer, traced: PassResult) -> dict:
    """Every per-layer metric of one traced pass but ``trace.overhead_frac``."""
    stats = tracer.stats

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "auslander.round_trip.s": sum(
            stats[p].total_s for p in ("auslander.reconstruct_structure", "auslander.resolving_closure")
        ),
        "linalg.rref.tiny_frac": ratio(tracer.rref_tiny, stats["linalg.rref"].calls),
        "linalg.rref.large_frac": ratio(tracer.rref_large, stats["linalg.rref"].calls),
        "exactstruct.classify_morphism.per_structure": ratio(
            stats["exactstruct.classify_morphism"].calls, traced.structures
        ),
        "cli.self_s": traced.seconds - tracer.covered_s(),
    }
    metrics = {}
    for name, _ in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if name == "trace.overhead_frac":
            continue
        if name in special:
            metrics[name] = special[name]
        elif kind == "hit_frac":
            calls = stats[prefix].calls
            metrics[name] = ratio(calls - tracer.cache_entries[HIT_FRAC_CACHE[prefix]], calls)
        else:
            stat = stats[prefix]
            metrics[name] = {"calls": stat.calls, "self_s": stat.self_s, "s": stat.total_s}[kind]
    return metrics


def per_layer(cli, auslander, sessions, seed, seconds, reference):
    """Untraced and traced passes alternate while another pair fits in twice
    ``seconds`` (a pair is two passes); at least one pair runs.  Each metric is
    the (low) median over the traced passes, and ``trace.overhead_frac`` compares the
    median traced pass with the median untraced one."""
    setup_once(cli, auslander, sessions, seed)  # warm-up, as in end_to_end
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    readings: list[dict] = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced.append(run_pass(cli, sessions, seed, reference))
        with Tracer() as tracer:
            traced.append(run_pass(cli, sessions, seed, reference, tracer))
        readings.append(layer_metrics(tracer, traced[-1]))
        now = time.perf_counter()
        if now - start + (now - pair_start) > 2 * seconds:
            break
    metrics = {name: statistics.median_low(r[name] for r in readings) for name in readings[0]}
    plain = statistics.median(p.seconds for p in untraced)
    with_tracer = statistics.median(p.seconds for p in traced)
    metrics["trace.overhead_frac"] = (with_tracer - plain) / plain
    notes = {
        "cli.self_s": "traced pass time outside every wrapped call",
        "trace.overhead_frac": (
            f"median traced {with_tracer:.3f} s vs untraced {plain:.3f} s over {len(traced)} "
            "pairs; machine speed drifts, so it is noisy and can be negative"
        ),
    }
    return metrics, notes, untraced + traced


def run_workload(args) -> dict:
    cli, auslander = import_exactcat()
    sessions = load_workload(args.workload)
    try:
        if args.record:
            return record(cli, sessions, args)
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload)
        if reference is None:
            raise BenchError(f"reference.json has no digests for {args.workload}")
        if args.trace:
            metrics, notes, passes = per_layer(
                cli, auslander, sessions, args.seed, args.seconds, reference
            )
            units = dict(PER_LAYER)
        else:
            metrics, notes, passes = end_to_end(
                cli, auslander, sessions, args.seed, args.seconds, reference
            )
            units = dict(END_TO_END)
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAIL {problem}")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload}  {name:<{width}}  {shown} {units[name]}{note}")
    print(f"{args.workload}  fail_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def record(cli, sessions, args) -> dict:
    """Write this workload's report digests into reference.json."""
    result = run_pass(cli, sessions, args.seed, None)
    data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    data[args.workload] = result.digests
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(result.digests)} sessions of {args.workload} in {REFERENCE.name}")
    return {"correct": True, "attempted": result.attempted, "failed": 0, "metrics": {}}


def run_all(args) -> dict:
    """Every workload, each in a fresh child process (so peak memory is its own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference digests")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            if args.record:
                raise BenchError("--record needs a single workload")
            result = run_all(args)
        else:
            result = run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
