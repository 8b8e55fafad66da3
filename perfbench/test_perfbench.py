"""Tests of the benchmark itself: the tracer's accounting, its patching, the
correctness gate, the metric list in BENCHMARK.json, and counter determinism.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

cli, _ = run.import_exactcat()

# Per-layer metrics that repeat exactly on every run at the same seed.
DETERMINISTIC = [
    name
    for name, _ in run.PER_LAYER
    if name.endswith((".calls", "_frac", ".per_structure")) and name != "trace.overhead_frac"
]


def test_self_time_subtracts_nested_calls_and_total_counts_recursion_once():
    t = Tracer()
    inner = t.timed("inner", lambda: time.sleep(0.02))

    def outer_fn(n):
        time.sleep(0.01)
        inner()
        if n:
            outer(n - 1)

    outer = t.timed("outer", outer_fn)
    start = time.perf_counter()
    outer(1)
    wall = time.perf_counter() - start
    o, i = t.stats["outer"], t.stats["inner"]
    assert (o.calls, i.calls) == (2, 2)
    assert abs(o.total_s - wall) < 0.005
    assert abs(o.self_s - 0.02) < 0.01
    assert abs(i.self_s - 0.04) < 0.01
    assert abs(t.covered_s() - wall) < 0.005


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from exactcat import exactstruct, linalg, repmod

    originals = (linalg.rref, exactstruct.rref, repmod.rref, cli.COMMANDS["verify"])
    init = linalg.Matrix.__init__
    with Tracer():
        wrapped = (linalg.rref, exactstruct.rref, repmod.rref, cli.COMMANDS["verify"])
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert linalg.Matrix.__init__ is not init
    assert (linalg.rref, exactstruct.rref, repmod.rref, cli.COMMANDS["verify"]) == originals
    assert linalg.Matrix.__init__ is init


def test_digest_mismatch_exit_code_and_crash_count_as_failures(monkeypatch):
    sessions = [s for s in run.load_workload("stock") if s.name == "kA2"]
    reference = json.loads(run.REFERENCE.read_text())["stock"]
    assert run.run_pass(cli, sessions, 5, reference).failed == 0
    wrong = {"kA2": dict(reference["kA2"], **{"report.txt": "0" * 64})}
    result = run.run_pass(cli, sessions, 5, wrong)
    assert (result.attempted, result.failed) == (1, 1)
    bad = [run.SessionFile("kA2", sessions[0].text.replace('"p": 2', '"p": 4'))]
    result = run.run_pass(cli, bad, 5, reference)
    assert result.failed == 1 and result.problems == ["kA2: exit 2"]

    def boom(payload, out_dir):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_session", boom)
    result = run.run_pass(cli, sessions, 5, reference)
    assert result.problems == ["kA2: exit by ValueError: boom"]


def test_benchmark_json_lists_the_metrics_and_workloads_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_counters_repeat_exactly_across_traced_runs_at_one_seed():
    sessions = run.load_workload("stock")
    reference = json.loads(run.REFERENCE.read_text())["stock"]
    readings = []
    for _ in range(2):
        with Tracer() as tracer:
            traced = run.run_pass(cli, sessions, 7, reference, tracer)
        assert traced.failed == 0, traced.problems
        metrics = run.layer_metrics(tracer, traced)
        readings.append({name: metrics[name] for name in DETERMINISTIC})
    assert readings[0] == readings[1]
    assert readings[0]["linalg.rref.calls"] > 0
