"""Tests of the benchmark itself: seeded inputs, checks, tracing arithmetic
and the repeatability of count metrics."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import instances, run, trace, workloads  # noqa: E402
from perfbench.trace import Span, Tracer  # noqa: E402
from wavelock import verifier  # noqa: E402

IN_PROCESS = ("bound_mix", "verify", "weights")


def _setup(name, seed, tmp_path):
    return workloads.cli(seed, tmp_path) if name == "cli" else getattr(workloads, name)(seed)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_seed_gives_same_inputs(name, tmp_path):
    def keys(seed):
        return [op.key for cycle in _setup(name, seed, tmp_path) for op in cycle]

    assert keys(11) == keys(11)
    assert keys(11) != keys(12)


def test_bound_mix_blocks_have_the_stated_mix():
    items = instances.bound_mix(np.random.default_rng(0), blocks=20)
    for k in range(0, len(items), 10):
        kinds = sorted(item.kind for item in items[k:k + 10])
        assert kinds == sorted(["reference"] + ["interior"] * 5 + ["near"] * 2 + ["single"] * 2)
    assert all(item.regime == "Dual" for item in items if item.kind != "single")


@pytest.fixture()
def short_run(tmp_path):
    """One block of bound_mix; elsewhere the first main and reference ops."""

    def go(name):
        cycle = _setup(name, 3, tmp_path)[0]
        if name != "bound_mix":
            main = next(op for op in cycle if op.main)
            ref = next(op for op in cycle if op.ref)
            cycle = ([main] if main is ref else [main, ref]) + [op for op in cycle if not op.gated]
        tally = run.Tally()
        values = run.measure([cycle], 0.0, tally, run.Clock(workloads.child_env()))
        return tally, values

    return go


@pytest.mark.parametrize("name", ["bound_mix", "verify", "weights", "cli"])
def test_short_run_passes_its_checks(name, short_run):
    tally, values = short_run(name)
    assert tally.attempted >= 1
    assert tally.failed == 0, tally.messages
    assert values["p50_s"] > 0 and values["ref_s"] > 0 and values["ops_per_s"] > 0


def test_checks_catch_a_wrong_bound():
    op = workloads._bound_op(instances.REFERENCE_INSTANCE)
    report = op.run(None)
    assert op.check(report) == []
    wrong = dataclasses.replace(report, bound=report.bound * (1 + 1e-9))
    assert any("reference bound" in e for e in op.check(wrong))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "a", 0.0, 10.0, None, 0),
        Span(2, "b", 1.0, 3.0, 1, 0),
        Span(3, "b", 2.0, 4.0, 1, 0),  # overlaps its sibling
        Span(4, "c", 8.0, 12.0, 1, 0),  # runs past its parent's end
        Span(5, "d", 2.5, 3.0, 3, 0),
    ]
    selfs = trace.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (3.0 + 2.0))
    assert selfs[3] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == selfs[4] - 2.0 == pytest.approx(2.0)
    agg = trace.aggregate(spans)
    assert agg["b"]["calls"] == 2
    assert agg["b"]["time"] == pytest.approx(4.0)
    assert agg["b"]["self"] == pytest.approx(3.5)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |   numpy",
        "import time:        10 |        360 | wavelock",
        "import time:        20 |         20 | scipy.special",
    ])
    got = trace.parse_importtime(text)
    assert got["modules"] == 5
    assert got["wavelock_s"] == pytest.approx(360e-6)
    assert got["scipy_s"] == pytest.approx(320e-6)


def _bound_mix_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_PASS", {"bound_mix": 12})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "import_metrics", lambda: {})
    tally = run.Tally()
    metrics = run.traced_pass("bound_mix", workloads.bound_mix(5), 5, tally, run.Clock(workloads.child_env()))
    assert tally.failed == 0
    return {k: metrics[k] for k in ("solver.moment.calls", "solver.find_T.calls",
                                    "core.derive_constants.calls", "trace.spans")}


def test_solver_counts_repeat_exactly(tmp_path, monkeypatch):
    first = _bound_mix_counts(tmp_path, monkeypatch)
    assert first["solver.moment.calls"] > 0
    assert first == _bound_mix_counts(tmp_path, monkeypatch)


def test_oracle_iterations_repeat_exactly():
    def oracle_iterations():
        tracer = Tracer()
        with tracer:
            verifier.run_oracle(instances.REFERENCE, n=200, max_iter=1000)
        return trace.layer_metrics(tracer.spans, tracer.observed, 1)["oracle.solve_discrete.iterations"]

    assert oracle_iterations() == oracle_iterations() > 0


def test_import_modules_repeat_exactly(monkeypatch):
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    modules = run.import_metrics()["import.modules"]
    assert modules > 100
    assert run.import_metrics()["import.modules"] == modules


def test_tracer_restores_the_library():
    before = verifier.run_oracle
    with Tracer():
        assert verifier.run_oracle is not before
    assert verifier.run_oracle is before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_line_is_json_with_the_contract_keys(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_mix", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_pool_worker_spans_hang_under_the_submitting_span(monkeypatch, capsys):
    import wavelock.cli

    monkeypatch.setenv("WAVELOCK_THREADS", "2")
    tracer = Tracer()
    with tracer:
        code = wavelock.cli.main(["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1",
                                  "--ratio-min", "0.3", "--ratio-max", "0.5", "--steps", "3"])
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 4
    scan = next(s for s in tracer.spans if s.name == "cli.cmd_scan")
    bounds = [s for s in tracer.spans if s.name == "solver.compute_bound"]
    assert len(bounds) == 3 and all(s.parent == scan.id for s in bounds)
    assert trace.self_times(tracer.spans)[scan.id] < 0.5 * (scan.end - scan.start)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_span_cost_is_small_and_positive():
    assert 0.0 < trace.span_cost_s(calls=2000, repeats=3) < 1e-4
