"""Tests of the benchmark's own code: request generators, span arithmetic,
the tail-percentile rule and reduced-size smoke runs of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run as cli
import tracing
import workloads
from thmfrac import app, config, staggered

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_repeats_for_a_seed_and_validates(name):
    gen = workloads.GENERATORS[name]
    first, again = gen(7), gen(7)
    assert [r.raw for r in first] == [r.raw for r in again]
    assert [r.label for r in first] == [r.label for r in again]
    for req in first:
        config.config_from_dict(copy.deepcopy(req.raw))


@pytest.mark.parametrize("name", ["poro_batch", "terzaghi_batch"])
def test_batch_seeds_differ_but_keep_the_same_mix(name):
    gen = workloads.GENERATORS[name]
    a, b = gen(1), gen(2)
    assert [r.raw for r in a] != [r.raw for r in b]
    uniques = [sorted(r.n_steps for r in x if not r.label.endswith("/repeat")) for x in (a, b)]
    assert uniques[0] == uniques[1]
    repeats = [r for r in a if r.label.endswith("/repeat")]
    assert len(repeats) == 2
    for rep in repeats:
        original = a[a.index(rep) - 1]
        assert original.raw == rep.raw and original.raw is not rep.raw


def test_variant_workloads_cycle_through_the_reference_table():
    n = workloads.THERMAL_VARIANTS
    assert [r.raw for r in workloads.thermal_trend(3)] == \
        [r.raw for r in workloads.thermal_trend(3 + n)]
    assert workloads.thermal_trend(3)[0].raw != workloads.thermal_trend(4)[0].raw
    dts = [r.inputs["dT"] for r in workloads.thermal_trend(5)]
    assert dts == [0.0, 90.0]


@pytest.mark.parametrize("name, variants", [("kgd_growth", [0]),
                                             ("thermal_trend", range(workloads.THERMAL_VARIANTS))])
def test_references_match_the_generated_requests(name, variants):
    for variant in variants:
        table = workloads.load_reference(name, variant)
        requests = workloads.GENERATORS[name](variant)
        assert [e["request"] for e in table] == [r.label for r in requests]
        assert [e["inputs"] for e in table] == [r.inputs for r in requests]
        for entry, req in zip(table, requests):
            rows = len(entry["series"]["time_s"])
            assert rows == req.n_steps + 1 or entry["status"] == "failed"


def test_covered_merges_overlaps():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert tracing.covered([(0.0, 5.0), (1.0, 2.0)]) == 5.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", -1, 0, 0.0, 10.0, None],
        ["child", 0, 0, 1.0, 4.0, None],
        ["grandchild", 1, 0, 2.0, 3.0, None],
        ["child", 0, 0, 6.0, 7.0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    summary = tracing.summarize(spans)
    assert summary["child"] == {"s": 4.0, "self_s": 3.0, "calls": 2}


def test_tracer_records_nesting_errors_and_restores_patches():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Owner:
        @staticmethod
        def inner(x):
            if x < 0:
                raise ValueError(x)
            return x

    inner = tracer.wrap(Owner.inner, "inner", on_result=lambda r: {"value": r})
    outer = tracer.wrap(lambda x: inner(x) + inner(x), "outer")
    assert outer(2) == 4
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.spans[1][tracing.ATTRS] == {"value": 2}
    # clock ticks: outer 0..5, inner 1..2 and 3..4 -> self time 5 - 2
    assert tracing.self_times(tracer.spans)[0] == 3.0
    with pytest.raises(ValueError):
        inner(-1)
    assert tracer.spans[-1][tracing.ATTRS] == {"error": "ValueError"}

    original = Owner.inner
    tracer.patch(Owner, "inner", "inner")
    assert Owner.inner is not original
    tracer.unpatch()
    assert Owner.inner is original


@pytest.mark.parametrize("n, q, beyond", [
    (12, 50.0, 6), (40, 75.0, 10), (99, 75.0, 24), (100, 90.0, 10),
    (999, 95.0, 49), (1000, 99.0, 10), (10000, 99.9, 10),
])
def test_tail_percentile_picks_highest_with_ten_beyond(n, q, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    got_q, value, got_beyond = measure.tail_percentile(samples)
    assert (got_q, got_beyond) == (q, beyond)
    assert value == measure.percentile(samples, q)
    assert sum(1 for s in samples if s > value) == beyond


def test_nearest_rank_percentile():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(samples, 50.0) == 3.0
    assert measure.percentile(samples, 100.0) == 5.0
    assert measure.percentile(samples, 1.0) == 1.0


def test_cli_workloads_match_generators():
    assert cli.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_size_smoke_run(name, trace, tmp_path):
    originals = (app.run_scenario, app.run, staggered.solve_linear)
    rec = measure.run_workload(name, seed=3, seconds=0.0, trace=trace, root=tmp_path,
                               small=True)
    assert (app.run_scenario, app.run, staggered.solve_linear) == originals
    assert rec["passes"] == 1 and rec["attempted"] == rec["requests_per_pass"] >= 1
    if name != "terzaghi_batch":     # see NOTES.md: the Terzaghi defect
        assert rec["correct"], rec["checks"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    line = cli._result_line(rec, spec)
    section = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in spec[section]}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if trace:
        counts = rec["pass_counts"][0]
        assert counts["solve_linear"] > 0 and counts["inner_iters"] > 0
        assert rec["per_layer"]["fem.factorizations"] == counts["factorizations"]
        assert Path(rec["span_file"]).exists()
    assert not (tmp_path / ".bench_out" / f"{name}-{os.getpid()}").exists()


def test_command_prints_the_result_line_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "kgd_growth", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poro_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
