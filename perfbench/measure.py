"""One measured run of one workload: set-up samples, a closed loop of passes
over the workload's requests, output checks and the metrics.

A pass sends the workload's requests one after another (one client, the
next request only after the previous one returned). Passes repeat until
another pass would end past ``--seconds``; at least one pass always runs.
"""

from __future__ import annotations

import copy
import math
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse.linalg as spla

from thmfrac import app, config, scenario, staggered
from thmfrac.errors import SolverFailure

import tracing
import workloads

SETUP_REPS = 5           # set-up samples before every pass
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q / 100.0)) - 1]


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest of TAIL_PERCENTILES with at least ten samples above its
    nearest-rank position; the median when none has. Returns (percentile,
    value, samples beyond)."""
    n = len(samples)
    for q in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(n * q / 100.0))
        if beyond >= 10 or q == 50.0:
            return q, percentile(samples, q), beyond
    raise AssertionError("TAIL_PERCENTILES must end with 50")


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

class StepClock:
    """Times accepted steps between ``on_step`` callbacks by wrapping the
    ``staggered.run`` binding that ``app`` calls."""

    def __init__(self):
        self.steps: list[tuple[int, float]] = []   # (request id, seconds)
        self.request = -1
        self._original = None

    def install(self):
        self._original = original = app.run
        clock = self

        def timed_run(sim, controls, on_step=None):
            last = time.perf_counter()

            def step_done(t, state, report):
                nonlocal last
                now = time.perf_counter()
                clock.steps.append((clock.request, now - last))
                last = now
                if on_step is not None:
                    on_step(t, state, report)

            return original(sim, controls, on_step=step_done)

        app.run = timed_run

    def uninstall(self):
        if self._original is not None:
            app.run = self._original
            self._original = None


def _fill(lu) -> dict:
    return {"fill": int(lu.L.nnz + lu.U.nnz)}


def _step_report(result) -> dict:
    report = result[1]
    return {"outer": report.outer_iters, "inner": sum(report.inner_iters)}


def _file_bytes(path) -> dict:
    return {"bytes": Path(path).stat().st_size}


def install_spans(tracer: tracing.Tracer):
    """Wrap every public function the run reaches, under the names callers use."""
    targets = [
        (config, "config_from_dict", "config.config_from_dict", None),
        (app, "run_scenario", "app.run_scenario", None),
        (app, "build_simulation", "scenario.build_simulation", None),
        (app, "evaluate_probes", "scenario.evaluate_probes", None),
        (app, "element_cell_data", "postproc.element_cell_data", None),
        (app, "write_vtk", "io_vtk.write_vtk", _file_bytes),
        (app, "run", "staggered.run", None),
        (scenario, "generate_rect_mesh", "mesh.generate_rect_mesh", None),
        (scenario, "build_tables", "fem.build_tables", None),
        (staggered.Simulation, "time_step", "staggered.time_step", _step_report),
        (staggered, "build_mechanics_system", "physics.build_mechanics_system", None),
        (staggered, "build_flow_system", "physics.build_flow_system", None),
        (staggered, "build_heat_system", "physics.build_heat_system", None),
        (staggered, "build_phasefield_system", "physics.build_phasefield_system", None),
        (staggered, "mechanics_branch_flags", "physics.mechanics_branch_flags", None),
        (staggered, "apply_dirichlet", "fem.apply_dirichlet", None),
        (staggered, "solve_linear", "fem.solve_linear", None),
        (staggered, "solve_bound_constrained", "fem.solve_bound_constrained", None),
        (spla, "splu", "scipy.splu", _fill),
    ]
    for owner, attr, name, on_result in targets:
        tracer.patch(owner, attr, name, on_result)


def pass_counts(spans: list[list], request_ids) -> dict[str, int]:
    """Deterministic counts of the spans of the given requests."""
    ids = set(request_ids)
    out = {"outer_iters": 0, "inner_iters": 0, "failed_steps": 0, "solve_linear": 0,
           "factorizations": 0, "lu_fill_nnz": 0, "vtk_bytes": 0}
    for s in spans:
        if s[tracing.REQUEST] not in ids:
            continue
        name, attrs = s[tracing.NAME], s[tracing.ATTRS] or {}
        if name == "staggered.time_step":
            if "error" in attrs:
                out["failed_steps"] += 1
            else:
                out["outer_iters"] += attrs["outer"]
                out["inner_iters"] += attrs["inner"]
        elif name == "fem.solve_linear":
            out["solve_linear"] += 1
        elif (name == "scipy.splu" and s[tracing.PARENT] >= 0
              and spans[s[tracing.PARENT]][tracing.NAME] == "fem.solve_linear"):
            out["factorizations"] += 1
            out["lu_fill_nnz"] += attrs["fill"]
        elif name == "io_vtk.write_vtk":
            out["vtk_bytes"] += attrs["bytes"]
    return out


def _measured(span) -> bool:
    return span[tracing.REQUEST] >= 0


def layer_metrics(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-layer metrics per pass (totals over the measured passes / passes)."""
    summary = tracing.summarize(spans, keep=_measured)
    totals = pass_counts(spans, {s[tracing.REQUEST] for s in spans if _measured(s)})

    def total(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    per = 1.0 / n_passes
    calls = totals["solve_linear"]
    out = {
        "fem.solve_linear.s": total("fem.solve_linear") * per,
        "fem.factorizations": totals["factorizations"] * per,
        "fem.lu_fill_nnz": totals["lu_fill_nnz"] * per,
        "fem.lu_cache_hit_ratio": (calls - totals["factorizations"]) / calls if calls else 0.0,
        "fem.apply_dirichlet.s": total("fem.apply_dirichlet") * per,
    }
    for system in ("mechanics", "flow", "heat", "phasefield"):
        name = f"physics.build_{system}_system"
        out[f"{name}.s"] = total(name) * per
        out[f"{name}.calls"] = total(name, "calls") * per
    out["physics.mechanics_branch_flags.s"] = total("physics.mechanics_branch_flags") * per
    out["fem.solve_bound_constrained.s"] = total("fem.solve_bound_constrained") * per
    out["fem.solve_bound_constrained.calls"] = total("fem.solve_bound_constrained", "calls") * per
    out["staggered.time_step.self_s"] = total("staggered.time_step", "self_s") * per
    out["staggered.outer_iters"] = totals["outer_iters"] * per
    out["staggered.inner_iters"] = totals["inner_iters"] * per
    out["staggered.failed_steps"] = totals["failed_steps"] * per
    out["scenario.evaluate_probes.s"] = total("scenario.evaluate_probes") * per
    out["postproc.element_cell_data.s"] = total("postproc.element_cell_data") * per
    out["io_vtk.write_vtk.s"] = total("io_vtk.write_vtk") * per
    out["io_vtk.bytes"] = totals["vtk_bytes"] * per
    out["app.run_scenario.self_s"] = total("app.run_scenario", "self_s") * per
    out["scenario.build_simulation.s"] = total("scenario.build_simulation") * per
    out["mesh.generate_rect_mesh.s"] = total("mesh.generate_rect_mesh") * per
    out["fem.build_tables.s"] = total("fem.build_tables") * per
    out["config.config_from_dict.s"] = total("config.config_from_dict") * per
    return out


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------

def _setup_once(requests) -> float:
    start = time.perf_counter()
    for req in requests:
        scenario.build_simulation(config.config_from_dict(copy.deepcopy(req.raw)))
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 small: bool = False) -> dict:
    """Run one workload for about ``seconds`` and return its full record."""
    requests = workloads.GENERATORS[name](seed, small)
    variant = requests[0].variant
    table = workloads.load_reference(name, variant) if variant is not None else None
    references = dict(enumerate(table or []))

    out_root = root / ".bench_out" / f"{name}-{os.getpid()}"
    clock = StepClock()
    tracer = tracing.Tracer() if trace else None
    passes: list[dict] = []
    checks: list[dict] = []
    setup_samples: list[float] = []
    clock.install()
    if tracer is not None:
        install_spans(tracer)
    try:
        loop_start = time.perf_counter()
        while True:
            # set-up samples are spread over the run; their spans get request -1
            clock.request = -1
            if tracer is not None:
                tracer.request = -1
            setup_samples += [_setup_once(requests) for _ in range(SETUP_REPS)]
            passes.append(_run_pass(requests, len(passes), clock, tracer, out_root,
                                    references, checks))
            if len(passes) == 1:
                # later passes start with a warm LU cache, so their peak
                # would depend on how many passes fit into the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - loop_start
            typical = statistics.median(p["wall_s"] for p in passes)
            if elapsed + typical > seconds:
                break
    finally:
        if tracer is not None:
            tracer.unpatch()
        clock.uninstall()
        shutil.rmtree(out_root, ignore_errors=True)

    busy = sum(p["wall_s"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed_solver = sum(p["solver_failures"] for p in passes)
    failed_check = sum(1 for c in checks if not c["ok"])
    failed = sum(1 for c in checks if not c["ok"] or c["solver_failure"])
    # step percentiles are taken per pass and the run reports the median
    # pass: the tail percentile chosen then does not depend on how many
    # passes fit, and one slow pass cannot move a median that sits between
    # two clusters of step times (kgd_growth alternates 1- and 3-outer steps)
    per_pass = [[] for _ in passes]
    for request, s in clock.steps:
        per_pass[request // len(requests)].append(s)
    per_pass = [p for p in per_pass if p]
    tails = [tail_percentile(p) for p in per_pass]
    q, _, beyond = tails[0] if tails else (50.0, math.nan, 0)
    p50 = statistics.median(percentile(p, 50.0) for p in per_pass) if per_pass else math.nan
    tail = statistics.median(t[1] for t in tails) if tails else math.nan
    record = {
        "workload": name, "seed": seed, "trace": trace, "small": small,
        "environment": environment(),
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "attempted": attempted,
        "failed": failed,
        "solver_failures": failed_solver,
        "check_failures": failed_check,
        "correct": failed_check == 0,
        "checks": checks,
        "end_to_end": {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup_samples),
            "step_p50_s": p50,
            "step_tail_s": tail,
            "steps_per_s": len(clock.steps) / busy,
            "requests_per_s": (attempted - failed_solver) / busy,
            "failed_frac": failed / attempted,
            "ref_err": max((c["err"] for c in checks), default=0.0),
            "peak_rss_mb": peak_rss_mb,
        },
        "step_tail": {"percentile": q, "samples": len(per_pass[0]) if per_pass else 0,
                      "beyond": beyond,
                      "passes": len(tails)},
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    if tracer is not None:
        per_request = len(requests)
        record["per_layer"] = layer_metrics(tracer.spans, len(passes))
        record["pass_counts"] = [
            pass_counts(tracer.spans, range(k * per_request, (k + 1) * per_request))
            for k in range(len(passes))]
        record["span_file"] = str(root / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")
        tracer.write_spans(record["span_file"])
    return record


def _run_pass(requests, index, clock, tracer, out_root, references, checks) -> dict:
    wall = 0.0
    solver_failures = 0
    for i, req in enumerate(requests):
        request_id = index * len(requests) + i
        clock.request = request_id
        if tracer is not None:
            tracer.request = request_id
        out_dir = out_root / f"r{i:02d}"
        raw = copy.deepcopy(req.raw)
        start = time.perf_counter()
        result, failure = None, None
        try:
            result = app.run_scenario(config.config_from_dict(raw), out_dir)
        except SolverFailure as exc:
            failure = exc
        wall += time.perf_counter() - start
        solver_failures += failure is not None
        check = workloads.check_request(req, result, out_dir, references.get(i))
        checks.append({"pass": index, "request": req.label, "ok": check.ok,
                       "err": check.err, "detail": check.detail,
                       "solver_failure": None if failure is None else
                       f"{type(failure).__name__} at t = "
                       f"{failure.diagnostics.get('time', math.nan):.6g} s: {str(failure)[:300]}"})
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"wall_s": wall, "attempted": len(requests), "solver_failures": solver_failures}
