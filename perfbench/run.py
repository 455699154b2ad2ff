"""Benchmark of the thmfrac simulator.

Run from the repository root:

    python3 perfbench/run.py --workload poro_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single workload runs in this process and prints its metrics, the result
of its output checks and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.

``--workload all`` runs every workload in fresh child processes: once
untraced and twice traced, reports the tracing overhead (traced minus
untraced ``wall_s``) and checks that the deterministic per-pass counts of
the two traced runs are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("poro_batch", "kgd_growth", "thermal_trend", "terzaghi_batch")
BLAS_THREADS = 1
DETAIL_PREFIX = "detail: "


def pin_threads():
    # must happen before numpy is first imported; never above the core count
    cap = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size requests (smoke runs; no reference series)")
    return parser.parse_args(argv)


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _print_record(rec: dict):
    env = rec["environment"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
          f"passes {rec['passes']} x {rec['requests_per_pass']} requests")
    print(f"environment: nproc {env['nproc']} (affinity {env['affinity']}), "
          f"threads {env['threads']}, numpy {env['numpy']}, scipy {env['scipy']}")
    units = {"wall_s": "s", "setup_s": "s", "step_p50_s": "s", "step_tail_s": "s",
             "steps_per_s": "1/s", "requests_per_s": "1/s", "failed_frac": "ratio",
             "ref_err": "ratio", "peak_rss_mb": "MB"}
    for key, value in rec["end_to_end"].items():
        extra = ""
        if key == "step_tail_s":
            t = rec["step_tail"]
            extra = (f"  (p{t['percentile']:g} of the {t['samples']} steps of a pass, "
                     f"{t['beyond']} beyond; median of {t['passes']} passes)")
        print(f"  {key:<16} {value:.6g} {units[key]}{extra}")
    for key, value in rec.get("per_layer", {}).items():
        print(f"  {key:<40} {value:.6g}")
    print(f"output check: {'PASS' if rec['correct'] else 'FAIL'}  "
          f"({rec['attempted']} attempted, {rec['solver_failures']} solver failures, "
          f"{rec['check_failures']} failed checks)")
    seen = set()
    for c in rec["checks"]:
        key = (c["request"], c["detail"], c["solver_failure"])
        if (not c["ok"] or c["solver_failure"]) and key not in seen:
            seen.add(key)
            print(f"  {c['request']}: check {c['detail']}; failure: {c['solver_failure']}")


def _result_line(rec: dict, spec: dict) -> dict:
    section = "per_layer" if rec["trace"] else "end_to_end"
    metrics = {m["name"]: {"value": rec[section][m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def _run_one(args) -> int:
    import measure

    rec = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               ROOT, small=args.small)
    _print_record(rec)
    print(DETAIL_PREFIX + json.dumps(rec, default=str))
    print(json.dumps(_result_line(rec, _benchmark_spec())))
    return 0


def _child(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    for line in lines:
        if not line.startswith(DETAIL_PREFIX):
            print(line)
    return next(json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                if line.startswith(DETAIL_PREFIX))


def _run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        plain = _child(workload, args, 0)
        traced = [_child(workload, args, 1) for _ in range(2)]
        overhead = traced[0]["end_to_end"]["wall_s"] - plain["end_to_end"]["wall_s"]
        common = min(len(t["pass_counts"]) for t in traced)
        same = traced[0]["pass_counts"][:common] == traced[1]["pass_counts"][:common]
        ok &= same and all(r["correct"] and not r["failed"] for r in [plain] + traced)
        print(f"== {workload}: tracing overhead {overhead:+.4g} s per pass "
              f"(traced wall_s {traced[0]['end_to_end']['wall_s']:.4g} s, "
              f"untraced {plain['end_to_end']['wall_s']:.4g} s); deterministic counts "
              f"{'repeat exactly' if same else 'DIFFER'} over {common} pass(es): "
              f"{traced[0]['pass_counts'][0]}")
        print()
    print(f"all workloads: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "thmfrac").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout of the repository; {ROOT} lacks "
              "src/thmfrac or BENCHMARK.json", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
