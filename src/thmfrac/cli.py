"""Command-line interface.

Subcommands: ``run`` (preset name or config file), ``verify`` (benchmark
harness) and ``mesh-dump`` (VTK of a preset's mesh). Exit codes: 0 success,
2 config error, 3 solver failure, 4 verification failure. The THMFRAC_LOG
environment variable ({error, info, debug}) controls verbosity.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from pathlib import Path

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# the names of verify.BENCHMARKS; listed here because importing verify
# imports numpy, which must wait until the thread cap is set
VERIFY_BENCHMARKS = ("kgd", "stabilization", "terzaghi", "thermal_consolidation",
                     "thermal_trend")


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("THMFRAC_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _pin_threads(n: int):
    # must happen before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))


def _parse_dt_schedule(text: str, total_time: float) -> list[tuple[float, float]]:
    """Parse "10x0.01,then 0.1" style schedules; "then" fills the remainder."""
    schedule: list[tuple[float, float]] = []
    elapsed = 0.0
    for part in (p.strip() for p in text.split(",")):
        if part.startswith("then "):
            dt = float(part[5:])
            remaining = max(total_time - elapsed, 0.0)
            schedule.append((remaining, dt))
            elapsed += remaining
        elif "x" in part:
            n_str, dt_str = part.split("x", 1)
            n, dt = int(n_str), float(dt_str)
            schedule.append((n * dt, dt))
            elapsed += n * dt
        else:
            raise ValueError(f"cannot parse dt schedule segment {part!r} "
                             "(expected 'NxDT' or 'then DT')")
    return schedule


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key.path=value")
        path, value_str = item.split("=", 1)
        try:
            value = json.loads(value_str)
        except json.JSONDecodeError:
            value = value_str
        keys = path.strip().split(".")
        node = raw
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ValueError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return raw


def _load_config(args):
    from .config import config_from_dict, config_to_dict
    from .presets import PRESETS, get_preset

    name = args.scenario
    if name in PRESETS:
        factory = PRESETS[name]
        kwargs = {}
        sig = inspect.signature(factory).parameters
        if getattr(args, "dT", None) is not None and "dT" in sig:
            kwargs["dT"] = args.dT
        if getattr(args, "fast", False) and "fast" in sig:
            kwargs["fast"] = True
        cfg = get_preset(name, **kwargs)
        raw = config_to_dict(cfg)
    else:
        path = Path(name)
        if not path.exists():
            raise FileNotFoundError(
                f"{name!r} is neither a preset ({sorted(PRESETS)}) nor a file")
        raw = json.loads(path.read_text())
    if getattr(args, "override", None):
        raw = _apply_overrides(raw, args.override)
    if getattr(args, "dt_schedule", None):
        total = sum(d for d, _ in raw["controls"]["dt_schedule"])
        raw["controls"]["dt_schedule"] = [
            list(e) for e in _parse_dt_schedule(args.dt_schedule, total)]
    return config_from_dict(raw, name_hint=name)


def _cmd_run(args) -> int:
    from .app import run_scenario
    from .errors import ConfigError, SolverFailure

    try:
        cfg = _load_config(args)
    except (ConfigError, FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else Path("out") / cfg.name
    try:
        run_scenario(cfg, out_dir)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"completed; outputs in {out_dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .errors import SolverFailure
    from .verify import format_report, run_verification

    try:
        report = run_verification(args.benchmark, fast=args.fast)
    except KeyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure during verification: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(format_report(report))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"report written to {out}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _cmd_mesh_dump(args) -> int:
    from .errors import ConfigError
    from .io_vtk import write_vtk
    from .scenario import build_simulation

    try:
        cfg = _load_config(args)
    except (ConfigError, FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sim = build_simulation(cfg)
    out = Path(args.out) if args.out else Path(f"{cfg.name}_mesh.vtk")
    import numpy as np

    crack = np.zeros(sim.mesh.n_nodes)
    crack[sim.crack_nodes] = 1.0
    write_vtk(out, sim.mesh, point_data={"crack": crack},
              cell_data={"h_e": sim.mesh.h_e, "Gc": sim.gc_elem},
              title=f"{cfg.name} mesh")
    print(f"mesh written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thmfrac",
        description="Thermo-hydro-mechanical phase-field hydraulic fracturing")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS/OpenMP thread cap (default 1, reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset or a JSON scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="output directory (default out/<name>)")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY.PATH=VALUE")
    p_run.add_argument("--dt-schedule", help='e.g. "10x0.01,then 0.1"')
    p_run.add_argument("--dT", type=float, help="injection temperature drop [K]")
    p_run.add_argument("--fast", action="store_true",
                       help="coarse variant for presets that support it")

    p_ver = sub.add_parser("verify", help="run a verification benchmark")
    p_ver.add_argument("benchmark", choices=VERIFY_BENCHMARKS)
    p_ver.add_argument("--fast", action="store_true")
    p_ver.add_argument("--out", help="write the JSON report here")

    p_mesh = sub.add_parser("mesh-dump", help="write a preset's mesh as VTK")
    p_mesh.add_argument("scenario")
    p_mesh.add_argument("--out")
    p_mesh.add_argument("--fast", action="store_true")

    args = parser.parse_args(argv)
    _pin_threads(args.threads)
    _setup_logging()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_mesh_dump(args)


if __name__ == "__main__":
    sys.exit(main())
