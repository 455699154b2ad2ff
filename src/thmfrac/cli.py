"""Command-line interface.

Subcommands: ``run`` (preset name or config file), ``verify`` (benchmark
harness) and ``mesh-dump`` (VTK of a preset's mesh). ``run --override``
sets any config value, such as ``controls.dt_schedule=[[0.1,0.01],[3.9,0.1]]``
(0.1 s at dt = 0.01 s, then 3.9 s at 0.1 s). ``--dT`` and ``--fast`` apply
only to presets that take them, and ``verify --fast`` only to benchmarks
with a coarse variant. Exit codes: 0 success, 2 config error
(including an unphysical material constant, such as a negative fluid
compressibility, a scenario that cannot be set up, such as a probe
outside the mesh, and an ``--out`` that is an existing path of the wrong
kind), 3 solver failure, 4 verification failure. The THMFRAC_LOG
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

from .errors import ConfigError, PointNotFound, SolverFailure

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


def _thread_cap(text: str) -> int:
    # OpenBLAS reads 0 or a negative count as "every core"
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _pin_threads(n: int | None):
    # must happen before numpy is first imported; a given --threads wins
    # over the environment, which otherwise wins over the default of 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        if n is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(n)


def _load_config(args):
    """A preset's or a JSON file's scenario, parsed with its overrides.
    ``--dT`` or ``--fast`` for a scenario that does not take it raises
    ValueError."""
    from .config import config_to_dict, parse_config
    from .presets import PRESETS, get_preset

    name = args.scenario
    kwargs = {}
    if getattr(args, "dT", None) is not None:
        kwargs["dT"] = args.dT
    if getattr(args, "fast", False):
        kwargs["fast"] = True
    takes = inspect.signature(PRESETS[name]).parameters if name in PRESETS else {}
    unused = sorted(kwargs.keys() - takes.keys())
    if unused:
        raise ValueError(f"{', '.join('--' + k for k in unused)} does not apply to "
                         f"scenario {name!r}")
    if name in PRESETS:
        text = json.dumps(config_to_dict(get_preset(name, **kwargs)))
    else:
        path = Path(name)
        if not path.exists():
            raise FileNotFoundError(
                f"{name!r} is neither a preset ({sorted(PRESETS)}) nor a file")
        text = path.read_text()
        name = path.stem
    return parse_config(text, name_hint=name, overrides=getattr(args, "override", None) or ())


def _out_path(out: Path, directory: bool) -> Path:
    """``out``, checked before any work: ValueError if it exists as a file
    where a ``directory`` goes, or the reverse, or sits below a file."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    must_be_dir = directory or existing != out
    if existing.is_dir() != must_be_dir:
        raise ValueError(f"--out {out}: {existing} is {'not ' * must_be_dir}a directory")
    return out


# a scenario that cannot be loaded or set up: a configuration error
_SETUP_ERRORS = (ConfigError, FileNotFoundError, PointNotFound, ValueError)


def _cmd_run(args) -> int:
    from .app import ScenarioRunner

    try:
        cfg = _load_config(args)
        out = _out_path(Path(args.out) if args.out else Path("out") / cfg.name, directory=True)
        runner = ScenarioRunner(cfg, out)
    except _SETUP_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        runner.execute()
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"completed; outputs in {runner.out_dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import format_report, run_verification, takes_fast

    try:
        if args.fast and not takes_fast(args.benchmark):
            raise ValueError(f"--fast does not apply to benchmark {args.benchmark!r}")
        out = _out_path(Path(args.out), directory=False) if args.out else None
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = run_verification(args.benchmark, fast=args.fast)
    except SolverFailure as exc:
        print(f"solver failure during verification: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(format_report(report))
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"report written to {out}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _cmd_mesh_dump(args) -> int:
    from .io_vtk import vtk_grid, write_vtk
    from .scenario import build_simulation

    try:
        cfg = _load_config(args)
        out = _out_path(Path(args.out) if args.out else Path(f"{cfg.name}_mesh.vtk"),
                        directory=False)
        sim = build_simulation(cfg)
    except _SETUP_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    import numpy as np

    crack = np.zeros(sim.mesh.n_nodes)
    crack[sim.crack_nodes] = 1.0
    out.parent.mkdir(parents=True, exist_ok=True)
    write_vtk(out, vtk_grid(sim.mesh), point_data={"crack": crack},
              cell_data={"h_e": sim.mesh.h_e, "Gc": sim.gc_elem},
              title=f"{cfg.name} mesh")
    print(f"mesh written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thmfrac",
        description="Thermo-hydro-mechanical phase-field hydraulic fracturing")
    parser.add_argument("--threads", type=_thread_cap,
                        help="BLAS/OpenMP thread cap, over *_NUM_THREADS "
                             "(default: those, else 1, reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset or a JSON scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="output directory (default out/<name>)")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="set one config value (JSON, else a string), "
                            "e.g. controls.dt_schedule=[[0.1,0.01],[3.9,0.1]]")
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
