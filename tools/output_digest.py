"""Digest of the outputs of a fixed set of benchmark requests.

Runs the seed-1 requests of poro_batch, kgd_growth and terzaghi_batch and
the seed-0 requests of thermal_trend once each through
``thmfrac.app.run_scenario``, with the code of the checkout this file sits
in, and prints:

- one line ``<sha256>  <workload>/<request>/<file>`` per output file, the
  ``FAILED`` marker and ``manifest.json`` included, so that a failure's
  message and increment history are digested with the outputs;
- one line ``<sha256>  <workload>/<request>/series.csv:<column>`` per
  column of each ``series.csv`` (its header and values as written, one a
  line), so that a diff names the columns that changed;
- one line per request with the outer / inner passes of its accepted steps
  and, for a request that raised, the failure type and message;
- one line per workload with its outer / inner totals.

Two checkouts produce byte-identical outputs when their digests are equal:

    python3 tools/output_digest.py > a.txt     # in one checkout
    python3 tools/output_digest.py > b.txt     # in the other
    diff a.txt b.txt

BLAS and OpenMP run on one thread, as in ``perfbench/run.py``. The four
workloads take about 6 s on a 2-core Xeon.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("poro_batch", 1), ("kgd_growth", 1), ("terzaghi_batch", 1), ("thermal_trend", 0))

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"      # before numpy is first imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from thmfrac import app, config, staggered  # noqa: E402
from thmfrac.errors import SolverFailure  # noqa: E402


def _counting_steps(counts: list[int]):
    """``Simulation.time_step`` that adds each accepted step's outer and
    inner passes to ``counts``."""
    time_step = staggered.Simulation.time_step

    def counted(self, *args, **kwargs):
        state, report = time_step(self, *args, **kwargs)
        counts[0] += report.outer_iters
        counts[1] += sum(report.inner_iters)
        return state, report

    return counted


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _columns(path: Path) -> list[tuple[str, str]]:
    """(header, digest) of each column of a CSV file."""
    with open(path, newline="") as fh:
        columns = list(zip(*csv.reader(fh)))
    return [(col[0], _digest("\n".join(col).encode())) for col in columns]


def main() -> int:
    counts = [0, 0]
    staggered.Simulation.time_step = _counting_steps(counts)
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in RUNS:
            total = [0, 0]
            for i, req in enumerate(workloads.GENERATORS[name](seed)):
                out_dir = Path(tmp) / name / f"r{i:02d}"
                counts[:] = [0, 0]
                try:
                    app.run_scenario(config.config_from_dict(copy.deepcopy(req.raw)), out_dir)
                    outcome = "completed"
                except SolverFailure as exc:
                    outcome = f"{type(exc).__name__}: {str(exc)[:200]}"
                for f in sorted(out_dir.iterdir()):
                    print(f"{_digest(f.read_bytes())}  {name}/r{i:02d}/{f.name}")
                    if f.name == "series.csv":
                        for header, digest in _columns(f):
                            print(f"{digest}  {name}/r{i:02d}/{f.name}:{header}")
                print(f"{name}/r{i:02d} {req.label}: outer / inner {counts[0]} / {counts[1]}, "
                      f"{outcome}")
                total = [total[0] + counts[0], total[1] + counts[1]]
            print(f"{name} seed {seed}: outer / inner {total[0]} / {total[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
