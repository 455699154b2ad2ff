"""Record the probe-series references of ``kgd_growth`` and ``thermal_trend``.

Runs every request of the given variants through ``app.run_scenario`` and
stores its probe series (``series.csv``), its status and, for a failed
request, the failure message in ``references/<workload>.json``. Run it on
the commit whose outputs later versions must reproduce:

    python3 perfbench/record_references.py --workload kgd_growth --variants 0
    python3 perfbench/record_references.py --workload thermal_trend --variants 0 1 2 3 4 5 6 7
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys

from run import ROOT, pin_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("kgd_growth", "thermal_trend"))
    parser.add_argument("--variants", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from thmfrac import app, config
    from thmfrac.errors import SolverFailure

    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {"variants": {}}
    out_dir = ROOT / ".bench_out" / f"record-{args.workload}-{os.getpid()}"
    for variant in args.variants:
        entries = []
        for req in workloads.GENERATORS[args.workload](variant):
            failure = None
            try:
                app.run_scenario(config.config_from_dict(copy.deepcopy(req.raw)), out_dir)
            except SolverFailure as exc:
                failure = (f"{type(exc).__name__} at t = {exc.diagnostics.get('time')} s: "
                           f"{str(exc)[:400]}")
            series = workloads.read_series(out_dir)
            entries.append({"request": req.label, "inputs": req.inputs,
                            "status": "failed" if failure else "completed",
                            "failure": failure,
                            "series": {k: v.tolist() for k, v in series.items()}})
            shutil.rmtree(out_dir, ignore_errors=True)
            print(f"{req.label}: {entries[-1]['status']}, {len(series['time_s'])} outputs",
                  flush=True)
        table["variants"][str(variant)] = entries
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
