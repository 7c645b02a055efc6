"""Regenerate benchmarks/reference.json: the stored outputs every benchmark run checks against.

    python3 benchmarks/make_reference.py [--source-commit SHA]

Runs every sweep workload once and every query of the pool once through
calmir.cli.main, and stores pressure, est_error and envelopes (and the
asympt fields) exactly as printed.  Regenerate only when the outputs are
meant to change; the file is the correctness gate for later changes.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys

import run
import workloads as wl


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--source-commit", default=None, help="commit the outputs were produced at")
    args = p.parse_args()

    calmir = run.import_calmir()
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = {}
        for name, text in wl.scenario_texts(calmir).items():
            paths[name] = work / f"{name}.txt"
            paths[name].write_text(text)

        sweeps = {}
        for name, spec in wl.SWEEPS.items():
            csv = work / f"{name}.csv"
            code, _, err = run.run_cli(calmir, ["sweep", str(paths[name]), "-o", str(csv),
                                                "--workers", str(spec.workers), "--quiet"])
            if code != 0:
                sys.exit(f"{name}: exit code {code}\n{err}")
            sweeps[name] = wl.sweep_records(csv.read_text())
            print(f"{name}: {len(sweeps[name])} rows", flush=True)

        queries = {}
        for q in wl.query_pool():
            code, out, err = run.run_cli(calmir, q.argv(paths[q.scenario]))
            if code != 0:
                sys.exit(f"{q.key}: exit code {code}\n{err}")
            queries[q.key] = wl.force_record(out) if q.kind == "force" else wl.asympt_record(out)
        print(f"queries: {len(queries)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = [f"{name} row {i}: {v}" for name, rows in sweeps.items()
           for i, v in enumerate(wl.check_sweep(rows, rows)) if v]
    bad += [f"{k}: {v}" for k, rec in queries.items() if "pressure_norm" in rec
            for v in [wl.check_pressure(rec, rec)] if v]
    if bad:
        sys.exit("stored outputs fail their own envelope check:\n" + "\n".join(bad))

    provenance = {**run.machine(), "cpu_model": cpu_model(), "calmir": calmir.__version__,
                  "source_commit": args.source_commit}
    run.REFERENCE.write_text(json.dumps(
        {"provenance": provenance, "sweeps": sweeps, "queries": queries}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
