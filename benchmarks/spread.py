"""Run one workload over several seeds; report each metric's median and quartile spread.

    python3 benchmarks/spread.py --workload NAME [--seeds 1,2,...] [--trace 0|1]

Spread is (Q3 - Q1)/median, quartiles from statistics.quantiles(values, n=4).
With --trace 0 each end-to-end metric is marked ok when its spread is below
a third of its bound in BENCHMARK.json (setup_s has no spread limit).  Runs
are sequential; the raw results go to .bench_out/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import OUT, ROOT


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if res.returncode != 0:
            sys.exit(f"seed {seed}: exit code {res.returncode}\n{res.stderr}")
        result = json.loads(res.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)

    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
    ok = all(r["correct"] for r in runs)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        verdict = ""
        if name in bounds and name != "setup_s":
            good = spread < bounds[name] / 3
            ok &= good
            verdict = f"  {'ok' if good else 'TOO WIDE'} (bound {bounds[name]})"
        counts = " repeats" if len(set(values)) == 1 else ""
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{verdict}{counts}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
