"""calmir benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a calmir checkout; the package is imported from
./src, never from an installed copy.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are for people.  With --trace 0 the metrics are the end-to-end ones:

  setup_s       median of SETUP_REPEATS set-ups: import calmir in a fresh
                interpreter that has already imported numpy, generate the
                scenario files through calmir's API and parse them back
  wall_s        median wall time of one unit of work: one `calmir sweep`
                call, or one pass over the query pool
  cpu_s         process CPU time (user + sys, all threads) of the same unit
  peak_rss_mb   peak resident set size of the run
  query_p50_ms  median latency of one CLI call: a force or asympt call on
                point-queries, the whole `calmir sweep` call on the sweeps
  query_p90_ms  90th percentile of the same calls; a sweep run makes only
                1-3 calls, so there it is the upper end of those, not a tail

Units repeat until --seconds have elapsed (at least one).  Every point (sweep
row or query) is checked against reference.json; failures count in
"failed" and make "correct" false.

With --trace 1 the run measures the same untraced units, then runs the first
unit again with every public calmir function wrapped (see spans.py) and
reports the per-layer metrics.  Count metrics of that traced unit repeat
exactly for a given seed and do not depend on the sweep's worker count.
Per-run details (hook coverage, span totals) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def import_calmir():
    """Import calmir from this checkout's src/; exit 2 without a result if it is missing."""
    if not (SRC / "calmir" / "__init__.py").is_file():
        print(f"benchmark: no calmir package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import calmir
    import calmir.cli

    if Path(calmir.__file__).resolve().parent != (SRC / "calmir").resolve():
        print(f"benchmark: imported calmir from {calmir.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return calmir


# numpy is imported before the clock starts: its import time is not calmir's
# set-up and would bury it (~100 ms against ~50 ms).
_IMPORT_PROBE = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import calmir, calmir.cli; print(time.perf_counter() - t)"
)


def child_import_seconds() -> float:
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def set_up(calmir, work: Path):
    """Time SETUP_REPEATS set-ups (fresh import, scenario files written and parsed); returns (paths, seconds)."""
    samples = []
    paths = {}
    for rep in range(SETUP_REPEATS):
        t_import = child_import_seconds()
        t0 = time.perf_counter()
        target = work / f"setup{rep}"
        target.mkdir(parents=True)
        paths = {}
        for name, text in wl.scenario_texts(calmir).items():
            p = target / f"{name}.txt"
            p.write_text(text)
            calmir.parse(p.read_bytes())
            paths[name] = p
        samples.append(t_import + time.perf_counter() - t0)
    return paths, samples


def run_cli(calmir, argv):
    """calmir.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = calmir.cli.main(argv)
        except Exception:  # an uncaught error is a failed point, not a crashed benchmark
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


class Outcome:
    """Points attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, what: str, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {reason}")


def sweep_unit(calmir, spec, scenario, csv_path, reference, outcome):
    """One `calmir sweep` call; returns (wall, cpu)."""
    argv = ["sweep", str(scenario), "-o", str(csv_path), "--workers", str(spec.workers), "--quiet"]
    t0, c0 = time.perf_counter(), time.process_time()
    code, _, err = run_cli(calmir, argv)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if code != 0:
        for i in range(len(reference)):
            outcome.add(f"row {i}", f"exit code {code}: {err.strip()[-300:]}")
    else:
        verdicts = wl.check_sweep(wl.sweep_records(csv_path.read_text()), reference)
        for i, v in enumerate(verdicts):
            outcome.add(f"row {i}", v)
    csv_path.unlink(missing_ok=True)
    return wall, cpu


def query_pass(calmir, queries, paths, reference, outcome):
    """One closed-loop pass; returns (wall, cpu, per-call latencies).

    Wall and CPU time sum over the calls only, so checking the outputs
    between calls is not measured.
    """
    lat = []
    cpu = 0.0
    for q in queries:
        t0, c0 = time.perf_counter(), time.process_time()
        code, out, err = run_cli(calmir, q.argv(paths[q.scenario]))
        lat.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        ref = reference.get(q.key)
        if code != 0:
            outcome.add(q.key, f"exit code {code}: {err.strip()[-300:]}")
        elif ref is None:
            outcome.add(q.key, "no stored reference")
        else:
            try:
                rec = wl.force_record(out) if q.kind == "force" else wl.asympt_record(out)
                outcome.add(q.key, (wl.check_pressure if q.kind == "force" else wl.check_asympt)(rec, ref))
            except (KeyError, ValueError) as exc:
                outcome.add(q.key, f"unreadable output ({exc!r}): {out[-200:]!r}")
    return sum(lat), cpu, lat


def layer_metrics(summary, coverage, untraced_wall, traced_wall, cores_busy):
    """Per-layer metrics of one traced unit; metrics of absent hooks are left out."""

    def has(*keys):
        return any(isinstance(coverage.get(k), list) for k in keys)

    def a(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0, "attrs": {}})

    m = {}
    if has("calmir.quadrature.rowwise_panel_integral"):
        refl, row = a("reflection"), a("quadrature.rowwise")
        m["reflection.points"] = (refl["points"], "count")
        m["reflection.s"] = (refl["s"], "s")
        m["reflection.ns_per_point"] = (1e9 * refl["s"] / refl["points"] if refl["points"] else 0.0, "ns")
        m["quadrature.rowwise.calls"] = (row["calls"], "count")
        m["quadrature.rowwise.passes"] = (row["attrs"].get("passes", 0), "count")
        m["quadrature.rowwise.points"] = (row["points"], "count")
        m["quadrature.rowwise.self_s"] = (row["self_s"], "s")
        final = row["attrs"].get("final_points", 0)
        m["quadrature.rowwise.useful_ratio"] = (final / row["points"] if row["points"] else 0.0, "ratio")
    if has("calmir.quadrature.adaptive_integral"):
        ad = a("quadrature.adaptive")
        m["quadrature.adaptive.calls"] = (ad["calls"], "count")
        m["quadrature.adaptive.points"] = (ad["points"], "count")
        m["quadrature.adaptive.self_s"] = (ad["self_s"], "s")
    if has("calmir.lifshitz.force_zero_T", "calmir.lifshitz.force_finite_T"):
        f = a("lifshitz.force")
        m["lifshitz.force.calls"] = (f["calls"], "count")
        m["lifshitz.force.self_s"] = (f["self_s"], "s")
    if has("calmir.lifshitz.force_finite_T"):
        m["lifshitz.matsubara_terms"] = (a("lifshitz.force")["attrs"].get("matsubara_terms", 0), "count")
    if has("calmir.lifshitz.force_zero_T"):
        m["lifshitz.outer_rows"] = (a("lifshitz.force")["attrs"].get("outer_rows", 0), "count")
    if has("calmir.lifshitz.bound_envelope"):
        b = a("lifshitz.bound_envelope")
        m["lifshitz.bound_envelope.calls"] = (b["calls"], "count")
        m["lifshitz.bound_envelope.s"] = (b["s"], "s")
    if has("calmir.materials.response_sample"):
        r = a("materials.response_sample")
        m["materials.response_sample.calls"] = (r["calls"], "count")
        m["materials.response_sample.points"] = (r["points"], "count")
        m["materials.response_sample.s"] = (r["s"], "s")
    for fname in ("hamaker_c3", "matched_media_force", "build_report"):
        if has(f"calmir.asymptotics.{fname}"):
            m[f"asymptotics.{fname}.s"] = (a(f"asymptotics.{fname}")["s"], "s")
    if has("calmir.asymptotics.polylog2", "calmir.asymptotics.polylog3"):
        m["asymptotics.polylog.s"] = (a("asymptotics.polylog")["s"], "s")
    if has("calmir.scenario.parse"):
        p = a("scenario.parse")
        m["scenario.parse.calls"] = (p["calls"], "count")
        m["scenario.parse.s"] = (p["s"], "s")
    if has("calmir.cli.main"):
        m["cli.self_s"] = (a("cli")["self_s"], "s")
    m["cli.cores_busy"] = (cores_busy, "cores")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(calmir, args, paths, reference, outcome):
    """The untraced loop; returns per-unit walls, cpus and CLI call latencies."""
    walls, cpus, lat = [], [], []
    deadline = time.perf_counter() + args.seconds
    if args.workload in wl.SWEEPS:
        spec = wl.SWEEPS[args.workload]
        ref = reference["sweeps"][args.workload]
        n = 0
        while True:
            w, c = sweep_unit(calmir, spec, paths[args.workload], WORK / f"sweep{n}.csv", ref, outcome)
            walls.append(w)
            cpus.append(c)
            lat.append(w)
            n += 1
            if time.perf_counter() >= deadline:
                break
    else:
        for queries in wl.query_passes(args.seed):
            w, c, calls = query_pass(calmir, queries, paths, reference["queries"], outcome)
            walls.append(w)
            cpus.append(c)
            lat.extend(calls)
            if time.perf_counter() >= deadline:
                break
    return walls, cpus, lat


def traced_unit(calmir, args, paths, reference, outcome):
    """The first unit again under full tracing; returns (wall, tracer, coverage)."""
    tracer = spans.Tracer()
    with spans.hooks(tracer) as coverage:
        if args.workload in wl.SWEEPS:
            w, _ = sweep_unit(calmir, wl.SWEEPS[args.workload], paths[args.workload],
                              WORK / "traced.csv", reference["sweeps"][args.workload], outcome)
        else:
            first = next(wl.query_passes(args.seed))
            w, _, _ = query_pass(calmir, first, paths, reference["queries"], outcome)
    return w, tracer, coverage


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    calmir = import_calmir()
    reference = json.loads(REFERENCE.read_text())
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths, setup_samples = set_up(calmir, work)
        # warm-up outside the timed section: first-call caches fill here
        run_cli(calmir, ["force", str(paths["fig1d"]), "-d", "10", "--tau", "0.3"])
        outcome = Outcome()
        walls, cpus, lat = measure(calmir, args, paths, reference, outcome)
        if args.trace:
            t_wall, tracer, coverage = traced_unit(calmir, args, paths, reference, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    info = {"workload": args.workload, "seed": args.seed, "calls": len(lat),
            "unit_walls": [round(w, 4) for w in walls], **machine()}
    print("run " + json.dumps(info))
    print(f"failed_frac {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} points)")
    for reason in outcome.reasons:
        print(f"FAILED {reason}")

    if args.trace:
        summary = tracer.summary()
        wall = statistics.median(walls)
        metrics = layer_metrics(summary, coverage, wall, t_wall, statistics.median(cpus) / wall)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"run": info, "coverage": coverage, "spans": summary,
             "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1, sort_keys=True))
        print("coverage " + json.dumps(coverage, sort_keys=True))
    else:
        lat_ms = [1e3 * x for x in lat]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "query_p50_ms": (percentile(lat_ms, 50), "ms"),
            "query_p90_ms": (percentile(lat_ms, 90), "ms"),
        }
        beyond = sum(x > metrics["query_p90_ms"][0] for x in lat_ms)
        print(f"query latency: {len(lat_ms)} calls, {beyond} beyond p90")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
