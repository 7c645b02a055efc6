"""Workload inputs and output checks for the calmir benchmark.

Three workloads, chosen so that the planned changes to different modules
show on different ones:

* sweep-fig1c-T0: `calmir sweep` of the fig1c preset at tau = 0, one worker.
  A metal facing a metal under a thick magnetic coating, so every integrand
  point runs a Moebius layer step; the time is the reflection callback and
  the row-wise kappa quadrature under the adaptive xi integral.  The plain
  single-threaded baseline; it never reaches the Matsubara loop, hamaker_c3
  or the polylog envelope.
* sweep-fig1d-tau0.01: `calmir sweep` of fig1d at tau = 0.01, two workers.
  Two homogeneous mirrors, so few interfaces; the time is the Matsubara
  sum (up to ~2000 terms per row) of row-wise kappa integrals,
  bound_envelope and one finite-temperature hamaker_c3, on small arrays
  under the GIL.
* point-queries: a closed loop with one client sending `calmir force` and
  `calmir asympt` calls in a 3:1 mix, each after the previous one returns,
  over the 8 presets plus fig1d with a gap index-matched to mirror 2.  Each
  call parses its scenario again and works on small arrays, so per-call
  overhead, scenario parsing and asymptotics dominate.

Query inputs come from a fixed pool (scenario x tau x 64 log-spread
distances in [1, 50 Lambda]) whose reference outputs are stored in
reference.json; the run seed fixes the order in which the pool is visited.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

LAMBDA = 2.0 * math.pi
MATCHED = "fig1d-matched"
QUERY_SCENARIOS = ("fig1a", "fig1b", "fig1c", "fig1d", "fig3a", "fig3b", "fig3c", "fig3d", MATCHED)
QUERY_TAUS = (0.01, 0.1, 0.3)
D_PER_COMBO = 64
D_MIN, D_MAX = 1.0, 50.0 * LAMBDA
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepSpec:
    preset: str
    tau: float
    workers: int


SWEEPS = {
    "sweep-fig1c-T0": SweepSpec("fig1c", 0.0, 1),
    "sweep-fig1d-tau0.01": SweepSpec("fig1d", 0.01, 2),
}
WORKLOADS = tuple(SWEEPS) + ("point-queries",)


@dataclass(frozen=True)
class Query:
    kind: str  # "force" or "asympt"
    scenario: str
    tau: float
    d: float

    @property
    def key(self) -> str:
        return f"{self.kind} {self.scenario} tau={self.tau!r} d={self.d!r}"

    def argv(self, path) -> list[str]:
        return [self.kind, str(path), "-d", repr(self.d), "--tau", repr(self.tau)]


def query_pool() -> list[Query]:
    """Every query the point-queries workload can send, 3 force : 1 asympt.

    Distances are stratified in log d with a golden-ratio offset, one per
    stratum, so the pool spreads evenly over [D_MIN, D_MAX] without relying
    on a random generator whose stream could change between versions.
    """
    pool = []
    span = math.log(D_MAX / D_MIN)
    combo = 0
    for scn in QUERY_SCENARIOS:
        for tau in QUERY_TAUS:
            for k in range(D_PER_COMBO):
                frac = (k + ((combo + k) * _GOLDEN) % 1.0) / D_PER_COMBO
                d = float(f"{D_MIN * math.exp(span * frac):.6g}")
                kind = "asympt" if (k + combo) % 4 == 0 else "force"
                pool.append(Query(kind, scn, tau, d))
            combo += 1
    return pool


def query_passes(seed: int):
    """Endless sequence of passes over the pool, each in a seeded order."""
    rng = random.Random(seed)
    pool = query_pool()
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


def scenario_texts(calmir) -> dict[str, str]:
    """Scenario files by name: every query scenario, plus one per sweep workload."""
    texts = {}
    for name in QUERY_SCENARIOS:
        if name == MATCHED:
            base = calmir.preset_scenario("fig1d")
            m2 = base.mirror2.substrate
            gap = calmir.ResponseModel.lorentz(m2.eps_strength, m2.eps_resonance)
            scn = dataclasses.replace(base, gap=gap, materials={**base.materials, "gap": gap})
        else:
            scn = calmir.preset_scenario(name)
        texts[name] = calmir.serialize(scn)
    for wl, spec in SWEEPS.items():
        scn = dataclasses.replace(calmir.preset_scenario(spec.preset), temperature=spec.tau)
        texts[wl] = calmir.serialize(scn)
    return texts


# --- output parsing and checks --------------------------------------------------------

# Outputs are printed with 13 significant digits; anything closer is round-off.
ROUNDOFF = 1e-11
# hamaker_c3 and matched_media_force integrate to rel_tol 1e-10.
ASYMPT_TOL = 1e-8


def parse_keyvals(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def force_record(text: str) -> dict:
    kv = parse_keyvals(text)
    return {k: float(kv[k]) for k in ("pressure_norm", "est_error", "bound_lo", "bound_hi")}


def asympt_record(text: str) -> dict:
    kv = parse_keyvals(text)
    rec = {}
    for k in ("c3_norm", "c1_norm", "f_casimir", "f_thermal", "lambda_T"):
        if k in kv:
            try:
                rec[k] = float(kv[k])
            except ValueError:
                rec[k] = kv[k]
    rec["regime"] = kv.get("regime")
    return rec


def sweep_records(csv_text: str) -> list[dict]:
    lines = csv_text.strip().splitlines()
    cols = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        vals = dict(zip(cols, line.split(",")))
        rows.append({
            "d": float(vals["d_over_c_by_omega"]),
            "pressure_norm": float(vals["pressure_norm"]),
            "est_error": float(vals["est_error"]),
            "bound_lo": float(vals["bound_lo"]),
            "bound_hi": float(vals["bound_hi"]),
            "c3": float(vals["c3_over_d3"]) if vals["c3_over_d3"] else None,
        })
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def check_pressure(out: dict, ref: dict) -> str | None:
    """None if a pressure point passes, else the reason it fails.

    Fails when the pressure leaves the stored ideal-mirror envelope by more
    than its est_error, when the reported envelope differs from the stored
    one, or when the pressure differs from the stored value by more than the
    two est_errors plus round-off.  Bit-identity is not required.
    """
    p, err = out["pressure_norm"], out["est_error"]
    if not (math.isfinite(p) and math.isfinite(err) and err >= 0.0):
        return f"non-finite pressure or error: {p}, {err}"
    for k in ("bound_lo", "bound_hi"):
        if not _close(out[k], ref[k], ROUNDOFF):
            return f"{k} {out[k]!r} differs from stored {ref[k]!r}"
    if not (ref["bound_lo"] - err <= p <= ref["bound_hi"] + err):
        return f"pressure {p!r} outside [{ref['bound_lo']!r}, {ref['bound_hi']!r}] by more than {err!r}"
    slack = err + ref["est_error"] + ROUNDOFF * max(abs(p), abs(ref["pressure_norm"]))
    if abs(p - ref["pressure_norm"]) > slack:
        return f"pressure {p!r} differs from stored {ref['pressure_norm']!r} by more than {slack!r}"
    return None


def check_asympt(out: dict, ref: dict) -> str | None:
    if out.get("regime") != ref.get("regime"):
        return f"regime {out.get('regime')!r} != stored {ref.get('regime')!r}"
    for k in ("c3_norm", "c1_norm", "f_casimir", "f_thermal", "lambda_T"):
        a, b = out.get(k), ref.get(k)
        if isinstance(a, float) and isinstance(b, float):
            rel = ASYMPT_TOL if k in ("c3_norm", "c1_norm") else ROUNDOFF
            if not _close(a, b, rel):
                return f"{k} {a!r} differs from stored {b!r}"
        elif a != b:
            return f"{k} {a!r} != stored {b!r}"
    return None


def check_sweep(rows: list[dict], ref_rows: list[dict]) -> list[str | None]:
    """One verdict per stored row; a missing or shifted row fails."""
    verdicts = []
    for i, ref in enumerate(ref_rows):
        if i >= len(rows):
            verdicts.append("row missing")
            continue
        row = rows[i]
        if not _close(row["d"], ref["d"], ROUNDOFF):
            verdicts.append(f"distance {row['d']!r} != stored {ref['d']!r}")
        elif (row["c3"] is None) != (ref["c3"] is None) or (
            row["c3"] is not None and not _close(row["c3"], ref["c3"], ASYMPT_TOL)
        ):
            verdicts.append(f"c3 {row['c3']!r} != stored {ref['c3']!r}")
        else:
            verdicts.append(check_pressure(row, ref))
    if len(rows) > len(ref_rows):
        verdicts.extend(["extra row"] * (len(rows) - len(ref_rows)))
    return verdicts
