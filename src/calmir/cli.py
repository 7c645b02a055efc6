"""Command-line front end.

    calmir force SCENARIO -d D [--tau TAU]     single-point pressure
    calmir sweep SCENARIO -o OUT.csv           distance sweep to CSV
    calmir asympt SCENARIO -d D [--tau TAU]    closed-form context
    calmir preset NAME -o FILE                 write a bundled scenario

Pressures are reported as F d^3/(hbar Omega); pass --omega-rad-s to add an
SI column (Pa).  A sweep is one `force_sweep` call in the calling thread,
which evaluates the reflection once where its distances share nodes: at
tau > 0 in one Matsubara loop for all of its distances, at tau = 0 on the
first xi pass that each distance shares with the one before it.  Rows are
written in order, and each row is the same whatever else is swept;
--workers is accepted and has no effect.  Exit codes: 0 ok, 1 usage, 2
scenario error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .asymptotics import build_report, c3_or_none
from .errors import ConvergenceError, ScenarioError, UnsupportedConfigurationError
from .lifshitz import QuadratureConfig, force_finite_T, force_sweep, force_zero_T
from .presets import PRESET_NAMES, preset_scenario
from .scenario import Scenario, parse, serialize

HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m/s

# the ForceResult fields that `force` prints and `sweep` writes, in this order
RESULT_FIELDS = ("pressure_norm", "te_part", "tm_part", "bound_lo", "bound_hi")
CSV_COLUMNS = ("d_over_c_by_omega", "d_over_lambda") + RESULT_FIELDS + ("c3_over_d3", "est_error")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The calmir parser, built once per process: parse_args leaves it unchanged."""
    p = _Parser(prog="calmir", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=float, default=None, help="relative tolerance")
        sp.add_argument("--max-matsubara", type=int, default=None,
                        help="highest Matsubara index summed at tau > 0")
        sp.add_argument("--omega-rad-s", type=_positive_float, default=None,
                        help="reference frequency in rad/s, > 0; adds SI pressure output")
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("force", help="pressure at one distance")
    sp.add_argument("scenario", type=Path)
    sp.add_argument("-d", "--distance", type=float, required=True, help="gap in c/Omega")
    sp.add_argument("--tau", type=float, default=None, help="override the file temperature")
    common(sp)

    sp = sub.add_parser("sweep", help="distance sweep to CSV")
    sp.add_argument("scenario", type=Path)
    sp.add_argument("-o", "--output", type=Path, required=True)
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="accepted, has no effect: every sweep runs in the calling thread")
    common(sp)

    sp = sub.add_parser("asympt", help="closed-form limits and regime")
    sp.add_argument("scenario", type=Path)
    sp.add_argument("-d", "--distance", type=float, required=True)
    sp.add_argument("--tau", type=float, default=None)

    sp = sub.add_parser("preset", help="write a bundled scenario file")
    sp.add_argument("name", choices=PRESET_NAMES)
    sp.add_argument("-o", "--output", type=Path, required=True)
    return p


def _config(args) -> QuadratureConfig:
    kw = {}
    if args.tol is not None:
        kw["rel_tol"] = args.tol
    if args.max_matsubara is not None:
        kw["max_matsubara"] = args.max_matsubara
    return QuadratureConfig(**kw)


def _load(path: Path) -> Scenario:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read '{path}': {exc.strerror}") from None
    return parse(data)


def _cannot_write(path: Path, exc: OSError) -> ValueError:
    return ValueError(f"cannot write '{path}': {exc.strerror}")


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _check_writable(path: Path) -> None:
    """Raise `_write`'s error now if `path` cannot be opened for writing; a
    file this check creates is removed again, an existing one is not changed."""
    existed = path.exists() or path.is_symlink()
    try:
        path.open("a").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    if not existed:
        path.unlink()


def _force_at(scn: Scenario, d: float, tau: float, cfg: QuadratureConfig):
    if tau == 0.0:
        return force_zero_T(scn.mirror1, scn.mirror2, scn.gap, d, cfg)
    return force_finite_T(scn.mirror1, scn.mirror2, scn.gap, d, tau, cfg)


def _si_pressure(pressure_norm: float, d: float, omega: float) -> float:
    # F = pressure_norm * hbar Omega / d^3 with d in metres (d c/Omega)
    return pressure_norm * HBAR * omega**4 / (C_LIGHT**3 * d**3)


def _substrates(scn: Scenario):
    """The mirrors' materials if both are homogeneous, else (None, None)."""
    if scn.mirror1.layers or scn.mirror2.layers:
        return None, None
    return scn.mirror1.substrate, scn.mirror2.substrate


def cmd_force(args) -> int:
    scn = _load(args.scenario)
    cfg = _config(args)
    tau = scn.temperature if args.tau is None else args.tau
    res = _force_at(scn, args.distance, tau, cfg)
    if args.quiet:
        print(f"{res.pressure_norm:.12e}")
        return 0
    print(f"d={args.distance:.12e}")
    print(f"tau={tau:.12e}")
    for name in RESULT_FIELDS:
        print(f"{name}={getattr(res, name):.12e}")
    print(f"n_terms_used={res.n_terms_used}")
    print(f"est_error={res.est_error:.12e}")
    if args.omega_rad_s:
        print(f"F_SI_Pa={_si_pressure(res.pressure_norm, args.distance, args.omega_rad_s):.12e}")
    return 0


def _sweep_rows(scn: Scenario, tau: float, cfg: QuadratureConfig, omega):
    distances = scn.sweep.distances()
    c3 = c3_or_none(*_substrates(scn), scn.gap, tau)
    results = force_sweep(scn.mirror1, scn.mirror2, scn.gap, [float(d) for d in distances], tau, cfg)
    rows = []
    for d, res in zip(distances, results):
        row = [f"{d:.12e}", f"{d / (2.0 * math.pi):.12e}"]
        row += (f"{getattr(res, name):.12e}" for name in RESULT_FIELDS)
        row += [f"{c3:.12e}" if c3 is not None else "", f"{res.est_error:.12e}"]
        if omega:
            row.append(f"{_si_pressure(res.pressure_norm, float(d), omega):.12e}")
        rows.append(",".join(row))
    header = ",".join(CSV_COLUMNS + (("F_SI_Pa",) if omega else ()))
    return header + "\n" + "\n".join(rows) + "\n"


def _suffixed(path: Path, tau: float) -> Path:
    return path.with_name(f"{path.stem}_tau{tau:g}{path.suffix}")


def cmd_sweep(args) -> int:
    scn = _load(args.scenario)
    cfg = _config(args)
    taus = scn.temperatures if scn.temperatures is not None else (scn.temperature,)
    outs = [_suffixed(args.output, tau) for tau in taus] if len(taus) > 1 else [args.output]
    for i, out in enumerate(outs):
        if out in outs[:i]:
            raise ValueError(
                f"temperatures {taus[outs.index(out)]!r} and {taus[i]!r} would both "
                f"write {out}: a family's temperatures must differ at 6 significant digits"
            )
    # a path that cannot be written fails before any row is computed
    for out in outs:
        _check_writable(out)
    for tau, out in zip(taus, outs):
        text = _sweep_rows(scn, tau, cfg, args.omega_rad_s)
        _write(out, text)
        if not args.quiet:
            print(f"wrote {out}")
    return 0


def cmd_asympt(args) -> int:
    scn = _load(args.scenario)
    tau = scn.temperature if args.tau is None else args.tau
    mirror1, mirror2 = _substrates(scn)
    report = build_report(args.distance, tau, mirror1=mirror1, mirror2=mirror2, gap=scn.gap)
    if report.c3_norm is not None:
        print(f"c3_norm={report.c3_norm:.12e}")
    elif mirror1 is None:
        print("c3_norm=unavailable (layered mirrors)")
    else:
        print("c3_norm=unavailable (nonretarded limit diverges)")
    if report.c1_norm is not None:
        print(f"c1_norm={report.c1_norm:.12e}")
    print(f"f_casimir={report.f_casimir:.12e}")
    print(f"f_thermal={report.f_thermal:.12e}")
    print(f"lambda_T={report.lambda_T:.12e}")
    print(f"regime={report.regime.value}")
    return 0


def cmd_preset(args) -> int:
    _write(args.output, serialize(preset_scenario(args.name)))
    print(f"wrote {args.output}")
    return 0


_DISPATCH = {
    "force": cmd_force,
    "sweep": cmd_sweep,
    "asympt": cmd_asympt,
    "preset": cmd_preset,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
