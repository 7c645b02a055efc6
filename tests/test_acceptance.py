"""Acceptance gate: one pass/fail line per criterion (run with -s to see all).

Three sub-clauses are pinned to thresholds that the verified physics of
the bundled parameter sets does not meet; they are kept as stated and fail
loudly (see the EXPECTED FAIL comments).  Everything else must pass.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from calmir import (
    Kinematics,
    MirrorStack,
    PERFECT_ELECTRIC,
    PERFECT_MAGNETIC,
    Pol,
    PRESET_NAMES,
    QuadratureConfig,
    ResponseModel,
    ScenarioError,
    VACUUM,
    force_finite_T,
    force_zero_T,
    hamaker_c3,
    integrand,
    matched_media_force,
    parse,
    polylog3,
    preset,
    preset_scenario,
    serialize,
    stack_reflection,
    upper_gamma,
)
from calmir.asymptotics import ZETA3
from calmir.cli import main as cli_main
from conftest import random_stack

LAM = 2.0 * math.pi
F_C_COEF = math.pi**2 / 240.0
PE = MirrorStack.homogeneous(PERFECT_ELECTRIC)
PM = MirrorStack.homogeneous(PERFECT_MAGNETIC)

PROP_CFG = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-10, kappa_nodes=16, xi_nodes=8)
SWEEP_CFG = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-14, kappa_nodes=48, xi_nodes=12)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1 ---------------------------------------------------------------------


def test_c01_ideal_casimir_limit():
    worst = 0.0
    for d in (0.1, 1.0, 10.0):
        res = force_zero_T(PE, PE, VACUUM, d)
        rel = abs(res.pressure_norm * d / F_C_COEF - 1.0)
        worst = max(worst, rel)
    check(1, "ideal mirror pressure = pi^2/240 d^-4", worst <= 1e-4, f"worst rel err {worst:.2e}")


# -- 2 ---------------------------------------------------------------------


def test_c02_boyer_limit():
    att = force_zero_T(PE, PE, VACUUM, 1.0).pressure_norm
    rep = force_zero_T(PE, PM, VACUUM, 1.0).pressure_norm
    err = abs(rep / att + 0.875) / 0.875
    check(2, "electric/magnetic ideal pair = -7/8 of ideal", err <= 1e-4, f"ratio err {err:.2e}")


# -- 3 ---------------------------------------------------------------------


def test_c03_high_temperature_ideal_limit():
    worst = 0.0
    for tau, d in ((10.0, 1.0), (1.0, 5.0), (2.5, 2.0)):
        res = force_finite_T(PE, PE, VACUUM, d, tau)
        target = ZETA3 * tau / (4.0 * math.pi)  # in F d^3 units
        worst = max(worst, abs(res.pressure_norm / target - 1.0))
    # the 8 pi variant quoted in the literature is half the mode-sum value;
    # exposed via ideal_limits(derived_thermal=...) and noted, not asserted
    check(3, "high-T ideal limit zeta(3) tau/(4 pi d^3)", worst <= 1e-6, f"worst rel err {worst:.2e}")


# -- 4 and 5: randomized property sweeps ------------------------------------


def _draw_scenarios(seed, n, identical):
    rng = np.random.default_rng(seed)
    taus = (0.0, 0.01, 0.3, 3.0)
    out = []
    for i in range(n):
        st1 = random_stack(rng)
        st2 = st1 if identical else random_stack(rng)
        d = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        out.append((st1, st2, d, taus[i % 4]))
    return out


def test_c04_bound_property_suite():
    rng = np.random.default_rng(20240404)
    n_force = n_nodes = n_refl = 0
    for st1, st2, d, tau in _draw_scenarios(17, 200, identical=False):
        if tau == 0.0:
            res = force_zero_T(st1, st2, VACUUM, d, PROP_CFG)
        else:
            res = force_finite_T(st1, st2, VACUUM, d, tau, PROP_CFG)
        slack = res.est_error + 1e-12
        assert res.bound_lo - slack <= res.pressure_norm <= res.bound_hi + slack, (
            f"force bound violated: {res.pressure_norm} outside "
            f"[{res.bound_lo}, {res.bound_hi}] at d={d}, tau={tau}"
        )
        n_force += 1

        # per-node envelope of the mode sum
        xi = rng.uniform(0.0, 5.0, 30)
        kap = xi + np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 30))
        kin = Kinematics(xi=xi, kappa_gap=kap)
        x = np.minimum(2.0 * kap * d, 700.0)  # keep expm1 in range
        hi = kap**2 / np.expm1(x)
        lo = -(kap**2) * np.exp(-x) / (1.0 + np.exp(-x))
        for pol in (Pol.TE, Pol.TM):
            val = integrand(st1, st2, VACUUM, pol, d, kin)
            assert np.all(val <= hi + 1e-14) and np.all(val >= lo - 1e-14)
            n_nodes += val.size

        # reflection magnitude on a fresh kinematics sample
        xi = rng.uniform(0.0, 10.0, 250)
        kap = xi + np.exp(rng.uniform(np.log(1e-3), np.log(50.0), 250))
        kin = Kinematics(xi=xi, kappa_gap=kap)
        for st in (st1, st2):
            r = stack_reflection(st, VACUUM, Pol.TE, kin)
            assert np.all(np.abs(r) <= 1.0)
            r = stack_reflection(st, VACUUM, Pol.TM, kin)
            assert np.all(np.abs(r) <= 1.0)
            n_refl += 2 * r.size
    check(
        4,
        "envelopes and |r| <= 1 on randomized scenarios",
        n_force == 200 and n_refl >= 100_000,
        f"{n_force} forces, {n_nodes} integrand nodes, {n_refl} reflection samples, 0 violations",
    )


def test_c05_identical_mirrors_attract():
    n = 0
    for st1, st2, d, tau in _draw_scenarios(23, 200, identical=True):
        if tau == 0.0:
            res = force_zero_T(st1, st2, VACUUM, d, PROP_CFG)
        else:
            res = force_finite_T(st1, st2, VACUUM, d, tau, PROP_CFG)
        assert res.pressure_norm >= 0.0, f"repulsion between identical mirrors at d={d}, tau={tau}"
        n += 1
    check(5, "identical mirrors never repel", n == 200, f"{n} scenarios, 0 violations")


# -- 6 ----------------------------------------------------------------------


def test_c06_hamaker_asymptote_and_cap():
    drude = ResponseModel.drude(1.0)
    st = MirrorStack.homogeneous(drude)
    c3 = hamaker_c3(drude, drude, 0.0)
    res = force_zero_T(st, st, VACUUM, LAM / 500.0)
    rel = abs(res.pressure_norm / c3 - 1.0)
    ok_asym = rel <= 0.02

    grid = preset_scenario("fig1a").sweep.distances()
    capped = True
    for d in grid:
        p = force_zero_T(st, st, VACUUM, float(d), SWEEP_CFG).pressure_norm
        if p > c3 + 1e-12:
            capped = False
            break
    check(
        6,
        "short-distance coefficient matches and caps the pressure",
        ok_asym and capped,
        f"rel dev at Lambda/500: {rel:.4f}; cap held at {len(grid)} sweep points: {capped}",
    )


# -- 7 and 8: fig1d / fig1c phenomenology ------------------------------------


@pytest.fixture(scope="module")
def fig1d_sweep():
    m1, m2, gap = preset("fig1d")
    ds = np.geomspace(LAM / 400.0, 50.0 * LAM, 72)
    ps = np.array([force_zero_T(m1, m2, gap, float(d), SWEEP_CFG).pressure_norm for d in ds])
    return ds, ps


def _log_slopes(ds, ps):
    force = ps / ds**3
    lnd = np.log(ds)
    slopes = (np.log(np.abs(force[2:])) - np.log(np.abs(force[:-2]))) / (lnd[2:] - lnd[:-2])
    return ds[1:-1], slopes


def test_c07_power_law_intermediate(fig1d_sweep):
    mid, slopes = _log_slopes(*fig1d_sweep)
    sel = (mid >= 5.0 * LAM) & (mid <= 50.0 * LAM)
    dev = np.max(np.abs(slopes[sel] + 4.0))
    check(7, "1/d^4 law on [5, 50] Lambda", bool(sel.any()) and dev <= 0.15, f"max |slope+4| = {dev:.3f}")


def test_c07_power_law_short(fig1d_sweep):
    # EXPECTED FAIL: the attract->repel crossover of this material pairing
    # sits near Lambda/20 (verified against an independent dense-grid
    # evaluation), so the -3 law degrades before Lambda/100; the deviation
    # crosses the 0.15 budget around Lambda/130.
    mid, slopes = _log_slopes(*fig1d_sweep)
    sel = mid <= LAM / 100.0
    dev = np.max(np.abs(slopes[sel] + 3.0))
    check(7, "1/d^3 law up to Lambda/100", bool(sel.any()) and dev <= 0.15, f"max |slope+3| = {dev:.3f}")


def test_c08_fig1d_window_endpoints(fig1d_sweep):
    # EXPECTED FAIL on the stated lower endpoint: the window opens near
    # 0.05 Lambda = 0.34 c/Omega, below Lambda/2 pi = 1 c/Omega, because the
    # short-distance attraction is controlled by the tiny eps2(0) - 1 = 0.01
    # (verified against an independent dense-grid evaluation).
    ds, ps = fig1d_sweep
    neg = ps < 0.0
    assert neg.any(), "no repulsion found at zero temperature"
    first = int(np.argmax(neg))
    contiguous = bool(np.all(neg[first:]))
    lower = ds[first]
    lam_t = math.inf  # zero temperature
    ok = contiguous and (1.0 < lower < lam_t)
    check(
        8,
        "fig1d repulsion window inside (Lambda/2pi, Lambda_T)",
        ok,
        f"window starts at d = {lower:.3f} c/Omega = {lower / LAM:.4f} Lambda, contiguous={contiguous}",
    )


def test_c08_fig1c_sign_pattern():
    m1, m2, gap = preset("fig1c")
    w = 20.0 * math.pi
    ds = np.geomspace(LAM / 400.0, 50.0 * LAM, 48)
    ps = np.array([force_zero_T(m1, m2, gap, float(d), SWEEP_CFG).pressure_norm for d in ds])
    signs = np.sign(ps)
    flips = np.nonzero(np.diff(signs) != 0.0)[0]
    ok_pattern = len(flips) == 2 and signs[0] > 0 and signs[-1] > 0
    second = math.sqrt(ds[flips[1]] * ds[flips[1] + 1]) if len(flips) >= 2 else math.nan
    ok_location = ok_pattern and (w / 3.0 <= second <= 3.0 * w)
    check(
        8,
        "fig1c attract/repel/attract with the outer flip near the coating thickness",
        ok_pattern and ok_location,
        f"{len(flips)} sign changes; outer at d = {second:.1f} vs w = {w:.1f}",
    )


def test_c08_fig1d_warm_sweep_attractive():
    m1, m2, gap = preset("fig1d")
    ds = np.geomspace(LAM / 400.0, 50.0 * LAM, 40)
    ps = [force_finite_T(m1, m2, gap, float(d), 0.3, SWEEP_CFG).pressure_norm for d in ds]
    n_neg = int(np.sum(np.array(ps) < 0.0))
    check(8, "fig1d entirely attractive at tau = 0.3", n_neg == 0, f"{n_neg} repulsive rows of {len(ds)}")


# -- 9: matched gap ----------------------------------------------------------


MATCHED_M1 = ResponseModel.lorentz(3.0, 1.0)
MATCHED_M2 = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
MATCHED_GAP = ResponseModel.lorentz(0.1, 1.0)


def test_c09_matched_gap_always_repulsive():
    m1 = MirrorStack.homogeneous(MATCHED_M1)
    m2 = MirrorStack.homogeneous(MATCHED_M2)
    worst = -math.inf
    for tau in (0.0, 0.1):
        for d in np.geomspace(LAM / 200.0, LAM, 8):
            if tau == 0.0:
                p = force_zero_T(m1, m2, MATCHED_GAP, float(d), SWEEP_CFG).pressure_norm
            else:
                p = force_finite_T(m1, m2, MATCHED_GAP, float(d), tau, SWEEP_CFG).pressure_norm
            worst = max(worst, p)
    check(9, "index-matched gap repulsive at tau = 0 and 0.1", worst < 0.0, f"max pressure {worst:.3e}")


def test_c09_expansion_agreement():
    # EXPECTED FAIL at the stated 5%: the leading reflection-expansion term
    # carries O(xi 2d) endpoint corrections of ~10% at Lambda/200.  It does
    # converge to the full integrator as d -> 0 (ratio 0.997 at Lambda/20000),
    # so no constant factor is missing; the pinned distance is just not deep
    # enough in the asymptotic regime for a 5% match.
    d = LAM / 200.0
    m1 = MirrorStack.homogeneous(MATCHED_M1)
    m2 = MirrorStack.homogeneous(MATCHED_M2)
    full = force_zero_T(m1, m2, MATCHED_GAP, d).pressure_norm / d**3
    term = matched_media_force(MATCHED_M1, MATCHED_M2, d)
    rel = abs(full / term - 1.0)
    check(9, "leading expansion term within 5% at Lambda/200", rel <= 0.05, f"rel dev {rel:.4f}")


def test_c09_mismatch_restores_attraction():
    m1 = MirrorStack.homogeneous(MATCHED_M1)
    short = LAM / 100.0

    def first_crossing(name):
        _, m2, gap = preset(name)
        prev = None
        for d in np.geomspace(short, 8.0 * LAM, 24):
            p = force_zero_T(m1, m2, gap, float(d), SWEEP_CFG).pressure_norm
            if prev is not None and prev > 0.0 and p < 0.0:
                return float(d)
            prev = p
        return math.inf

    # fig3a (exact matching, vacuum flavour): repulsive already at short d
    _, m2a, gapa = preset("fig3a")
    p_a = force_zero_T(m1, m2a, gapa, short, SWEEP_CFG).pressure_norm
    shorts = {
        name: force_zero_T(m1, preset(name)[1], preset(name)[2], short, SWEEP_CFG).pressure_norm
        for name in ("fig3b", "fig3c", "fig3d")
    }
    crossings = {name: first_crossing(name) for name in ("fig3b", "fig3c", "fig3d")}
    ok = (
        p_a < 0.0
        and all(p > 0.0 for p in shorts.values())
        and crossings["fig3b"] < crossings["fig3c"] < crossings["fig3d"]
    )
    check(
        9,
        "growing mismatch restores attraction progressively",
        ok,
        f"matched: {p_a:.2e}; crossovers b/c/d = "
        f"{crossings['fig3b']:.2f}/{crossings['fig3c']:.2f}/{crossings['fig3d']}",
    )


# -- 10 ----------------------------------------------------------------------


def test_c10_special_functions():
    worst_li = 0.0
    for z in np.arange(-1.0, 1.0001, 0.1):
        z = round(float(z), 10)
        if abs(z) == 1.0:
            want = ZETA3 if z > 0 else -0.75 * ZETA3
        else:
            k = np.arange(1.0, 2001.0)
            want = math.fsum(z**k / k**3)
        worst_li = max(worst_li, abs(polylog3(z) - want))

    worst_g = 0.0
    for k in (1, -1, -3):
        for z in np.geomspace(0.1, 10.0, 8):
            want, _ = integrate.quad(
                lambda t: t ** (k - 1) * math.exp(-t), float(z), np.inf,
                epsabs=1e-15, epsrel=1e-13,
            )
            worst_g = max(worst_g, abs(upper_gamma(k, float(z)) / want - 1.0))
    check(
        10,
        "trilogarithm and incomplete gamma vs brute-force oracles",
        worst_li <= 1e-10 and worst_g <= 1e-10,
        f"Li3 abs dev {worst_li:.1e}; Gamma rel dev {worst_g:.1e}",
    )


# -- 11 ----------------------------------------------------------------------


def test_c11_parser_roundtrip_and_fuzz():
    from test_scenario import random_scenario

    for name in PRESET_NAMES:
        s = preset_scenario(name)
        assert parse(serialize(s)) == s
    rng = np.random.default_rng(1234)
    for _ in range(100):
        s = random_scenario(rng)
        assert parse(serialize(s)) == s

    bases = [serialize(preset_scenario(n)).encode() for n in PRESET_NAMES]
    n_err = 0
    for i in range(100_000):
        data = bytearray(bases[i % len(bases)])
        for _ in range(int(rng.integers(1, 8))):
            op = int(rng.integers(0, 3))
            pos = int(rng.integers(0, max(1, len(data))))
            if op == 0 and data:
                data[pos % len(data)] = int(rng.integers(0, 256))
            elif op == 1:
                data.insert(pos, int(rng.integers(0, 256)))
            elif data:
                del data[pos % len(data)]
        try:
            parse(bytes(data))
        except ScenarioError as exc:
            assert exc.line >= 1 and exc.col >= 1
            n_err += 1
    check(
        11,
        "round-trip identity; 1e5 fuzzed parses never crash; positioned errors",
        True,
        f"108 round-trips; {n_err} clean diagnostics out of 100000 mutations",
    )


# -- 12 ----------------------------------------------------------------------


def test_c12_sweep_determinism(tmp_path, capsys):
    src = tmp_path / "fig1d.txt"
    src.write_text(serialize(preset_scenario("fig1d")))
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.csv"
        code = cli_main(
            ["sweep", str(src), "-o", str(out), "--workers", str(workers),
             "--tol", "1e-5", "--quiet"]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] == outputs[2]
    n_rows = len(outputs[0].splitlines()) - 1
    check(12, "64-point sweep byte-identical across 1/4/8 workers", ok and n_rows == 64, f"{n_rows} rows")
