"""Special functions and closed-form limits."""

import functools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from calmir import (
    ConvergenceError,
    MirrorStack,
    PERFECT_ELECTRIC,
    PERFECT_MAGNETIC,
    Regime,
    ResponseModel,
    UnsupportedConfigurationError,
    VACUUM,
    build_report,
    force_zero_T,
    hamaker_c3,
    ideal_limits,
    matched_media_force,
    nonretarded_R,
    polylog2,
    polylog3,
    thermal_wavelength,
    upper_gamma,
)
from calmir import asymptotics, preset_scenario
from calmir.asymptotics import ZETA3


def brute_li3(z, terms=4_000_000):
    k = np.arange(1, terms + 1, dtype=float)
    return math.fsum(z**k / k**3)


def test_polylog3_reference_points():
    assert polylog3(0.0) == 0.0
    assert polylog3(1.0) == pytest.approx(ZETA3, abs=1e-14)
    assert polylog3(0.5) == pytest.approx(0.5372131936080402, abs=1e-13)
    assert polylog3(-1.0) == pytest.approx(-0.75 * ZETA3, abs=1e-14)


def test_polylog3_against_series():
    for z in (-0.9, -0.7, -0.3, 0.1, 0.3, 0.49, 0.51, 0.7, 0.9):
        assert polylog3(z) == pytest.approx(brute_li3(z, 2000), abs=1e-12)


def test_polylog2_against_series():
    for z in (-0.9, -0.4, 0.2, 0.6, 0.95):
        k = np.arange(1, 3000, dtype=float)
        want = math.fsum(z**k / k**2)
        assert polylog2(z) == pytest.approx(want, abs=1e-12)
    assert polylog2(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-14)


def test_polylog3_monotone_and_crude_bound():
    zs = np.linspace(0.0, 0.9, 40)
    vals = polylog3(zs)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals <= zs / (1.0 - zs) + 1e-15)


def test_polylog_domain():
    with pytest.raises(ValueError):
        polylog3(1.5)
    with pytest.raises(ValueError):
        polylog2(-1.01)


def test_nonretarded_amplitude():
    assert nonretarded_R(1.0) == 0.0
    assert nonretarded_R(3.0) == pytest.approx(0.5)
    assert nonretarded_R(math.inf) == 1.0
    with pytest.raises(ValueError):
        nonretarded_R(0.5)


def gamma_quad(k, z):
    val, _ = integrate.quad(
        lambda t: t ** (k - 1) * math.exp(-t), z, np.inf, epsabs=1e-14, epsrel=1e-13
    )
    return val


def test_upper_gamma_reference_points():
    assert upper_gamma(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert upper_gamma(0, 1.0) == pytest.approx(0.21938393439552027, rel=1e-12)
    assert upper_gamma(-1, 1.0) == pytest.approx(0.14849550677592205, rel=1e-12)


def test_upper_gamma_against_quadrature():
    for k in (1, 0, -1, -3, -5):
        for z in (0.1, 0.3, 1.0, 2.5, 6.0, 10.0):
            assert upper_gamma(k, z) == pytest.approx(gamma_quad(k, z), rel=1e-10)


def test_upper_gamma_scaled_monotone_in_z():
    z = np.linspace(0.05, 12.0, 120)
    # k = 1: exp(z) Gamma(1, z) is identically 1
    assert np.allclose(upper_gamma(1, z) * np.exp(z), 1.0, rtol=1e-14)
    for k in (0, -1, -3):
        scaled = upper_gamma(k, z) * np.exp(z)
        assert np.all(scaled > 0.0)
        assert np.all(np.diff(scaled) < 0.0)


@pytest.mark.parametrize("k", [0, -1, -3, -5])
def test_upper_gamma_against_mpmath_at_large_z(k):
    # a downward recurrence from E1 drifted by up to 1.2e-5 here (Gamma(-5, 300))
    with mpmath.workdps(30):
        for z in (30.0, 50.0, 300.0, 700.0):
            want = mpmath.gammainc(k, z)
            if want >= sys.float_info.min:  # a normal float
                assert float(abs(upper_gamma(k, z) / want - 1)) <= 1e-12, (k, z)


def test_upper_gamma_finite_where_z_power_overflows():
    # z^-5 overflows at z = 2e-62, but Gamma(-5, z) ~ z^-5/5 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = upper_gamma(-5, 2e-62)
        assert upper_gamma(-5.0, 2e-62) == got  # an integral float k scales alike
    with mpmath.workdps(30):
        want = mpmath.gammainc(-5, 2e-62)
    assert float(abs(got / want - 1)) <= 1e-15
    # past the largest float Gamma itself overflows, and reads inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert upper_gamma(-5, 1.3e-62) == math.inf


def test_upper_gamma_domain():
    with pytest.raises(ValueError):
        upper_gamma(2, 1.0)
    with pytest.raises(ValueError):
        upper_gamma(0, 0.0)
    for bad in (math.nan, math.inf, np.array([1.0, math.nan])):
        for k in (1, 0, -3):
            with pytest.raises(ValueError):
                upper_gamma(k, bad)


def test_hamaker_trivial_and_sign():
    assert hamaker_c3(VACUUM, ResponseModel.drude(1.0), 0.0) == pytest.approx(0.0, abs=1e-18)
    drude = ResponseModel.drude(1.0)
    c3 = hamaker_c3(drude, drude, 0.0)
    assert 1e-3 < c3 < 1.0  # of order the reference energy scale
    assert hamaker_c3(drude, drude, 0.3) > 0.0


def test_hamaker_divergent_for_ideal_pairs():
    with pytest.raises(UnsupportedConfigurationError):
        hamaker_c3(PERFECT_ELECTRIC, PERFECT_ELECTRIC, 0.0)
    with pytest.raises(UnsupportedConfigurationError):
        hamaker_c3(PERFECT_MAGNETIC, PERFECT_MAGNETIC, 0.1)
    # mixed ideal pair: both channel products vanish identically
    assert hamaker_c3(PERFECT_ELECTRIC, PERFECT_MAGNETIC, 0.0) == pytest.approx(0.0, abs=1e-18)


def test_hamaker_against_direct_quadrature():
    # independent evaluation of the frequency integral
    drude = ResponseModel.drude(1.0)

    def f(xi):
        r = 1.0 / (1.0 + 2.0 * xi * xi)
        return float(polylog3(r * r))

    want, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    got = hamaker_c3(drude, drude, 0.0)
    assert got == pytest.approx(want / (8.0 * math.pi**2), rel=1e-9)


PRESETS = ("fig1a", "fig1b", "fig1c", "fig1d", "fig3a", "fig3b", "fig3c", "fig3d")


def preset_substrates(name):
    scn = preset_scenario(name)
    return scn.mirror1.substrate, scn.mirror2.substrate


@functools.lru_cache(maxsize=None)
def brute_c3(mat1, mat2, tau, terms=1 << 20):
    """c3 from `terms` explicit Matsubara terms plus a quad integral of the rest."""

    def g(xi):
        re, rm = asymptotics._R_products(mat1, mat2, np.atleast_1d(xi))
        return polylog3(re) + polylog3(rm)

    h = 2.0 * math.pi * tau
    blocks = [math.fsum(g(h * np.arange(a, a + (1 << 16)))) for a in range(0, terms, 1 << 16)]
    x0 = terms * h
    # int_{x0}^inf g on xi = x0/t; far out g is ~1e-26 and carries the
    # round-off of (x - 1)/(x + 1), so an absolute tolerance ends the search
    tail, _ = integrate.quad(lambda t: g(x0 / t)[0] * x0 / t**2, 0.0, 1.0, epsabs=1e-20)
    total = math.fsum(blocks) - 0.5 * float(g(0.0)[0]) + tail / h + 0.5 * float(g(x0)[0])
    return tau / (4.0 * math.pi) * total


@pytest.mark.parametrize("tau", [1e-3, 1e-2, 0.1, 0.3])
@pytest.mark.parametrize("name", PRESETS)
def test_hamaker_c3_against_brute_sum(name, tau):
    m1, m2 = preset_substrates(name)
    assert hamaker_c3(m1, m2, tau) == pytest.approx(brute_c3(m1, m2, tau), rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("name", ["fig1b", "fig1d", "fig3b", "fig3c", "fig3d"])
def test_hamaker_c3_poisson_analytic_terms(name):
    # for terms analytic in xi the Matsubara sum differs from the integral by
    # O(e^{-1/tau}), so c3(0.01) and c3(0) agree to the tolerance
    m1, m2 = preset_substrates(name)
    c3_cold = hamaker_c3(m1, m2, 0.01, rel_tol=1e-13)
    assert c3_cold == pytest.approx(hamaker_c3(m1, m2, 0.0, rel_tol=1e-13), rel=1e-10)


def test_hamaker_c3_drude_not_analytic():
    # Li3 is not analytic at argument 1, which the Drude amplitudes reach at
    # xi = 0, so here c3(0.01) - c3(0) is ~2e-7 relative, not O(e^{-1/tau})
    m1, m2 = preset_substrates("fig1a")
    c3_cold, c3_zero = hamaker_c3(m1, m2, 0.01), hamaker_c3(m1, m2, 0.0)
    assert abs(c3_cold / c3_zero - 1.0) > 1e-8


def test_hamaker_c3_unmeetable_tolerance_raises():
    m1, m2 = preset_substrates("fig1d")
    with pytest.raises(ConvergenceError, match="c3 Matsubara sum not converged"):
        hamaker_c3(m1, m2, 0.01, rel_tol=1e-300)


@pytest.mark.parametrize("name", PRESETS)
def test_hamaker_c3_cost_does_not_grow_as_one_over_tau(monkeypatch, name):
    # each frequency puts its two channel products into polylog3
    seen = []
    monkeypatch.setattr(asymptotics, "polylog3", lambda z: seen.append(np.size(z)) or polylog3(z))
    m1, m2 = preset_substrates(name)
    for tau in (1e-2, 1e-6):
        seen.clear()
        hamaker_c3(m1, m2, tau)
        assert sum(seen) // 2 <= 4096


def test_hamaker_c3_at_tiny_tau_is_its_zero_temperature_value():
    # c3 = h S/(8 pi^2) with h S summed directly: the tail weight x0/t^2 read
    # 1/0 at the smallest nodes below tau ~ 1e-157 (4.2e-13 off at 1e-160,
    # nan from ~1e-170), and log2(xi_max/x0) overflowed at 1e-320
    m1, m2 = preset_substrates("fig1d")
    want = hamaker_c3(m1, m2, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1e-160, 1e-200, 1e-300):
            assert hamaker_c3(m1, m2, tau) == pytest.approx(want, rel=1e-12, abs=0.0), tau
        # below the normal floats the tail's nodes lose their precision
        with pytest.raises(ConvergenceError, match="tau = 1.000e-320"):
            hamaker_c3(m1, m2, 1e-320)
    # at ordinary temperatures c3 keeps the values it had when the sum
    # divided its tail integral by h and weighted it by x0/t^2
    for tau, old in ((1e-3, 5.6889865797264e-05), (1e-2, 5.6889865797262e-05),
                     (0.1, 5.6898691169764905e-05), (0.3, 6.415014183384991e-05)):
        assert hamaker_c3(m1, m2, tau) == pytest.approx(old, rel=1e-14, abs=0.0), tau


def test_hamaker_c3_reaches_features_of_strong_oscillators():
    # the tail panels reach past the largest oscillator frequency, so a
    # strong, fast material converges as cheaply and matches its own tau = 0
    # integral (its terms are analytic)
    strong = ResponseModel.lorentz(1e4, 3e3)
    want = hamaker_c3(strong, strong, 0.0, rel_tol=1e-13)
    assert hamaker_c3(strong, strong, 1e-3) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("bad", [-0.5, math.inf, math.nan])
def test_closed_forms_reject_bad_tau(bad):
    drude = ResponseModel.drude(1.0)
    with pytest.raises(ValueError, match="tau must be finite"):
        hamaker_c3(drude, drude, bad)
    with pytest.raises(ValueError, match="tau must be finite"):
        ideal_limits(1.0, bad)
    with pytest.raises(ValueError, match="tau must be finite"):
        build_report(1.0, bad)
    with pytest.raises(ValueError, match="tau must be finite"):
        thermal_wavelength(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_closed_forms_reject_bad_distance(bad):
    with pytest.raises(ValueError, match="d must be finite"):
        ideal_limits(bad, 0.1)
    with pytest.raises(ValueError, match="d must be finite"):
        build_report(bad, 0.1)
    with pytest.raises(ValueError, match="d must be finite"):
        matched_media_force(ResponseModel.lorentz(3.0, 1.0), ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0),
                            bad)


def test_hamaker_short_distance_asymptote():
    drude = ResponseModel.drude(1.0)
    st = MirrorStack.homogeneous(drude)
    c3 = hamaker_c3(drude, drude, 0.0)
    d = 2.0 * math.pi / 500.0
    res = force_zero_T(st, st, VACUUM, d)
    assert res.pressure_norm == pytest.approx(c3, rel=0.02)


def test_matched_media_trivial_zeros():
    diel = ResponseModel.lorentz(3.0, 1.0)
    # no magnetic contrast on mirror 2
    assert matched_media_force(diel, ResponseModel.lorentz(0.1, 1.0), 0.05) == 0.0
    # no dielectric contrast between mirror 1 and the (matched) gap
    mag = ResponseModel.lorentz(3.0, 1.0, 0.3, 1.0)
    assert matched_media_force(ResponseModel.lorentz(3.0, 1.0), mag, 0.05) == pytest.approx(
        0.0, abs=1e-18
    )


def test_matched_media_repulsive_and_one_over_d():
    diel = ResponseModel.lorentz(3.0, 1.0)
    mag = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    f1 = matched_media_force(diel, mag, 1e-3)
    f2 = matched_media_force(diel, mag, 5e-4)
    assert f1 < 0.0 and f2 < 0.0
    assert f2 / f1 == pytest.approx(2.0, rel=0.02)  # F ~ -c1/d
    # c1 of order one in units hbar Omega^3/c^2
    assert 1e-4 < -f1 * 1e-3 < 1.0


@pytest.mark.parametrize("d", [1e-3, 2.0 * math.pi / 400.0, 1.0, 30.0])
@pytest.mark.parametrize("osc1, osc2", [((3.0, 1.0), (0.1, 1.0, 0.3, 1.0)),
                                        ((2.0, 0.5), (0.5, 2.0, 0.8, 0.7))])
def test_matched_media_force_is_the_leading_term(osc1, osc2, d):
    # F = (1/pi) (2d)^-1 int_0^inf dxi/(2 pi) e^{-2 xi d} [-P_TM - P_TE], with
    # eps = 1 + s^2/(w^2 + xi^2) and the gap carrying mirror 2's permittivity
    a1, w1 = osc1
    a2, w2, b2, v2 = osc2

    def leading(xi):
        eps1 = 1.0 + a1**2 / (w1**2 + xi**2)
        eps0 = 1.0 + a2**2 / (w2**2 + xi**2)
        mu2 = 1.0 + b2**2 / (v2**2 + xi**2)
        p_tm = eps0 * (mu2 - 1.0) * (eps1 - eps0) / (eps1 + eps0) * xi**2 / 4.0
        p_te = (mu2 - 1.0) * (eps1 - eps0) / (mu2 + 1.0) * xi**2 / 4.0
        return -math.exp(-2.0 * xi * d) * (p_tm + p_te)

    integral, _ = integrate.quad(leading, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    want = integral / (2.0 * math.pi**2 * 2.0 * d)
    got = matched_media_force(ResponseModel.lorentz(*osc1), ResponseModel.lorentz(*osc2), d)
    assert got < 0.0
    assert got == pytest.approx(want, rel=1e-9)


def test_matched_media_rejects_magnetic_mirror1():
    mag = ResponseModel.lorentz(1.0, 1.0, 0.5, 1.0)
    with pytest.raises(UnsupportedConfigurationError):
        matched_media_force(mag, mag, 0.1)


def test_matched_media_rejects_ideal_mirrors_and_the_report_omits_c1():
    diel, mag = ResponseModel.lorentz(3.0, 1.0), ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    with pytest.raises(UnsupportedConfigurationError, match="mirror 1 must be a dielectric"):
        matched_media_force(PERFECT_ELECTRIC, mag, 0.1)
    with pytest.raises(UnsupportedConfigurationError, match="mirror 2 must have a finite"):
        matched_media_force(diel, PERFECT_MAGNETIC, 0.1)
    # a gap matched to mirror 2 asks for c1, which does not exist for an
    # ideal mirror 1: the report leaves it out instead of raising
    gap = ResponseModel.lorentz(0.1, 1.0)
    assert build_report(0.03, 0.0, mirror1=diel, mirror2=mag, gap=gap).c1_norm is not None
    assert build_report(0.03, 0.0, mirror1=PERFECT_ELECTRIC, mirror2=mag, gap=gap).c1_norm is None


def test_ideal_limits_values():
    f_c, f_t = ideal_limits(1.0, 1.0)
    assert f_c == pytest.approx(math.pi**2 / 240.0)
    assert f_t == pytest.approx(ZETA3 / (8.0 * math.pi))
    _, f_t_derived = ideal_limits(1.0, 1.0, derived_thermal=True)
    assert f_t_derived == pytest.approx(2.0 * f_t)
    f_c1, _ = ideal_limits(1.0, 0.0)
    f_c2, _ = ideal_limits(2.0, 0.0)
    assert f_c1 / f_c2 == pytest.approx(16.0)


def test_thermal_wavelength():
    assert thermal_wavelength(1.0) == 1.0
    assert thermal_wavelength(0.1) == pytest.approx(10.0)
    assert thermal_wavelength(0.3) == pytest.approx(10.0 / 3.0)
    with pytest.raises(ValueError):
        thermal_wavelength(0.0)


def test_report_assembly():
    drude = ResponseModel.drude(1.0)
    rep = build_report(0.5, 0.1, mirror1=drude, mirror2=drude, gap=VACUUM)
    assert rep.c3_norm is not None and rep.c3_norm > 0.0
    assert rep.c1_norm is None
    assert rep.lambda_T == pytest.approx(10.0)
    assert rep.regime is Regime.SHORT
    rep = build_report(3.0, 0.1, mirror1=drude, mirror2=drude, gap=VACUUM)
    assert rep.regime is Regime.INTERMEDIATE
    rep = build_report(30.0, 0.1, mirror1=drude, mirror2=drude, gap=VACUUM)
    assert rep.regime is Regime.THERMAL
    # the edges: SHORT ends at d = 1, THERMAL starts at d = lambda_T = 1/tau,
    # and SHORT is checked first
    for d, tau, regime in [(1.0, 0.1, Regime.INTERMEDIATE), (10.0, 0.1, Regime.THERMAL),
                           (0.5, 3.0, Regime.SHORT), (1e4, 0.0, Regime.INTERMEDIATE)]:
        assert build_report(d, tau).regime is regime, (d, tau)
    rep = build_report(0.5, 0.0, mirror1=PERFECT_ELECTRIC, mirror2=PERFECT_ELECTRIC)
    assert rep.c3_norm is None
    # matched-gap configuration exposes the short-distance 1/d coefficient
    diel = ResponseModel.lorentz(3.0, 1.0)
    mag = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    rep = build_report(0.03, 0.0, mirror1=diel, mirror2=mag, gap=ResponseModel.lorentz(0.1, 1.0))
    assert rep.c1_norm is not None and rep.c1_norm > 0.0
