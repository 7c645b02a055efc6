"""Pressure evaluator: exact limits, envelopes, truncation behaviour."""

import math

import numpy as np
import pytest

from calmir import (
    ConvergenceError,
    Kinematics,
    MirrorStack,
    PERFECT_ELECTRIC,
    PERFECT_MAGNETIC,
    Pol,
    QuadratureConfig,
    ResponseModel,
    VACUUM,
    bound_envelope,
    force_finite_T,
    force_zero_T,
    integrand,
    matsubara_xi,
)
from calmir.asymptotics import ZETA3
from conftest import random_material, trapezoid_force

PE = MirrorStack.homogeneous(PERFECT_ELECTRIC)
PM = MirrorStack.homogeneous(PERFECT_MAGNETIC)
VAC_MIRROR = MirrorStack.homogeneous(VACUUM)
F_C_COEF = math.pi**2 / 240.0


def test_matsubara_xi():
    assert matsubara_xi(0, 0.5) == 0.0
    assert matsubara_xi(1, 0.1) == pytest.approx(0.2 * math.pi)
    assert matsubara_xi(3, 0.3) == pytest.approx(1.8 * math.pi)
    with pytest.raises(ValueError):
        matsubara_xi(1, 0.0)
    with pytest.raises(ValueError):
        matsubara_xi(-1, 0.5)


def test_integrand_trivial_cases():
    kin = Kinematics(xi=0.4, kappa_gap=1.1)
    d = 0.9
    x = 2.0 * 1.1 * d
    # vacuum mirror: product of reflections is zero
    st = MirrorStack.homogeneous(ResponseModel.lorentz(1.0, 1.0))
    assert integrand(VAC_MIRROR, st, VACUUM, Pol.TM, d, kin) == 0.0
    # ideal product +1: upper envelope
    got = integrand(PE, PE, VACUUM, Pol.TM, d, kin)
    assert got == pytest.approx(1.1**2 / math.expm1(x), rel=1e-14)
    # ideal product -1: lower envelope
    got = integrand(PE, PM, VACUUM, Pol.TM, d, kin)
    assert got == pytest.approx(-(1.1**2) * math.exp(-x) / (1 + math.exp(-x)), rel=1e-14)


def test_integrand_within_envelope_random():
    rng = np.random.default_rng(12)
    for _ in range(40):
        st1 = MirrorStack.homogeneous(random_material(rng))
        st2 = MirrorStack.homogeneous(random_material(rng))
        d = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        xi = rng.uniform(0.0, 4.0, 80)
        kap = xi + np.exp(rng.uniform(np.log(1e-2), np.log(10.0), 80))
        kin = Kinematics(xi=xi, kappa_gap=kap)
        x = 2.0 * kap * d
        hi = kap**2 / np.expm1(x)
        lo = -(kap**2) * np.exp(-x) / (1.0 + np.exp(-x))
        for pol in (Pol.TE, Pol.TM):
            val = integrand(st1, st2, VACUUM, pol, d, kin)
            assert np.all(val <= hi + 1e-15)
            assert np.all(val >= lo - 1e-15)


def test_ideal_casimir_pressure():
    for d in (0.1, 1.0, 10.0):
        res = force_zero_T(PE, PE, VACUUM, d)
        assert res.pressure_norm * d == pytest.approx(F_C_COEF, rel=1e-6)
        assert res.te_part == pytest.approx(res.tm_part, rel=1e-10)


def test_boyer_repulsion_ratio():
    att = force_zero_T(PE, PE, VACUUM, 1.0)
    rep = force_zero_T(PE, PM, VACUUM, 1.0)
    assert rep.pressure_norm / att.pressure_norm == pytest.approx(-0.875, rel=1e-8)


def test_high_temperature_ideal_limit():
    res = force_finite_T(PE, PE, VACUUM, 1.0, 10.0)
    assert res.pressure_norm == pytest.approx(ZETA3 * 10.0 / (4.0 * math.pi), rel=1e-8)
    res = force_finite_T(PE, PE, VACUUM, 5.0, 1.0)
    assert res.pressure_norm == pytest.approx(
        ZETA3 * 1.0 / (4.0 * math.pi), rel=1e-8
    )


def test_vacuum_mirror_gives_zero():
    st = MirrorStack.homogeneous(ResponseModel.lorentz(2.0, 1.0))
    assert force_zero_T(VAC_MIRROR, st, VACUUM, 1.0).pressure_norm == 0.0
    assert force_finite_T(VAC_MIRROR, st, VACUUM, 1.0, 0.3).pressure_norm == 0.0


def test_against_trapezoid_oracle_finite_T():
    m1 = MirrorStack.homogeneous(ResponseModel.lorentz(3.0, 1.0))
    m2 = MirrorStack.homogeneous(ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0))
    d = math.pi  # half the resonance wavelength
    res = force_finite_T(m1, m2, VACUUM, d, 0.3)
    assert res.pressure_norm > 0.0  # attractive once the window closes
    oracle = trapezoid_force(m1, m2, VACUUM, d, 0.3)
    assert res.pressure_norm == pytest.approx(oracle, rel=2e-4)


def test_against_trapezoid_oracle_zero_T():
    m1 = MirrorStack.homogeneous(ResponseModel.lorentz(1.3, 0.6))
    m2 = MirrorStack.homogeneous(ResponseModel.lorentz(0.5, 0.9, 1.1, 0.7))
    d = 0.8
    res = force_zero_T(m1, m2, VACUUM, d)
    oracle = trapezoid_force(m1, m2, VACUUM, d, 0.0)
    assert res.pressure_norm == pytest.approx(oracle, rel=5e-4)


def test_gap_medium_against_trapezoid_oracle():
    # liquid-like gap index-matched to mirror 2: repulsive at short distance
    m1 = MirrorStack.homogeneous(ResponseModel.lorentz(3.0, 1.0))
    m2 = MirrorStack.homogeneous(ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0))
    gap = ResponseModel.lorentz(0.1, 1.0)
    d = math.pi / 100.0
    res = force_zero_T(m1, m2, gap, d)
    assert res.pressure_norm < 0.0
    oracle = trapezoid_force(m1, m2, gap, d, 0.0)
    assert res.pressure_norm == pytest.approx(oracle, rel=5e-4)


def test_coated_mirror_against_trapezoid_oracle():
    from calmir import Layer

    metal = ResponseModel.drude(3.0)
    coat = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    m1 = MirrorStack.homogeneous(metal)
    m2 = MirrorStack((Layer(coat, 20.0 * math.pi),), metal)
    d = 2.0
    res = force_zero_T(m1, m2, VACUUM, d)
    oracle = trapezoid_force(m1, m2, VACUUM, d, 0.0)
    assert res.pressure_norm == pytest.approx(oracle, rel=5e-4)


def test_bound_envelope_zero_temperature():
    for d in (0.2, 1.0, 7.0):
        lo, hi = bound_envelope(d, 0.0)
        assert hi == pytest.approx(F_C_COEF / d, rel=1e-14)
        assert lo == pytest.approx(-0.875 * F_C_COEF / d, rel=1e-14)


def test_bound_envelope_high_temperature():
    lo, hi = bound_envelope(1.0, 50.0)
    assert hi == pytest.approx(ZETA3 * 50.0 / (4.0 * math.pi), rel=1e-10)
    assert lo / hi == pytest.approx(-0.75, rel=1e-10)


def test_bound_envelope_straddles_zero():
    for d, tau in ((0.3, 0.0), (1.0, 0.2), (5.0, 3.0)):
        lo, hi = bound_envelope(d, tau)
        assert lo < 0.0 < hi


def test_envelope_saturated_by_ideal_mirrors():
    # the envelope is attained by ideal mirror pairs at finite temperature
    for d, tau in ((0.7, 0.4), (2.0, 1.1)):
        lo, hi = bound_envelope(d, tau)
        att = force_finite_T(PE, PE, VACUUM, d, tau)
        rep = force_finite_T(PE, PM, VACUUM, d, tau)
        assert att.pressure_norm == pytest.approx(hi, rel=1e-8)
        assert rep.pressure_norm == pytest.approx(lo, rel=1e-8)


def test_continuity_at_low_temperature():
    st = MirrorStack.homogeneous(ResponseModel.drude(1.0))
    cold = force_finite_T(st, st, VACUUM, 1.0, 1e-3)
    zero = force_zero_T(st, st, VACUUM, 1.0)
    assert cold.pressure_norm == pytest.approx(zero.pressure_norm, rel=5e-3)


def test_truncation_monotonicity():
    st = MirrorStack.homogeneous(ResponseModel.drude(1.0))
    base = force_finite_T(st, st, VACUUM, 1.0, 0.3)
    tight = force_finite_T(
        st,
        st,
        VACUUM,
        1.0,
        0.3,
        QuadratureConfig(rel_tol=1e-11, kappa_nodes=96, xi_nodes=24),
    )
    assert abs(base.pressure_norm - tight.pressure_norm) <= max(base.est_error, 1e-15)


def test_result_invariants():
    m1 = MirrorStack.homogeneous(ResponseModel.lorentz(2.0, 0.5, 0.3, 1.0))
    m2 = MirrorStack.homogeneous(ResponseModel.drude(0.8))
    for res in (
        force_zero_T(m1, m2, VACUUM, 0.7),
        force_finite_T(m1, m2, VACUUM, 0.7, 0.25),
    ):
        assert res.pressure_norm == pytest.approx(res.te_part + res.tm_part, abs=1e-15)
        assert res.bound_lo - res.est_error <= res.pressure_norm <= res.bound_hi + res.est_error
        assert res.n_terms_used >= 1


def test_matsubara_budget_enforced():
    st = MirrorStack.homogeneous(ResponseModel.drude(1.0))
    with pytest.raises(ConvergenceError):
        force_finite_T(st, st, VACUUM, 0.05, 1e-3, QuadratureConfig(max_matsubara=50))


@pytest.mark.parametrize("name", ["fig1c", "fig1d", "fig3c"])
def test_tight_tolerance_converges_above_roundoff(name):
    # the per-row kappa error sums |panel changes|, which cannot fall below
    # the integrand's round-off (~1e-13 relative on high-xi rows): 1e-11 must
    # still converge, and agree with the default within its error estimate
    from calmir import preset

    st1, st2, gap = preset(name)
    d, tau = 2.0 * math.pi / 20.0, 0.01
    default = force_finite_T(st1, st2, gap, d, tau)
    tight = force_finite_T(st1, st2, gap, d, tau, QuadratureConfig(rel_tol=1e-11))
    assert abs(tight.pressure_norm - default.pressure_norm) <= default.est_error


@pytest.mark.parametrize("block", [1 << 12, None])
def test_blocked_pair_integrals_bit_identical(monkeypatch, block):
    # the reflection callback evaluates its (rows x abscissae) grid in column
    # blocks; every point's arithmetic is unchanged, so the integrals must
    # equal the single-block evaluation bit for bit
    from calmir import lifshitz, preset

    st1, st2, gap = preset("fig1c")
    d = 2.0 * math.pi / 400.0
    xi = np.concatenate(([0.0], np.geomspace(0.01, 60.0, 15)))
    cfg = lifshitz.DEFAULT_CONFIG
    if block is not None:
        monkeypatch.setattr(lifshitz, "_BLOCK", block)
    blocked = lifshitz._pair_integrals(st1, st2, gap, d, xi, cfg)
    monkeypatch.setattr(lifshitz, "_BLOCK", 1 << 40)
    single = lifshitz._pair_integrals(st1, st2, gap, d, xi, cfg)
    for a, b in zip(blocked, single):
        assert np.array_equal(a, b)


def test_identical_mirrors_attract():
    rng = np.random.default_rng(21)
    for _ in range(20):
        st = MirrorStack.homogeneous(random_material(rng))
        d = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
        tau = float(rng.choice([0.0, 0.1, 1.0]))
        if tau == 0.0:
            res = force_zero_T(st, st, VACUUM, d)
        else:
            res = force_finite_T(st, st, VACUUM, d, tau)
        assert res.pressure_norm >= 0.0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        force_zero_T(PE, PE, VACUUM, 0.0)
    with pytest.raises(ValueError):
        force_finite_T(PE, PE, VACUUM, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_envelope(-1.0, 0.1)
