"""Pressure evaluator: exact limits, envelopes, truncation behaviour."""

import dataclasses
import itertools
import math
import sys
import warnings

import mpmath
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
    UnsupportedConfigurationError,
    VACUUM,
    bound_envelope,
    force_finite_T,
    force_sweep,
    force_zero_T,
    integrand,
    matsubara_xi,
)
from calmir import asymptotics, lifshitz
from calmir.asymptotics import ZETA3
from conftest import random_material, trapezoid_force

PE = MirrorStack.homogeneous(PERFECT_ELECTRIC)
PM = MirrorStack.homogeneous(PERFECT_MAGNETIC)
VAC_MIRROR = MirrorStack.homogeneous(VACUUM)
F_C_COEF = math.pi**2 / 240.0
LAMBDA = 2.0 * math.pi


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


@pytest.mark.parametrize(
    "d, tau", [(d, tau) for d in (0.5, 2.0, 10.0) for tau in (0.05, 0.3)] + [(0.5, 0.01)]
)
def test_bound_envelope_against_mpmath(d, tau):
    # both mode sums directly, with the Fermi-type polylogs at -z for lo
    with mpmath.workdps(30):
        md, mt = mpmath.mpf(d), mpmath.mpf(tau)

        def mode(xi, z):
            li = [mpmath.polylog(s, z) for s in (1, 2, 3)]
            return (xi**2 / (2 * md) * li[0] + xi / (2 * md**2) * li[1] + li[2] / (4 * md**3)) / mpmath.pi

        z3 = mpmath.zeta(3) / (8 * mpmath.pi * md**3)
        hi, lo = z3, 0.75 * z3
        n = 1
        while True:
            xi = 2 * mpmath.pi * mt * n
            z = mpmath.exp(-2 * xi * md)
            t_hi = mode(xi, z)
            hi += t_hi
            lo -= mode(xi, -z)
            if t_hi < mpmath.mpf(10) ** -25 * hi:
                break
            n += 1
        want_lo, want_hi = float(-2 * mt * md**3 * lo), float(2 * mt * md**3 * hi)
    lo, hi = bound_envelope(d, tau)
    assert lo == pytest.approx(want_lo, rel=1e-14)
    assert hi == pytest.approx(want_hi, rel=1e-14)


@pytest.mark.parametrize("tau_d", [0.005, 0.01, 0.015, 0.02, 0.025, 0.03])
@pytest.mark.parametrize("d", [0.05, 0.5, 20.0])
def test_bound_envelope_closed_form_meets_image_sum(monkeypatch, d, tau_d):
    # on both sides of the switch at tau d = 0.02 the low-temperature closed
    # form and the image sum agree to round-off
    monkeypatch.setattr(lifshitz, "_LOW_T", math.inf)
    closed = bound_envelope(d, tau_d / d)
    monkeypatch.setattr(lifshitz, "_LOW_T", 0.0)
    images = bound_envelope(d, tau_d / d)
    assert images == pytest.approx(closed, rel=1e-15)


def test_bound_envelope_closed_form_at_tiny_tau_d():
    # tau d = 1e-8: the closed form, where a Matsubara series would need ~1e8 terms
    lo, hi = bound_envelope(1e-4, 1e-4)
    assert hi == pytest.approx(F_C_COEF / 1e-4, rel=1e-15)
    assert lo == pytest.approx(-0.875 * F_C_COEF / 1e-4, rel=1e-15)


@pytest.mark.parametrize("d, tau", [(0.5, 0.01), (1.0, 0.3)])
def test_bound_envelope_calls_no_polylog(monkeypatch, d, tau):
    def refuse(z):
        raise AssertionError("bound_envelope evaluated a polylogarithm")

    want = bound_envelope(d, tau)
    monkeypatch.setattr(asymptotics, "polylog2", refuse)
    monkeypatch.setattr(asymptotics, "polylog3", refuse)
    assert bound_envelope(d, tau) == want


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


def test_matsubara_budget_boundary():
    # max_matsubara is the highest index summed: a budget that just admits
    # the K terms the sum needs returns the same result, one index less
    # raises after summing K - 1 terms
    from calmir import preset

    st1, st2, gap = preset("fig1d")
    full = force_finite_T(st1, st2, gap, 10.0, 0.3)
    k = full.n_terms_used
    assert k == 3
    capped = force_finite_T(st1, st2, gap, 10.0, 0.3, QuadratureConfig(max_matsubara=k - 1))
    assert capped == full
    with pytest.raises(ConvergenceError, match=f"after {k - 1} terms"):
        force_finite_T(st1, st2, gap, 10.0, 0.3, QuadratureConfig(max_matsubara=k - 2))


def test_matsubara_budget_error_reports_the_tail():
    # the tail is the geometric one of the last two terms summed, and inf
    # only when they do not fall
    from calmir import preset

    st1, st2, gap = preset("fig1d")
    cfg = QuadratureConfig(max_matsubara=1)
    te, tm, _ = lifshitz._pair_integrals(st1, st2, gap, 10.0, 2.0 * math.pi * 0.3 * np.arange(2), cfg)
    first, last = 0.5 * abs(te[0] + tm[0]), abs(te[1] + tm[1])
    assert last < first
    ratio = last / first
    tail = 2.0 * 0.3 * 10.0**3 * last * ratio / (1.0 - ratio)
    with pytest.raises(ConvergenceError, match=rf"after 2 terms .*tail estimate {tail:.3e}\)"):
        force_finite_T(st1, st2, gap, 10.0, 0.3, cfg)
    # at tau d = 1e-8 the full-weight n = 1 term outweighs the half-weight n = 0 one
    with pytest.raises(ConvergenceError, match=r"tail estimate inf\)"):
        force_finite_T(st1, st2, gap, 1e-4, 1e-4, cfg)
    with pytest.raises(ConvergenceError, match=r"after 101 terms .*tail estimate \d\.\d{3}e-\d+\)"):
        force_finite_T(st1, st2, gap, 1e-4, 1e-4, QuadratureConfig(max_matsubara=100))


def test_results_outside_envelope_raise(monkeypatch):
    # every result is checked against the envelopes it carries, through the
    # module's bound_envelope
    from calmir import lifshitz

    st = MirrorStack.homogeneous(ResponseModel.drude(1.0))
    monkeypatch.setattr(lifshitz, "bound_envelope", lambda d, tau: (-1e-6, 1e-6))
    with pytest.raises(ConvergenceError, match="bound check failed"):
        force_zero_T(st, st, VACUUM, 1.0)
    with pytest.raises(ConvergenceError, match="bound check failed"):
        force_finite_T(st, st, VACUUM, 1.0, 0.3)


@pytest.mark.parametrize("tau", [0.01, 0.0])
@pytest.mark.parametrize("name", ["fig1c", "fig1d", "fig3c"])
def test_tight_tolerance_converges_above_roundoff(name, tau):
    # the per-row kappa error sums |K - G| over panels, which cannot fall
    # below the integrand's round-off (~1e-13 relative on high-xi rows):
    # 1e-11 must still converge, and agree with the default within its
    # error estimate
    from calmir import preset

    st1, st2, gap = preset(name)
    d = 2.0 * math.pi / 20.0

    def force(cfg=None):
        if tau == 0.0:
            return force_zero_T(st1, st2, gap, d, cfg)
        return force_finite_T(st1, st2, gap, d, tau, cfg)

    default = force()
    tight = force(QuadratureConfig(rel_tol=1e-11))
    assert abs(tight.pressure_norm - default.pressure_norm) <= default.est_error


@pytest.mark.parametrize("name, d, tau", [("fig3c", 20.0 * math.pi, 0.1), ("fig1d", 314.2, 0.01)])
def test_est_error_not_below_roundoff(name, d, tau):
    # a few Matsubara terms with a tiny tail: the estimate must still cover
    # the rounding error of summing the terms
    from calmir import preset

    st1, st2, gap = preset(name)
    res = force_finite_T(st1, st2, gap, d, tau)
    assert res.est_error >= np.finfo(float).eps * abs(res.pressure_norm)


@pytest.mark.parametrize("name, d, tau", [("fig1d", 268.45998111608964, 0.01), ("fig3a", 20.0 * math.pi, 0.1)])
def test_est_error_covers_kappa_roundoff(name, d, tau):
    # 3 and 2 Matsubara terms whose kappa integrals change by a few ulp with
    # the Gauss order: the kappa round-off floor must cover that change
    from calmir import preset

    st1, st2, gap = preset(name)
    res = force_finite_T(st1, st2, gap, d, tau)
    ref = force_finite_T(st1, st2, gap, d, tau, QuadratureConfig(kappa_nodes=64))
    assert abs(res.pressure_norm - ref.pressure_norm) <= res.est_error


@pytest.mark.parametrize("block", [1 << 12, 1 << 9, 7, None])
def test_blocked_pair_integrals_bit_identical(monkeypatch, block):
    # the reflection callback evaluates its (rows x abscissae) grid in blocks
    # of whole rows, at most _BLOCK points unless one row is longer (7: one
    # row per block, through the kernel's view of that row); every point's
    # arithmetic is unchanged, so the integrals must equal the single-block
    # evaluation bit for bit
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


def _ladder_index(v):
    # the j with v == math.ldexp(0.05, 2 j) (float equality), else None
    j = round(math.log(v / 0.05, 4.0))
    return j if v == math.ldexp(0.05, 2 * j) else None


def _assert_ladder(edges, d, delta):
    # 0, then consecutive values of the ladder 0.05 4^j: the first in
    # (delta/4, delta], the last the first at or past 20/d
    js = [_ladder_index(v) for v in edges[1:].tolist()]
    assert edges[0] == 0.0 and None not in js
    assert js == list(range(js[0], js[0] + len(js)))
    assert edges[1] <= delta < 4.0 * edges[1]
    assert edges[-2] < 20.0 / d <= edges[-1]


def _grid_distances():
    from calmir import preset_scenario

    return preset_scenario("fig1d").sweep.distances().tolist()


def test_kappa_offsets_first_panel_follows_thickest_layer():
    # without layers the first panel width delta is min(1/(2d), 0.05) (at
    # least 5e-7/d); a layer of thickness w (e^{-2 kappa_b w}) caps it at
    # _LAYER_FRACTION/(2w); the first edge is the ladder value at or below it
    w = 20.0 * math.pi  # fig1c's coating
    for d in (LAMBDA / 400.0, LAMBDA / 20.0, LAMBDA, 10.0 * LAMBDA, 1e4, 1e80):
        floor = 5e-7 / d
        delta = min(0.5 / d, max(0.05, floor))
        _assert_ladder(lifshitz._kappa_offsets(d, 0.0, 0.0), d, delta)
        layered = max(min(delta, 0.5 * lifshitz._LAYER_FRACTION / w), floor)
        _assert_ladder(lifshitz._kappa_offsets(d, w, 0.0), d, layered)
    # a layer thin against d leaves the layout alone
    assert np.array_equal(lifshitz._kappa_offsets(LAMBDA, 0.01, 0.0), lifshitz._kappa_offsets(LAMBDA, 0.0, 0.0))


def test_kappa_offsets_below_the_caps_do_not_depend_on_d():
    # every edge is a ladder value, so any two distances share, bit for bit,
    # every edge that both layouts reach; below the 1/(2d) cap they start on
    # the same edge, and the shorter layout is the start of the longer one
    below = (LAMBDA / 400.0, 0.1, 0.5, 1.0)
    for w_max, k_row in ((0.0, 0.0), (20.0 * math.pi, 0.0), (0.0, 3.0)):
        layouts = [lifshitz._kappa_offsets(d, w_max, k_row) for d in below]
        shortest = layouts[-1]
        for edges in layouts:
            assert np.array_equal(edges[: len(shortest)], shortest)
        grid = [lifshitz._kappa_offsets(d, w_max, k_row) for d in _grid_distances()]
        for a, b in itertools.combinations(grid, 2):
            lo, hi = max(a[1], b[1]), min(a[-1], b[-1])
            assert np.array_equal(a[(a >= lo) & (a <= hi)], b[(b >= lo) & (b <= hi)])


def test_kappa_cut_drops_less_than_the_round_off_floor():
    # the last edge reaches 2 kappa d >= 40; between ideal mirrors a row past
    # 2 kappa d = X drops (X^2 + 2X + 2) e^{-X}/2 of itself, and a layout of
    # at least 4 panels of 2n + 1 >= 25 points gives each row a round-off
    # floor of at least 100 eps of itself, which is larger
    x = 40.0
    assert (x * x + 2.0 * x + 2.0) * math.exp(-x) / 2.0 < 100.0 * sys.float_info.epsilon
    assert 2 * lifshitz.DEFAULT_CONFIG.kappa_nodes + 1 >= 25
    for d in _grid_distances() + [1e-4, 1e4, 1e80]:
        for w_max, k_row in ((0.0, 0.0), (20.0 * math.pi, 0.0), (0.0, 3.0), (0.0, 40.0)):
            edges = lifshitz._kappa_offsets(d, w_max, k_row)
            assert 2.0 * edges[-1] * d >= 40.0 and len(edges) - 1 >= 4


def test_pair_integrals_lay_out_by_the_thickest_layer_of_either_stack(monkeypatch):
    from calmir import Layer

    seen = []
    layout = lifshitz._kappa_offsets
    monkeypatch.setattr(lifshitz, "_kappa_offsets",
                        lambda d, w_max, k_row: seen.append(w_max) or layout(d, w_max, k_row))
    coat = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    metal = ResponseModel.drude(3.0)
    thin = MirrorStack((Layer(coat, 2.0), Layer(coat, 5.0)), metal)
    thick = MirrorStack((Layer(coat, 3.0),), metal)
    bare = MirrorStack.homogeneous(metal)
    for st1, st2 in ((thin, thick), (thick, thin), (bare, bare)):
        lifshitz._pair_integrals(st1, st2, VACUUM, 1.0, [0.5], lifshitz.DEFAULT_CONFIG)
    assert seen == [5.0, 5.0, 0.0]


def _row_scale_of(st1, st2, gap, xi):
    # k_row of one kappa call, from the kernel that `_pair_integrals` builds
    from calmir.reflection import ReflectionKernel

    kernel = ReflectionKernel((st1, st2), gap, np.asarray(xi, dtype=float)[:, None])
    return lifshitz._row_scale(kernel, np.sqrt(kernel.s_gap[:, 0]))


def test_row_scale_sizes_the_first_kappa_panel():
    # the first panel width delta is 0.05 max(1, 2 k_row), at most 1/(2d),
    # and the layer cap still wins; the first edge is the ladder value at or
    # below delta; k_row = kappa_min = xi for homogeneous mirrors across a
    # vacuum gap, and 0 for a block that holds xi = 0
    from calmir import preset

    st1, st2, gap = preset("fig1d")
    d = LAMBDA / 20.0
    assert _row_scale_of(st1, st2, gap, [0.0, 1.0, 5.0]) == 0.0
    k_row = _row_scale_of(st1, st2, gap, [20.0, 3.0, 5.0])  # the lowest row need not come first
    assert k_row == pytest.approx(3.0, rel=1e-15)
    _assert_ladder(lifshitz._kappa_offsets(d, 0.0, k_row), d, 0.1 * k_row)
    assert np.array_equal(lifshitz._kappa_offsets(d, 0.0, 0.25), lifshitz._kappa_offsets(d, 0.0, 0.0))
    # the cap at 1/(2d), the scale of e^{-2 kappa d}
    _assert_ladder(lifshitz._kappa_offsets(d, 0.0, 40.0), d, 0.5 / d)
    _assert_ladder(lifshitz._kappa_offsets(20.0, 0.0, 0.0), 20.0, 0.5 / 20.0)
    # the cap of a layer of thickness w at _LAYER_FRACTION/(2w)
    w = 20.0 * math.pi
    cap = 0.5 * lifshitz._LAYER_FRACTION / w
    _assert_ladder(lifshitz._kappa_offsets(d, w, 40.0), d, cap)
    assert np.array_equal(lifshitz._kappa_offsets(d, w, 40.0), lifshitz._kappa_offsets(d, w, 0.0))


def test_row_scale_at_xi_zero_keeps_the_layout():
    # a block holding n = 0 is laid out by d and its layers alone, as before
    # the row scale, on every preset
    from calmir import PRESET_NAMES, preset

    for name in PRESET_NAMES:
        st1, st2, gap = preset(name)
        xi = 2.0 * math.pi * 0.01 * np.arange(64)
        assert _row_scale_of(st1, st2, gap, xi) == 0.0


def test_row_scale_shrinks_for_a_gap_denser_than_a_mirror():
    # kappa_m = sqrt(kappa^2 + s_m - s_gap) starts at sqrt(s_m): a medium
    # thinner than the gap (s_m < s_gap) varies on k_lo s_m/s_gap
    from calmir import materials

    dense = ResponseModel.lorentz(2.0, 1.5)
    thin = ResponseModel.lorentz(0.5, 1.0)
    st_thin, st_dense = MirrorStack.homogeneous(thin), MirrorStack.homogeneous(dense)
    xi = 1.7
    eps_gap, eps_thin = materials.epsilon_i(dense, xi), materials.epsilon_i(thin, xi)
    assert eps_thin < eps_gap
    k_lo = xi * math.sqrt(eps_gap)
    assert _row_scale_of(st_thin, st_dense, dense, [xi]) == pytest.approx(k_lo * eps_thin / eps_gap, rel=1e-14)
    # no medium thinner than the gap: the ratio is capped at 1
    k_lo = xi * math.sqrt(eps_thin)
    assert _row_scale_of(st_dense, st_dense, thin, [xi]) == pytest.approx(k_lo, rel=1e-14)


def test_row_scale_ignores_perfect_mirrors():
    # a perfect mirror's s = +inf sets no scale; the other mirror and the
    # gap do
    dense = MirrorStack.homogeneous(ResponseModel.lorentz(2.0, 1.5))
    xi = [1.7, 2.0]
    assert _row_scale_of(PE, PM, VACUUM, xi) == pytest.approx(1.7, rel=1e-15)
    assert _row_scale_of(PE, VAC_MIRROR, VACUUM, xi) == _row_scale_of(VAC_MIRROR, VAC_MIRROR, VACUUM, xi)
    gap = ResponseModel.lorentz(2.0, 1.5)
    assert _row_scale_of(PE, dense, gap, xi) == _row_scale_of(dense, dense, gap, xi)


@pytest.mark.parametrize("name, d, tau", [("fig1a", 3.3, 0.1), ("fig1d", 1.0, 0.01), ("fig1c", LAMBDA, 0.01)])
def test_sum_ended_in_its_first_block_keeps_its_bits(monkeypatch, name, d, tau):
    # the first block holds n = 0, so its layout ignores the row scale: a
    # sum that ends there is the one the layout by d and layers alone gives
    from calmir import preset

    calls = _count_pair_integrals(monkeypatch)
    res = force_finite_T(*preset(name), d, tau)
    assert len(calls) == 1
    _hold_row_scale_at_zero(monkeypatch)
    held = force_finite_T(*preset(name), d, tau)
    assert [float(v).hex() for v in dataclasses.astuple(res)] == [float(v).hex() for v in dataclasses.astuple(held)]


def _doubling_offsets(d, w_max, k_row):
    # the order-64 rule's kappa layout: a first panel blind to the coating,
    # then edges doubling up to X_CUT/(2d)
    offs = [0.0]
    k_cut = 0.5 * lifshitz.X_CUT / d
    v = min(0.5 / d, max(0.05, 5e-7 / d))
    while v < k_cut:
        offs.append(v)
        v *= 2.0
    return np.array(offs + [k_cut])


@pytest.mark.parametrize("d", [LAMBDA, 10.0 * LAMBDA])
def test_coated_stack_kappa_points_under_ceiling(monkeypatch, d):
    # points do not depend on the machine: the default rule on fig1c's 16
    # rows stays under a ceiling that the order-64 rule on the doubling
    # layout exceeds (16512 and 14448 points); the default needs 3200 and
    # 2800, and one split pass would add 6400
    from calmir import preset, quadrature

    ceiling = 4000
    st1, st2, gap = preset("fig1c")
    xi = np.concatenate(([0.0], np.geomspace(0.01, 0.5 * lifshitz.X_CUT / d, 15)))
    counts = []
    engine = quadrature.adaptive_integral

    def counting(*args, **kwargs):
        out = engine(*args, **kwargs)
        counts.append(out[2])
        return out

    monkeypatch.setattr(quadrature, "adaptive_integral", counting)
    lifshitz._pair_integrals(st1, st2, gap, d, xi, lifshitz.DEFAULT_CONFIG)
    monkeypatch.setattr(lifshitz, "_kappa_offsets", _doubling_offsets)
    lifshitz._pair_integrals(st1, st2, gap, d, xi, QuadratureConfig(kappa_nodes=64))
    new, old = counts
    assert new <= ceiling < old


def _fixed_xi_breaks(d):
    # the earlier tau = 0 xi layout: fixed breaks up to 20, then doublings
    # from 40 up to xi_cut
    xi_cut = 0.5 * lifshitz.X_CUT / d
    breaks = [b for b in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0) if b < 3.0 * xi_cut]
    v = 40.0
    while v < xi_cut:
        breaks.append(v)
        v *= 2.0
    return breaks + [xi_cut]


def _outer_rows_to_infinity(st1, st2, gap, d, breaks):
    # the earlier tau = 0 xi integral: every row of a pass in one kappa call,
    # up to xi = infinity
    from calmir.quadrature import xi_integral

    cfg = lifshitz.DEFAULT_CONFIG

    def outer(xi):
        return np.stack(lifshitz._pair_integrals(st1, st2, gap, d, xi, cfg))

    _, _, n_rows = xi_integral(outer, breaks, nodes=cfg.xi_nodes, rel_tol=cfg.rel_tol,
                               abs_tol=cfg.abs_tol * math.pi / d**3, n_control=2)
    return n_rows


def test_coated_stack_outer_rows_under_ceiling():
    # rows do not depend on the machine: the tau = 0 xi integral on fig1c
    # needs 231, 198 and 132 outer rows at these distances, and the fixed
    # breaks integrated to infinity 594, 462 and 363
    from calmir import preset

    ceiling = 250
    st1, st2, gap = preset("fig1c")
    distances = (LAMBDA / 400.0, LAMBDA / 20.0, LAMBDA)
    new = [force_zero_T(st1, st2, gap, d).n_terms_used for d in distances]
    old = [_outer_rows_to_infinity(st1, st2, gap, d, _fixed_xi_breaks(d)) for d in distances]
    assert max(new) <= ceiling < min(old)


def _tail_bound(d):
    # ideal-mirror bound on the tau = 0 pressure from xi > X_CUT/(2d), F d^3 units
    y = lifshitz.X_CUT
    return (y * y + 4.0 * y + 6.0) * math.exp(-y) / (16.0 * math.pi**2 * d * -math.expm1(-y))


def _without_cut(monkeypatch):
    # force_zero_T's xi integral runs on to infinity, as it did before the cut
    from calmir import quadrature

    monkeypatch.setattr(lifshitz, "xi_integral",
                        lambda f, breaks, upper, **engine: quadrature.xi_integral(f, breaks, **engine))


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig1c", "fig1d", "fig3c"])
def test_zero_T_cut_drops_only_the_tail(monkeypatch, name):
    # the xi panel beyond X_CUT/(2d) holds 33 rows below e^{-X_CUT} (at
    # larger d the engine may also split it): without layers the pressure is
    # the same bit for bit, and on fig1c it moves by less than the tail's
    # ideal-mirror bound (1.4e-23 at Lambda/400)
    from calmir import preset

    st1, st2, gap = preset(name)
    distances = (LAMBDA / 400.0, LAMBDA / 20.0, LAMBDA)
    cut = [force_zero_T(st1, st2, gap, d) for d in distances]
    _without_cut(monkeypatch)
    full = [force_zero_T(st1, st2, gap, d) for d in distances]
    assert _tail_bound(LAMBDA / 400.0) == pytest.approx(1.36e-23, rel=0.01)
    for d, a, b in zip(distances, cut, full):
        assert b.n_terms_used - a.n_terms_used == 33
        if st1.layers or st2.layers:
            assert abs(a.pressure_norm - b.pressure_norm) <= _tail_bound(d)
        else:
            assert (a.te_part, a.tm_part) == (b.te_part, b.tm_part)


def test_rows_are_grouped_by_the_layers_they_can_see(monkeypatch):
    # a layer of thickness w is visible below xi = X_CUT/(2w): 3 for w = 10,
    # 30 for w = 1; force_zero_T makes one kappa call per group of a pass
    from calmir import Layer

    coat = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    metal = ResponseModel.drude(3.0)
    thick = MirrorStack((Layer(coat, 10.0),), metal)
    thin = MirrorStack((Layer(coat, 1.0),), metal)
    bare = MirrorStack.homogeneous(metal)
    xi = np.array([0.0, 2.9, 3.0, 29.0, 30.0, 100.0])
    assert lifshitz._thickest_visible((bare, bare), xi).tolist() == [0.0] * 6
    assert lifshitz._thickest_visible((bare, thick), xi).tolist() == [10.0, 10.0, 0.0, 0.0, 0.0, 0.0]
    assert lifshitz._thickest_visible((thick, thin), xi).tolist() == [10.0, 10.0, 1.0, 1.0, 0.0, 0.0]
    assert lifshitz._thickest_visible((thin, thick), 2.9) == 10.0
    calls = _count_pair_integrals(monkeypatch)
    force_zero_T(thick, thin, VACUUM, 0.1)  # xi_cut = 300
    groups = [set(lifshitz._thickest_visible((thick, thin), x).tolist()) for x in calls]
    assert all(len(g) == 1 for g in groups)
    assert set().union(*groups) == {10.0, 1.0, 0.0}


@pytest.mark.parametrize("gap", [VACUUM, ResponseModel.lorentz(0.5, 2.0)])
def test_a_row_that_cannot_see_a_layer_sees_a_half_space(gap):
    # above X_CUT/(2w) the layer's e^{-2 kappa_b w} is below e^{-X_CUT} for
    # any passive gap (kappa_b >= xi), so the coated mirror reflects as a
    # half-space of the coating, within the kappa integrals' error
    from calmir import Layer

    coat = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    metal = ResponseModel.drude(3.0)
    bare, coated_stack = MirrorStack.homogeneous(metal), MirrorStack((Layer(coat, 10.0),), metal)
    xi = np.geomspace(3.0, 30.0, 8)
    assert not lifshitz._thickest_visible((bare, coated_stack), xi).any()
    cfg, d = lifshitz.DEFAULT_CONFIG, 0.5
    coated = lifshitz._pair_integrals(bare, coated_stack, gap, d, xi, cfg)
    bulk = lifshitz._pair_integrals(bare, MirrorStack.homogeneous(coat), gap, d, xi, cfg)
    assert np.all(np.abs(coated[0] - bulk[0]) + np.abs(coated[1] - bulk[1]) <= coated[2] + bulk[2])


@pytest.mark.parametrize("tau", [0.0, 0.01])
@pytest.mark.parametrize("d", [LAMBDA, 10.0 * LAMBDA])
def test_coated_stack_est_error_is_honest(d, tau):
    # fig1c's 10 Lambda coating on the default kappa rule, against Gauss
    # order 64 at rel_tol 1e-11
    from calmir import preset

    st1, st2, gap = preset("fig1c")

    def force(cfg=None):
        if tau == 0.0:
            return force_zero_T(st1, st2, gap, d, cfg)
        return force_finite_T(st1, st2, gap, d, tau, cfg)

    res = force()
    ref = force(QuadratureConfig(rel_tol=1e-11, kappa_nodes=64))
    assert abs(res.pressure_norm - ref.pressure_norm) <= res.est_error


def _finite_t_stacks(name):
    # a preset's (mirror1, mirror2, gap), or fig1d across a gap carrying
    # mirror 2's permittivity for "fig1d-matched"
    from calmir import preset

    if name != "fig1d-matched":
        return preset(name)
    st1, st2, _ = preset("fig1d")
    return st1, st2, ResponseModel.lorentz(st2.substrate.eps_strength, st2.substrate.eps_resonance)


# (preset, d, tau, where the sum stops against the gap-sized first block)
_SCHEDULE_CASES = [
    ("fig1a", 1.0, 0.01, "below"),  # 107 terms, first block 179
    ("fig1a", 0.3, 0.01, "above"),  # 268 terms, first block 256
    ("fig1d", LAMBDA, 0.01, "near"),  # 29 terms, first block 31
    ("fig1d", LAMBDA / 400.0, 0.01, "above"),  # 340 terms, ended by the materials
    ("fig1d-matched", 0.3, 0.1, "below"),  # 38 terms, first block 62
    ("fig1d-matched", LAMBDA, 0.3, "near"),  # 4 terms, first block 4
    ("fig1d-matched", LAMBDA / 400.0, 0.1, "above"),  # 481 terms
]


def _hold_row_scale_at_zero(monkeypatch):
    # every kappa call laid out as for a block holding xi = 0: d and the
    # layers alone set the first panel
    monkeypatch.setattr(lifshitz, "_row_scale", lambda kernel, k_lo: 0.0)


@pytest.mark.parametrize("name, d, tau, stop", _SCHEDULE_CASES)
def test_matsubara_block_schedule_does_not_change_results(monkeypatch, name, d, tau, stop):
    # the stop rule reads the terms in order, so the gap-sized first block
    # gives the result of the old schedule (8 rows, doubling to 256) bit for
    # bit, whether the sum stops inside, at the end of or past that block,
    # as long as every block is laid out alike; the row scale, which follows
    # each block's rows, is held at 0 on both sides
    st1, st2, gap = _finite_t_stacks(name)
    _hold_row_scale_at_zero(monkeypatch)
    first = lifshitz._first_block(tau, d, lifshitz.DEFAULT_CONFIG.rel_tol)
    res = force_finite_T(st1, st2, gap, d, tau)
    n = res.n_terms_used
    assert {"below": n < first - 2, "near": abs(n - first) <= 2, "above": n > first}[stop]
    monkeypatch.setattr(lifshitz, "_first_block", lambda tau, d, rel_tol: 8)
    old = force_finite_T(st1, st2, gap, d, tau)
    assert [float(v).hex() for v in dataclasses.astuple(res)] == [float(v).hex() for v in dataclasses.astuple(old)]


@pytest.mark.parametrize("name, d, tau, stop", _SCHEDULE_CASES)
def test_row_scale_moves_block_results_by_round_off(monkeypatch, name, d, tau, stop):
    # laying out each block by its rows' own scale moves no result by more
    # than 1e-6 of its est_error, with either block schedule (measured at
    # most 4.3e-9 with the gap-sized first block and 7.2e-7 with 8 rows)
    st1, st2, gap = _finite_t_stacks(name)
    for first in (None, 8):
        if first is not None:
            monkeypatch.setattr(lifshitz, "_first_block", lambda tau, d, rel_tol: first)
        live = force_finite_T(st1, st2, gap, d, tau)
        with monkeypatch.context() as m:
            _hold_row_scale_at_zero(m)
            held = force_finite_T(st1, st2, gap, d, tau)
        assert live.n_terms_used == held.n_terms_used
        assert abs(live.pressure_norm - held.pressure_norm) <= 1e-6 * min(live.est_error, held.est_error)


def _count_pair_integrals(monkeypatch):
    # records the xi array of every kappa call of force_finite_T or
    # force_zero_T: call i of `_Rows` integrates the rows its index selects
    calls = []
    integrals = lifshitz._Rows.integrals

    def counted(rows, i):
        _, index, *_ = rows.calls[i]
        calls.append(np.array(rows.xi[index]))
        return integrals(rows, i)

    monkeypatch.setattr(lifshitz._Rows, "integrals", counted)
    return calls


_SWEEP_DISTANCES = np.geomspace(LAMBDA / 400.0, 50.0 * LAMBDA, 12).tolist()


def _hexed(results):
    return [[float(v).hex() for v in dataclasses.astuple(r)] for r in results]


@pytest.mark.parametrize("tau", [0.01, 0.1])
@pytest.mark.parametrize("name", ["fig1d", "fig1c", "fig1d-matched"])
def test_sweep_rows_equal_force_finite_T(name, tau):
    # a distance's layout, engine target and stop rule are its own, and the
    # shared reflection products are the values its own kernel gives: each
    # row of a sweep is force_finite_T at its distance, bit for bit, in any
    # order and with any other distances
    st1, st2, gap = _finite_t_stacks(name)
    sweep = force_sweep(st1, st2, gap, _SWEEP_DISTANCES, tau)
    alone = [force_finite_T(st1, st2, gap, d, tau) for d in _SWEEP_DISTANCES]
    assert _hexed(sweep) == _hexed(alone)
    shuffled = _SWEEP_DISTANCES[1::2] + _SWEEP_DISTANCES[::2]
    assert force_sweep(st1, st2, gap, shuffled, tau) == [sweep[_SWEEP_DISTANCES.index(d)] for d in shuffled]


@pytest.mark.parametrize("name", ["fig1c", "fig1d", "fig1d-matched"])
def test_sweep_rows_equal_force_zero_T(name):
    # a distance reuses r1 r2 only where its nodes equal its predecessor's,
    # and every other step of its xi integral is its own: each row of a
    # tau = 0 sweep is force_zero_T at its distance, bit for bit, in order,
    # shuffled, and with a distance repeated (which reuses its whole first pass)
    st1, st2, gap = _finite_t_stacks(name)
    alone = _hexed(force_zero_T(st1, st2, gap, d) for d in _SWEEP_DISTANCES)
    assert _hexed(force_sweep(st1, st2, gap, _SWEEP_DISTANCES, 0.0)) == alone
    shuffled = _SWEEP_DISTANCES[1::2] + _SWEEP_DISTANCES[::2]
    assert _hexed(force_sweep(st1, st2, gap, shuffled, 0.0)) == [alone[_SWEEP_DISTANCES.index(d)] for d in shuffled]
    repeated = _SWEEP_DISTANCES[:3] + _SWEEP_DISTANCES[2:5]
    assert _hexed(force_sweep(st1, st2, gap, repeated, 0.0)) == [alone[_SWEEP_DISTANCES.index(d)] for d in repeated]


@pytest.mark.parametrize("name, tau", [("fig1c", 0.0), ("fig1d", 0.01)])
def test_sweep_store_chunks_bit_identical(monkeypatch, name, tau):
    # the store evaluates its missing (row, panel) pairs in chunks of _BLOCK
    # points, a chunk running across the rows of several panels; chunks of
    # a few pairs leave every row of a sweep the same, bit for bit
    st1, st2, gap = _finite_t_stacks(name)
    distances = _SWEEP_DISTANCES[:6]
    want = _hexed(force_sweep(st1, st2, gap, distances, tau))
    monkeypatch.setattr(lifshitz, "_BLOCK", 7 * (2 * lifshitz.DEFAULT_CONFIG.kappa_nodes + 1))
    assert _hexed(force_sweep(st1, st2, gap, distances, tau)) == want


def _kernel_points(monkeypatch):
    # the (xi, kappa) points that pass through the reflection kernel
    from calmir.reflection import ReflectionKernel

    points = []
    into_scratch = ReflectionKernel.into_scratch

    def counted(kernel, kappa):
        points.append(np.size(kappa))
        return into_scratch(kernel, kappa)

    monkeypatch.setattr(ReflectionKernel, "into_scratch", counted)
    return points


def test_zero_T_sweep_shares_the_reflection_kernel(monkeypatch):
    # each distance of fig1c's 64-point sweep grid reuses r1 r2 on the rows
    # and starting kappa panels it shares with its neighbour: the sweep
    # evaluates the kernel on at most 50% of the points that 64 separate
    # calls take (measured 34.6%: 737,325 of 2,130,825)
    from calmir import preset_scenario

    points = _kernel_points(monkeypatch)
    scn = preset_scenario("fig1c")
    st1, st2, gap = scn.mirror1, scn.mirror2, scn.gap
    distances = scn.sweep.distances().tolist()
    force_sweep(st1, st2, gap, distances, 0.0)
    shared = sum(points)
    points.clear()
    for d in distances:
        force_zero_T(st1, st2, gap, d)
    assert shared <= 0.5 * sum(points)


def test_shuffled_zero_T_sweep_keeps_the_other_layer_groups(monkeypatch):
    # a distance's first pass drops only the entries of its own layer groups
    # that it does not start on, so a group that skips a distance finds its
    # last call's rows again: fig1c's sweep grid in a shuffled order took
    # 1,182,450 kernel points when each pass dropped every other group's
    # entries, and takes 1,150,725
    from calmir import preset_scenario

    points = _kernel_points(monkeypatch)
    scn = preset_scenario("fig1c")
    distances = scn.sweep.distances()
    distances = distances[np.random.default_rng(5).permutation(len(distances))].tolist()
    force_sweep(scn.mirror1, scn.mirror2, scn.gap, distances, 0.0)
    assert sum(points) <= 1_150_725


def _entries_on_fill(monkeypatch):
    # the number of entries that each `_Rows._fill` finds in its store
    found = []
    fill = lifshitz._Rows._fill

    def counted(rows):
        found.append(len(rows._store))
        return fill(rows)

    monkeypatch.setattr(lifshitz._Rows, "_fill", counted)
    return found


def test_store_lives_as_long_as_its_reuse(monkeypatch):
    # no Matsubara round can reuse an earlier round's rows, so each round
    # fills a store of its own, empty (a sweep-wide store held 138, 36, 25,
    # ... entries of the round before on fig1d); at tau = 0 each distance's
    # first pass finds the entries of the distances before it
    from calmir import preset_scenario

    found = _entries_on_fill(monkeypatch)
    for name, tau in (("fig1d", 0.01), ("fig1c", 0.0)):
        scn = preset_scenario(name)
        found.clear()
        force_sweep(scn.mirror1, scn.mirror2, scn.gap, scn.sweep.distances().tolist(), tau)
        if tau > 0.0:
            assert found and not any(found)
        else:
            assert len(found) == len(scn.sweep.distances()) and found[0] == 0 and all(found[1:])


def test_sweep_shares_the_reflection_kernel(monkeypatch):
    # the distances of a sweep share the starting kappa nodes of each row
    # block: the first 16 distances of fig1d's sweep grid (Lambda/400 to
    # Lambda/38, long Matsubara sums) at tau = 0.01 evaluate the kernel on
    # at most 40% of the points that 16 separate calls take (measured 29%;
    # 16 distances over the whole grid share fewer rows and read 49%)
    from calmir import preset_scenario

    points = _kernel_points(monkeypatch)
    scn = preset_scenario("fig1d")
    st1, st2, gap = scn.mirror1, scn.mirror2, scn.gap
    distances = scn.sweep.distances()[:16].tolist()
    tau = 0.01
    force_sweep(st1, st2, gap, distances, tau)
    shared = sum(points)
    points.clear()
    for d in distances:
        force_finite_T(st1, st2, gap, d, tau)
    assert shared <= 0.4 * sum(points)


def test_sweep_shares_kappa_nodes_across_the_whole_grid(monkeypatch):
    # every kappa panel edge lies on one ladder, so distances far apart share
    # the starting nodes that both reach: every 4th distance of fig1d's grid
    # (Lambda/400 to 50 Lambda) at tau = 0.01 evaluates the kernel on at most
    # 40% of the points that 16 separate calls take (measured 33%: 334,100 of
    # 1,022,400; 48% when each distance ended on its own cut X_CUT/(2d) and
    # started on its own 1/(2d) above d = 10)
    from calmir import preset_scenario

    points = _kernel_points(monkeypatch)
    scn = preset_scenario("fig1d")
    st1, st2, gap = scn.mirror1, scn.mirror2, scn.gap
    distances = scn.sweep.distances()[::4].tolist()
    tau = 0.01
    force_sweep(st1, st2, gap, distances, tau)
    shared = sum(points)
    points.clear()
    for d in distances:
        force_finite_T(st1, st2, gap, d, tau)
    assert len(distances) == 16 and shared <= 0.4 * sum(points)


@pytest.mark.parametrize("name, tau", [("fig1d", 0.01), ("fig1c", 0.0)])
def test_sweep_builds_one_kernel_per_rows(monkeypatch, name, tau):
    # each `_Rows` (a Matsubara round at tau > 0, an xi pass at tau = 0)
    # samples the media once, for all of its calls; a kernel per row count
    # took 39 kernels in 10 rounds on fig1d at tau = 0.01
    from calmir import preset_scenario
    from calmir.reflection import ReflectionKernel

    built = {"kernels": 0, "rows": 0}
    for cls, key in ((ReflectionKernel, "kernels"), (lifshitz._Rows, "rows")):
        def counted(obj, *args, _init=cls.__init__, _key=key, **kwargs):
            built[_key] += 1
            _init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    scn = preset_scenario(name)
    force_sweep(scn.mirror1, scn.mirror2, scn.gap, scn.sweep.distances().tolist(), tau)
    assert built["rows"] > 1 and built["kernels"] == built["rows"]


def test_sweep_raises_the_error_of_its_first_failing_distance():
    # each distance keeps its own checks and budget; the first to fail in
    # sweep order decides the error, whichever fails first in the loop
    from calmir import preset

    st1, st2, gap = preset("fig1d")
    cfg = QuadratureConfig(max_matsubara=50)
    assert force_sweep(st1, st2, gap, [10.0, 20.0], 0.01, cfg) == [
        force_finite_T(st1, st2, gap, d, 0.01, cfg) for d in (10.0, 20.0)]
    with pytest.raises(ConvergenceError, match="after 51 terms"):
        force_sweep(st1, st2, gap, [10.0, 0.05, math.nan], 0.01, cfg)
    with pytest.raises(ValueError, match="d must be finite"):
        force_sweep(st1, st2, gap, [10.0, math.nan, 0.05], 0.01, cfg)
    with pytest.raises(ConvergenceError, match="underflow"):
        force_sweep(st1, st2, gap, [10.0, 1e-300, 0.05], 0.01, cfg)
    assert force_sweep(st1, st2, gap, [], 0.01) == []
    # at tau = 0 the distances run in order, so the first to fail raises
    assert force_sweep(st1, st2, gap, [1.0], 0.0) == [force_zero_T(st1, st2, gap, 1.0)]
    with pytest.raises(ValueError, match="d must be finite"):
        force_sweep(st1, st2, gap, [10.0, math.nan, 1e-300], 0.0)
    assert force_sweep(st1, st2, gap, [], 0.0) == []


def test_a_failing_distance_ends_its_round(monkeypatch):
    # both first blocks are capped at the budget's 51 rows, so both distances
    # share round 0; the first fails there, and the second's call is not made
    from calmir import preset

    calls = []
    integrals = lifshitz._Rows.integrals
    monkeypatch.setattr(lifshitz._Rows, "integrals", lambda rows, i: calls.append(i) or integrals(rows, i))
    with pytest.raises(ConvergenceError, match="after 51 terms"):
        force_sweep(*preset("fig1d"), [0.05, 0.06], 0.01, QuadratureConfig(max_matsubara=50))
    assert calls == [0]


@pytest.mark.parametrize("name, d, tau", [("fig1a", 3.3, 0.1), ("fig1d", 1.0, 0.01)])
def test_matsubara_sum_ended_by_the_gap_takes_one_kappa_call(monkeypatch, name, d, tau):
    from calmir import preset

    calls = _count_pair_integrals(monkeypatch)
    res = force_finite_T(*preset(name), d, tau)
    assert len(calls) == 1 and len(calls[0]) >= res.n_terms_used


def test_first_block_respects_the_matsubara_budget(monkeypatch):
    # at tau d = 1e-8 the first block is capped, and no call asks for an
    # index above max_matsubara
    from calmir import preset

    tau = d = 1e-4
    assert lifshitz._first_block(tau, d, 1e-8) == lifshitz._MAX_BLOCK
    calls = _count_pair_integrals(monkeypatch)
    with pytest.raises(ConvergenceError, match="after 101 terms"):
        force_finite_T(*preset("fig1d"), d, tau, QuadratureConfig(max_matsubara=100))
    assert max(xi.max() for xi in calls) == 2.0 * math.pi * tau * 100


def test_underflowing_tau_d_raises_convergence_error():
    # tau d = 0 in floating point sizes the first block at its cap instead of
    # dividing by zero; terms whose prefactor 2 tau d^3 underflows cannot be
    # summed, and p = 0 would pass the envelope check
    from calmir import preset

    assert 0.1 * 5e-324 == 0.0
    assert lifshitz._first_block(5e-324, 0.1, 1e-8) == lifshitz._MAX_BLOCK
    assert lifshitz._first_block(0.01, 1.0, 1e-300) == lifshitz._MAX_BLOCK
    assert lifshitz._first_block(10.0, 10.0, 0.5) == 4
    for d in (1.0, 0.1):
        with pytest.raises(ConvergenceError, match="underflow"):
            force_finite_T(*preset("fig1d"), d, 5e-324, QuadratureConfig(max_matsubara=10))


def test_distances_whose_integrals_underflow_raise_convergence_error():
    # the integrals' raw scale, d^-4 at tau = 0 and d^-3 at tau > 0, falls
    # below the smallest normal float past d = 8.19e76 and 3.56e102: at
    # tau = 0 the pressure reads 0 from d ~ 1e80 on, inside its envelopes,
    # and d^3 overflows past 5.6e102 at either temperature
    from calmir import preset

    st1, st2, gap = preset("fig1d")
    for d, tau in ((1e80, 0.0), (1e103, 0.0), (1e200, 0.01)):
        with pytest.raises(ConvergenceError, match="underflow"):
            force_sweep(st1, st2, gap, [d], tau)
        # the first failing distance in sweep order decides the error
        with pytest.raises(ConvergenceError, match="underflow"):
            force_sweep(st1, st2, gap, [1.0, d, math.nan], tau)
    with pytest.raises(ConvergenceError, match="underflow"):
        force_zero_T(st1, st2, gap, 1e80)
    with pytest.raises(ConvergenceError, match="underflow"):
        force_finite_T(st1, st2, gap, 1e200, 0.01)
    with pytest.raises(ConvergenceError, match="underflow"):
        bound_envelope(1e103, 0.01)
    # inside the guard the far-distance laws hold: F d^3 falls as 1/d at
    # tau = 0 and tends to its n = 0 term at tau > 0
    near, far = (force_zero_T(st1, st2, gap, d) for d in (1e10, 1e76))
    assert far.pressure_norm * 1e76 == pytest.approx(near.pressure_norm * 1e10, rel=1e-9)
    assert far.est_error > 0.0
    near, far = (force_finite_T(st1, st2, gap, d, 0.01) for d in (1e4, 1e102))
    assert far.pressure_norm == pytest.approx(near.pressure_norm, rel=1e-9)
    assert far.est_error > 0.0


def test_distances_whose_prefactor_underflows_raise_at_once(monkeypatch):
    # below d = 2.8126e-103 the tau = 0 prefactor d^3 is subnormal or 0: the
    # integrals overflowed there (at d = 1e-104 the xi engine ran its whole
    # 800-panel budget, with 788 numpy warnings, to a NaN estimate) or the
    # engine's target abs_tol pi/d^3 divided by zero (a ZeroDivisionError
    # from d ~ 1e-110 on); now they raise before the engine runs
    from calmir import lifshitz, preset

    def no_engine(*args, **kwargs):
        raise AssertionError("the xi engine ran")

    st1, st2, gap = preset("fig1d")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as m:
            m.setattr(lifshitz, "xi_integral", no_engine)
            for d in (1e-104, 1e-200, 5e-324):
                with pytest.raises(ConvergenceError, match="underflow"):
                    force_zero_T(st1, st2, gap, d)
        # just above it F d^3 is still its short-distance limit
        res, ref = (force_zero_T(st1, st2, gap, d) for d in (3e-103, 1e-80))
    assert abs(res.pressure_norm - ref.pressure_norm) <= res.est_error + ref.est_error


def test_bound_envelope_at_tiny_d_keeps_its_closed_form():
    # the envelopes are functions of u = tau d times 1/d and form no d^3, so
    # the force paths' prefactor guard does not apply to them: d = 1e-155 at
    # tau = 1e154 (u = 0.1, where d^3 underflows to 0) is (lo, hi) at d = 1, tau = 0.1
    # scaled by 1/d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = bound_envelope(1e-155, 1e154)
    lo1, hi1 = bound_envelope(1.0, 1e154 * 1e-155)
    assert lo * 1e-155 == pytest.approx(lo1, rel=1e-12)
    assert hi * 1e-155 == pytest.approx(hi1, rel=1e-12)


def test_bound_envelope_does_not_overflow_inside_the_range_guard():
    # the envelopes depend on d through u = tau d and one 1/d; written with
    # d^3 and (2d)^3, they overflowed from d ~ 1.4e102 on, which dropped the
    # 2d images from lo (lo = -hi) and then zeroed both, so that the
    # envelope check of force_finite_T failed at 2.9e102
    from calmir import preset

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1e102, 2e102, 2.9e102, 3.5e102):
            lo, hi = bound_envelope(d, 0.01)
            assert lo / hi == pytest.approx(-0.75, abs=1e-12)
        res = force_finite_T(*preset("fig1d"), 2.9e102, 0.01)
    assert res.bound_lo < res.pressure_norm < res.bound_hi


def test_huge_temperature_gives_a_finite_envelope():
    # written as 2 pi^2 u^2/m S2, the images' u^2 overflowed from tau d ~ 1.3e154
    # on and met S2 = 0 as inf * 0 = NaN, so the envelope check failed
    from calmir import preset

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = bound_envelope(1e5, 1e150)
        res = force_finite_T(*preset("fig1d"), 1e5, 1e150)
    assert lo == pytest.approx(-7.174248675584e148, rel=1e-12)
    assert hi == pytest.approx(9.565664900779e148, rel=1e-12)
    assert res.pressure_norm == pytest.approx(1.620447985841e146, rel=1e-12)


def test_matsubara_frequency_overflow_raises_convergence_error():
    # a frequency whose square overflows made s_gap = inf, which the kernel
    # read as a gap with poles in eps and mu ("doubly metallic")
    from calmir import preset

    st1, st2, gap = preset("fig1d")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1e153, 1e160):
            with pytest.raises(ConvergenceError, match="overflows when squared"):
                force_finite_T(st1, st2, gap, 1.0, tau)
        res = force_finite_T(st1, st2, gap, 1.0, 1e152)
    assert res.n_terms_used == 3
    assert res.pressure_norm == pytest.approx(1.620447985841e148, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="the Matsubara sum stops at a sign change of its summand (ROADMAP)")
def test_matsubara_sum_runs_past_a_sign_change():
    # fig1d at Lambda/400, tau = 0.01: the summand crosses zero near n = 340,
    # where |term| dips under the threshold and the geometric tail estimate
    # reads ~0, so the sum stops ~2500 est_error short of the full series
    from calmir import preset

    st1, st2, gap = preset("fig1d")
    d, tau = LAMBDA / 400.0, 0.01
    res = force_finite_T(st1, st2, gap, d, tau)
    n = np.arange(8000)  # the terms past n = 8000 add ~1e-17
    te, tm, _ = lifshitz._pair_integrals(st1, st2, gap, d, 2.0 * math.pi * tau * n, lifshitz.DEFAULT_CONFIG)
    full = 2.0 * tau * d**3 * float(np.sum(np.where(n == 0, 0.5, 1.0) * (te + tm)))
    assert abs(res.pressure_norm - full) <= res.est_error


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


def test_quadrature_config_rejects_bad_settings():
    for kw, message in (({"rel_tol": 0.0}, "tolerances"), ({"abs_tol": -1e-14}, "tolerances"),
                        ({"kappa_nodes": 1}, "node counts"), ({"xi_nodes": 1}, "node counts"),
                        ({"max_matsubara": 0}, "max_matsubara")):
        with pytest.raises(ValueError, match=message):
            QuadratureConfig(**kw)


def test_a_gap_with_both_poles_fails_only_at_its_static_row():
    # the scenario parser rejects such a gap; given to the library directly,
    # it has no propagation band at xi = 0 (s_gap = inf), which the tau > 0
    # sum reaches at n = 0 and the tau = 0 xi integral never evaluates
    from calmir import preset

    st1, st2, _ = preset("fig1d")
    gap = ResponseModel.lorentz(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(UnsupportedConfigurationError, match="no propagation band"):
        force_finite_T(st1, st2, gap, 1.0, 0.01)
    assert force_zero_T(st1, st2, gap, 1.0).pressure_norm == pytest.approx(3.175e-06, rel=1e-3)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        force_zero_T(PE, PE, VACUUM, 0.0)
    for kappa in (0.0, -1.0):
        with pytest.raises(ValueError, match="kappa \\* d must be > 0"):
            integrand(PE, PE, VACUUM, Pol.TM, 1.0, Kinematics(xi=0.0, kappa_gap=kappa))
    with pytest.raises(ValueError):
        force_finite_T(PE, PE, VACUUM, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_envelope(-1.0, 0.1)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="d must be finite"):
            integrand(PE, PE, VACUUM, Pol.TM, bad, Kinematics(xi=0.5, kappa_gap=1.0))
        with pytest.raises(ValueError, match="d must be finite"):
            force_zero_T(PE, PE, VACUUM, bad)
        with pytest.raises(ValueError, match="d must be finite"):
            force_finite_T(PE, PE, VACUUM, bad, 0.1)
        with pytest.raises(ValueError, match="d must be finite"):
            bound_envelope(bad, 0.1)
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="tau must be finite"):
            matsubara_xi(1, bad)
        with pytest.raises(ValueError, match="tau must be finite"):
            force_finite_T(PE, PE, VACUUM, 1.0, bad)
        with pytest.raises(ValueError, match="tau must be finite"):
            bound_envelope(1.0, bad)
