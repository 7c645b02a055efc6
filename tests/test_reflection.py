"""Interface and multilayer reflection coefficients."""

import math

import mpmath
import numpy as np
import pytest

from calmir import (
    Kinematics,
    Layer,
    MirrorStack,
    PERFECT_ELECTRIC,
    Pol,
    ResponseModel,
    UnsupportedConfigurationError,
    VACUUM,
    fresnel,
    kappa_in_medium,
    stack_reflection,
)
from conftest import random_material, random_stack

KIN = Kinematics(xi=0.5, kappa_gap=1.0)


def test_kappa_in_medium():
    assert kappa_in_medium(1.0, 1.0, KIN) == pytest.approx(1.0)
    k = kappa_in_medium(2.0, 1.0, Kinematics(xi=1.0, kappa_gap=1.0))
    assert k == pytest.approx(math.sqrt(2.0))
    # matched media: same response as the gap leaves kappa unchanged
    k = kappa_in_medium(4.0, 1.0, Kinematics(xi=0.7, kappa_gap=2.0), gap_eps=4.0, gap_mu=1.0)
    assert k == pytest.approx(2.0)
    assert kappa_in_medium(math.inf, 1.0, KIN) == math.inf
    # also a perfect magnetic medium, at xi = 0 and on arrays
    kin = Kinematics(xi=np.array([0.0, 0.5, 3.0]), kappa_gap=np.array([0.2, 1.0, 4.0]))
    for eps, mu in ((math.inf, 1.0), (1.0, math.inf), (np.full(3, math.inf), np.ones(3))):
        assert np.all(kappa_in_medium(eps, mu, kin) == math.inf)
    # a perfect gap has no propagating band, not even into a perfect medium
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="negative radicand"):
        kappa_in_medium(math.inf, 1.0, KIN, gap_eps=math.inf)


def test_fresnel_runs_on_kappa_in_medium():
    # fresnel's coefficients are the textbook formula on kappa_in_medium's
    # decay constants, bit for bit, with and without a dielectric gap
    a, b, gap = (2.0, 1.5), (np.array([3.0, 2.0, 1.2]), np.array([1.1, 1.0, 1.3])), (1.2, 1.0)
    kin = Kinematics(xi=np.array([0.0, 0.5, 3.0]), kappa_gap=np.array([1.4, 1.0, 4.0]))
    for g in (None, gap):
        ge, gm = a if g is None else g
        ka = kappa_in_medium(*a, kin, gap_eps=ge, gap_mu=gm)
        kb = kappa_in_medium(*b, kin, gap_eps=ge, gap_mu=gm)
        for pol, fa, fb in ((Pol.TM, a[0], b[0]), (Pol.TE, a[1], b[1])):
            want = (fb * ka - fa * kb) / (fb * ka + fa * kb)
            np.testing.assert_array_equal(fresnel(pol, a, b, kin, gap=g), want)


def test_fresnel_ideal_limits():
    assert fresnel(Pol.TM, (1.0, 1.0), (math.inf, 1.0), KIN) == 1.0
    assert fresnel(Pol.TE, (1.0, 1.0), (math.inf, 1.0), KIN) == -1.0
    assert fresnel(Pol.TM, (1.0, 1.0), (1.0, math.inf), KIN) == -1.0
    assert fresnel(Pol.TE, (1.0, 1.0), (1.0, math.inf), KIN) == 1.0
    assert fresnel(Pol.TM, (1.0, 1.0), (1.0, 1.0), KIN) == 0.0
    assert fresnel(Pol.TE, (1.0, 1.0), (1.0, 1.0), KIN) == 0.0


def test_fresnel_mixed_perfect_rejected():
    with pytest.raises(UnsupportedConfigurationError):
        fresnel(Pol.TM, (math.inf, 1.0), (1.0, math.inf), KIN)


def test_fresnel_dielectric_against_high_precision():
    # arbitrary-precision evaluation of the same expression
    with mpmath.workdps(50):
        kb = mpmath.sqrt(mpmath.mpf(1) + mpmath.mpf("0.25") * 2)
        expected = float((3 - kb) / (3 + kb))
    got = fresnel(Pol.TM, (1.0, 1.0), (3.0, 1.0), KIN)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.42020410288672877)


def epsmu(mat, xi):
    from calmir import epsilon_i, mu_i

    return epsilon_i(mat, xi), mu_i(mat, xi)


def test_stack_base_case_is_single_interface():
    mat = ResponseModel.lorentz(2.0, 0.7, 0.4, 1.2)
    st = MirrorStack.homogeneous(mat)
    for pol in (Pol.TE, Pol.TM):
        direct = fresnel(pol, (1.0, 1.0), epsmu(mat, 0.5), KIN)
        assert stack_reflection(st, VACUUM, pol, KIN) == pytest.approx(direct, rel=1e-14)


def test_thick_layer_hides_substrate():
    coat = ResponseModel.lorentz(1.5, 0.8)
    st = MirrorStack((Layer(coat, 1e4),), PERFECT_ELECTRIC)
    want = fresnel(Pol.TM, (1.0, 1.0), epsmu(coat, 0.5), KIN)
    got = stack_reflection(st, VACUUM, Pol.TM, KIN)
    assert got == pytest.approx(want, abs=1e-14)


def test_gap_material_layer_only_attenuates_substrate():
    # a layer made of the gap medium has r_ab = 0, leaving r_bc e^{-2 kappa w}
    sub = ResponseModel.lorentz(2.0, 1.0)
    w = 0.8
    st = MirrorStack((Layer(VACUUM, w),), sub)
    r_bc = fresnel(Pol.TM, (1.0, 1.0), epsmu(sub, 0.5), KIN)
    got = stack_reflection(st, VACUUM, Pol.TM, KIN)
    assert got == pytest.approx(r_bc * math.exp(-2.0 * KIN.kappa_gap * w), rel=1e-13)


def test_zero_thickness_layer_drops_out():
    # w -> 0+ composes to the direct a|c interface (Moebius identity)
    rng = np.random.default_rng(3)
    for _ in range(100):
        mat_b = random_material(rng)
        mat_c = random_material(rng)
        xi = float(rng.uniform(0.0, 3.0))
        kap = float(rng.uniform(xi + 1e-6, xi + 4.0))
        kin = Kinematics(xi=xi, kappa_gap=kap)
        with_layer = MirrorStack((Layer(mat_b, 1e-300),), mat_c)
        without = MirrorStack.homogeneous(mat_c)
        for pol in (Pol.TE, Pol.TM):
            r1 = stack_reflection(with_layer, VACUUM, pol, kin)
            r2 = stack_reflection(without, VACUUM, pol, kin)
            assert abs(r1 - r2) <= 1e-12


def test_layer_thickness_additivity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mat = random_material(rng)
        sub = random_material(rng)
        w1, w2 = rng.uniform(0.05, 2.0, 2)
        xi = float(rng.uniform(0.0, 2.0))
        kin = Kinematics(xi=xi, kappa_gap=float(xi + rng.uniform(0.01, 3.0)))
        split = MirrorStack((Layer(mat, w1), Layer(mat, w2)), sub)
        merged = MirrorStack((Layer(mat, w1 + w2),), sub)
        for pol in (Pol.TE, Pol.TM):
            assert abs(
                stack_reflection(split, VACUUM, pol, kin)
                - stack_reflection(merged, VACUUM, pol, kin)
            ) <= 1e-12


def test_reflection_bounded_on_random_stacks():
    rng = np.random.default_rng(5)
    for _ in range(60):
        st = random_stack(rng)
        xi = rng.uniform(0.0, 8.0, 200)
        kap = xi + np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 200))
        kin = Kinematics(xi=xi, kappa_gap=kap)
        for pol in (Pol.TE, Pol.TM):
            r = stack_reflection(st, VACUUM, pol, kin)
            assert np.all(np.abs(r) <= 1.0)


def test_tm_bounded_by_nonretarded_amplitude():
    from calmir import epsilon_i, nonretarded_R

    rng = np.random.default_rng(6)
    for _ in range(50):
        mat = random_material(rng, magnetic=False)
        st = MirrorStack.homogeneous(mat)
        xi = rng.uniform(0.0, 5.0, 100)
        kap = xi + np.exp(rng.uniform(np.log(1e-2), np.log(20.0), 100))
        r = stack_reflection(st, VACUUM, Pol.TM, Kinematics(xi=xi, kappa_gap=kap))
        cap = nonretarded_R(epsilon_i(mat, xi))
        assert np.all(r <= cap + 1e-12)


def test_te_sign_convention_is_immaterial():
    # flipping every single-interface TE sign flips the stack coefficient,
    # so products from two mirrors are convention independent
    rng = np.random.default_rng(8)

    def stack_te_flipped(stack, kin):
        media = [VACUUM] + [l.material for l in stack.layers] + [stack.substrate]
        em = [epsmu(m, kin.xi) for m in media]
        r = -fresnel(Pol.TE, em[-2], em[-1], kin, gap=(1.0, 1.0))
        for j in range(len(stack.layers) - 1, -1, -1):
            damp = np.exp(-2.0 * kappa_in_medium(*em[j + 1], kin) * stack.layers[j].thickness)
            r_ab = -fresnel(Pol.TE, em[j], em[j + 1], kin, gap=(1.0, 1.0))
            r = (r_ab + r * damp) / (1.0 + r_ab * r * damp)
        return r

    for _ in range(25):
        st1, st2 = random_stack(rng), random_stack(rng)
        xi = rng.uniform(0.0, 4.0, 50)
        kap = xi + np.exp(rng.uniform(np.log(1e-2), np.log(10.0), 50))
        kin = Kinematics(xi=xi, kappa_gap=kap)
        plain = stack_reflection(st1, VACUUM, Pol.TE, kin) * stack_reflection(
            st2, VACUUM, Pol.TE, kin
        )
        flipped = stack_te_flipped(st1, kin) * stack_te_flipped(st2, kin)
        assert np.allclose(plain, flipped, rtol=0.0, atol=1e-13)


def test_drude_static_limits():
    st = MirrorStack.homogeneous(ResponseModel.drude(1.0))
    kin0 = Kinematics(xi=0.0, kappa_gap=1.0)
    assert stack_reflection(st, VACUUM, Pol.TM, kin0) == pytest.approx(1.0)
    want = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
    assert stack_reflection(st, VACUUM, Pol.TE, kin0) == pytest.approx(want, rel=1e-14)


def test_doubly_metallic_static_limit():
    # both responses carrying zero-frequency poles reflect perfectly at xi=0
    both = ResponseModel.lorentz(1.0, 0.0, 0.5, 0.0)
    st = MirrorStack.homogeneous(both)
    kin0 = Kinematics(xi=0.0, kappa_gap=0.8)
    assert stack_reflection(st, VACUUM, Pol.TM, kin0) == pytest.approx(1.0)
    assert stack_reflection(st, VACUUM, Pol.TE, kin0) == pytest.approx(1.0)


def test_perfect_layer_on_the_same_perfect_substrate():
    # the interface between two perfect electric media reflects nothing, so
    # the stack reflects as the half-space does
    coated = MirrorStack((Layer(PERFECT_ELECTRIC, 0.7),), PERFECT_ELECTRIC)
    bare = MirrorStack.homogeneous(PERFECT_ELECTRIC)
    for pol in Pol:
        for kin in (KIN, Kinematics(xi=0.0, kappa_gap=0.3)):
            assert stack_reflection(coated, VACUUM, pol, kin) == stack_reflection(bare, VACUUM, pol, kin)


@pytest.mark.parametrize("kappa", [0.1, 1.0, 3.0])
def test_static_limit_between_two_poles_of_equal_degree(kappa):
    # a Drude gap against a Drude mirror: both TM responses carry a 1/xi^2
    # pole, so the xi = 0 coefficient is the ratio of their strengths, not 1
    gap, st = ResponseModel.drude(1.0), MirrorStack.homogeneous(ResponseModel.drude(3.0))
    for pol in Pol:
        at_zero = stack_reflection(st, gap, pol, Kinematics(xi=0.0, kappa_gap=kappa))
        near_zero = stack_reflection(st, gap, pol, Kinematics(xi=1e-6, kappa_gap=kappa))
        assert at_zero == pytest.approx(near_zero, rel=0.0, abs=1e-10)
    assert abs(stack_reflection(st, gap, Pol.TM, Kinematics(xi=0.0, kappa_gap=kappa))) < 1.0


def test_invalid_layer_thickness():
    with pytest.raises(ValueError):
        Layer(VACUUM, 0.0)
    with pytest.raises(ValueError):
        Layer(VACUUM, -1.0)
    with pytest.raises(ValueError):
        Layer(VACUUM, math.inf)


def test_kernel_row_view_matches_the_full_kernel(monkeypatch):
    # a view of some rows reads the full kernel's response samples, sampling
    # nothing again, and gives those rows' coefficients bit for bit; the
    # xi = 0 row takes the static branch of fig1c's Drude metals
    from calmir import preset, reflection

    st1, st2, gap = preset("fig1c")
    xi = np.array([0.0, 0.01, 0.3, 1.0, 5.0, 40.0])[:, None]
    kappa = xi + np.geomspace(1e-3, 30.0, 7)
    kernel = reflection.ReflectionKernel((st1, st2), gap, xi)
    full = [r for pair in kernel(kappa) for r in pair]
    monkeypatch.setattr(reflection, "response_sample", None)  # a view must not sample
    mask = np.array([True, False, True, True, False, True])
    for index in (slice(0, 1), slice(0, 3), slice(2, 6), slice(5, 6), slice(None), mask, np.array([4, 0, 0, 2])):
        part = [r for pair in kernel.rows(index)(kappa[index]) for r in pair]
        for r_full, r_part in zip(full, part):
            assert r_part.shape == kappa[index].shape
            assert [v.hex() for v in r_part.ravel().tolist()] == [v.hex() for v in r_full[index].ravel().tolist()]
