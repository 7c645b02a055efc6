"""The in-place reflection kernel and kappa integrand against allocating references.

`ReflectionKernel.into_scratch`, `lifshitz._damped_terms` and the kappa
callback of `lifshitz._pair_integrals` compute in place on per-thread
`reflection.scratch` arrays.  The references below are the same formulas as
allocating expressions, one new array per operation, with every operation's
order and operands kept: results must agree bit for bit.
"""

import dataclasses
import math
import platform
import resource
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest

from calmir import (
    Kinematics,
    Layer,
    MirrorStack,
    PERFECT_ELECTRIC,
    PERFECT_MAGNETIC,
    Pol,
    ResponseModel,
    VACUUM,
    force_zero_T,
    integrand,
    lifshitz,
    preset,
    quadrature,
    reflection,
    stack_reflection,
)
from calmir.materials import Kind
from calmir.reflection import ReflectionKernel

LAMBDA = 2.0 * math.pi
METAL = ResponseModel.drude(3.0)
DIELECTRIC = ResponseModel.lorentz(3.0, 1.0)
MAGNETIC = ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
DOUBLE = ResponseModel.lorentz(1.0, 0.0, 0.5, 0.0)  # poles in eps and mu

CASES = {
    "lorentz": (MirrorStack.homogeneous(DIELECTRIC), MirrorStack.homogeneous(MAGNETIC), VACUUM),
    "drude": (MirrorStack.homogeneous(METAL), MirrorStack.homogeneous(ResponseModel.drude(1.0)), VACUUM),
    "fig1c": preset("fig1c"),
    "matched": (MirrorStack.homogeneous(DIELECTRIC), MirrorStack.homogeneous(MAGNETIC),
                ResponseModel.lorentz(0.1, 1.0)),
    "perfect": (MirrorStack((Layer(MAGNETIC, 2.0),), PERFECT_ELECTRIC),
                MirrorStack((Layer(METAL, 0.5), Layer(MAGNETIC, 1.0)), PERFECT_MAGNETIC), VACUUM),
    "doubly metallic": (MirrorStack.homogeneous(DOUBLE), MirrorStack((Layer(DOUBLE, 0.7),), METAL), VACUUM),
}


# --- allocating references ---------------------------------------------------------------

def _ref_decay(kappa_sq, excess):
    rad = kappa_sq + excess
    if not np.all(rad >= -1e-12):
        raise ValueError("negative radicand")
    return np.sqrt(np.maximum(rad, 0.0))


def _ref_clamp(r):
    if np.size(r) == 0:
        return r
    lo, hi = np.min(r), np.max(r)
    if not (lo >= -1.0 - 1e-12 and hi <= 1.0 + 1e-12):
        raise RuntimeError("reflection coefficient left [-1, 1] beyond round-off")
    return np.clip(r, -1.0, 1.0) if lo < -1.0 or hi > 1.0 else r


_IDEAL_TM = {Kind.PERFECT_ELECTRIC: 1.0, Kind.PERFECT_MAGNETIC: -1.0}


def _ref_interface(sa, sb, ka, kb, static, shape):
    ra, rb = _IDEAL_TM.get(sa.kind), _IDEAL_TM.get(sb.kind)
    if ra is not None and rb is not None:
        return [np.zeros(shape), np.zeros(shape)]
    if ra is not None or rb is not None:
        r_tm = rb if ra is None else -ra
        return [np.full(shape, -r_tm), np.full(shape, r_tm)]
    out = []
    for fa, fb, pa, pb in ((sa.mu, sb.mu, sa.mu_pole, sb.mu_pole), (sa.eps, sb.eps, sa.eps_pole, sb.eps_pole)):
        with np.errstate(invalid="ignore", over="ignore"):
            r = (fb * ka - fa * kb) / (fb * ka + fa * kb)
        if (pa > 0.0 or pb > 0.0) and np.any(static):
            r = np.where(static, reflection._static_interface(sa, sb, fa, fb, pa, pb, ka, kb), r)
        out.append(_ref_clamp(r))
    return out


def reference_reflect(kernel, kappa):
    """The kernel's (r_TE, r_TM) per stack, one new array per operation."""
    samples = kernel._samples
    shape = np.broadcast_shapes(np.shape(kappa), np.shape(kernel.s_gap))
    kap = [_ref_decay(kappa * kappa, e) for e in kernel._excess]

    def interface(a, b):
        return _ref_interface(samples[a], samples[b], kap[a], kap[b], kernel._static, shape)

    out = []
    for chain, widths in kernel._chains:
        n = len(widths)
        r = interface(chain[n], chain[n + 1])
        for j in range(n - 1, -1, -1):
            with np.errstate(over="ignore"):
                damp = np.exp(-2.0 * kap[chain[j + 1]] * widths[j])
            r = [_ref_clamp((r_ab + r_p * damp) / (1.0 + r_ab * r_p * damp))
                 for r_ab, r_p in zip(interface(chain[j], chain[j + 1]), r)]
        out.append(r)
    return [out[i] for i in kernel._slot]


def reference_damped(kappa, d, g):
    with np.errstate(over="ignore"):
        grow = np.expm1(kappa * (2.0 * d))
    den = grow + (1.0 - g)
    if np.any(den <= 0.0):
        raise RuntimeError("internal invariant violated")
    return kappa * kappa * g / den


def reference_pair_integrals(monkeypatch, st1, st2, gap, d, xi):
    """`_pair_integrals` with its kappa callback replaced by the references."""
    kernel = ReflectionKernel((st1, st2), gap, xi[:, None])
    engine = quadrature.rowwise_panel_integral

    def with_reference(_, k_lo, offsets, **kw):
        def ref(kappa):
            (te1, tm1), (te2, tm2) = reference_reflect(kernel, kappa)
            return np.stack([reference_damped(kappa, d, te1 * te2), reference_damped(kappa, d, tm1 * tm2)])

        return engine(ref, k_lo, offsets, **kw)

    with monkeypatch.context() as m:
        m.setattr(lifshitz, "rowwise_panel_integral", with_reference)
        return lifshitz._pair_integrals(st1, st2, gap, d, xi, lifshitz.DEFAULT_CONFIG)


def _xi_rows(d):
    # a xi = 0 row (the static limits) and rows up to the gap cutoff
    return np.concatenate(([0.0], np.geomspace(0.01, 0.5 * lifshitz.X_CUT / d, 15)))


# --- bit-for-bit agreement ---------------------------------------------------------------

@pytest.mark.parametrize("name", CASES)
def test_kernel_equals_allocating_reference(name):
    st1, st2, gap = CASES[name]
    xi = np.array([0.0, 0.3, 2.0, 11.0])[:, None]
    kernel = ReflectionKernel((st1, st2), gap, xi)
    kappa = np.sqrt(kernel.s_gap) + np.geomspace(1e-4, 60.0, 300)
    got, want = kernel(kappa), reference_reflect(kernel, kappa)
    for pair_got, pair_want in zip(got, want):
        for a, b in zip(pair_got, pair_want):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("d", [LAMBDA / 400.0, LAMBDA])
def test_pair_integrals_equal_allocating_reference(monkeypatch, name, d):
    st1, st2, gap = CASES[name]
    xi = _xi_rows(d)
    got = lifshitz._pair_integrals(st1, st2, gap, d, xi, lifshitz.DEFAULT_CONFIG)
    want = reference_pair_integrals(monkeypatch, st1, st2, gap, d, xi)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_identical_stacks_share_one_evaluation():
    # fvals squares r in place when both stacks are the same object's slot
    st = MirrorStack((Layer(MAGNETIC, 3.0),), METAL)
    xi = _xi_rows(1.0)
    got = lifshitz._pair_integrals(st, st, VACUUM, 1.0, xi, lifshitz.DEFAULT_CONFIG)
    with pytest.MonkeyPatch.context() as m:
        want = reference_pair_integrals(m, st, st, VACUUM, 1.0, xi)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# --- ownership and threads -----------------------------------------------------------------

def test_returned_arrays_survive_later_calls():
    st1, st2, gap = CASES["fig1c"]
    xi = np.array([0.0, 0.4, 3.0])[:, None]
    kappa = xi + np.geomspace(1e-3, 30.0, 64)
    kin = Kinematics(xi=xi, kappa_gap=kappa)
    kernel = ReflectionKernel((st1, st2), gap, xi)
    pairs = kernel(kappa)
    r_tm = stack_reflection(st2, gap, Pol.TM, kin)
    term = integrand(st1, st2, gap, Pol.TE, 0.8, kin)
    kept = [[r.copy() for r in pair] for pair in pairs], r_tm.copy(), term.copy()
    # later calls on this thread reuse the same scratch arrays
    kernel(2.0 * kappa)
    stack_reflection(st2, gap, Pol.TM, Kinematics(xi=xi, kappa_gap=3.0 * kappa))
    integrand(st1, st2, gap, Pol.TE, 0.3, kin)
    lifshitz._pair_integrals(st1, st2, gap, 1.0, _xi_rows(1.0), lifshitz.DEFAULT_CONFIG)
    for pair, pair_kept in zip(pairs, kept[0]):
        for a, b in zip(pair, pair_kept):
            assert np.array_equal(a, b)
    assert np.array_equal(r_tm, kept[1]) and np.array_equal(term, kept[2])
    # identical stacks still come back as separate arrays
    (te1, _), (te2, _) = ReflectionKernel((st2, st2), gap, xi)(kappa)
    assert te1 is not te2


def test_scratch_is_reused_and_released():
    # every array is taken inside a frame that has exited by the time a call
    # returns or raises, so a repeated call reuses the same buffers
    st1, st2, gap = CASES["fig1c"]
    xi = _xi_rows(1.0)
    lifshitz._pair_integrals(st1, st2, gap, 1.0, xi, lifshitz.DEFAULT_CONFIG)
    buffers = list(reflection.scratch._flat)
    lifshitz._pair_integrals(st1, st2, gap, 1.0, xi, lifshitz.DEFAULT_CONFIG)
    kernel, kappa = _kernel_with_tm(1.0 + 1e-10)
    with pytest.raises(RuntimeError):
        kernel(kappa)
    assert reflection.scratch._depth == 0
    assert len(reflection.scratch._flat) == len(buffers)
    assert all(a is b for a, b in zip(reflection.scratch._flat, buffers))


def test_threads_do_not_share_scratch():
    # more threads than cores, switching often: each runs its own (d, xi)
    # input repeatedly while the others run theirs
    st1, st2, gap = CASES["fig1c"]
    inputs = [(d, _xi_rows(d)) for d in (LAMBDA / 20.0, LAMBDA, 3.0 * LAMBDA, 10.0 * LAMBDA)]
    cfg = lifshitz.DEFAULT_CONFIG
    serial = [lifshitz._pair_integrals(st1, st2, gap, d, xi, cfg) for d, xi in inputs]
    results = {}

    def run(i):
        d, xi = inputs[i]
        results[i] = [lifshitz._pair_integrals(st1, st2, gap, d, xi, cfg) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(serial):
        for got in results[i]:
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


# --- the checks on the in-place path --------------------------------------------------------

def test_negative_or_nan_radicand_raises():
    # a medium optically thinner than the gap has no real decay constant
    # below the gap's light line, and NaN kinematics never pass
    st = MirrorStack.homogeneous(ResponseModel.lorentz(0.2, 1.0))
    kernel = ReflectionKernel((st,), ResponseModel.lorentz(3.0, 1.0), np.array([[1.0]]))
    kappa_gap = math.sqrt(float(kernel.s_gap[0, 0]))
    kernel(np.array([[kappa_gap, 2.0 * kappa_gap]]))  # on and above the light line
    with pytest.raises(ValueError, match="negative radicand"):
        kernel(np.array([[0.5 * kappa_gap, 2.0 * kappa_gap]]))
    with pytest.raises(ValueError, match="negative radicand"):
        kernel(np.array([[np.nan, 2.0 * kappa_gap]]))


def _kernel_with_tm(r_target):
    """A one-interface kernel (vacuum onto a metal) whose substrate sample's
    eps is replaced so that r_TM = (eps k - k_b)/(eps k + k_b) = r_target."""
    kernel = ReflectionKernel((MirrorStack.homogeneous(METAL),), VACUUM, np.array([[0.5]]))
    kappa = np.array([[0.9]])
    k_b = math.sqrt(0.81 + float(kernel._excess[1][0, 0]))
    eps = k_b * (1.0 + r_target) / (0.9 * (1.0 - r_target))
    kernel._samples[1] = dataclasses.replace(kernel._samples[1], eps=np.array([[eps]]))
    return kernel, kappa


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reflection_within_slack_is_clipped(sign):
    kernel, kappa = _kernel_with_tm(sign * (1.0 + 2e-13))
    ((r_te, r_tm),) = kernel(kappa)
    assert r_tm[0, 0] == sign
    assert abs(r_te[0, 0]) < 1.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reflection_beyond_slack_raises(sign):
    kernel, kappa = _kernel_with_tm(sign * (1.0 + 1e-10))
    with pytest.raises(RuntimeError, match="left \\[-1, 1\\]"):
        kernel(kappa)


def test_damped_term_invariant_raises():
    x = np.array([0.1, 0.5, 2.0])
    kappa, d = x / 2.0, 1.0  # 2 kappa d = x exactly
    out = np.empty(3)
    lifshitz._damped_terms(kappa, d, (np.array([1.0, -1.0, 0.5]),), (out,))
    assert np.array_equal(out, reference_damped(kappa, d, np.array([1.0, -1.0, 0.5])))
    for g in ([1.2, 0.5, 0.5], [1.2, np.nan, 0.5]):  # NaN hides no violation
        with pytest.raises(RuntimeError, match="r1 r2 e"):
            lifshitz._damped_terms(kappa, d, (np.array(g),), (out,))
    # a NaN alone is no violation, as with any(den <= 0)
    lifshitz._damped_terms(kappa, d, (np.array([np.nan, 0.5, 0.5]),), (out,))


def test_damped_term_against_mpmath():
    # g across [-1, 1] and up to 1e-16 below 1, 2 kappa d from 1e-10 to ~700
    rng = np.random.default_rng(7)
    n = 4000
    g = np.where(rng.random(n) < 0.5, rng.uniform(-1.0, 1.0, n), 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, n))
    kappa, d = 0.5 * 10.0 ** rng.uniform(-10.0, 2.85, n), 1.0
    (got,) = lifshitz._damped_terms(kappa, d, (g,), (np.empty(n),))
    with mpmath.workdps(40):
        for k, gi, v in zip(kappa.tolist(), g.tolist(), got.tolist()):
            damp = mpmath.exp(-2 * mpmath.mpf(k) * d)
            want = mpmath.mpf(k) ** 2 * gi * damp / (1 - gi * damp)
            assert float(abs(v / want - 1)) <= 1e-15, (k, gi)


def test_damped_term_vanishes_where_its_growth_overflows():
    # e^{2 kappa d} overflows past 2 kappa d = 709.78: the term is 0, its limit
    kappa = np.array([354.8, 354.9, 400.0, 1e5])
    out = np.empty(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lifshitz._damped_terms(kappa, 1.0, (np.array([0.5, 1.0, -1.0, 0.9]),), (out,))
    assert out[0] > 0.0 and np.all(out[1:] == 0.0)


# --- page faults -----------------------------------------------------------------------------

@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="minor-fault counts of glibc's allocator on Linux")
def test_warm_fig1c_pressures_take_few_page_faults():
    # a kernel that allocates every temporary per block makes glibc hand its
    # heap top back to the OS and fault it in again: ~5k minor faults for
    # these four pressures; scratch arrays kept across blocks need none
    st1, st2, gap = preset("fig1c")
    distances = (LAMBDA / 400.0, LAMBDA / 20.0, LAMBDA, 10.0 * LAMBDA)
    for d in distances:
        force_zero_T(st1, st2, gap, d)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for d in distances:
        force_zero_T(st1, st2, gap, d)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults <= 1000
