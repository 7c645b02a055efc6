"""Closed-form limits and the special functions they need.

Short distances are governed by a 1/d^3 law whose coefficient (the Hamaker
constant, here c3) is a Matsubara sum of trilogarithms of products of
nonretarded reflection amplitudes R(x) = (x - 1)/(x + 1):

    c3 = (tau/4 pi) sum'_n { Li3[R(eps1) R(eps2)] + Li3[R(mu1) R(mu2)] }

(arguments at xi_n; tau = 0 turns the sum into (1/8 pi^2) int dxi).  c3/d^3
is not a bound on the pressure in general: at tau > 0 the retarded terms
can exceed it (fig1a at tau = 0.3, d = 2: F d^3 = 1.626e-2 > c3 = 1.475e-2),
and two Drude TE amplitudes are both negative, so their product is not
capped by R(mu1) R(mu2) = 0.  The acceptance gate checks the cap only at
T = 0, on the fig1a grid.  At tau > 0 the first terms of the series are
summed explicitly and the rest by the Euler-Maclaurin formula (`_c3_sum`),
so the cost does not grow as tau -> 0.

For a gap whose permittivity matches mirror 2 exactly (and mu0 = mu1 = 1)
the leading attraction cancels and the short-distance pressure follows from
expanding the mode sum in powers of the (small) interface amplitudes.  Its
leading term, the one `matched_media_force` evaluates, is

    F = (1/pi) (2 d)^{-1} int_0^inf dxi/(2 pi) e^{-2 xi d} [ -P_TM - P_TE ]

where, writing D = (eps1 - eps0) and m = mu2 - 1,

    P_TM = eps0 m D/(eps1 + eps0) xi^2/4,    P_TE = m D/(mu2 + 1) xi^2/4.

Both polarizations contribute at first order in the magnetic contrast m;
the TE channel dominates when the eps1/eps0 contrast is large.  The term
is negative (repulsive) and behaves as -c1/d at short distance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, UnsupportedConfigurationError
from .materials import Kind, ResponseModel, _eps_mu
from .quadrature import adaptive_integral, geometric_edges, kronrod_rule, panel_nodes, xi_integral

__all__ = [
    "ZETA3",
    "polylog2",
    "polylog3",
    "nonretarded_R",
    "upper_gamma",
    "hamaker_c3",
    "c3_or_none",
    "matched_media_force",
    "ideal_limits",
    "thermal_wavelength",
    "Regime",
    "AsymptoticReport",
    "build_report",
]

ZETA2 = math.pi**2 / 6.0
ZETA3 = 1.2020569031595942854

# zeta at non-positive integers, index k: ZETA_NEG[k] = zeta(-k)
_ZETA_NEG = [
    -0.5,  # zeta(0)
    -1.0 / 12.0,
    0.0,
    1.0 / 120.0,
    0.0,
    -1.0 / 252.0,
    0.0,
    1.0 / 240.0,
    0.0,
    -1.0 / 132.0,
    0.0,
    691.0 / 32760.0,
    0.0,
    -1.0 / 12.0,
    0.0,
]


def _series_polylog(s, z, terms=72):
    """sum_k z^k/k^s by Horner; accurate for |z| <= 0.5."""
    acc = np.zeros_like(z)
    for k in range(terms, 0, -1):
        acc = acc * z + 1.0 / k**s
    return acc * z


def _log_expansion(s, z):
    """Li_s(e^mu) for mu = ln z in (-0.7, 0], s = 2 or 3."""
    mu = np.log(z)
    lnm = np.log(np.where(mu == 0.0, 1.0, -mu))  # placeholder where mu = 0
    if s == 2:
        out = np.full_like(z, ZETA2)
        out += np.where(mu == 0.0, 0.0, mu * (1.0 - lnm))
        start = 2
    else:
        out = np.full_like(z, ZETA3) + ZETA2 * mu
        out += np.where(mu == 0.0, 0.0, 0.5 * mu * mu * (1.5 - lnm))
        start = 3
    powk = mu**start
    fact = math.factorial(start)
    for k in range(start, start + len(_ZETA_NEG)):
        out += _ZETA_NEG[k - s] * powk / fact
        powk = powk * mu
        fact *= k + 1
    return out


def _polylog(s, z):
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ValueError("polylogarithm argument must lie in [-1, 1]")
    z = np.clip(z, -1.0, 1.0)
    out = np.empty_like(z)
    neg = z < -0.5
    mid = (z >= -0.5) & (z <= 0.5)
    high = z > 0.5
    if np.any(mid):
        out[mid] = _series_polylog(s, z[mid])
    if np.any(high):
        out[high] = _log_expansion(s, z[high])
    if np.any(neg):
        # duplication: Li_s(z) + Li_s(-z) = 2^{1-s} Li_s(z^2)
        zz = z[neg]
        out[neg] = 2.0 ** (1 - s) * _polylog(s, zz * zz) - _polylog(s, -zz)
    return out


def polylog2(z):
    """Dilogarithm Li2(z) for real z in [-1, 1]."""
    out = _polylog(2, z)
    return float(out) if np.ndim(z) == 0 else out


def polylog3(z):
    """Trilogarithm Li3(z) = sum_k z^k/k^3 for real z in [-1, 1]."""
    out = _polylog(3, z)
    return float(out) if np.ndim(z) == 0 else out


def nonretarded_R(x):
    """Electrostatic single-interface amplitude (x - 1)/(x + 1).

    Accepts x >= 1 (permittivity or permeability at imaginary frequency);
    the +inf sentinel maps to 1.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 1.0):
        raise ValueError("response values at imaginary frequency are >= 1")
    with np.errstate(invalid="ignore"):
        out = (arr - 1.0) / (arr + 1.0)
    out = np.where(np.isinf(arr), 1.0, out)
    return float(out) if np.ndim(x) == 0 else out


def upper_gamma(k: int, z):
    """Upper incomplete gamma Gamma(k, z) = int_z^inf t^{k-1} e^{-t} dt (DLMF 8.2.2).

    Integer k <= 1 and finite z > 0 (else ValueError), elementwise for an
    array z.  Gamma(1, z) = e^{-z}; for k <= 0, t = z e^s gives
    Gamma(k, z) = z^k e^{-z} int_0^inf exp(k s - z (e^s - 1)) ds, one
    `adaptive_integral` call per value of z, on panels growing by 4 from
    0.25/max(1, z), the scale on which the integrand falls, up to t = z + 40.
    Relative error at most 6.7e-16 against mpmath (30 digits) over k in
    {1, 0, -1, -3, -5} and z in [5e-324, 700] where 1e-300 < |Gamma| < 1e300.
    """
    if int(k) != k or k > 1:
        raise ValueError("k must be an integer <= 1")
    z = np.asarray(z, dtype=float)
    if not ((z > 0.0) & (z < math.inf)).all():
        raise ValueError("z must be finite and > 0")

    def gamma(x):
        """Gamma(k, x) for k <= 0, with x^k = m^k 2^{e k} (x = m 2^e, 0.5 <= m < 1)
        scaled by 2^{e k} last: it overflows, to inf, only where Gamma(k, x) does."""
        lnx = math.log(x)

        def f(s):  # x (e^s - 1): expm1 does not cancel; e^{s + ln x} stays finite for subnormal x
            return np.exp(k * s - (x * np.expm1(s) if x >= 1.0 else np.exp(s + lnx) - x))[None]

        edges = geometric_edges(0.25 / max(1.0, x), math.log(x + 40.0) - lnx, 4.0)
        total, _, _ = adaptive_integral(f, edges, nodes=12, rel_tol=1e-14, abs_tol=0.0)
        m, e = np.frexp(x)
        return np.ldexp(m**k * math.exp(-x) * float(total[0]), e * int(k))

    out = np.exp(-z) if k == 1 else np.array([gamma(x) for x in z.ravel()]).reshape(z.shape)
    return float(out) if np.ndim(z) == 0 else out


# panel breaks at the resonance and cutoff scales of xi
_XI_BREAKS = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0)


def _xi_integral(g, rel_tol):
    """int_0^inf g(xi) dxi by `xi_integral`, on 24-point Gauss-Kronrod panels."""
    total, _, _ = xi_integral(lambda xi: g(xi)[None, :], _XI_BREAKS, nodes=24, rel_tol=rel_tol,
                              abs_tol=1e-300)
    return float(total[0])


def check_distance(d: float) -> None:
    """Raise ValueError unless 0 < d < inf (NaN included)."""
    if not 0.0 < d < math.inf:
        raise ValueError(f"d must be finite and > 0, got {d}")


def check_tau(tau: float) -> None:
    """Raise ValueError unless 0 <= tau < inf (NaN included)."""
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def _R_products(mat1: ResponseModel, mat2: ResponseModel, xi):
    (e1, m1), (e2, m2) = _eps_mu(mat1, xi), _eps_mu(mat2, xi)
    return nonretarded_R(e1) * nonretarded_R(e2), nonretarded_R(m1) * nonretarded_R(m2)


# g_N/2 - h g'_N/12 + h^3 g'''_N/720 as weights on g_{N-2} ... g_{N+2}, with
# g' and g''' from the 5-point central differences
_EM_WEIGHTS = np.array([-11.0, 82.0, 720.0, -82.0, 11.0]) / 1440.0
_C3_MAX_TERMS = 1 << 16


def _c3_sum(g, h, xi_max, rel_tol):
    """h times the primed Matsubara sum 0.5 g(0) + sum_{n >= 1} g(n h) of c3.

    `g` maps an array of frequencies to the terms; its features lie below
    `xi_max`.  Terms n < N are summed explicitly and the rest by the
    Euler-Maclaurin formula

        h sum_{n >= N} g(n h) = int_{N h}^inf g + h (g_N/2
                                - h g'_N/12 + h^3 g'''_N/720 - ...)

    with the derivatives from central differences of g_{N-2} ... g_{N+2}, so
    that nothing is divided by h.  The integral runs on t = N h/xi in (0, 1],
    over 24-point Gauss-Kronrod panels with edges at t = 2^-j down to
    xi >= xi_max and one panel for the rest, so the panels follow g's
    features however small h is.  Its weight dxi/dt = (N h/t)/t is taken at
    each node as xi times (half-width/t), which overflows nowhere.  Where the
    edge below xi_max, 2^-j, is not a normal float (tau below ~1e-309 on the
    presets' mirrors) the nodes lose their precision, and this raises
    `ConvergenceError`.  The sums at N and 2N come from one call of g; their
    difference plus the 2N tail's |K - G| estimates the error of the 2N sum,
    which is returned once the estimate meets rel_tol.  N starts at 64 and
    doubles; past 2^16 this raises `ConvergenceError`.
    """
    w = kronrod_rule(24)[1]
    n = 64
    while n <= _C3_MAX_TERMS:
        ends = np.array([n, 2 * n])
        x0 = h * ends
        m = math.ceil(math.log2(xi_max) - math.log2(x0[0])) if xi_max > x0[0] else 0
        first = math.ldexp(1.0, -m)
        if first < sys.float_info.min:
            raise ConvergenceError(f"c3 tail panels reach t = 2^-{m}, below the normal floats, "
                                   f"at tau = {h / (2.0 * math.pi):.3e}")
        edges = geometric_edges(first, 1.0, 2.0)
        nodes, half = panel_nodes(edges[:-1], edges[1:], 24)
        t = nodes.ravel()
        xi = x0[:, None] / t
        vals = g(np.concatenate([h * np.arange(2 * n + 3), xi.ravel()]))
        f = vals[: 2 * n + 3]
        tails = vals[2 * n + 3 :].reshape(2, -1) * xi * (half[:, None] / nodes).ravel()
        # Kronrod and Gauss values of the integrals from N h and 2N h, (2, 2)
        kg = tails @ np.tile(w, (len(half), 1))
        sums = (
            h * (np.array([f[1:e].sum() for e in ends])
                 + 0.5 * f[0]
                 + f[ends[:, None] + np.arange(-2, 3)] @ _EM_WEIGHTS)
            + kg[:, 0]
        )
        est = abs(sums[1] - sums[0]) + abs(kg[1, 0] - kg[1, 1])
        if est <= rel_tol * abs(sums[1]):
            return float(sums[1])
        n *= 2
    raise ConvergenceError(
        f"c3 Matsubara sum not converged with {n} explicit terms "
        f"(error estimate {est:.3e}, target {rel_tol * abs(sums[1]):.3e})"
    )


def hamaker_c3(mat1: ResponseModel, mat2: ResponseModel, tau: float = 0.0, *, rel_tol=1e-10) -> float:
    """Short-distance pressure coefficient c3 (units hbar Omega).

    Requires homogeneous mirrors facing a vacuum gap.  Diverges (and raises)
    when both mirrors reflect perfectly at all frequencies in the same
    channel, since the nonretarded amplitudes then do not decay.  At tau = 0
    the xi integral runs on 24-point Gauss-Kronrod panels (49 points each);
    at tau > 0 `_c3_sum` adds an Euler-Maclaurin tail to the first 64 or
    more terms, on panels that reach 16 times the largest oscillator
    frequency (strength or resonance) of either mirror.  Both meet
    `rel_tol` by their own error estimates.
    """
    check_tau(tau)
    both_e = mat1.kind is Kind.PERFECT_ELECTRIC and mat2.kind is Kind.PERFECT_ELECTRIC
    both_m = mat1.kind is Kind.PERFECT_MAGNETIC and mat2.kind is Kind.PERFECT_MAGNETIC
    if both_e or both_m:
        raise UnsupportedConfigurationError(
            "nonretarded limit of ideal mirrors is unbounded; c3 does not exist"
        )

    def g(xi):
        re, rm = _R_products(mat1, mat2, xi)
        li = polylog3(np.concatenate([re, rm]))
        return li[: xi.size] + li[xi.size :]

    if tau == 0.0:
        return _xi_integral(g, rel_tol) / (8.0 * math.pi**2)
    scale = max(
        max(m.eps_strength, m.eps_resonance, m.mu_strength, m.mu_resonance) for m in (mat1, mat2)
    )
    return _c3_sum(g, 2.0 * math.pi * tau, 16.0 * scale, rel_tol) / (8.0 * math.pi**2)


def c3_or_none(mirror1: ResponseModel | None, mirror2: ResponseModel | None,
               gap: ResponseModel | None, tau: float) -> float | None:
    """`hamaker_c3` where c3 exists, else None.

    c3 needs homogeneous mirrors, given as their materials (None stands for
    a layered or absent mirror), and a vacuum gap (None means vacuum); it
    does not exist when `hamaker_c3` raises UnsupportedConfigurationError.
    """
    if mirror1 is None or mirror2 is None or not (gap is None or gap.kind is Kind.VACUUM):
        return None
    try:
        return hamaker_c3(mirror1, mirror2, tau)
    except UnsupportedConfigurationError:
        return None


def matched_media_force(mat1: ResponseModel, mat2: ResponseModel, d: float):
    """Zero-temperature pressure for a gap index-matched to mirror 2.

    The gap carries mirror 2's permittivity and unit permeability, mirror 1
    is non-magnetic: the configuration where the leading 1/d^3 attraction
    cancels.  Evaluates the leading term of the reflection expansion (module
    docstring), whose xi integral runs on 24-point Gauss-Kronrod panels;
    negative values mean repulsion.
    """
    check_distance(d)
    if mat1.kind is not Kind.LORENTZ_DRUDE and mat1.kind is not Kind.VACUUM:
        raise UnsupportedConfigurationError("mirror 1 must be a dielectric response")
    if mat1.mu_strength != 0.0:
        raise UnsupportedConfigurationError("mirror 1 must be non-magnetic (mu = 1)")
    if mat2.kind is not Kind.LORENTZ_DRUDE and mat2.kind is not Kind.VACUUM:
        raise UnsupportedConfigurationError("mirror 2 must have a finite response")

    def g(xi):
        e1v = _eps_mu(mat1, xi)[0]
        e0v, m2v = _eps_mu(mat2, xi)  # gap matched to mirror 2
        diff = e1v - e0v
        contrast = m2v - 1.0
        p_tm = (diff / (e1v + e0v)) * e0v * contrast * xi * xi / 4.0
        p_te = diff * contrast / (m2v + 1.0) * xi * xi / 4.0
        return np.exp(-2.0 * xi * d) * ((-p_tm) + (-p_te))

    return (2.0 * d) ** -1 * _xi_integral(g, 1e-10) / (2.0 * math.pi**2)


def ideal_limits(d: float, tau: float, derived_thermal: bool = False):
    """Ideal-mirror reference pressures (f_casimir, f_thermal).

    f_casimir = pi^2/(240 d^4).  The thermal coefficient is quoted in the
    literature as zeta(3) tau/(8 pi d^3); the mode sum itself gives twice
    that, zeta(3) tau/(4 pi d^3), which is what the full evaluator
    reproduces -- pass derived_thermal=True for that normalization.
    """
    check_distance(d)
    check_tau(tau)
    f_casimir = math.pi**2 / (240.0 * d**4)
    denom = 4.0 if derived_thermal else 8.0
    f_thermal = ZETA3 * tau / (denom * math.pi * d**3)
    return f_casimir, f_thermal


def thermal_wavelength(tau: float) -> float:
    """Thermal wavelength hbar c/(k_B T) in units c/Omega, i.e. 1/tau."""
    check_tau(tau)
    if tau == 0.0:
        raise ValueError("tau must be > 0")
    return 1.0 / tau


class Regime(Enum):
    SHORT = "short"
    INTERMEDIATE = "intermediate"
    THERMAL = "thermal"


@dataclass(frozen=True)
class AsymptoticReport:
    """Closed-form context for a distance/temperature point."""

    c3_norm: float | None
    c1_norm: float | None
    f_casimir: float
    f_thermal: float
    regime: Regime
    lambda_T: float


def build_report(
    d: float,
    tau: float,
    *,
    mirror1: ResponseModel | None = None,
    mirror2: ResponseModel | None = None,
    gap: ResponseModel | None = None,
) -> AsymptoticReport:
    """Assemble the asymptotic summary for homogeneous mirrors.

    c3 is omitted (None) when it does not exist or mirrors are not given;
    c1 is reported only for the matched-gap configuration.
    """
    check_distance(d)
    check_tau(tau)
    c3 = c3_or_none(mirror1, mirror2, gap, tau)
    c1 = None
    if (
        mirror1 is not None
        and mirror2 is not None
        and gap is not None
        and gap.kind is Kind.LORENTZ_DRUDE
        and mirror2.kind is Kind.LORENTZ_DRUDE
        and gap.eps_strength == mirror2.eps_strength
        and gap.eps_resonance == mirror2.eps_resonance
        and gap.mu_strength == 0.0
    ):
        try:
            c1 = -matched_media_force(mirror1, mirror2, d) * d
        except (UnsupportedConfigurationError, ConvergenceError):
            c1 = None
    f_c, f_t = ideal_limits(d, tau)
    lam_t = math.inf if tau == 0.0 else 1.0 / tau
    # SHORT below the resonance wavelength over 2 pi (1 in units of c/Omega),
    # else THERMAL from the thermal wavelength lambda_T on
    regime = Regime.SHORT if d < 1.0 else Regime.THERMAL if d >= lam_t else Regime.INTERMEDIATE
    return AsymptoticReport(c3_norm=c3, c1_norm=c1, f_casimir=f_c, f_thermal=f_t,
                            regime=regime, lambda_T=lam_t)
