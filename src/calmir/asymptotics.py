"""Closed-form limits and the special functions they need.

Short distances are governed by a 1/d^3 law whose coefficient (the Hamaker
constant, here c3) is a Matsubara sum of trilogarithms of products of
nonretarded reflection amplitudes R(x) = (x - 1)/(x + 1):

    c3 = (tau/4 pi) sum'_n { Li3[R(eps1) R(eps2)] + Li3[R(mu1) R(mu2)] }

(arguments at xi_n; tau = 0 turns the sum into (1/8 pi^2) int dxi).  For
homogeneous plates c3/d^3 is also a strict upper bound on the pressure,
because r_TM <= R(eps), r_TE <= R(mu) mode by mode and Li3 is monotone.

For a gap whose permittivity matches mirror 2 exactly (and mu0 = mu1 = 1)
the leading attraction cancels and the short-distance pressure follows from
expanding the mode sum in powers of the (small) interface amplitudes.  The
n-th term of that expansion integrates to an upper incomplete gamma
function:

    F = (1/pi) sum_n (2 n d)^{2n-3} int_0^inf dxi/(2 pi)
        Gamma(3-2n, 2 n xi d) [ (-P_TM)^n + (-P_TE)^n ]

where, writing D = (eps1 - eps0) and m = mu2 - 1,

    P_TM = eps0 m D/(eps1 + eps0) xi^2/4,    P_TE = m D/(mu2 + 1) xi^2/4.

Both polarizations contribute at first order in the magnetic contrast m;
the TE channel dominates when the eps1/eps0 contrast is large.  The n = 1
term is negative (repulsive) and behaves as -c1/d at short distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, UnsupportedConfigurationError
from .materials import Kind, ResponseModel, epsilon_i, mu_i
from .quadrature import adaptive_integral

__all__ = [
    "ZETA3",
    "polylog2",
    "polylog3",
    "nonretarded_R",
    "upper_gamma",
    "hamaker_c3",
    "matched_media_force",
    "ideal_limits",
    "thermal_wavelength",
    "Regime",
    "AsymptoticReport",
    "build_report",
]

ZETA2 = math.pi**2 / 6.0
ZETA3 = 1.2020569031595942854
EULER_GAMMA = 0.5772156649015328606

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


def _e1(z):
    """Exponential integral E1(z) = Gamma(0, z) for z > 0 (vectorised).

    Power series below z = 1; above, the continued fraction
    E1(z) = e^{-z}/(z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(...)))).
    """
    z = np.asarray(z, dtype=float)
    small = z <= 1.0

    zs = np.where(small, z, 1.0)
    acc = np.zeros_like(zs)
    term = np.ones_like(zs)
    for n in range(1, 30):
        term = term * zs / n
        acc += (-1.0) ** (n + 1) * term / n
    out_small = -EULER_GAMMA - np.log(zs) + acc

    zl = np.where(small, 2.0, z)
    tiny = 1e-300
    b = zl + 1.0
    c = np.full_like(zl, 1.0 / tiny)
    dd = 1.0 / b
    h = dd.copy()
    for i in range(1, 60):
        a = -float(i * i)
        b = b + 2.0
        dd = 1.0 / (a * dd + b)
        c = b + a / c
        h = h * dd * c
    out_large = np.exp(-zl) * h

    return np.where(small, out_small, out_large)


def upper_gamma(k: int, z):
    """Upper incomplete gamma Gamma(k, z) = int_z^inf t^{k-1} e^{-t} dt.

    Supports integer k <= 1 and z > 0, by downward recurrence
    Gamma(k-1, z) = [Gamma(k, z) - z^{k-1} e^{-z}]/(k - 1) seeded from
    Gamma(1, z) = e^{-z} and Gamma(0, z) = E1(z).
    """
    if int(k) != k or k > 1:
        raise ValueError("k must be an integer <= 1")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("z must be > 0")
    expz = np.exp(-z)
    if k == 1:
        out = expz
    else:
        g = _e1(z)
        kk = 0
        while kk > k:
            g = (g - z ** (kk - 1) * expz) / (kk - 1)
            kk -= 1
        out = g
    return float(out) if np.ndim(z) == 0 else out


def _xi_map_edges(scale=1.0):
    """Edges in t = xi/(scale + xi) covering resonance and cutoff scales."""
    breaks = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0)
    ts = sorted({0.0} | {b / (scale + b) for b in breaks} | {1.0})
    return np.array(ts)


def _R_products(mat1: ResponseModel, mat2: ResponseModel, xi):
    re = nonretarded_R(epsilon_i(mat1, xi)) * nonretarded_R(epsilon_i(mat2, xi))
    rm = nonretarded_R(mu_i(mat1, xi)) * nonretarded_R(mu_i(mat2, xi))
    return re, rm


def hamaker_c3(mat1: ResponseModel, mat2: ResponseModel, tau: float = 0.0, *, rel_tol=1e-10) -> float:
    """Short-distance pressure coefficient c3 (units hbar Omega).

    Requires homogeneous mirrors facing a vacuum gap.  Diverges (and raises)
    when both mirrors reflect perfectly at all frequencies in the same
    channel, since the nonretarded amplitudes then do not decay.
    """
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    both_e = mat1.kind is Kind.PERFECT_ELECTRIC and mat2.kind is Kind.PERFECT_ELECTRIC
    both_m = mat1.kind is Kind.PERFECT_MAGNETIC and mat2.kind is Kind.PERFECT_MAGNETIC
    if both_e or both_m:
        raise UnsupportedConfigurationError(
            "nonretarded limit of ideal mirrors is unbounded; c3 does not exist"
        )

    if tau == 0.0:

        def f(t):
            t = np.asarray(t, dtype=float)
            xi = t / (1.0 - t)
            re, rm = _R_products(mat1, mat2, xi)
            val = (polylog3(re) + polylog3(rm)) / (1.0 - t) ** 2
            return val[:, None]

        total, _, _ = adaptive_integral(
            f, _xi_map_edges(), nodes=24, rel_tol=rel_tol, abs_tol=1e-300
        )
        return float(total[0]) / (8.0 * math.pi**2)

    re0, rm0 = _R_products(mat1, mat2, 0.0)
    acc = 0.5 * (polylog3(re0) + polylog3(rm0))
    n = 1
    block = 512
    while True:
        ns = np.arange(n, n + block)
        xi = 2.0 * math.pi * tau * ns
        re, rm = _R_products(mat1, mat2, xi)
        terms = polylog3(re) + polylog3(rm)
        acc += float(terms.sum())
        # terms decay at least like 1/n^2, so last * n bounds the tail
        tail = float(terms[-1]) * float(ns[-1])
        if tail <= rel_tol * max(acc, 1e-300):
            acc += tail
            break
        n += block
        if n > 10**8:
            raise ConvergenceError("Matsubara sum for c3 did not converge")
    return tau / (4.0 * math.pi) * acc


def matched_media_force(
    mat1: ResponseModel,
    mat2: ResponseModel,
    d: float,
    n_max: int = 1,
    *,
    rel_tol=1e-10,
):
    """Zero-temperature pressure for a gap index-matched to mirror 2.

    The gap carries mirror 2's permittivity and unit permeability, mirror 1
    is non-magnetic: the configuration where the leading 1/d^3 attraction
    cancels.  Evaluates the expansion described in the module docstring up
    to `n_max` reflections; negative values mean repulsion.
    """
    if d <= 0.0:
        raise ValueError("d must be > 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if mat1.kind is not Kind.LORENTZ_DRUDE and mat1.kind is not Kind.VACUUM:
        raise UnsupportedConfigurationError("mirror 1 must be a dielectric response")
    if mat1.mu_strength != 0.0:
        raise UnsupportedConfigurationError("mirror 1 must be non-magnetic (mu = 1)")
    if mat2.kind is not Kind.LORENTZ_DRUDE and mat2.kind is not Kind.VACUUM:
        raise UnsupportedConfigurationError("mirror 2 must have a finite response")

    total = 0.0
    prev = None
    for n in range(1, n_max + 1):

        def f(t, n=n):
            t = np.asarray(t, dtype=float)
            xi = t / (1.0 - t)
            e1v = epsilon_i(mat1, xi)
            e0v = epsilon_i(mat2, xi)  # gap matched to mirror 2
            m2v = mu_i(mat2, xi)
            diff = e1v - e0v
            contrast = m2v - 1.0
            p_tm = (diff / (e1v + e0v)) * e0v * contrast * xi * xi / 4.0
            p_te = diff * contrast / (m2v + 1.0) * xi * xi / 4.0
            gam = upper_gamma(3 - 2 * n, np.maximum(2.0 * n * xi * d, 1e-290))
            val = gam * ((-p_tm) ** n + (-p_te) ** n) / (1.0 - t) ** 2
            return np.where(xi == 0.0, 0.0, val)[:, None]

        total_n, _, _ = adaptive_integral(
            f, _xi_map_edges(), nodes=24, rel_tol=rel_tol, abs_tol=1e-300
        )
        term = (2.0 * n * d) ** (2 * n - 3) * float(total_n[0]) / (2.0 * math.pi**2)
        if prev is not None and abs(term) > abs(prev):
            raise ConvergenceError(
                f"reflection expansion grows at order {n}: |term| = {abs(term):.3e}"
            )
        total += term
        prev = term
    return total


def ideal_limits(d: float, tau: float, derived_thermal: bool = False):
    """Ideal-mirror reference pressures (f_casimir, f_thermal).

    f_casimir = pi^2/(240 d^4).  The thermal coefficient is quoted in the
    literature as zeta(3) tau/(8 pi d^3); the mode sum itself gives twice
    that, zeta(3) tau/(4 pi d^3), which is what the full evaluator
    reproduces -- pass derived_thermal=True for that normalization.
    """
    if d <= 0.0:
        raise ValueError("d must be > 0")
    f_casimir = math.pi**2 / (240.0 * d**4)
    denom = 4.0 if derived_thermal else 8.0
    f_thermal = ZETA3 * tau / (denom * math.pi * d**3)
    return f_casimir, f_thermal


def thermal_wavelength(tau: float) -> float:
    """Thermal wavelength hbar c/(k_B T) in units c/Omega, i.e. 1/tau."""
    if tau <= 0.0:
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


def classify_regime(d: float, tau: float) -> Regime:
    lam_over_2pi = 1.0  # resonance wavelength is 2 pi c/Omega
    lam_t = math.inf if tau == 0.0 else 1.0 / tau
    if d < lam_over_2pi:
        return Regime.SHORT
    if d >= lam_t:
        return Regime.THERMAL
    return Regime.INTERMEDIATE


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
    c3 = None
    if mirror1 is not None and mirror2 is not None and (gap is None or gap.kind is Kind.VACUUM):
        try:
            c3 = hamaker_c3(mirror1, mirror2, tau)
        except UnsupportedConfigurationError:
            c3 = None
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
        and mirror1.mu_strength == 0.0
    ):
        try:
            c1 = -matched_media_force(mirror1, mirror2, d, n_max=1) * d
        except (UnsupportedConfigurationError, ConvergenceError):
            c1 = None
    f_c, f_t = ideal_limits(d, tau)
    lam_t = math.inf if tau == 0.0 else 1.0 / tau
    return AsymptoticReport(
        c3_norm=c3,
        c1_norm=c1,
        f_casimir=f_c,
        f_thermal=f_t,
        regime=classify_regime(d, tau),
        lambda_T=lam_t,
    )
