"""Casimir pressure between two layered mirrors.

At temperature tau = k_B T/(hbar Omega) the pressure (positive = attraction)
is a sum over imaginary Matsubara frequencies xi_n = 2 pi n tau (the n = 0
term carrying weight 1/2) of an integral over the gap decay constant kappa:

    F = 2 tau sum'_n  int_{kappa_min}^inf dkappa/(2 pi) kappa^2
         sum_pol  r1 r2 e^{-2 kappa d} / (1 - r1 r2 e^{-2 kappa d})

with kappa_min = xi_n sqrt(eps0 mu0) for a gap medium of response
(eps0, mu0).  At tau = 0 the sum becomes (1/2 pi) int dxi and the prefactor
2 tau goes over to 1/pi times the xi integral.

The kappa integral is evaluated after substituting x = 2 kappa d, truncated
at x_min + 60 (the integrand carries e^{-x}); results are reported in the
normalized form F d^3 (i.e. F d^3/(hbar Omega) in physical units).  Since
|r1 r2| <= 1 for passive materials, every term lies between the envelopes
obtained for r1 r2 = +/-1, which integrate to ideal perfect-mirror
pressures; those envelopes are returned alongside each result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import ConvergenceError
from .quadrature import adaptive_integral, rowwise_panel_integral
from .reflection import Kinematics, Pol, ReflectionKernel, stack_reflection

__all__ = [
    "QuadratureConfig",
    "ForceResult",
    "matsubara_xi",
    "integrand",
    "force_finite_T",
    "force_zero_T",
    "bound_envelope",
]

X_CUT = 60.0  # e^{-60} is far below any supported tolerance
# Abscissae per reflection-kernel call: its temporaries stay cache-sized
# however many rows and points a refinement level has.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and node counts for the pressure integrals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_matsubara: int = 10**6
    kappa_nodes: int = 64
    xi_nodes: int = 16

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.kappa_nodes < 2 or self.xi_nodes < 2:
            raise ValueError("node counts must be >= 2")
        if self.max_matsubara < 1:
            raise ValueError("max_matsubara must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class ForceResult:
    """Pressure in normalized units F d^3, with its polarization split.

    `bound_lo`/`bound_hi` are the ideal-mirror envelopes at the same (d, tau)
    in the same units; any passive result lies between them.  For finite
    temperature `n_terms_used` counts Matsubara terms; at tau = 0 it counts
    outer frequency evaluations.
    """

    pressure_norm: float
    te_part: float
    tm_part: float
    n_terms_used: int
    est_error: float
    bound_lo: float
    bound_hi: float


def matsubara_xi(n: int, tau: float) -> float:
    """The n-th Matsubara frequency 2 pi n tau (dimensionless)."""
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    if n < 0 or int(n) != n:
        raise ValueError("n must be a non-negative integer")
    return 2.0 * math.pi * n * tau


def _damped_terms(kappa, x, *gs):
    """kappa^2 g e^{-x} / (1 - g e^{-x}) for each g, without ever forming e^{+x}.

    The denominator is computed as (1 - e^{-x}) + (1 - g) e^{-x}, a sum of
    two non-negative terms for g <= 1, so it never cancels.  The factors
    that depend only on x and kappa are computed once for all g.
    """
    damp = np.exp(-x)
    edge = -np.expm1(-x)
    k2 = kappa * kappa
    out = []
    for g in gs:
        ge = g * damp
        if np.any(ge >= 1.0):
            raise RuntimeError("internal invariant violated: r1 r2 e^{-2 kappa d} >= 1")
        out.append(k2 * ge / (edge + (1.0 - g) * damp))
    return out


def integrand(stack1, stack2, gap, pol: Pol, d: float, kin: Kinematics):
    """Per-mode contribution kappa^2 r1 r2 e^{-2 kappa d}/(1 - r1 r2 e^{-2 kappa d})."""
    if d <= 0.0:
        raise ValueError("d must be > 0")
    kappa = np.asarray(kin.kappa_gap, dtype=float)
    if np.any(kappa * d <= 0.0):
        raise ValueError("kappa * d must be > 0")
    r1 = stack_reflection(stack1, gap, pol, kin)
    r2 = stack_reflection(stack2, gap, pol, kin)
    (out,) = _damped_terms(kappa, 2.0 * kappa * d, np.asarray(r1) * np.asarray(r2))
    return float(out) if out.ndim == 0 else out


def _x_offsets(d: float) -> np.ndarray:
    """Panel edges for the x = 2 kappa d integral, geometric near the origin.

    Reflection data varies on kappa scales of order the material resonances,
    i.e. on x scales of order d, so the first panel width tracks d.
    """
    delta = min(1.0, max(0.1 * d, 1e-6))
    offs = [0.0]
    v = delta
    while v < X_CUT:
        offs.append(v)
        v *= 2.0
    offs.append(X_CUT)
    return np.array(offs)


def _pair_integrals(stack1, stack2, gap, d, xi, cfg):
    """TE and TM kappa-integrals (1/2pi) int kappa^2/D dkappa at each xi.

    Returns (te, tm, err) arrays of shape (len(xi),); err is the summed
    change of te + tm between whole and halved panels (same units).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    kernel = ReflectionKernel((stack1, stack2), gap, xi[:, None])
    x_lo = 2.0 * d * np.sqrt(kernel.s_gap[:, 0])

    def fvals(x):
        out = np.empty(x.shape + (2,))
        step = max(1, _BLOCK // max(1, x.shape[0]))
        for c in range(0, x.shape[1], step):
            xb = x[:, c : c + step]
            kappa = xb / (2.0 * d)
            (te1, tm1), (te2, tm2) = kernel(kappa)
            te, tm = _damped_terms(kappa, xb, te1 * te2, tm1 * tm2)
            out[:, c : c + step, 0] = te
            out[:, c : c + step, 1] = tm
        return out

    vals, err = rowwise_panel_integral(
        fvals,
        x_lo,
        _x_offsets(d),
        nodes=cfg.kappa_nodes,
        rel_tol=0.1 * cfg.rel_tol,
    )
    scale = 1.0 / (2.0 * math.pi * 2.0 * d)
    return vals[:, 0] * scale, vals[:, 1] * scale, err * scale


def force_finite_T(stack1, stack2, gap, d, tau, cfg: QuadratureConfig | None = None) -> ForceResult:
    """Pressure at temperature tau > 0, truncating the Matsubara sum once the
    running term and a geometric tail estimate drop below tolerance."""
    if d <= 0.0:
        raise ValueError("d must be > 0")
    if tau <= 0.0:
        raise ValueError("tau must be > 0 (use force_zero_T at tau = 0)")
    cfg = cfg or DEFAULT_CONFIG
    d3 = d**3

    s_te = s_tm = 0.0
    est = 0.0
    prev_mag = None
    n_decreasing = 0
    n_used = 0
    tail = math.inf
    done = False

    n0 = 0
    block = 8
    while not done:
        if n0 > cfg.max_matsubara:
            last = f"{prev_mag:.3e}" if prev_mag is not None else "n/a"
            raise ConvergenceError(
                f"Matsubara sum not converged after {cfg.max_matsubara} terms "
                f"(last term magnitude {last}, tail estimate {tail:.3e})"
            )
        ns = np.arange(n0, min(n0 + block, cfg.max_matsubara + 1))
        xi = 2.0 * math.pi * tau * ns
        te, tm, qerr = _pair_integrals(stack1, stack2, gap, d, xi, cfg)
        for i, n in enumerate(ns):
            w = 0.5 if n == 0 else 1.0
            factor = 2.0 * tau * w * d3
            term_te = factor * te[i]
            term_tm = factor * tm[i]
            s_te += term_te
            s_tm += term_tm
            est += factor * qerr[i]
            n_used = int(n) + 1
            mag = abs(term_te + term_tm)
            if prev_mag is not None:
                if mag < prev_mag or (mag == 0.0 and prev_mag == 0.0):
                    n_decreasing += 1
                else:
                    n_decreasing = 0
            thresh = cfg.rel_tol * abs(s_te + s_tm) + cfg.abs_tol
            if n >= 2 and n_decreasing >= 2 and mag <= thresh:
                ratio = mag / prev_mag if prev_mag else 0.0
                tail = mag * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
                if tail <= thresh:
                    # factor 3: early terms may decay slower than the last ratio
                    est += 3.0 * tail
                    done = True
                    break
            prev_mag = mag
        n0 += len(ns)
        block = min(2 * block, 256)

    lo, hi = bound_envelope(d, tau)
    return ForceResult(
        pressure_norm=s_te + s_tm,
        te_part=s_te,
        tm_part=s_tm,
        n_terms_used=n_used,
        est_error=est,
        bound_lo=lo,
        bound_hi=hi,
    )


def _xi_edges(d: float) -> np.ndarray:
    """Edges in the mapped variable t = xi/(1 + xi) for the tau = 0 integral."""
    xi_cut = 0.5 * X_CUT / d
    breaks = [b for b in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0) if b < 3.0 * xi_cut]
    v = 40.0
    while v < xi_cut:
        breaks.append(v)
        v *= 2.0
    breaks.append(xi_cut)
    ts = sorted({0.0} | {b / (1.0 + b) for b in breaks} | {1.0})
    return np.array(ts)


def force_zero_T(stack1, stack2, gap, d, cfg: QuadratureConfig | None = None) -> ForceResult:
    """Zero-temperature pressure: (1/pi) int_0^inf dxi of the kappa integral."""
    if d <= 0.0:
        raise ValueError("d must be > 0")
    cfg = cfg or DEFAULT_CONFIG
    d3 = d**3

    def outer(t):
        t = np.asarray(t, dtype=float)
        xi = t / (1.0 - t)
        te, tm, qerr = _pair_integrals(stack1, stack2, gap, d, xi, cfg)
        jac = 1.0 / (1.0 - t) ** 2
        return np.stack([te * jac, tm * jac, qerr * jac], axis=-1)

    total, qerr, n_rows = adaptive_integral(
        outer,
        _xi_edges(d),
        nodes=cfg.xi_nodes,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol * math.pi / d3,
        n_control=2,
    )
    te = total[0] / math.pi * d3
    tm = total[1] / math.pi * d3
    inner_err = total[2] / math.pi * d3
    est = qerr / math.pi * d3 + abs(inner_err)

    lo, hi = bound_envelope(d, 0.0)
    return ForceResult(
        pressure_norm=te + tm,
        te_part=te,
        tm_part=tm,
        n_terms_used=n_rows,
        est_error=est,
        bound_lo=lo,
        bound_hi=hi,
    )


def _envelope_integral(xi, d, attract: bool):
    """(1/2pi) int_xi^inf kappa^2 [2/(e^{2 kappa d} -+ 1)] dkappa, closed form.

    Expanding the Bose/Fermi factor in powers of e^{-2 kappa d} and
    integrating term by term gives polylogarithms of e^{-2 xi d}.
    """
    xi = np.asarray(xi, dtype=float)
    a = 2.0 * d * xi
    z = np.exp(-a)
    if attract:
        l1 = -np.log1p(-z)
        l2 = asymptotics.polylog2(z)
        l3 = asymptotics.polylog3(z)
    else:
        l1 = np.log1p(z)
        l2 = -asymptotics.polylog2(-z)
        l3 = -asymptotics.polylog3(-z)
    return (xi * xi / (2.0 * d) * l1 + xi / (2.0 * d * d) * l2 + l3 / (4.0 * d**3)) / math.pi


def bound_envelope(d: float, tau: float) -> tuple[float, float]:
    """Ideal-mirror envelopes (lo, hi) of the pressure, in F d^3 units.

    hi is the pressure between identical perfect mirrors, lo the (negative)
    pressure between a perfectly conducting and a perfectly permeable one.
    At tau = 0 these are (-7/8, 1) pi^2/(240 d^4); the finite-temperature
    sums are evaluated from their exact polylogarithm form, independently of
    the quadrature engine.
    """
    if d <= 0.0:
        raise ValueError("d must be > 0")
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        fc_norm = math.pi**2 / (240.0 * d)
        return (-0.875 * fc_norm, fc_norm)

    zeta3 = asymptotics.ZETA3
    hi = 0.5 * zeta3 / (4.0 * math.pi * d**3)
    lo = 0.5 * 0.75 * zeta3 / (4.0 * math.pi * d**3)
    n = 1
    block = 4096
    while True:
        ns = np.arange(n, n + block)
        xi = 2.0 * math.pi * tau * ns
        t_hi = _envelope_integral(xi, d, attract=True)
        t_lo = _envelope_integral(xi, d, attract=False)
        hi += float(t_hi.sum())
        lo += float(t_lo.sum())
        if t_hi[-1] <= 1e-16 * hi and t_lo[-1] <= 1e-16 * lo:
            break
        n += block
    scale = 2.0 * tau * d**3
    return (-scale * lo, scale * hi)
