"""Audit of est_error: every default pressure of a standing survey against an
independent reference.

    PYTHONPATH=src python tools/audit_est_error.py

The survey is the 8 presets x d in {Lambda/400, Lambda/20, Lambda, 10 Lambda}
x tau in {0, 0.01, 0.1}.  Each default result (`force_zero_T` or
`force_finite_T` with the default QuadratureConfig) is compared with

* at tau = 0, the xi integral of `lifshitz._pair_integrals` rows with
  order-64 kappa and xi rules at rel_tol 1e-11, or 1e-10 where 1e-11 raises
  ConvergenceError, so the reference does not lean on the coarse default
  panel layouts.  The two integrate in different orders: `force_zero_T`
  takes rho = sqrt(k^2 + xi^2) outside and t = xi/rho inside, on a table of
  r1 r2 over (rho, t), and the reference xi outside and kappa inside.  The
  reference is built here from `quadrature.xi_integral` up to infinity, on
  its own xi breaks (geometric from 0.02 by 8 up to X_CUT/(2d)), with one
  kappa call for all rows of a pass;
* at tau > 0, an explicit Matsubara sum of `lifshitz._pair_integrals` rows
  (default config), run until the ideal-mirror bound on the omitted terms,
  |r1 r2| <= 1 over a vacuum gap, is below 1e-3 est_error.  Far rows sit at
  the kappa integral's round-off floor, where the default relative
  tolerance can no longer be met (ROADMAP item 3).  So once a block of rows
  adds less than 1e-3 est_error, the rest are summed at rel_tol 1e-5 and
  their error estimates count towards the reference's error, which must
  stay below 1e-2 est_error.

Both references are computed with `lifshitz._row_scale` held at 0
(`reference`), so each of their kappa calls is laid out by d and the layers
alone, as a call holding xi = 0 is.  The default tau > 0 results size the
first kappa panel of later Matsubara blocks by their rows' own scale as
well; the references do not share that layout.

It prints the worst |p - p_ref|/est_error per preset and exits 1 when a point
outside KNOWN exceeds 1, or when a point in KNOWN no longer does.  KNOWN
holds the points where the Matsubara sum stops early at a sign change of its
summand (ROADMAP item 8), each with its measured ratio.  The bound of 1 is
the contract of est_error and is never widened.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from calmir import ConvergenceError, QuadratureConfig, force_finite_T, force_zero_T, lifshitz, quadrature
from calmir.materials import Kind
from calmir.presets import LAMBDA, PRESET_NAMES, preset

DISTANCES = {"L/400": LAMBDA / 400.0, "L/20": LAMBDA / 20.0, "L": LAMBDA, "10L": 10.0 * LAMBDA}
TAUS = (0.0, 0.01, 0.1)
OMITTED_SHARE = 1e-3  # omitted Matsubara terms, as a share of est_error
REFERENCE_SHARE = 1e-2  # the reference's whole error, as a share of est_error
LOOSE = QuadratureConfig(rel_tol=1e-5)
ROWS = 1024  # Matsubara rows per _pair_integrals call
WORKERS = 2  # processes over the survey points

# (preset, distance label, tau): |p - p_ref|/est_error as measured; fig3c at
# tau = 0.01 was first seen by this audit, the others by the kappa-rule scan
KNOWN = {
    ("fig1c", "L/400", 0.01): 2.54e3,
    ("fig1d", "L/400", 0.01): 2.54e3,
    ("fig3b", "L/400", 0.01): 2.54e3,
    ("fig3c", "L/400", 0.01): 44.4,
    ("fig3c", "L/400", 0.1): 60.3,
}


def _omitted_bound(d: float, tau: float) -> np.ndarray:
    """bound[n] >= |2 tau d^3 sum_{m >= n} (te_m + tm_m)|, for n up to where it underflows.

    Per polarization |r1 r2 e^{-x}/(1 - r1 r2 e^{-x})| <= e^{-x}/(1 - e^{-x}),
    x = 2 kappa d >= 2 xi d over a vacuum gap, so each term is at most
    (1/pi) int_xi^inf kappa^2 e^{-2 kappa d} dkappa/(1 - e^{-2 xi d}).
    """
    h = 2.0 * math.pi * tau
    xi = h * np.arange(1.0, math.ceil(750.0 / (2.0 * d * h)) + 2.0)
    term = np.exp(-2.0 * xi * d) * (xi * xi / (2.0 * d) + xi / (2.0 * d * d) + 0.25 / d**3)
    term /= math.pi * -np.expm1(-2.0 * xi * d)
    tail = np.cumsum(term[::-1])[::-1] * 2.0 * tau * d**3
    return np.append(math.inf, tail)  # index n: the terms from n on; n = 0 is never cut


def zero_T_reference(m1, m2, gap, d: float, cfg: QuadratureConfig) -> tuple[float, int]:
    """(p, rows): (1/pi) int_0^inf dxi of the kappa integrals, one
    `_pair_integrals` call per pass of the xi engine."""
    def outer(xi):
        return np.stack(lifshitz._pair_integrals(m1, m2, gap, d, xi, cfg))

    breaks = quadrature.geometric_edges(0.02, 0.5 * lifshitz.X_CUT / d, 8.0)
    total, _, rows = quadrature.xi_integral(outer, breaks, nodes=cfg.xi_nodes,
                                            rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol * math.pi / d**3,
                                            n_control=2)
    te, tm, _ = (total / math.pi * d**3).tolist()
    return te + tm, rows


@contextlib.contextmanager
def _row_scale_held_at_zero():
    """Lay out every kappa call by d and the layers alone, as for xi = 0."""
    row_scale = lifshitz._row_scale
    lifshitz._row_scale = lambda kernel, k_lo: 0.0
    try:
        yield
    finally:
        lifshitz._row_scale = row_scale


@_row_scale_held_at_zero()
def reference(m1, m2, gap, d: float, tau: float, est: float) -> tuple[float, float, int]:
    """(p_ref, ref_err, rows): the reference pressure, the bound on its omitted
    terms plus the error estimates of loosely summed blocks, and its rows;
    computed with `lifshitz._row_scale` held at 0."""
    if tau == 0.0:
        for rel_tol in (1e-11, 1e-10):
            fine = QuadratureConfig(rel_tol=rel_tol, kappa_nodes=64, xi_nodes=64)
            try:
                p_ref, rows = zero_T_reference(m1, m2, gap, d, fine)
                return p_ref, 0.0, rows
            except ConvergenceError:
                pass
        raise ConvergenceError(f"no tau = 0 reference at d = {d}")
    bound = _omitted_bound(d, tau)
    n_terms = int(np.argmax(bound <= OMITTED_SHARE * est))
    scale = 2.0 * tau * d**3
    total = loose_err = 0.0
    cfg = lifshitz.DEFAULT_CONFIG
    for n0 in range(0, n_terms, ROWS):
        n = np.arange(n0, min(n0 + ROWS, n_terms))
        weight = np.where(n == 0, 0.5, 1.0)
        te, tm, err = lifshitz._pair_integrals(m1, m2, gap, d, 2.0 * math.pi * tau * n, cfg)
        total += float(np.sum(weight * (te + tm)))
        if cfg is LOOSE:
            loose_err += float(np.sum(weight * err))
        elif scale * float(np.sum(weight * np.abs(te + tm))) < OMITTED_SHARE * est:
            cfg = LOOSE
    return scale * total, bound[n_terms] + scale * loose_err, n_terms


def audit_point(point):
    name, label, tau = point
    m1, m2, gap = preset(name)
    if gap.kind is not Kind.VACUUM:
        raise ValueError(f"{name}: the omitted-term bound needs a vacuum gap")
    d = DISTANCES[label]
    start = time.perf_counter()
    res = force_zero_T(m1, m2, gap, d) if tau == 0.0 else force_finite_T(m1, m2, gap, d, tau)
    p_ref, ref_err, rows = reference(m1, m2, gap, d, tau, res.est_error)
    ratio = abs(res.pressure_norm - p_ref) / res.est_error
    return (point, ratio, res.pressure_norm, p_ref, res.est_error, ref_err, rows,
            time.perf_counter() - start)


def main() -> int:
    points = [(name, label, tau) for name in PRESET_NAMES for label in DISTANCES for tau in TAUS]
    start = time.perf_counter()
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(audit_point, points))

    bad = []
    worst = {}
    for (name, label, tau), ratio, p, p_ref, est, ref_err, rows, secs in results:
        known = KNOWN.get((name, label, tau))
        if ref_err > REFERENCE_SHARE * est:
            bad.append(f"{name} d={label} tau={tau}: reference error {ref_err:.3g} "
                       f"above {REFERENCE_SHARE:g} est_error")
        if (ratio > 1.0) != (known is not None):
            bad.append(f"{name} d={label} tau={tau}: |p - p_ref|/est_error = {ratio:.3g}"
                       + ("" if known is None else f", named at {known:.3g}: remove it from KNOWN"))
        if known is None and ratio > worst.get(name, (-1.0,))[0]:
            worst[name] = (ratio, label, tau)
        print(f"{name:6s} d={label:5s} tau={tau:<4g} p={p:.12e} p_ref={p_ref:.12e} est={est:.2e} "
              f"ratio={ratio:.3g} ref_err={ref_err:.1e} ref_rows={rows} {secs:.2f}s"
              + ("" if known is None else f" [named, measured {known:.3g}]"))
    print("worst |p - p_ref|/est_error per preset, named points excluded:")
    for name, (ratio, label, tau) in sorted(worst.items()):
        print(f"  {name:6s} {ratio:.3g} at d={label}, tau={tau:g}")
    for line in bad:
        print("FAIL:", line)
    print(f"{len(points)} points, {len(bad)} failures, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
