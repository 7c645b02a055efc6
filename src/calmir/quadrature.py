"""Gauss-Legendre panel quadrature helpers.

Two flavours are used by the pressure integrals:

* `rowwise_panel_integral` evaluates the same panel structure shifted to a
  per-row lower limit (one row per Matsubara frequency), refining all panels
  in lockstep until the total stops moving.  Each refinement level makes
  one call of the integrand on every (row, abscissa) point at once, which
  keeps the Matsubara loop fast; the integrand may split that call into
  smaller blocks internally.

* `adaptive_integral` is a greedy global refinement on one axis: the panels
  with the largest local error estimates are split until the summed estimate
  meets the tolerance.  Integrands may be vector valued (components are
  integrated together; the error is controlled on the sum of the first
  `n_control` components).

Both are deterministic: panel processing order depends only on the inputs.
Both raise `ConvergenceError` when their refinement budget (`max_level`,
`max_panels`) runs out before the tolerance is met.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

__all__ = ["gauss_rule", "rowwise_panel_integral", "adaptive_integral"]


@lru_cache(maxsize=None)
def gauss_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return x, w


def _flatten_panels(edges, nodes):
    """Nodes/weights for Gauss rules on consecutive intervals, concatenated."""
    x, w = gauss_rule(nodes)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * x[None, :]
    wts = half[:, None] * w[None, :]
    return pts.ravel(), wts.ravel()


def _refine_edges(edges, level):
    """Split every interval of `edges` into 2**level equal parts."""
    if level == 0:
        return edges
    k = 1 << level
    lo = edges[:-1]
    hi = edges[1:]
    frac = np.arange(k) / k
    sub = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    return np.append(sub.ravel(), edges[-1])


def rowwise_panel_integral(
    fvals,
    x_lo,
    offsets,
    *,
    nodes,
    rel_tol,
    max_level=4,
):
    """Integrate f over [x_lo[r], x_lo[r] + offsets[-1]] for every row r.

    `fvals(x2d)` must accept an (R, M) array of abscissae and return an
    (R, M, C) array of integrand components.  Returns (I, err) with I of
    shape (R, C) and err the per-row |change| of the component sum in the
    last refinement.  Raises `ConvergenceError` if the change still
    exceeds the tolerance after `max_level` refinements.
    """
    x_lo = np.asarray(x_lo, dtype=float)
    prev = None
    err = None
    for level in range(max_level + 1):
        pts, wts = _flatten_panels(_refine_edges(offsets, level), nodes)
        x = x_lo[:, None] + pts[None, :]
        vals = fvals(x)
        cur = np.einsum("rmc,m->rc", vals, wts)
        if prev is not None:
            err = np.abs(cur.sum(axis=1) - prev.sum(axis=1))
            scale = np.abs(cur.sum(axis=1)).max() if cur.size else 0.0
            if err.max(initial=0.0) <= rel_tol * max(scale, 1e-300):
                return cur, err
        prev = cur
    last = f"{err.max(initial=0.0):.3e}" if err is not None else "n/a"
    raise ConvergenceError(
        f"row-wise panel integral not converged after {max_level} refinements "
        f"(last change {last}, relative tolerance {rel_tol:.1e})"
    )


@dataclass
class _Panel:
    a: float
    b: float
    half_lo: np.ndarray = field(repr=False)
    half_hi: np.ndarray = field(repr=False)
    err: float

    @property
    def value(self):
        return self.half_lo + self.half_hi


def adaptive_integral(
    f,
    edges,
    *,
    nodes,
    rel_tol,
    abs_tol,
    n_control=1,
    max_panels=800,
    batch=8,
):
    """Adaptively integrate a vector-valued f over the panels in `edges`.

    `f(x)` takes a 1-D array and returns an (len(x), C) array.  Returns
    (I, err, n_eval) with I of shape (C,); `err` estimates the quadrature
    error of the summed control components (first `n_control` of the C).
    Raises `ConvergenceError` if `max_panels` panels do not meet the tolerance.
    """
    edges = np.asarray(edges, dtype=float)
    n_eval = 0

    def eval_bounds(bounds):
        """Gauss value of f on each (a, b) pair; one vectorised f call."""
        nonlocal n_eval
        pts = []
        wts = []
        for a, b in bounds:
            p, w = _flatten_panels(np.array([a, b]), nodes)
            pts.append(p)
            wts.append(w)
        allx = np.concatenate(pts)
        n_eval += allx.size
        vals = np.asarray(f(allx))
        if vals.ndim == 1:
            vals = vals[:, None]
        out = []
        pos = 0
        for w in wts:
            out.append(w @ vals[pos : pos + w.size])
            pos += w.size
        return out

    def halve(bounds_list, coarse_list):
        """Build refined panels for each (a, b): one f call for all halves."""
        hb = []
        for a, b in bounds_list:
            m = 0.5 * (a + b)
            hb.extend([(a, m), (m, b)])
        hv = eval_bounds(hb)
        out = []
        for i, (a, b) in enumerate(bounds_list):
            lo, hi = hv[2 * i], hv[2 * i + 1]
            delta = float(np.sum((lo + hi - coarse_list[i])[:n_control]))
            out.append(_Panel(a, b, lo, hi, abs(delta)))
        return out

    init_bounds = list(zip(edges[:-1], edges[1:]))
    coarse = eval_bounds(init_bounds)
    panels = halve(init_bounds, coarse)

    store = {i: p for i, p in enumerate(panels)}
    heap = [(-p.err, p.a, i) for i, p in store.items()]
    heapq.heapify(heap)
    next_id = len(panels)

    while True:
        total = sum(p.value for p in store.values())
        total_err = float(sum(p.err for p in store.values()))
        target = max(abs_tol, rel_tol * abs(float(np.sum(total[:n_control]))))
        if total_err <= target:
            return total, total_err, n_eval
        if len(store) >= max_panels:
            raise ConvergenceError(
                f"adaptive integral not converged with {len(store)} panels "
                f"(error estimate {total_err:.3e}, target {target:.3e})"
            )
        split = []
        while heap and len(split) < batch:
            _, _, pid = heapq.heappop(heap)
            if pid in store:
                split.append(store.pop(pid))
        child_bounds = []
        child_coarse = []
        for p in split:
            mid = 0.5 * (p.a + p.b)
            child_bounds.extend([(p.a, mid), (mid, p.b)])
            child_coarse.extend([p.half_lo, p.half_hi])
        for child in halve(child_bounds, child_coarse):
            store[next_id] = child
            heapq.heappush(heap, (-child.err, child.a, next_id))
            next_id += 1
