"""Gauss-Legendre panel quadrature: one globally adaptive engine.

`adaptive_integral` integrates an integrand with a row axis over shared
panels.  `f(x)` takes M abscissae and returns (M, ..., C) values: any number
of rows (one per Matsubara frequency, say), each with C components.  Every
panel is evaluated whole and then as two halves; its error is the largest
change over rows of the sum of the first `n_control` components.  Until every
row's summed panel error meets the tolerance, the worst panels are split,
a few per pass, so each pass makes one call of f on every (abscissa, row)
point it needs; the integrand may split that call into smaller blocks
internally.

`rowwise_panel_integral` adapts the engine to panels shifted to a per-row
lower limit; it is the kappa integral's named entry point, through which the
benchmark's per-layer trace (benchmarks/spans.py) sees the reflection
callback.  Processing order depends only on the inputs, and running out of
the panel budget raises `ConvergenceError`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

__all__ = ["gauss_rule", "rowwise_panel_integral", "adaptive_integral"]

_BATCH = 8  # panels split per refinement pass


@lru_cache(maxsize=None)
def gauss_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return x, w


def _pairs(u, v):
    """Interleave u and v along the first axis: u[0], v[0], u[1], v[1], ..."""
    return np.stack([u, v], axis=1).reshape((2 * len(u),) + u.shape[1:])


def adaptive_integral(f, edges, *, nodes, rel_tol, abs_tol, n_control=None, max_panels=800):
    """Adaptively integrate f over the panels in `edges`.

    `f(x)` takes a 1-D array of M abscissae and returns an (M, ..., C) array.
    Returns (I, err, n_eval): I of shape (..., C); err, one entry per row,
    the summed |halves - whole| of the first `n_control` components (all by
    default); n_eval the number of (abscissa, row) points evaluated.  Raises
    `ConvergenceError` if `max_panels` panels do not meet the tolerance.
    """
    x, w = gauss_rule(nodes)
    n_eval = 0

    def gauss(a, b):
        """Gauss value of f on each panel [a[i], b[i]]; one f call for all."""
        nonlocal n_eval
        half = 0.5 * (b - a)
        pts = (0.5 * (a + b))[:, None] + half[:, None] * x
        vals = np.asarray(f(pts.ravel()))
        n_eval += vals.size // vals.shape[-1]
        # (panel, *rows, C, node) @ (panel, node, 1): a batched matrix product
        vals = np.moveaxis(vals.reshape(pts.shape + vals.shape[1:]), 1, -1)
        wts = (half[:, None] * w).reshape((len(a),) + (1,) * (vals.ndim - 3) + (len(x), 1))
        return (vals @ wts)[..., 0]

    def halve(a, b, whole):
        """Values of both halves of each panel, (P, 2, ..., C), and each row's
        |halves - whole| on the control components."""
        m = 0.5 * (a + b)
        vals = gauss(_pairs(a, m), _pairs(m, b))
        halves = vals.reshape((len(a), 2) + vals.shape[1:])
        return halves, np.abs((halves.sum(axis=1) - whole)[..., :n_control].sum(axis=-1))

    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    halves, change = halve(a, b, gauss(a, b))
    while True:
        total = halves.sum(axis=1).sum(axis=0)
        err = change.sum(axis=0)
        scale = np.abs(total[..., :n_control].sum(axis=-1)).max(initial=0.0)
        target = max(abs_tol, rel_tol * scale)
        if np.all(err <= target):
            return total, (err if err.ndim else float(err)), n_eval
        if len(a) >= max_panels:
            raise ConvergenceError(
                f"adaptive integral not converged with {len(a)} panels "
                f"(error estimate {err.max():.3e}, target {target:.3e})"
            )
        worst = change.reshape(len(a), -1).max(axis=1)
        split = np.zeros(len(a), dtype=bool)
        split[np.lexsort((a, -worst))[:_BATCH]] = True
        m = 0.5 * (a[split] + b[split])
        ca, cb = _pairs(a[split], m), _pairs(m, b[split])
        chalves, cchange = halve(ca, cb, halves[split].reshape((len(ca),) + halves.shape[2:]))
        keep = ~split
        a, b = np.concatenate([a[keep], ca]), np.concatenate([b[keep], cb])
        halves = np.concatenate([halves[keep], chalves])
        change = np.concatenate([change[keep], cchange])


def rowwise_panel_integral(fvals, x_lo, offsets, *, nodes, rel_tol):
    """Integrate over [x_lo[r], x_lo[r] + offsets[-1]] for every row r.

    `fvals(x2d)` maps an (R, M) array of abscissae to (R, M, C) values.
    Returns (I, err) of shapes (R, C) and (R,) as `adaptive_integral` does.
    """
    x_lo = np.asarray(x_lo, dtype=float)[:, None]
    total, err, _ = adaptive_integral(
        lambda x: np.swapaxes(fvals(x_lo + x), 0, 1),
        offsets, nodes=nodes, rel_tol=rel_tol, abs_tol=0.0,
    )
    return total, err
