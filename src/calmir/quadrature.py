"""Gauss-Kronrod panel quadrature: one globally adaptive engine.

`adaptive_integral` integrates an integrand with a row axis over shared
panels.  `f(x)` takes M abscissae and returns (C, ..., M) values: C
components, any number of rows (one per Matsubara frequency, say), and the
abscissae last, so that one 2-D matrix product gives every panel's sums.
Each panel is evaluated once, at the 2n+1 nodes of the (2n+1)-point Kronrod
extension of the n-point Gauss rule (`nodes` = n); its value is the Kronrod
sum K, and its error is the largest change |K - G| over rows of the sum of
the first `n_control` components, where G is the Gauss sum on the same
nodes.  Until every row's summed panel error meets the tolerance, each pass
splits the worst panels, but only as many as it takes (at most _BATCH):
the fewest whose errors, taken out of every row's sum, would leave each row
within the target, as QUADPACK's QAG splits only the panels that carry the
error (Piessens et al., QUADPACK, Springer 1983).  Only the new halves are
evaluated, so each pass makes one call of f on every (abscissa, row) point
it needs; the integrand may split that call into smaller blocks internally.

`rowwise_panel_integral` adapts the engine to panels shifted to a per-row
lower limit; it is the kappa integral's named entry point, through which the
benchmark's per-layer trace (benchmarks/spans.py) sees the reflection
callback.  `xi_integral` runs the engine over [0, inf) on t = xi/(1 + xi).
Processing order depends only on the inputs, and running out of the panel
budget raises `ConvergenceError`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

__all__ = ["kronrod_rule", "geometric_edges", "panel_nodes", "rowwise_panel_integral", "adaptive_integral",
           "xi_integral"]

# Most panels split per refinement pass; a pass splits fewer when the worst
# few already carry enough of every row's error to meet the target.
_BATCH = 8


@lru_cache(maxsize=None)
def kronrod_rule(n: int):
    """Nodes x (2n+1,) and weights (2n+1, 2) of the Gauss-Kronrod pair on [-1, 1].

    Column 0 holds the Kronrod weights, exact for degree 3n+1; column 1 the
    n-point Gauss weights at the Gauss nodes x[1::2], zero elsewhere.  The
    Jacobi-Kronrod matrix comes from the Legendre recurrence (a_k = 0,
    b_0 = 2, b_k = k^2/(4k^2 - 1)) by Laurie's algorithm (Math. Comp. 66,
    1133 (1997)); its eigenvalues are the nodes, and the weights are the
    Christoffel numbers 1/sum_k p_k(x)^2 of its orthonormal polynomials.
    """
    n = int(n)
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    deg = np.arange(-(-3 * n // 2) + 1, dtype=float)  # ceil(3n/2) + 1 Legendre terms
    b[: len(deg)] = deg * deg / (4.0 * deg * deg - 1.0)
    b[0] = 2.0
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u += b[l] * s[j + 2] - (a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]

    off = np.sqrt(b[1:])
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(b[0]))
    norm = p * p
    for j in range(2 * n):
        p_prev, p = p, ((x - a[j]) * p - (off[j - 1] * p_prev if j else 0.0)) / off[j]
        norm += p * p
    # the rule is symmetric about 0: average out the eigensolver's asymmetry
    x = 0.5 * (x - x[::-1])
    w = np.zeros((2 * n + 1, 2))
    w[:, 0] = 0.5 * (1.0 / norm + 1.0 / norm[::-1])
    w[1::2, 1] = np.polynomial.legendre.leggauss(n)[1]
    # the cached arrays are shared by every caller, so they are read-only
    x.flags.writeable = w.flags.writeable = False
    return x, w


def geometric_edges(first: float, cut: float, ratio: float) -> np.ndarray:
    """Panel edges 0, first, first ratio, first ratio^2, ... below cut, then cut."""
    edges = [0.0]
    while first < cut:
        edges.append(first)
        first *= ratio
    return np.array(edges + [cut])


def panel_nodes(a, b, nodes):
    """The Gauss-Kronrod nodes of the panels [a[i], b[i]], one row per panel,
    (P, 2 nodes + 1), and their half-widths (P,): the engine's, bit for bit."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * kronrod_rule(nodes)[0], half


def adaptive_integral(f, edges, *, nodes, rel_tol, abs_tol, n_control=None, max_panels=800):
    """Adaptively integrate f over the panels in `edges`.

    `f(x)` takes a 1-D array of M abscissae and returns a (C, ..., M) array.
    Returns (I, err, n_eval): I of shape (C, ...); err, one entry per row,
    the summed |K - G| of the first `n_control` components (all by default);
    n_eval the number of (abscissa, row) points evaluated, 2 `nodes` + 1 per
    panel.  Each pass splits the fewest panels, at most _BATCH, taken worst
    first (largest |K - G| over rows, lowest edge on ties), whose errors
    removed from every row's sum would leave it within the target.  Raises
    `ConvergenceError` if `max_panels` panels do not meet the tolerance.
    """
    x, w = kronrod_rule(nodes)
    n_eval = 0

    def panels(a, b):
        """Kronrod value of f on each panel [a[i], b[i]], (P, C, ...), and each
        row's |K - G| on the control components, (P, ...); one f call for all."""
        nonlocal n_eval
        pts, half = panel_nodes(a, b, nodes)
        vals = np.asarray(f(pts.ravel()))
        n_eval += vals.size // len(vals)
        # K and G of every (component, row, panel) in one product; panels then
        # go first, so that the sums over them run in panel order
        kg = (vals.reshape(-1, len(x)) @ w).reshape(-1, len(a), 2).transpose(1, 0, 2)
        kg = np.multiply(kg, half[:, None, None], order="C")
        kg = kg.reshape((len(a),) + vals.shape[:-1] + (2,))
        kron = kg[..., 0]
        return kron, np.abs((kron - kg[..., 1])[:, :n_control].sum(axis=1))

    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    value, change = panels(a, b)
    while True:
        total = value.sum(axis=0)
        err = change.sum(axis=0)
        scale = np.abs(total[:n_control].sum(axis=0)).max(initial=0.0)
        target = max(abs_tol, rel_tol * scale)
        if (err <= target).all():
            return total, (err if err.ndim else float(err)), n_eval
        if len(a) >= max_panels:
            raise ConvergenceError(
                f"adaptive integral not converged with {len(a)} panels "
                f"(error estimate {err.max():.3e}, target {target:.3e})"
            )
        rows = change.reshape(len(a), -1)
        order = np.lexsort((a, -rows.max(axis=1)))[:_BATCH]
        # whether some row is still over target once the errors of the first
        # 1, 2, ... of these panels are taken out; once False, False after
        left = (err.reshape(1, -1) - rows[order].cumsum(axis=0) > target).any(axis=1)
        split = np.zeros(len(a), dtype=bool)
        split[order[: np.count_nonzero(left) + 1]] = True
        m = 0.5 * (a[split] + b[split])
        # each split panel's halves, in its place: a, m then m, b
        ca, cb = np.stack((a[split], m), axis=1).ravel(), np.stack((m, b[split]), axis=1).ravel()
        cvalue, cchange = panels(ca, cb)
        keep = ~split
        a, b = np.concatenate([a[keep], ca]), np.concatenate([b[keep], cb])
        value = np.concatenate([value[keep], cvalue])
        change = np.concatenate([change[keep], cchange])


def rowwise_panel_integral(fvals, x_lo, offsets, *, nodes, rel_tol, abs_tol=0.0):
    """Integrate over [x_lo[r], x_lo[r] + offsets[-1]] for every row r.

    `fvals(x2d)` maps an (R, M) array of abscissae to (C, R, M) values,
    abscissae last.  The rows share the panel offsets and their splits, and
    one target per row, the larger of `abs_tol` and rel_tol times the
    largest row's |sum of components|: each pass splits the fewest worst
    panels, at most _BATCH, whose errors taken out would bring every row
    within it (`adaptive_integral`).
    Returns (I, err, n_eval) as `adaptive_integral` does: I of shape (C, R),
    err of shape (R,), and n_eval counting each (abscissa, row) point.
    """
    x_lo = np.asarray(x_lo, dtype=float)[:, None]
    return adaptive_integral(
        lambda x: fvals(x_lo + x),
        offsets, nodes=nodes, rel_tol=rel_tol, abs_tol=abs_tol,
    )


def xi_integral(f, breaks, **engine):
    """int_0^inf f(xi) dxi: `adaptive_integral` (given the keywords) on t = xi/(1 + xi).

    The panel edges are t = 0, the mapped `breaks` and t = 1; f's
    (C, ..., M) values, abscissae last, are multiplied by the Jacobian
    1/(1 - t)^2.  Panels are split by the engine's rule: each pass the
    fewest worst ones, at most _BATCH, that would leave every row within
    the target.
    """
    edges = np.array(sorted({0.0, 1.0} | {b / (1.0 + b) for b in breaks}))

    def mapped(t):
        return f(t / (1.0 - t)) * (1.0 / (1.0 - t) ** 2)

    return adaptive_integral(mapped, edges, **engine)
