"""Casimir pressure between two layered mirrors.

At temperature tau = k_B T/(hbar Omega) the pressure (positive = attraction)
is a sum over imaginary Matsubara frequencies xi_n = 2 pi n tau (the n = 0
term carrying weight 1/2) of an integral over the gap decay constant kappa:

    F = 2 tau sum'_n  int_{kappa_min}^inf dkappa/(2 pi) kappa^2
         sum_pol  r1 r2 e^{-2 kappa d} / (1 - r1 r2 e^{-2 kappa d})

with kappa_min = xi_n sqrt(eps0 mu0) for a gap medium of response
(eps0, mu0).  At tau = 0 the sum becomes (1/2 pi) int dxi and the prefactor
2 tau goes over to 1/pi times the xi integral.

The kappa integral runs from kappa_min to 2 kappa d >= 40 (the integrand
carries e^{-2 kappa d}), in kappa itself, on starting panels whose edges lie
on one ladder 0.05 4^j at every distance, so that distances integrate a row
on the same starting nodes wherever their layouts overlap; the tau = 0 xi
integral starts on panels that distances share up to their own cuts
X_CUT/(2d).
`force_sweep` evaluates the reflection once where the distances of a sweep
share nodes, through stores of r1 r2 at starting kappa nodes (`_Rows`):
at tau > 0 one per round of the loop that drives every distance's Matsubara
sum (`_matsubara_sum`), at tau = 0 one for the first xi passes.  Results are
reported in the normalized form F d^3 (F d^3/(hbar Omega) in physical units).
Since |r1 r2| <= 1 for passive materials, every term lies between the
envelopes obtained for r1 r2 = +/-1, which integrate to ideal perfect-mirror
pressures; those envelopes are returned alongside each result, and a result
that leaves them raises ConvergenceError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import ConvergenceError
from .quadrature import geometric_edges, panel_nodes, rowwise_panel_integral, xi_integral
from .reflection import Kinematics, Pol, ReflectionKernel, scratch

__all__ = [
    "QuadratureConfig",
    "ForceResult",
    "matsubara_xi",
    "integrand",
    "force_finite_T",
    "force_sweep",
    "force_zero_T",
    "bound_envelope",
]

X_CUT = 60.0  # e^{-60} is far below any supported tolerance
# Abscissae per reflection-kernel call.  Each call computes in place on this
# thread's `scratch` arrays, sized to the block in hand (whole rows, at most
# _BLOCK points unless one row is longer) and kept for later blocks, passes
# and calls, so the block bounds the pool's buffers; much smaller blocks pay
# numpy's per-call overhead on every one of the kernel's few dozen operations.
_BLOCK = 1 << 15
# First kappa panel width, as a fraction of 1/(2w) for the thickest layer w.
_LAYER_FRACTION = 0.05
# The kappa integral stops at the first panel edge at or past this 2 kappa d.
_KAPPA_REACH = 40.0
# Growth of the coarse starting panels of the tau = 0 xi integral.
_XI_RATIO = 8.0
# Matsubara blocks: the first reaches _GAP_MARGIN times the index where
# e^{-2 xi_n d} falls to rel_tol, later ones double; none exceeds _MAX_BLOCK.
_GAP_MARGIN = 1.2
_MAX_BLOCK = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and node counts for the pressure integrals.

    `kappa_nodes` and `xi_nodes` are the Gauss orders n of the Gauss-Kronrod
    panels of the kappa integral and of the tau = 0 xi integral; each panel
    costs 2n + 1 integrand points (25 and 33 by default).  Both integrals
    start on coarse geometric panels (`_kappa_offsets`, `_xi_breaks`) that the
    engine splits until the tolerance is met.  The kappa order and the two
    growth ratios (4 on the kappa ladder, 8 in xi) come from scans of
    reflection points and time per pressure (the kappa-rule and panel-layout
    entries of CHANGES.md).
    `max_matsubara` is the highest Matsubara index the tau > 0 sum may reach:
    a sum not converged after its max_matsubara + 1 terms (n = 0 ... max)
    raises ConvergenceError.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_matsubara: int = 10**6
    kappa_nodes: int = 12
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
    asymptotics.check_tau(tau)
    if tau == 0.0:
        raise ValueError("tau must be > 0")
    if n < 0 or int(n) != n:
        raise ValueError("n must be a non-negative integer")
    return 2.0 * math.pi * n * tau


def _check_scale(d: float, tau: float) -> None:
    """Raise ConvergenceError where the pressure integrals' raw scale, d^-4
    at tau = 0 and d^-3 at tau > 0, underflows (d > 8.19e76 and 3.56e102):
    they would read 0, and d^3 overflows soon after."""
    power = 3 if tau > 0.0 else 4
    if d > 1.0 and (1.0 / d) ** power < sys.float_info.min:
        raise ConvergenceError(f"pressure integrals underflow: d^-{power} = {(1.0 / d) ** power:.3e} at d={d}")


def _checked_d3(d: float, tau: float) -> float:
    """d^3, after `_check_scale`; raise ConvergenceError where the prefactor
    that turns the integrals into F d^3, d^3 at tau = 0 and 2 tau d^3 at
    tau > 0, falls below the smallest normal float (d < 2.8126e-103 at
    tau = 0), as the tau = 0 integrals would then overflow or their target
    abs_tol pi/d^3 divide by zero, and a tau > 0 sum would need ~1/(tau d)
    terms that each underflow."""
    _check_scale(d, tau)
    d3 = d**3
    prefactor = 2.0 * tau * d3 if tau > 0.0 else d3
    if prefactor < sys.float_info.min:
        raise ConvergenceError(f"pressure prefactor underflows: {prefactor:.3e} at tau={tau}, d={d}")
    return d3


def _damped_terms(kappa, d, gs, outs):
    """Write kappa^2 g e^{-2 kappa d} / (1 - g e^{-2 kappa d}) for each g into
    the matching array of `outs`, as kappa^2 g / (expm1(2 kappa d) + (1 - g)).

    The denominator is a sum of two non-negative terms for g <= 1, so it
    never cancels; where e^{2 kappa d} overflows it is inf, and the term 0,
    its limit.  The factors that depend only on kappa and d are computed
    once for all g, on `scratch` arrays.  A g may be its own out: it is read
    before out is written.
    """
    shape = outs[0].shape
    with scratch:
        grow, k2, den = (scratch.take(shape) for _ in range(3))
        with np.errstate(over="ignore"):
            np.expm1(np.multiply(kappa, 2.0 * d, out=grow), out=grow)
        np.multiply(kappa, kappa, out=k2)
        for g, out in zip(gs, outs):
            np.add(grow, np.subtract(1.0, g, out=den), out=den)
            # fmin skips NaN, as any(den <= 0.0) does
            if den.size and np.fmin.reduce(den, axis=None) <= 0.0:
                raise RuntimeError("internal invariant violated: r1 r2 e^{-2 kappa d} >= 1")
            np.divide(np.multiply(k2, g, out=out), den, out=out)
    return outs


def integrand(stack1, stack2, gap, pol: Pol, d: float, kin: Kinematics):
    """Per-mode contribution kappa^2 r1 r2 e^{-2 kappa d}/(1 - r1 r2 e^{-2 kappa d})."""
    asymptotics.check_distance(d)
    kappa = np.asarray(kin.kappa_gap, dtype=float)
    if np.any(kappa * d <= 0.0):
        raise ValueError("kappa * d must be > 0")
    (te1, tm1), (te2, tm2) = ReflectionKernel((stack1, stack2), gap, kin.xi)(kappa)
    g = tm1 * tm2 if pol is Pol.TM else te1 * te2
    (out,) = _damped_terms(kappa, d, (g,), (np.empty(np.shape(g)),))
    return float(out) if out.ndim == 0 else out


def _thickest_visible(stacks, xi):
    """The thickest layer of `stacks` that a row at frequency xi sees, 0.0 if
    none; an array for an array xi.

    A layer of thickness w enters the reflection only through
    e^{-2 kappa_b w} <= e^{-2 xi w}, as kappa_b >= xi in any passive medium
    whatever the gap, so a row sees the layer while 2 xi w < X_CUT.
    """
    xi = np.asarray(xi, dtype=float)
    w_max = np.zeros(xi.shape)
    for w in (layer.thickness for st in stacks for layer in st.layers):
        w_max = np.maximum(w_max, np.where(2.0 * xi * w < X_CUT, w, 0.0))
    return w_max


def _row_scale(kernel, k_lo) -> float:
    """k_row, the smallest over the kernel's rows of the kappa scale on which
    a row's reflection data varies; 0.0 when a row sits at xi = 0.

    At xi > 0 a medium's decay constant kappa_m = sqrt(kappa^2 + s_m - s_gap)
    starts at sqrt(s_m) > 0 on the row's lower limit k_lo = sqrt(s_gap), so
    it changes on the kappa scale s_m/k_lo = k_lo s_m/s_gap.  A row's scale
    is k_lo min(1, min_m s_m/s_gap) over the sampled media
    (`ReflectionKernel.s_min`: the gap's own s caps the ratio at 1, and a
    perfect mirror's s = +inf never sets it), so a gap denser than a mirror
    shrinks it.  Over a vacuum gap it grows with xi: the lowest row sets it.
    The scale does not depend on d.
    """
    s_gap = kernel.s_gap[:, 0]
    if not s_gap.all():  # a row with s_gap = 0 has k_lo = 0
        return 0.0
    return float((k_lo * (kernel.s_min[:, 0] / s_gap)).min())


def _kappa_offsets(d: float, w_max: float, k_row: float) -> np.ndarray:
    """Starting panel edges of the kappa integral, as offsets from each row's
    lower limit: 0, then values of the ladder 0.05 4^j (j an integer) from
    the first panel's width up to the first at or past 2 kappa d = _KAPPA_REACH.

    Reflection data varies on kappa scales of order the material resonances,
    i.e. of order 1, and on the rows' own scale k_row (`_row_scale`, 0 for a
    block holding xi = 0), so the first panel is at most delta = 0.05 max(1,
    2 k_row) wide, with delta at most 1/(2d) (the scale of e^{-2 kappa d})
    and at least 5e-7/d.  A layer of thickness w contributes e^{-2 kappa_b w},
    which varies on the kappa scale 1/(2w), so with w_max the thickest layer
    that the rows can see (`_thickest_visible`, 0 without one) delta is also
    at most _LAYER_FRACTION/(2 w_max), and again at least 5e-7/d.  The first
    edge is the largest ladder value at or below delta, so it lies in
    (delta/4, delta]; later panels grow by 4, as the integrand decays like
    e^{-2 kappa d}, and the last edge lies in [20/d, 80/d).  Between ideal
    mirrors the part of a row past 2 kappa d = X drops out to (X^2 + 2X +
    2) e^{-X}/2 = 3.6e-15 of the row at X = 40, below the round-off floor of
    at least 100 eps of the row that its 4 or more panels carry.

    Each edge is `math.ldexp(0.05, 2 j)`, exact in binary, so distances share
    every edge that both their layouts reach, bit for bit, whatever their
    first panel and their last, which lets `force_sweep` evaluate the
    reflection once for all of them.
    """
    floor = 5e-7 / d
    delta = min(0.5 / d, max(0.05 * max(1.0, 2.0 * k_row), floor))
    if w_max > 0.0:
        delta = max(min(delta, 0.5 * _LAYER_FRACTION / w_max), floor)
    # the largest j with 0.05 4^j <= delta; the log may be off by one ulp
    j = math.floor(math.log(delta / 0.05, 4.0))
    j += (math.ldexp(0.05, 2 * j + 2) <= delta) - (math.ldexp(0.05, 2 * j) > delta)
    edges = [0.0, math.ldexp(0.05, 2 * j)]
    while 2.0 * edges[-1] * d < _KAPPA_REACH:
        j += 1
        edges.append(math.ldexp(0.05, 2 * j))
    return np.array(edges)


class _Rows:
    """Frequency rows xi, with one `ReflectionKernel`, shared by kappa calls
    at one or more distances.

    A call integrates the rows that its index selects at one distance d: the
    first rows of a Matsubara round (a slice) at tau > 0, a layer group (a
    mask) at tau = 0.  `add` lays it out (`_kappa_offsets` for the thickest
    layer that its lowest row can see and its rows' scale) on the kernel's
    view of those rows (`ReflectionKernel.rows`), which gives their values
    value for value, as every kernel operation is elementwise; `integrals`
    runs the engine, whose callback takes whole rows, at most _BLOCK points
    at a time.  Given a store, a dict {(w_max, lo, hi): (xi, g)} that calls
    on the same starting kappa nodes share (a Matsubara round's, or the
    first xi passes of a tau = 0 sweep), the rows' first `integrals` fills
    it for all their calls (`_fill`), and each call takes its panels'
    entries before its engine runs and copies r1 r2 at its starting nodes
    from them; without one, a call evaluates them itself, as it does the
    panels that the engine splits.  An entry holds, for a layer group (the
    thickest layer w_max that its rows see) and a starting panel (lo, hi),
    the rows xi of the longest call on it, whose first rows are every other
    call's, and r1 r2 for TE and TM there, (2, rows, 2n+1).
    Panel edges are ladder values (`_kappa_offsets`), the same floats at
    every distance, so calls at different distances meet on every panel
    that both their layouts hold.  The nodes are the engine's
    (`panel_nodes`), bit for bit, so no result depends on which other calls
    share the rows or the store.
    """

    def __init__(self, stacks, gap, xi, cfg, store=None):
        self.xi = np.atleast_1d(np.asarray(xi, dtype=float))
        self.kernel = ReflectionKernel(stacks, gap, self.xi[:, None])
        self.k_lo = np.sqrt(self.kernel.s_gap[:, 0])  # each row's kappa_min
        self.cfg = cfg
        self.calls = []  # (d, index, kernel view, k_lo, w_max, offsets)
        self._stacks, self._store = stacks, store
        self._filled = False  # whether the store holds every call's starting values

    def add(self, d, index) -> int:
        """Lay out the kappa call of the rows that `index` selects at distance
        d; returns its number.  A store is filled for the calls added before
        the first `integrals`."""
        kernel, k_lo = self.kernel.rows(index), self.k_lo[index]
        w_max = float(_thickest_visible(self._stacks, self.xi[index].min()))
        offsets = _kappa_offsets(d, w_max, _row_scale(kernel, k_lo))
        self.calls.append((d, index, kernel, k_lo, w_max, offsets))
        return len(self.calls) - 1

    def integrals(self, i):
        """TE and TM kappa integrals and their error of call i, as
        `_pair_integrals`."""
        d, _, kernel, k_lo, w_max, offsets = self.calls[i]
        if self._store is not None and not self._filled:
            self._fill()
        # r1 r2 at the starting nodes, in the first rows of their panels' entries
        starts = None if self._store is None else [self._store[w_max, lo, hi][1] for lo, hi in _panels(offsets)]

        def fvals(kappa):
            nonlocal starts
            out = np.empty((2,) + kappa.shape)
            step = max(1, _BLOCK // kappa.shape[1])
            for r in range(0, len(kappa), step):
                at = slice(r, min(r + step, len(kappa)))
                g = out[:, at]
                if starts:
                    np.concatenate([e[:, at] for e in starts], axis=2, out=g)
                else:
                    with scratch:
                        (te1, tm1), (te2, tm2) = kernel.rows(at).into_scratch(kappa[at])
                        np.multiply(te1, te2, out=g[0])
                        np.multiply(tm1, tm2, out=g[1])
                _damped_terms(kappa[at], d, g, g)
            starts = None
            return out

        cfg = self.cfg
        vals, err, n_eval = rowwise_panel_integral(fvals, k_lo, offsets,
                                                   nodes=cfg.kappa_nodes, rel_tol=0.1 * cfg.rel_tol)
        # never report less than the rounding error of summing a row's points
        err = err + n_eval // len(k_lo) * sys.float_info.epsilon * np.abs(vals).sum(axis=0)
        scale = 1.0 / (2.0 * math.pi)
        return vals[0] * scale, vals[1] * scale, err * scale

    def _fill(self):
        """Give every panel that the calls start on a new store entry: the
        rows that it shares with the old one (`_common_prefix`) are copied,
        and the (row, panel) pairs past them evaluated, in `_BLOCK` chunks
        with one kernel row per pair.  Of the calls' layer groups, the
        entries that no call starts on go first; the other groups' entries
        stay for later distances."""
        self._filled = True
        store, nodes = self._store, self.cfg.kappa_nodes
        longest = {}  # key -> (row numbers, xi) of the longest call on its panel
        # shortest call first, so that the longest call on a panel sets its rows
        for _, index, _, _, w_max, offsets in sorted(self.calls, key=lambda call: len(call[3])):
            at = np.arange(len(self.xi))[index]
            for lo, hi in _panels(offsets):
                longest[w_max, lo, hi] = at, self.xi[at]
        groups = {key[0] for key in longest}
        for key in [key for key in store if key[0] in groups and key not in longest]:
            del store[key]
        todo = []  # (g, row numbers, panel) still to evaluate
        for key, (at, xi) in longest.items():
            prev = store.get(key)
            shared = 0 if prev is None else _common_prefix(xi, prev[0])
            g = np.empty((2, len(xi), 2 * nodes + 1))
            if shared:
                g[:, :shared] = prev[1][:, :shared]
            store[key] = xi, g
            if shared < len(xi):
                todo.append((g[:, shared:], at[shared:], key[1:]))
        if not todo:
            return
        x, _ = panel_nodes(*np.array([panel for *_, panel in todo]).T, nodes)
        pair_rows = np.concatenate([a for _, a, _ in todo])  # in todo order
        ends = np.cumsum([0] + [len(a) for _, a, _ in todo]).tolist()
        step = max(1, _BLOCK // (2 * nodes + 1))
        for c in range(0, len(pair_rows), step):
            chunk = pair_rows[c : c + step]
            # its pieces: the pairs a ... b - 1, a run of the rows of entry j
            pieces = [(j, a, b) for j, (e0, e1) in enumerate(zip(ends, ends[1:]))
                      for a, b in [(max(c, e0), min(c + step, e1))] if a < b]
            with scratch:
                kappa = scratch.take((len(chunk), 2 * nodes + 1))
                for j, a, b in pieces:
                    np.add(self.k_lo[pair_rows[a:b], None], x[j], out=kappa[a - c : b - c])
                (te1, tm1), (te2, tm2) = self.kernel.rows(chunk).into_scratch(kappa)
                for j, a, b in pieces:
                    g, r = todo[j][0][:, a - ends[j] : b - ends[j]], slice(a - c, b - c)
                    np.multiply(te1[r], te2[r], out=g[0])
                    np.multiply(tm1[r], tm2[r], out=g[1])


def _panels(offsets):
    """The (lo, hi) pairs of starting panel edges `offsets`."""
    return zip(offsets[:-1].tolist(), offsets[1:].tolist())


def _common_prefix(a, b) -> int:
    """The number of leading entries on which 1-D arrays a and b agree."""
    m = min(len(a), len(b))
    differ = np.flatnonzero(a[:m] != b[:m])
    return int(differ[0]) if differ.size else m


def _pair_integrals(stack1, stack2, gap, d, xi, cfg):
    """TE and TM kappa-integrals (1/2pi) int kappa^2/D dkappa at each xi.

    Returns (te, tm, err) arrays of shape (len(xi),); err is the summed
    |K - G| of te + tm over the Gauss-Kronrod panels plus a round-off floor,
    N eps (|te| + |tm|) for the N points evaluated per row (same units).
    The floor enters no refinement decision.  The engine integrates in
    kappa itself, from each row's kappa_min to 2 kappa d >= 40; each panel
    costs 2 kappa_nodes + 1 reflection points per row.  The initial panels
    are `_kappa_offsets` for the thickest layer that the lowest row can see
    (a row sees fewer layers as xi grows) and for the smallest row scale
    (`_row_scale`, the lowest row's over a vacuum gap), so the rows share
    one layout, set by the row that needs the finest.  This is one `_Rows`
    call on all the rows, with no store; `force_sweep` shares rows and
    starting nodes between distances.
    """
    rows = _Rows((stack1, stack2), gap, xi, cfg)
    return rows.integrals(rows.add(d, slice(None)))


def _result(te, tm, n_terms_used, est, d, tau) -> ForceResult:
    """The ForceResult of (te, tm); raises ConvergenceError if the pressure
    leaves the ideal-mirror envelopes by more than est + 1e-12 relative."""
    p = te + tm
    lo, hi = bound_envelope(d, tau)
    slack = est + 1e-12 * max(1.0, abs(p))
    if not (lo - slack <= p <= hi + slack):
        raise ConvergenceError(f"bound check failed at d={d}: {p} not in [{lo}, {hi}]")
    return ForceResult(pressure_norm=p, te_part=te, tm_part=tm, n_terms_used=n_terms_used,
                       est_error=est, bound_lo=lo, bound_hi=hi)


def _first_block(tau: float, d: float, rel_tol: float) -> int:
    """Matsubara terms in the first block of a distance's sum.

    The gap factor e^{-2 xi_n d} = e^{-4 pi n tau d} alone ends the sum by
    n = ln(1/rel_tol)/(4 pi tau d); the block reaches _GAP_MARGIN times that,
    plus 3 terms for the stop rule, within [4, _MAX_BLOCK].  A tau d that
    underflows gives _MAX_BLOCK rather than a division by zero.
    """
    reach = -_GAP_MARGIN * math.log(rel_tol)
    step = 4.0 * math.pi * tau * d
    n_gap = reach / step if step > 0.0 and reach < _MAX_BLOCK * step else _MAX_BLOCK
    return min(_MAX_BLOCK, max(4, math.ceil(n_gap) + 3))


def _matsubara_sum(d, tau, cfg):
    """The Matsubara sum at one distance: a generator that yields (n0, rows)
    for its next block of rows n0 ... n0 + rows - 1, is sent that block's
    kappa integrals (te, tm, qerr), one kappa call per block, and returns
    the ForceResult.

    The first block is sized by `_first_block`, so that a sum ended by the
    gap factor takes one call, and later blocks double up to _MAX_BLOCK,
    never past max_matsubara.  A block's terms are read one by one, in
    order, until the running term and a geometric tail estimate drop below
    tolerance, so the block sizes decide how many rows past the stop are
    evaluated; they move the result only through the layout of each block,
    which follows its rows, and so only within round-off of est_error (by at
    most 7.2e-7 est_error on the tests' block schedules).  A block that
    reaches max_matsubara without the stop raises ConvergenceError, as does
    `_checked_d3` at once, where the raw scale d^-3 or the prefactor
    2 tau d^3 of the terms underflows.  So does a block whose last frequency
    2 pi tau n overflows when squared, before it is yielded: the media's
    s = xi^2 eps mu would read inf.
    """
    asymptotics.check_distance(d)
    d3 = _checked_d3(d, tau)
    n0, block = 0, _first_block(tau, d, cfg.rel_tol)
    s_te = s_tm = est = s_abs = 0.0  # s_abs: sum of |term|, bounding the sums' round-off
    prev_mag, fell, tail = None, False, math.inf  # fell: whether the last comparison fell
    while True:
        rows = min(block, cfg.max_matsubara + 1 - n0)
        xi_last = 2.0 * math.pi * tau * (n0 + rows - 1)
        if xi_last * xi_last == math.inf:
            raise ConvergenceError(f"Matsubara frequency xi = {xi_last:.3e} overflows when squared at tau={tau}")
        te, tm, qerr = yield n0, rows
        for n, te_n, tm_n, qerr_n in zip(range(n0, n0 + len(te)),
                                         te.tolist(), tm.tolist(), qerr.tolist()):
            w = 0.5 if n == 0 else 1.0
            factor = 2.0 * tau * w * d3
            term_te = factor * te_n
            term_tm = factor * tm_n
            s_te += term_te
            s_tm += term_tm
            s_abs += abs(term_te) + abs(term_tm)
            est += factor * qerr_n
            mag = abs(term_te + term_tm)
            falls = prev_mag is not None and (mag < prev_mag or mag == prev_mag == 0.0)
            if prev_mag is not None:
                # geometric tail after the last two terms, inf unless they fall
                ratio = mag / prev_mag if prev_mag else 0.0
                tail = mag * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
            thresh = cfg.rel_tol * abs(s_te + s_tm) + cfg.abs_tol
            if fell and falls and mag <= thresh and tail <= thresh:
                # factor 3: early terms may decay slower than the last ratio
                est += 3.0 * tail
                # never report less than the rounding error of summing n + 1 terms
                est += (n + 1) * sys.float_info.epsilon * s_abs
                return _result(s_te, s_tm, n + 1, est, d, tau)
            prev_mag, fell = mag, falls
        n0 += len(te)
        block = min(2 * block, _MAX_BLOCK)
        if n0 > cfg.max_matsubara:
            raise ConvergenceError(
                f"Matsubara sum not converged after {n0} terms "
                f"(last term magnitude {prev_mag:.3e}, tail estimate {tail:.3e})"
            )


def force_sweep(stack1, stack2, gap, distances, tau, cfg: QuadratureConfig | None = None) -> list[ForceResult]:
    """Pressures at temperature tau >= 0 at each of `distances`, in order.

    Each result equals `force_zero_T` or `force_finite_T` at its distance
    bit for bit, whichever other distances are swept with it and in which
    order; the sweep only evaluates the reflection products r1 r2, which
    depend on (xi, kappa) alone, once where distances share their nodes,
    through stores of r1 r2 at the starting kappa nodes of their calls
    (dicts that `_Rows` fills and reads).

    At tau = 0 the distances run one after another, each through
    `force_zero_T`, and one store serves the first xi pass of each: each of
    its kappa calls reuses r1 r2 on the rows and starting panels that it
    shares with the last call of its layer group, so neighbouring distances
    of a sweep grid share most of their first pass.

    At tau > 0 every distance keeps its own Matsubara sum (`_matsubara_sum`:
    block schedule, stop rule, error estimate, Matsubara budget and envelope
    check), but the sums run in one loop over the rows xi_n = 2 pi n tau,
    which are the same at every distance: each round takes the distances
    whose next block starts at the lowest row and lays out their kappa calls
    on one `_Rows`, with a store of its own when it has more than one call
    (no later round starts on the same rows), so that r1 r2 are evaluated
    once at the starting nodes that the distances share: the panels that
    both layouts of a layer group hold, as every edge lies on one ladder
    (`_kappa_offsets`).  A distance's rows, kappa layout, engine target and
    stop rule are its own.

    The sweep raises the error of its first failing distance, in sweep
    order; the distances after it stop when it fails.
    """
    asymptotics.check_tau(tau)
    cfg = cfg or DEFAULT_CONFIG
    if tau == 0.0:
        store = {} if len(distances) > 1 else None
        return [force_zero_T(stack1, stack2, gap, d, cfg, _store=store) for d in distances]
    results, error = [None] * len(distances), None
    sums = {}  # j -> (the sum at distances[j], (n0, rows) of its next block)

    def fail(j, exc):
        # the distances after j can no longer decide which error is raised:
        # they are dropped, so a later failure is at a lower j, and the last
        # error recorded is the first failing distance's
        nonlocal error
        error = exc
        for k in [k for k in sums if k >= j]:
            del sums[k]

    for j, d in enumerate(distances):
        s = _matsubara_sum(d, tau, cfg)
        try:
            sums[j] = s, next(s)
        except (ValueError, RuntimeError) as exc:
            fail(j, exc)
            break
    while sums:
        n0 = min(n for _, (n, _) in sums.values())
        group = {j: m for j, (_, (n, m)) in sums.items() if n == n0}
        ns = np.arange(n0, n0 + max(group.values()))
        rows = _Rows((stack1, stack2), gap, 2.0 * math.pi * tau * ns, cfg,
                     {} if len(group) > 1 else None)
        calls = {j: rows.add(distances[j], slice(m)) for j, m in group.items()}
        for j, call in calls.items():  # ascending j
            s = sums[j][0]
            try:
                sums[j] = s, s.send(rows.integrals(call))
            except StopIteration as done:
                results[j] = done.value
                del sums[j]
            except (ValueError, RuntimeError) as exc:
                fail(j, exc)  # which drops the rest of the round
                break
    if error is not None:
        raise error
    return results


def force_finite_T(stack1, stack2, gap, d, tau, cfg: QuadratureConfig | None = None) -> ForceResult:
    """Pressure at temperature tau > 0: the one-distance case of `force_sweep`.

    The Matsubara sum is truncated once the running term and a geometric
    tail estimate drop below tolerance (`_matsubara_sum`), in blocks of rows
    with one kappa call each, and no store.  A block's kappa layout follows
    the layers that its lowest row can see and its rows' own scale
    (`_row_scale`); the first block holds n = 0, which sees every layer and
    whose scale is 0, so it is laid out by d and the layers alone, and a sum
    that ends in it does not depend on the row scale.  The other coupling between the rows
    of a block is the kappa engine's target, relative to the block's
    largest row, and it acts only where a panel is split; at the default
    tolerance the rows converge on their starting panels almost everywhere.
    """
    if tau == 0.0:
        raise ValueError("tau must be > 0 (use force_zero_T at tau = 0)")
    return force_sweep(stack1, stack2, gap, (d,), tau, cfg)[0]


def _xi_breaks(d: float) -> np.ndarray:
    """Starting panel edges in xi for the tau = 0 integral (`xi_integral` maps
    them): geometric from 0.02 by _XI_RATIO up to xi_cut = X_CUT/(2d), the
    last edge and the integral's upper limit, beyond which every kappa row
    starts at x >= X_CUT; the engine splits as needed."""
    return geometric_edges(0.02, 0.5 * X_CUT / d, _XI_RATIO)


def force_zero_T(stack1, stack2, gap, d, cfg: QuadratureConfig | None = None, *, _store=None) -> ForceResult:
    """Zero-temperature pressure: (1/pi) int_0^xi_cut dxi of the kappa integral.

    The xi integral stops at xi_cut = X_CUT/(2d), the last of `_xi_breaks`;
    `xi_integral` states the ideal-mirror bound on the tail it drops, about
    1e-23 in F d^3 units, which est_error does not include; a d whose
    integrals or prefactor d^3 underflow raises ConvergenceError
    (`_checked_d3`).  Each
    pass of the engine splits its rows by the layers they can see
    (`_thickest_visible`): one kappa call per group, so rows above
    X_CUT/(2w) do not pay for the fine first kappa panel of a layer of
    thickness w; each pass is one `_Rows`, whose calls read their rows from
    its one kernel.  `force_sweep` passes its store, `_store` (a dict that
    `_Rows` fills), to the first pass, whose calls take r1 r2 at their
    starting nodes from it; later passes, this distance's own splits, get
    none.  The result is the same bit for bit.
    """
    asymptotics.check_distance(d)
    d3 = _checked_d3(d, 0.0)
    cfg = cfg or DEFAULT_CONFIG

    def outer(xi):
        nonlocal _store
        rows = _Rows((stack1, stack2), gap, xi, cfg, _store)
        w_max = _thickest_visible((stack1, stack2), xi)
        groups = [(at, rows.add(d, at)) for at in (w_max == w for w in np.unique(w_max))]
        out = np.empty((3, len(xi)))
        for at, i in groups:
            out[:, at] = rows.integrals(i)
        _store = None  # the rows of later passes are this distance's own splits
        return out

    breaks = _xi_breaks(d)
    total, qerr, n_rows = xi_integral(outer, breaks, breaks[-1], nodes=cfg.xi_nodes,
                                      rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol * math.pi / d3,
                                      n_control=2)
    te, tm, inner_err = (total / math.pi * d3).tolist()
    est = qerr / math.pi * d3 + abs(inner_err)
    return _result(te, tm, n_rows, est, d, 0.0)


# At and below this tau d the low-temperature closed form is exact to
# round-off: the terms it drops are ~2 e^{-pi/(2 tau d)} = 8e-35 relative.
_LOW_T = 0.02


def bound_envelope(d: float, tau: float) -> tuple[float, float]:
    """Ideal-mirror envelopes (lo, hi) of the pressure, in F d^3 units.

    hi is the pressure between identical perfect mirrors, lo the (negative)
    pressure between a perfectly conducting and a perfectly permeable one.
    Both are closed forms, independent of the quadrature engine.  For
    tau d <= 0.02, with t = 2 tau d (Brown & Maclay, Phys. Rev. 184, 1272
    (1969)),

        hi = pi^2/(240 d) (1 + t^4/3),   lo = -pi^2/(240 d) (7/8 - t^4/3),

    which tau = 0 turns into the Casimir and Boyer values.  Above, the
    Bose factor is expanded in images, 1/(e^{2 kappa d} - 1) =
    sum_k e^{-2 k kappa d}, and each image sums over the Matsubara
    frequencies xi_n = n h, h = 2 pi tau, as geometric series in
    q = e^{-a h}, a = 2 k d.  With S0 = q/(1-q), S1 = q/(1-q)^2 and
    S2 = q (1+q)/(1-q)^3 the attractive mode sum is

        sum'_n A(xi_n, d) = (1/pi) [zeta(3)/(8 d^3)
                                    + sum_k (h^2/a S2 + 2h/a^2 S1 + 2/a^3 S0)],

    whose images fall as e^{-4 pi k tau d}: the first
    ceil(42/(4 pi tau d)) + 1 of them reach round-off.  The repulsive mode
    sum replaces Li_s(z) by -Li_s(-z) = Li_s(z) - 2^{1-s} Li_s(z^2), and
    z^2 = e^{-2 xi (2d)}, so mode by mode lo = -(A(d) - 2 A(2d)); A at d and
    2d is summed together.  Above 0.02, a d whose raw scale d^-3 underflows
    raises ConvergenceError (`_check_scale`).

    Both branches are functions of u = tau d times 1/d: with a = 2 m d (m = k
    at d, 2k at 2d), h^2 d^3/a = 2 pi^2 u^2/m, 2h d^3/a^2 = pi u/m^2 and
    2 d^3/a^3 = 1/(4 m^3), so nothing overflows inside the guard; the first
    is summed as 2 pi^2 u/m (u S2), so that an image whose S2 vanishes reads
    0 where u^2 would overflow.
    """
    asymptotics.check_distance(d)
    asymptotics.check_tau(tau)
    u = tau * d
    if u <= _LOW_T:
        t4 = (2.0 * u) ** 4 / 3.0
        return (-math.pi**2 / 240.0 * (0.875 - t4) / d, math.pi**2 / 240.0 * (1.0 + t4) / d)
    _check_scale(d, tau)

    m = np.array([[1.0], [2.0]]) * np.arange(1.0, math.ceil(42.0 / (4.0 * math.pi * u)) + 2.0)
    ah = 4.0 * math.pi * u * m  # a h, images at d and at 2d
    q = np.exp(-ah)
    one_q = -np.expm1(-ah)  # 1 - q without cancellation
    s0 = q / one_q
    s1 = s0 / one_q
    s2 = s1 * (1.0 + q) / one_q
    images = (2.0 * math.pi**2 * u / m * (u * s2) + math.pi * u / m**2 * s1 + 0.25 / m**3 * s0).sum(axis=1)
    # d^3 sum'_n A(xi_n, .) at d and at 2d
    att = (asymptotics.ZETA3 / np.array([8.0, 64.0]) + images) / math.pi
    return (-2.0 * u * float(att[0] - 2.0 * att[1]) / d, 2.0 * u * float(att[0]) / d)
