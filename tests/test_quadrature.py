"""Quadrature engine: the Gauss-Kronrod rule, the row axis, and running out of
the panel budget is an error."""

import numpy as np
import pytest

from calmir import ConvergenceError
from calmir.quadrature import _BATCH, adaptive_integral, kronrod_rule, rowwise_panel_integral, xi_integral


def test_rowwise_budget_raises():
    # seeded noise never settles under refinement, so the panel budget runs out
    rng = np.random.default_rng(7)

    def fvals(x):
        return rng.standard_normal(x.shape)[None]

    with pytest.raises(ConvergenceError, match="panels"):
        rowwise_panel_integral(fvals, np.zeros(3), np.array([0.0, 1.0]), nodes=4, rel_tol=1e-8)


def test_adaptive_budget_raises():
    def f(x):
        return np.sqrt(x)[None]

    with pytest.raises(ConvergenceError):
        adaptive_integral(
            f, np.array([0.0, 1.0]), nodes=4, rel_tol=1e-15, abs_tol=1e-300, max_panels=6
        )


def test_split_only_the_panel_that_misses():
    # |x - 2.5| is linear on every starting panel but [2, 3], whose halves are
    # linear too: one split of that panel meets the target, so the first
    # refinement evaluates 2 (2n + 1) points on each of the R rows
    x_lo = np.zeros(3)
    scale = np.array([1.0, 2.0, 5.0])
    nodes, calls = 6, []

    def fvals(x):
        calls.append(x.size)
        return np.stack([scale[:, None] * np.abs(x - 2.5), x * x])

    total, err, n_eval = rowwise_panel_integral(fvals, x_lo, np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                                                nodes=nodes, rel_tol=1e-10)
    first = 4 * (2 * nodes + 1) * len(x_lo)
    assert calls == [first, 2 * (2 * nodes + 1) * len(x_lo)]
    assert n_eval == sum(calls)
    assert np.allclose(total, [scale * 4.25, np.full(3, 64.0 / 3.0)], rtol=1e-13, atol=0.0)


def test_every_panel_missing_splits_a_full_batch():
    # seeded noise misses the target on every panel, so no fewer than
    # _BATCH splits can meet it: each pass splits _BATCH panels until the
    # budget runs out
    rng = np.random.default_rng(11)
    nodes, calls = 4, []

    def f(x):
        calls.append(x.size)
        return rng.standard_normal((1, 2, x.size))

    with pytest.raises(ConvergenceError, match="60 panels"):
        adaptive_integral(f, np.linspace(0.0, 1.0, 13), nodes=nodes, rel_tol=1e-8, abs_tol=0.0,
                          max_panels=60)
    assert calls == [12 * (2 * nodes + 1)] + [2 * _BATCH * (2 * nodes + 1)] * 6


@pytest.mark.parametrize("n", [4, 6, 16, 24, 64])
def test_kronrod_rule(n):
    x, w = kronrod_rule(n)
    xg, wg = np.polynomial.legendre.leggauss(n)
    assert x.shape == (2 * n + 1,) and w.shape == (2 * n + 1, 2)
    assert np.all(np.diff(x) > 0.0)
    # the Gauss nodes sit at the odd indices, carrying the Gauss weights
    assert np.max(np.abs(x[1::2] - xg)) <= 1e-14
    assert np.array_equal(w[1::2, 1], wg) and not np.any(w[::2, 1])
    assert np.all(w[:, 0] > 0.0)
    assert abs(w[:, 0].sum() - 2.0) <= 1e-14
    # the Kronrod rule integrates every Legendre polynomial up to degree 3n+1
    for k in range(1, 3 * n + 2):
        pk = np.polynomial.legendre.Legendre.basis(k)(x)
        assert abs(pk @ w[:, 0]) <= 1e-14, k


@pytest.mark.parametrize(
    "f, exact",
    [
        (lambda x: np.exp(-x), lambda lo, hi: np.exp(-lo) - np.exp(-hi)),
        # a narrow peak at x = 5 inside some rows' ranges; arctan2 gives the
        # difference of the two arctans without cancellation
        (
            lambda x: 1.0 / ((x - 5.0) ** 2 + 1e-4),
            lambda lo, hi: np.arctan2(100.0 * (hi - lo), 1.0 + 1e4 * (lo - 5.0) * (hi - 5.0)) * 100.0,
        ),
    ],
    ids=["exp", "lorentz"],
)
def test_row_axis_matches_closed_form(f, exact):
    # row r integrates f over [x_lo[r], x_lo[r] + 60]
    x_lo = np.array([0.0, 0.5, 3.0, 20.0])
    offsets = np.array([0.0, 1.0, 4.0, 16.0, 60.0])
    calls = []

    def fvals(x):
        calls.append(x.size)
        return np.stack([f(x), 2.0 * f(x)])

    total, err, n_eval = rowwise_panel_integral(fvals, x_lo, offsets, nodes=6, rel_tol=1e-10)
    want = exact(x_lo, x_lo + 60.0)
    assert total.shape == (2, 4)
    assert err.shape == (4,)
    # the engine counts every (abscissa, row) point it handed the callback
    assert n_eval == sum(calls)
    # the estimate must bound the actual error also after panels were split
    assert len(calls) > 1
    actual = np.abs(total.sum(axis=0) - 3.0 * want)
    assert np.all(actual <= err)
    assert np.all(err <= 1e-10 * 3.0 * want.max())


def test_xi_integral_on_known_integrals():
    # rows: int_0^inf e^{-a xi} dxi = 1/a for several a, and int_0^inf (1 + xi)^-2 dxi = 1
    a = np.array([0.5, 1.0, 4.0, 20.0])
    want = np.append(1.0 / a, 1.0)

    def f(xi):
        return np.concatenate([np.exp(-np.outer(a, xi)), (1.0 + xi[None, :]) ** -2])[None]

    rel_tol = 1e-10
    total, err, n_eval = xi_integral(f, [0.1, 1.0, 10.0], nodes=8, rel_tol=rel_tol, abs_tol=1e-300)
    assert total.shape == (1, 5) and err.shape == (5,)
    assert n_eval > 4 * 17 * 5  # some panel was split
    assert np.all(err <= rel_tol * want.max())
    assert np.all(np.abs(total[0] - want) <= rel_tol * want)
