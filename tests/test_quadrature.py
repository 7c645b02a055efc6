"""Quadrature engine: the row axis, and running out of the panel budget is an error."""

import numpy as np
import pytest

from calmir import ConvergenceError
from calmir.quadrature import adaptive_integral, rowwise_panel_integral


def test_rowwise_budget_raises():
    # seeded noise never settles under refinement, so the panel budget runs out
    rng = np.random.default_rng(7)

    def fvals(x):
        return rng.standard_normal(x.shape)[..., None]

    with pytest.raises(ConvergenceError, match="panels"):
        rowwise_panel_integral(fvals, np.zeros(3), np.array([0.0, 1.0]), nodes=4, rel_tol=1e-8)


def test_adaptive_budget_raises():
    def f(x):
        return np.sqrt(x)[:, None]

    with pytest.raises(ConvergenceError):
        adaptive_integral(
            f, np.array([0.0, 1.0]), nodes=4, rel_tol=1e-15, abs_tol=1e-300, max_panels=6
        )


def test_row_axis_matches_closed_form():
    # row r integrates e^{-x} over [x_lo[r], x_lo[r] + 60]
    x_lo = np.array([0.0, 0.5, 3.0, 20.0])
    offsets = np.array([0.0, 1.0, 4.0, 16.0, 60.0])

    def fvals(x):
        return np.stack([np.exp(-x), 2.0 * np.exp(-x)], axis=-1)

    total, err = rowwise_panel_integral(fvals, x_lo, offsets, nodes=6, rel_tol=1e-10)
    exact = np.exp(-x_lo) - np.exp(-(x_lo + 60.0))
    assert total.shape == (4, 2)
    assert err.shape == (4,)
    actual = np.abs(total.sum(axis=1) - 3.0 * exact)
    assert np.all(actual <= err)
    assert np.all(err <= 1e-10 * 3.0 * exact.max())
