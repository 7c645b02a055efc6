"""Quadrature engines: running out of a refinement budget is an error."""

import numpy as np
import pytest

from calmir import ConvergenceError
from calmir.quadrature import adaptive_integral, rowwise_panel_integral


def test_rowwise_budget_raises():
    # sqrt has an endpoint singularity in its derivative: two refinements
    # of a 4-point rule cannot reach 1e-14
    def fvals(x):
        return np.sqrt(x)[..., None]

    with pytest.raises(ConvergenceError):
        rowwise_panel_integral(
            fvals, np.zeros(3), np.array([0.0, 1.0]), nodes=4, rel_tol=1e-14, max_level=2
        )


def test_adaptive_budget_raises():
    def f(x):
        return np.sqrt(x)[:, None]

    with pytest.raises(ConvergenceError):
        adaptive_integral(
            f, np.array([0.0, 1.0]), nodes=4, rel_tol=1e-15, abs_tol=1e-300, max_panels=6
        )
