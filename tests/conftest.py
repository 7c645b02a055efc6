"""Shared helpers: random scenario generators and an independent oracle."""

import math

import numpy as np
import pytest

from calmir import (
    Kinematics,
    Layer,
    MirrorStack,
    Pol,
    QuadratureConfig,
    ResponseModel,
    stack_reflection,
)


def random_material(rng, lo=0.05, hi=5.0, magnetic=True) -> ResponseModel:
    """Random passive oscillator with parameters in [lo, hi]."""
    es, er = rng.uniform(lo, hi, 2)
    if magnetic and rng.random() < 0.5:
        ms, mr = rng.uniform(lo, hi, 2)
    else:
        ms, mr = 0.0, 0.0
    return ResponseModel.lorentz(es, er, ms, mr)


def random_stack(rng, max_layers=4) -> MirrorStack:
    n = int(rng.integers(0, max_layers + 1))
    layers = tuple(
        Layer(random_material(rng), float(np.exp(rng.uniform(np.log(0.05), np.log(50.0)))))
        for _ in range(n)
    )
    return MirrorStack(layers, random_material(rng))


@pytest.fixture
def loose_cfg():
    """Fast settings for statistical property sweeps."""
    return QuadratureConfig(rel_tol=1e-5, abs_tol=1e-12, kappa_nodes=24, xi_nodes=10)


def trapezoid_force(stack1, stack2, gap, d, tau, *, nx=20001, x_cut=45.0, nxi=1501):
    """Dense-grid trapezoid evaluation of the pressure, F d^3 units.

    Deliberately naive: uniform grids and plain trapezoid sums, sharing no
    quadrature machinery with the production path.
    """
    from calmir.materials import response_sample

    def kappa_integral(xi):
        s0 = float(response_sample(gap, np.asarray(xi)).s)
        x0 = 2.0 * d * math.sqrt(s0)
        x = np.linspace(x0 + 1e-9, x0 + x_cut, nx)
        kap = x / (2.0 * d)
        # one xi, broadcast over kappa: the media are sampled once per row
        kin = Kinematics(xi=np.full(1, xi), kappa_gap=kap)
        total = np.zeros_like(kap)
        for pol in (Pol.TE, Pol.TM):
            g = stack_reflection(stack1, gap, pol, kin) * stack_reflection(
                stack2, gap, pol, kin
            )
            e = np.exp(-x)
            total += kap**2 * g * e / (1.0 - g * e)
        return np.trapezoid(total, x) / (2.0 * math.pi * 2.0 * d)

    if tau > 0.0:
        acc = 0.5 * kappa_integral(0.0)
        n = 1
        while True:
            term = kappa_integral(2.0 * math.pi * n * tau)
            acc += term
            if abs(term) < 1e-12 * max(abs(acc), 1e-30) and n > 2:
                break
            n += 1
            if n > 200000:
                raise RuntimeError("oracle Matsubara sum too long")
        return 2.0 * tau * acc * d**3

    u = np.linspace(1e-7, 1.0 - 1e-7, nxi)
    xi = u / (1.0 - u)
    vals = np.array([kappa_integral(x) for x in xi]) / (1.0 - u) ** 2
    return np.trapezoid(vals, u) / math.pi * d**3
