"""Response-function values, invariants, and presets."""

import math
from fractions import Fraction

import numpy as np
import pytest

from calmir import (
    Kind,
    PERFECT_ELECTRIC,
    PERFECT_MAGNETIC,
    ResponseModel,
    VACUUM,
    epsilon_i,
    mu_i,
    preset,
    preset_scenario,
)
from conftest import random_material


def test_epsilon_examples():
    assert epsilon_i(ResponseModel.lorentz(1.0, 1.0), 0.0) == pytest.approx(2.0)
    assert epsilon_i(ResponseModel.drude(1.0), 1.0) == pytest.approx(2.0)
    assert epsilon_i(ResponseModel.lorentz(2.0, 0.3), 1e8) == pytest.approx(1.0)
    assert epsilon_i(PERFECT_ELECTRIC, 0.7) == math.inf
    assert epsilon_i(VACUUM, 0.7) == 1.0
    assert epsilon_i(PERFECT_MAGNETIC, 0.7) == 1.0


def test_mu_examples():
    mag = ResponseModel.lorentz(0.0, 0.0, 0.3, 1.0)
    assert mu_i(mag, 0.0) == pytest.approx(1.09)
    assert mu_i(mag, 1.0) == pytest.approx(1.045)
    assert mu_i(VACUUM, 2.0) == 1.0
    assert mu_i(PERFECT_MAGNETIC, 2.0) == math.inf


def test_drude_pole_at_zero():
    assert epsilon_i(ResponseModel.drude(1.0), 0.0) == math.inf
    arr = epsilon_i(ResponseModel.drude(1.0), np.array([0.0, 1.0]))
    assert arr[0] == math.inf and arr[1] == pytest.approx(2.0)


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        epsilon_i(VACUUM, -0.1)
    with pytest.raises(ValueError):
        mu_i(VACUUM, np.array([0.5, -2.0]))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ResponseModel.lorentz(-1.0, 1.0)
    with pytest.raises(ValueError):
        ResponseModel.lorentz(math.nan, 1.0)
    with pytest.raises(ValueError):
        ResponseModel(kind=Kind.VACUUM, eps_strength=1.0)
    for bad in ("oops", None, [1.0]):
        with pytest.raises(ValueError, match="eps_resonance must be a real number"):
            ResponseModel.lorentz(1.0, bad)


def test_passivity_and_monotonicity_random():
    rng = np.random.default_rng(7)
    xi = np.sort(rng.uniform(0.0, 50.0, 64))
    for _ in range(1000):
        m = random_material(rng)
        e = epsilon_i(m, xi)
        u = mu_i(m, xi)
        assert np.all(e >= 1.0) and np.all(u >= 1.0)
        assert np.all(np.diff(e) <= 1e-15)
        assert np.all(np.diff(u) <= 1e-15)


def test_matches_rational_arithmetic():
    # evaluate the oscillator in exact rational arithmetic at rational inputs
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 20)))
        r = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 20)))
        x = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 20)))
        if r == 0 and x == 0:
            continue
        exact = 1 + s * s / (r * r + x * x)
        m = ResponseModel.lorentz(float(s), float(r))
        got = epsilon_i(m, float(x))
        assert got == pytest.approx(float(exact), rel=4e-16, abs=0.0)


def test_preset_parameter_sets():
    m1, m2, gap = preset("fig1a")
    assert m1.substrate == ResponseModel.drude(1.0)
    assert m1 == m2 and gap == VACUUM

    m1, m2, gap = preset("fig1d")
    assert m1.substrate == ResponseModel.lorentz(3.0, 1.0)
    assert m2.substrate == ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)
    assert not m1.layers and not m2.layers

    m1, m2, _ = preset("fig1c")
    assert m1.substrate == ResponseModel.drude(3.0)
    assert m2.substrate == ResponseModel.drude(3.0)
    assert len(m2.layers) == 1
    lay = m2.layers[0]
    assert lay.thickness == pytest.approx(20.0 * math.pi)
    assert lay.material == ResponseModel.lorentz(0.1, 1.0, 0.3, 1.0)

    # mismatch family: fixed resonance, strength from the static permittivity
    for name, eps0 in (("fig3a", 1.0), ("fig3b", 1.01), ("fig3c", 1.03), ("fig3d", 1.1)):
        _, m2, _ = preset(name)
        assert epsilon_i(m2.substrate, 0.0) == pytest.approx(eps0)
        assert mu_i(m2.substrate, 0.0) == pytest.approx(1.09)
    assert preset("fig3b") == preset("fig1d")


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_scenario("fig9z")


def _reference_eps_mu(model, xi):
    """eps and mu written out per kind, independently of the library."""
    def osc(strength, resonance):
        if strength == 0.0:
            return np.ones_like(xi)
        with np.errstate(divide="ignore"):
            return 1.0 + (strength * strength) / (resonance * resonance + xi * xi)

    if model.kind is Kind.LORENTZ_DRUDE:
        return osc(model.eps_strength, model.eps_resonance), osc(model.mu_strength, model.mu_resonance)
    eps = np.full_like(xi, np.inf) if model.kind is Kind.PERFECT_ELECTRIC else np.ones_like(xi)
    mu = np.full_like(xi, np.inf) if model.kind is Kind.PERFECT_MAGNETIC else np.ones_like(xi)
    return eps, mu


def _reference_s(model, xi, eps, mu):
    """s = xi^2 eps mu with each 1/xi^2 pole split off, so it stays finite at
    xi = 0 unless both eps and mu have a pole."""
    if model.kind in (Kind.PERFECT_ELECTRIC, Kind.PERFECT_MAGNETIC):
        return np.full_like(xi, np.inf)
    pe, pm = model.eps_pole, model.mu_pole
    eps_f = np.ones_like(xi) if pe > 0.0 else eps
    mu_f = np.ones_like(xi) if pm > 0.0 else mu
    s = xi * xi * eps_f * mu_f + pe * mu_f + pm * eps_f
    if pe > 0.0 and pm > 0.0:
        with np.errstate(divide="ignore"):
            s = s + (pe * pm) / (xi * xi)
    return s


@pytest.mark.parametrize("model", [
    VACUUM,
    PERFECT_ELECTRIC,
    PERFECT_MAGNETIC,
    ResponseModel.drude(1.0),
    ResponseModel.lorentz(2.0, 0.0, 0.5, 0.0),  # doubly metallic: poles in eps and mu
    ResponseModel.lorentz(0.1, 1.0, 0.3, 0.0),  # magnetic pole only
    ResponseModel.lorentz(3.0, 1.0, 0.3, 1.0),
], ids=lambda m: f"{m.kind.value}-{m.eps_strength}-{m.eps_resonance}-{m.mu_strength}-{m.mu_resonance}")
def test_one_evaluator_for_eps_mu_and_s(model):
    # epsilon_i, mu_i and response_sample all read one evaluator and agree
    # bit for bit with the formulas, at xi = 0 (poles) and on a grid
    from calmir.materials import response_sample

    xi = np.array([0.0, 1e-300, 1e-3, 0.3, 1.0, 7.0, 1e150])
    eps, mu = _reference_eps_mu(model, xi)
    s = _reference_s(model, xi, eps, mu)
    smp = response_sample(model, xi)
    for got, want in ((epsilon_i(model, xi), eps), (mu_i(model, xi), mu),
                      (smp.eps, eps), (smp.mu, mu), (smp.s, s)):
        np.testing.assert_array_equal(got, want, strict=True)
    assert smp.kind is model.kind
    assert (smp.eps_pole, smp.mu_pole) == ((model.eps_pole, model.mu_pole)
                                           if model.kind is Kind.LORENTZ_DRUDE else (0.0, 0.0))
    for k, x in enumerate(xi):
        assert epsilon_i(model, float(x)) == eps[k] and mu_i(model, float(x)) == mu[k]
        assert float(response_sample(model, float(x)).s) == s[k]
    with pytest.raises(ValueError):
        response_sample(model, np.array([0.5, math.nan]))
