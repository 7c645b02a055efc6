"""Magnetodielectric response functions on the imaginary frequency axis.

Everything is expressed in dimensionless units: frequencies in units of a
reference frequency Omega (a typical plasma or resonance frequency of the
mirrors), lengths in units of c/Omega.  A lossless oscillator evaluated at
imaginary frequency i*xi contributes

    eps(i xi) = 1 + strength^2 / (resonance^2 + xi^2)

and similarly for mu.  These functions are real, >= 1 and monotonically
non-increasing in xi, which is what the strict pressure bounds rely on.
A zero resonance frequency gives the metallic (Drude-type) response with a
1/xi^2 pole at zero frequency; downstream reflection code evaluates that
limit analytically instead of propagating infinities.

One private evaluator, `_eps_mu`, turns a model into eps and mu on a grid
of frequencies.  `epsilon_i` and `mu_i` validate xi and pick one of the
pair; `response_sample` validates xi once and adds s = xi^2 eps mu in
pole-safe form, which is all the reflection module reads of a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Kind",
    "ResponseModel",
    "VACUUM",
    "PERFECT_ELECTRIC",
    "PERFECT_MAGNETIC",
    "epsilon_i",
    "mu_i",
]


class Kind(Enum):
    LORENTZ_DRUDE = "lorentz_drude"
    VACUUM = "vacuum"
    PERFECT_ELECTRIC = "perfect_electric"
    PERFECT_MAGNETIC = "perfect_magnetic"


_PARAM_NAMES = ("eps_strength", "eps_resonance", "mu_strength", "mu_resonance")


@dataclass(frozen=True)
class ResponseModel:
    """One material's electric and magnetic response.

    Oscillator parameters are in units of the reference frequency.  Ideal
    kinds (vacuum, perfect electric/magnetic mirror) carry no parameters;
    the perfect kinds act as +infinity sentinels for eps or mu.
    """

    kind: Kind = Kind.LORENTZ_DRUDE
    eps_strength: float = 0.0
    eps_resonance: float = 0.0
    mu_strength: float = 0.0
    mu_resonance: float = 0.0

    def __post_init__(self):
        for name in _PARAM_NAMES:
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a real number") from None
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.kind is not Kind.LORENTZ_DRUDE and any(
            getattr(self, name) != 0.0 for name in _PARAM_NAMES
        ):
            raise ValueError("ideal media carry no oscillator parameters")

    @classmethod
    def drude(cls, strength: float) -> "ResponseModel":
        """Non-magnetic metal: eps = 1 + strength^2/xi^2."""
        return cls(eps_strength=strength)

    @classmethod
    def lorentz(
        cls,
        eps_strength: float = 0.0,
        eps_resonance: float = 0.0,
        mu_strength: float = 0.0,
        mu_resonance: float = 0.0,
    ) -> "ResponseModel":
        return cls(
            eps_strength=eps_strength,
            eps_resonance=eps_resonance,
            mu_strength=mu_strength,
            mu_resonance=mu_resonance,
        )

    @property
    def eps_pole(self) -> float:
        """Strength of the 1/xi^2 pole of eps at xi = 0 (0 if regular)."""
        if self.kind is Kind.LORENTZ_DRUDE and self.eps_resonance == 0.0:
            return self.eps_strength**2
        return 0.0

    @property
    def mu_pole(self) -> float:
        if self.kind is Kind.LORENTZ_DRUDE and self.mu_resonance == 0.0:
            return self.mu_strength**2
        return 0.0


VACUUM = ResponseModel(kind=Kind.VACUUM)
PERFECT_ELECTRIC = ResponseModel(kind=Kind.PERFECT_ELECTRIC)
PERFECT_MAGNETIC = ResponseModel(kind=Kind.PERFECT_MAGNETIC)


def _as_freq(xi):
    arr = np.asarray(xi, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("imaginary frequency must be >= 0")
    return arr


def _oscillator(strength, resonance, xi):
    if strength == 0.0:
        return np.ones_like(xi)
    denom = resonance * resonance + xi * xi
    with np.errstate(divide="ignore"):
        return 1.0 + (strength * strength) / denom


def _eps_mu(model: ResponseModel, xi):
    """(eps, mu) of `model` at validated frequencies `xi`: the one place a
    response turns into numbers.  Perfect mirrors carry the +inf sentinel."""
    if model.kind is Kind.LORENTZ_DRUDE:
        return (_oscillator(model.eps_strength, model.eps_resonance, xi),
                _oscillator(model.mu_strength, model.mu_resonance, xi))
    one = np.ones_like(xi)
    if model.kind is Kind.VACUUM:
        return one, one
    inf = np.full_like(xi, np.inf)
    return (inf, one) if model.kind is Kind.PERFECT_ELECTRIC else (one, inf)


def epsilon_i(model: ResponseModel, xi):
    """Permittivity eps(i xi), real and >= 1.

    `xi` may be a scalar or an ndarray.  Perfect electric mirrors return the
    +inf sentinel; Drude-type models return +inf at xi = 0 exactly (callers
    that need the xi -> 0 limit of reflection coefficients should go through
    `stack_reflection`, which evaluates it analytically).
    """
    out = _eps_mu(model, _as_freq(xi))[0]
    return float(out) if np.ndim(xi) == 0 else out


def mu_i(model: ResponseModel, xi):
    """Permeability mu(i xi), real and >= 1.  Mirror image of `epsilon_i`."""
    out = _eps_mu(model, _as_freq(xi))[1]
    return float(out) if np.ndim(xi) == 0 else out


@dataclass(frozen=True)
class ResponseSample:
    """A material evaluated on a grid of imaginary frequencies.

    `s` is xi^2 * eps * mu computed in limit-safe form: for pole-type
    (Drude) responses the xi -> 0 limit is finite and is stored instead of
    the indeterminate 0 * inf.  `eps`/`mu` hold the raw values (inf at the
    pole).  Low-level plumbing for the reflection module.
    """

    kind: Kind
    eps: np.ndarray
    mu: np.ndarray
    s: np.ndarray
    eps_pole: float
    mu_pole: float


def response_sample(model: ResponseModel, xi) -> ResponseSample:
    """eps, mu and s of `model` on the frequencies `xi` (validated once)."""
    arr = _as_freq(xi)
    eps, mu = _eps_mu(model, arr)
    if model.kind in (Kind.PERFECT_ELECTRIC, Kind.PERFECT_MAGNETIC):
        return ResponseSample(model.kind, eps, mu, np.full_like(arr, np.inf), 0.0, 0.0)

    pe, pm = model.eps_pole, model.mu_pole
    # Exact split eps = eps_f + pe/xi^2, mu = mu_f + pm/xi^2 keeps
    # s = xi^2 eps mu finite and correct at xi = 0.
    eps_f = 1.0 if pe > 0.0 else eps
    mu_f = 1.0 if pm > 0.0 else mu
    s = arr * arr * eps_f * mu_f + pe * mu_f + pm * eps_f
    if pe > 0.0 and pm > 0.0:
        with np.errstate(divide="ignore"):
            s = s + (pe * pm) / (arr * arr)
    return ResponseSample(model.kind, eps, mu, s, pe, pm)
