"""Reflection coefficients of layered mirrors at imaginary frequencies.

For an evanescent wave in the gap with decay constant kappa, the decay
constant inside a medium follows from conservation of the transverse
wavevector:

    kappa_medium^2 = kappa^2 + (eps*mu - eps0*mu0) * xi^2

(gap response eps0, mu0).  With a vacuum gap this is the familiar radicand
xi^2 (eps mu - 1) + kappa^2.  The TM single-interface coefficient from
medium a onto medium b is

    r_TM = (eps_b kappa_a - eps_a kappa_b) / (eps_b kappa_a + eps_a kappa_b)

and r_TE is the same with eps <-> mu.  A finite layer b of thickness w on a
substrate c composes through the Moebius map

    r_abc = (r_ab + r_bc e^{-2 kappa_b w}) / (1 + r_ab r_bc e^{-2 kappa_b w})

which maps [-1, 1] onto itself, so multilayer coefficients of passive media
stay within [-1, 1].

One kernel, `ReflectionKernel`, evaluates all of this: it samples each
distinct medium (gap included) once per xi grid and computes each medium's
decay constant once per call; every interface yields TE and TM from one
pair of decay constants, and each layer's e^{-2 kappa_b w} serves both.
eps, mu and s = xi^2 eps mu come from `materials.response_sample` for a
`ResponseModel` and from `_given_medium` for a raw (eps, mu) pair; every
decay constant is `_decay(kappa^2, s - s_gap)` of such samples.

The kernel computes in place, on work arrays from `scratch`, a per-thread
stack of flat float buffers.  Each depth of the stack is grown to the
largest block ever taken there and kept for the life of its thread, so a
kappa integral that calls the kernel block after block, pass after pass,
allocates no block-sized array once warm, and the OS need not zero fresh
pages for every block; arrays that are dead before the next is taken share
a depth, so the pool holds no more buffers than are live at once.
`ReflectionKernel.into_scratch` hands its coefficients out as such arrays,
valid until the caller's `with scratch:` frame exits; `__call__`,
`stack_reflection`, `fresnel` and `kappa_in_medium` return arrays the
caller owns.  Threads never share a buffer.

Sign convention: a perfectly conducting substrate gives r_TM = +1 and
r_TE = -1.  Only products of coefficients from the two mirrors enter the
pressure, so results do not depend on this choice.

Metallic (Drude-type) responses diverge like 1/xi^2 at zero frequency; at
xi = 0 the coefficients below are evaluated as the analytic xi -> 0+ limit
of the lossless model, e.g. r_TE -> (kappa - sqrt(kappa^2 + W)) /
(kappa + sqrt(kappa^2 + W)) with W the pole strength, which is finite and
nonzero.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UnsupportedConfigurationError
from .materials import Kind, ResponseModel, ResponseSample, response_sample

__all__ = [
    "Pol",
    "Layer",
    "MirrorStack",
    "Kinematics",
    "ReflectionKernel",
    "kappa_in_medium",
    "fresnel",
    "stack_reflection",
]

_CLAMP_SLACK = 1e-12


class Pol(Enum):
    TE = "TE"
    TM = "TM"


@dataclass(frozen=True)
class Layer:
    """A finite layer: material plus thickness in units of c/Omega."""

    material: ResponseModel
    thickness: float

    def __post_init__(self):
        t = float(self.thickness)
        if not math.isfinite(t) or t <= 0.0:
            raise ValueError("layer thickness must be finite and > 0")
        object.__setattr__(self, "thickness", t)


@dataclass(frozen=True)
class MirrorStack:
    """Ordered finite layers (gap side first) over a semi-infinite substrate."""

    layers: tuple[Layer, ...]
    substrate: ResponseModel

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    @classmethod
    def homogeneous(cls, material: ResponseModel) -> "MirrorStack":
        return cls(layers=(), substrate=material)


@dataclass(frozen=True)
class Kinematics:
    """Imaginary frequency xi and gap decay constant kappa_gap.

    Scalars or broadcastable arrays.  Valid points satisfy
    kappa_gap^2 >= xi^2 eps0 mu0 so the transverse wavevector is real.
    """

    xi: object
    kappa_gap: object


class _Scratch(threading.local):
    """This thread's work arrays, handed out as a stack.

    `take(shape)` returns a view of the next depth's flat buffer, shaped to
    the block in hand; a depth's buffer only ever grows, to the largest
    array taken there.  `with scratch:` opens a frame: every depth taken
    inside it is free again when it exits.  Contents are garbage until
    written.
    """

    def __init__(self):
        self._flat = []  # one buffer per depth
        self._depth = 0
        self._frames = []

    def __enter__(self):
        self._frames.append(self._depth)

    def __exit__(self, *exc):
        self._depth = self._frames.pop()

    def take(self, shape):
        i = self._depth
        self._depth = i + 1
        size = math.prod(shape)
        if i == len(self._flat):
            self._flat.append(np.empty(size))
        elif self._flat[i].size < size:
            self._flat[i] = np.empty(size)
        return self._flat[i][:size].reshape(shape)


scratch = _Scratch()


def _decay(kappa_sq, excess, out=None):
    """sqrt(kappa^2 + excess), the decay constant in a medium whose s = xi^2 eps mu
    exceeds the gap's by `excess`; a perfect mirror's excess is +inf, and so is
    its decay constant.  Written into `out` when given.

    Negative radicands down to -1e-12 are round-off and clamp to zero.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(kappa_sq), np.shape(excess)))
    rad = np.add(kappa_sq, excess, out=out)
    # the minimum is NaN if any radicand is, as from a perfect gap
    if rad.size and not rad.min() >= -1e-12:
        raise ValueError("negative radicand: kinematics violate kappa >= xi*sqrt(eps0*mu0)")
    np.maximum(rad, 0.0, out=rad)
    return np.sqrt(rad, out=rad)


def _clamp_reflection(r):
    """Clip r to [-1, 1] in place; raises if it leaves by more than round-off."""
    if r.size == 0:
        return r
    lo, hi = r.min(), r.max()
    if not (lo >= -1.0 - _CLAMP_SLACK and hi <= 1.0 + _CLAMP_SLACK):  # also catches NaN
        raise RuntimeError("reflection coefficient left [-1, 1] beyond round-off")
    if lo < -1.0 or hi > 1.0:
        np.clip(r, -1.0, 1.0, out=r)
    return r


# r_TM of a perfect mirror seen from a transparent medium; r_TE is its negative
_IDEAL_TM = {Kind.PERFECT_ELECTRIC: 1.0, Kind.PERFECT_MAGNETIC: -1.0}


def _ideal_interface(sa: ResponseSample, sb: ResponseSample):
    """(r_TE, r_TM), constants, when medium a or b is a perfect mirror, else None."""
    ra, rb = _IDEAL_TM.get(sa.kind), _IDEAL_TM.get(sb.kind)
    if ra is None and rb is None:
        return None
    if ra is not None and rb is not None:
        if ra != rb:
            raise UnsupportedConfigurationError(
                "interface between perfect electric and perfect magnetic media"
            )
        return 0.0, 0.0
    r_tm = rb if ra is None else -ra
    return -r_tm, r_tm


def _static_interface(sa, sb, fa, fb, pa, pb, ka, kb):
    """xi = 0 limit of one polarization's interface coefficient for pole-type
    responses; (f, p) are the response and its pole strength (eps for TM,
    mu for TE)."""
    double_a = sa.eps_pole > 0.0 and sa.mu_pole > 0.0
    double_b = sb.eps_pole > 0.0 and sb.mu_pole > 0.0
    # (B - A)/(B + A) with B = f_b * kappa_a, A = f_a * kappa_b; each factor
    # may carry a power of 1/xi (2 from a response pole, 1 from a doubly
    # metallic kappa), and the higher total power wins outright.
    deg_b = (2 if pb > 0.0 else 0) + (1 if double_a else 0)
    deg_a = (2 if pa > 0.0 else 0) + (1 if double_b else 0)
    if deg_b != deg_a:
        return 1.0 if deg_b > deg_a else -1.0
    coef_b = (pb if pb > 0.0 else fb) * (math.sqrt(sa.eps_pole * sa.mu_pole) if double_a else ka)
    coef_a = (pa if pa > 0.0 else fa) * (math.sqrt(sb.eps_pole * sb.mu_pole) if double_b else kb)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (coef_b - coef_a) / (coef_b + coef_a)


def _interface(sa: ResponseSample, sb: ResponseSample, ka, kb, static, out):
    """Write (r_TE, r_TM) from medium a onto medium b, neither a perfect mirror,
    into the pair of arrays `out`, given their decay constants; `static` marks
    the xi = 0 points."""
    shape = out[0].shape
    with scratch:
        big_b, big_a = scratch.take(shape), scratch.take(shape)
        for r, (fa, fb, pa, pb) in zip(out, (
            (sa.mu, sb.mu, sa.mu_pole, sb.mu_pole),
            (sa.eps, sb.eps, sa.eps_pole, sb.eps_pole),
        )):
            with np.errstate(invalid="ignore", over="ignore"):
                np.multiply(fb, ka, out=big_b)
                np.multiply(fa, kb, out=big_a)
                np.subtract(big_b, big_a, out=r)
                np.add(big_b, big_a, out=big_b)
                np.divide(r, big_b, out=r)
            if (pa > 0.0 or pb > 0.0) and np.any(static):
                at = np.broadcast_to(static, shape)
                fa_s, fb_s, ka_s, kb_s = (np.broadcast_to(v, shape)[at] for v in (fa, fb, ka, kb))
                r[at] = _static_interface(sa, sb, fa_s, fb_s, pa, pb, ka_s, kb_s)
            _clamp_reflection(r)
    return out


class ReflectionKernel:
    """TE and TM coefficients of mirror stacks facing one gap, on one xi grid.

    Media shared between stacks are matched by equality and sampled once.
    Calling the kernel with gap decay constants broadcastable against `xi`
    returns one (r_TE, r_TM) pair per stack, evaluated substrate outward.
    `s_gap` is the gap's s = xi^2 eps mu on the grid, and `s_min` the
    smallest s of any sampled medium (the gap's included, so s_min <= s_gap;
    a perfect mirror's s = +inf never is the smallest).  A gap whose eps and
    mu both carry zero-frequency poles, s_gap ~ 1/xi^2, raises
    UnsupportedConfigurationError on any grid, at T = 0 as at tau > 0.
    """

    def __init__(self, stacks, gap: ResponseModel, xi):
        xi = np.asarray(xi, dtype=float)
        unique = list(dict.fromkeys(stacks))
        self._slot = [unique.index(st) for st in stacks]
        chains = [(gap, *(lay.material for lay in st.layers), st.substrate) for st in unique]
        media = list(dict.fromkeys(m for chain in chains for m in chain))
        self._chains = [
            ([media.index(m) for m in chain], tuple(lay.thickness for lay in st.layers))
            for chain, st in zip(chains, unique)
        ]
        self._samples = [response_sample(m, xi) for m in media]
        self.s_gap = self._samples[0].s
        if self._samples[0].eps_pole > 0.0 and self._samples[0].mu_pole > 0.0:
            raise UnsupportedConfigurationError(
                "gap medium with a doubly metallic response has no propagation band"
            )
        self.s_min = np.minimum.reduce([smp.s for smp in self._samples])
        self._excess = [smp.s - self.s_gap for smp in self._samples]
        self._static = xi == 0.0

    def rows(self, index):
        """The kernel of the rows of this one's xi grid (an array of rows) that
        `index` selects: a slice or row numbers.  It is built from this
        kernel's response samples, not new ones, and its coefficients equal
        those of the selected rows, value for value."""
        view = copy.copy(self)
        view._samples = [ResponseSample(smp.kind, smp.eps[index], smp.mu[index], smp.s[index],
                                        smp.eps_pole, smp.mu_pole) for smp in self._samples]
        view.s_gap, view.s_min, view._static = self.s_gap[index], self.s_min[index], self._static[index]
        view._excess = [e[index] for e in self._excess]
        return view

    def __call__(self, kappa):
        with scratch:
            return [[r.copy() for r in pair] for pair in self.into_scratch(kappa)]

    def into_scratch(self, kappa):
        """As a call, but the pairs are `scratch` arrays taken in the caller's
        frame: valid until that frame exits, and free to overwrite."""
        samples, static = self._samples, self._static
        shape = np.broadcast_shapes(np.shape(kappa), np.shape(self.s_gap))
        out = [(scratch.take(shape), scratch.take(shape)) for _ in self._chains]
        with scratch:
            # kappa^2 until every decay constant is taken, then each layer's e^{-2 kappa_b w}
            damp = np.multiply(kappa, kappa, out=scratch.take(shape))
            kap = [_decay(damp, e, scratch.take(shape)) for e in self._excess]

            def interface(a, b, pair):
                ideal = _ideal_interface(samples[a], samples[b])
                if ideal is None:
                    return _interface(samples[a], samples[b], kap[a], kap[b], static, pair)
                for r, value in zip(pair, ideal):
                    r.fill(value)
                return pair

            for (chain, widths), r in zip(self._chains, out):
                n = len(widths)
                interface(chain[n], chain[n + 1], r)
                for j in range(n - 1, -1, -1):
                    with np.errstate(over="ignore"):
                        np.multiply(-2.0, kap[chain[j + 1]], out=damp)
                        np.multiply(damp, widths[j], out=damp)
                        np.exp(damp, out=damp)
                    with scratch:
                        r_ab = interface(chain[j], chain[j + 1], (scratch.take(shape), scratch.take(shape)))
                        num, den = scratch.take(shape), scratch.take(shape)
                        # Moebius step: layer j + 1 over the part below, seen from medium j
                        for r_ab_p, r_p in zip(r_ab, r):
                            np.multiply(r_p, damp, out=num)
                            np.add(r_ab_p, num, out=num)
                            np.multiply(r_ab_p, r_p, out=den)
                            np.multiply(den, damp, out=den)
                            np.add(1.0, den, out=den)
                            _clamp_reflection(np.divide(num, den, out=r_p))
        return [out[i] for i in self._slot]


def stack_reflection(stack: MirrorStack, gap: ResponseModel, pol: Pol, kin: Kinematics):
    """Multilayer reflection coefficient of `stack` seen from the gap."""
    kernel = ReflectionKernel((stack,), gap, kin.xi)
    r_te, r_tm = kernel(np.asarray(kin.kappa_gap, dtype=float))[0]
    out = r_tm if pol is Pol.TM else r_te
    return float(out) if np.ndim(kin.xi) == 0 and np.ndim(kin.kappa_gap) == 0 else out


def _given_medium(medium, xi) -> ResponseSample:
    """Pole-free sample of a medium given as an (eps, mu) pair; an infinite
    eps or mu anywhere marks a perfect mirror, whose s is +inf."""
    eps, mu = (np.asarray(v, dtype=float) for v in medium)
    kind = (Kind.PERFECT_ELECTRIC if np.any(np.isinf(eps))
            else Kind.PERFECT_MAGNETIC if np.any(np.isinf(mu)) else Kind.LORENTZ_DRUDE)
    with np.errstate(invalid="ignore"):
        s = np.where(np.isinf(eps * mu), np.inf, xi * xi * eps * mu)
    return ResponseSample(kind, eps, mu, s, 0.0, 0.0)


def kappa_in_medium(eps, mu, kin: Kinematics, gap_eps=1.0, gap_mu=1.0):
    """Decay constant inside a medium of response (eps, mu).

    Infinite eps or mu is treated as a perfect-mirror sentinel (result inf).
    For pole-type responses at xi = 0 use `stack_reflection`, which evaluates
    the limit analytically.
    """
    xi = np.asarray(kin.xi, dtype=float)
    kap = np.asarray(kin.kappa_gap, dtype=float)
    excess = _given_medium((eps, mu), xi).s - _given_medium((gap_eps, gap_mu), xi).s
    out = _decay(kap * kap, excess)
    return float(out) if out.ndim == 0 else out


def fresnel(pol: Pol, medium_a, medium_b, kin: Kinematics, gap=None):
    """Single-interface coefficient between media given as (eps, mu) pairs.

    The wave is incident from medium a onto medium b; decay constants are
    taken relative to `gap` (a pair, defaulting to medium a, which makes the
    vacuum-gap case the textbook formula).  Perfect mirrors enter as inf
    sentinels; an interface between a perfect electric and a perfect
    magnetic medium is rejected.
    """
    xi = np.asarray(kin.xi, dtype=float)
    sa, sb = _given_medium(medium_a, xi), _given_medium(medium_b, xi)
    ideal = _ideal_interface(sa, sb)
    if ideal is not None:
        shape = np.broadcast_shapes(xi.shape, np.shape(kin.kappa_gap), sa.eps.shape, sb.eps.shape)
        out = np.full(shape, ideal[pol is Pol.TM])
    else:
        s_gap = (sa if gap is None else _given_medium(gap, xi)).s
        kap = np.asarray(kin.kappa_gap, dtype=float)
        ka, kb = _decay(kap * kap, sa.s - s_gap), _decay(kap * kap, sb.s - s_gap)
        shape = np.broadcast_shapes(ka.shape, kb.shape,
                                    *(np.shape(v) for v in (sa.eps, sa.mu, sb.eps, sb.mu)))
        out = _interface(sa, sb, ka, kb, False, (np.empty(shape), np.empty(shape)))[pol is Pol.TM]
    return float(out) if out.ndim == 0 else out
