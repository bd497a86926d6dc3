"""Jump-noise kernels.

A channel's coefficient factorizes as

    sigma_eps(u, z) = sigma(theta_eps(z) u) * h_eps(z)

where sigma is a Lipschitz state map, theta_eps a scalar modulation with
sup |theta_eps - 1| -> 0, and h_eps an amplitude profile normalized so that
the quadratic variation integral of h_eps^2 against the Levy measure is
exactly 1. Built-in h families:

    annulus       indicator of {eps <= |z| <= 1} / sqrt(mass)
    outer_linear  z / sqrt(second moment over {1 <= |z| <= 1/eps})
    inner_linear  z / sqrt(second moment over {0 < |z| <= eps})

The inner_linear family has infinite activity; simulation truncates marks to
{delta <= |z| <= eps} with delta chosen so the discarded share of the
quadratic variation stays below a configured budget (default 1e-4). The
compensator is still taken over the full support; for the built-in odd
profiles the below-cutoff part cancels by symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleKernelError
from .measures import (
    LevyMeasure, annulus_mass, moment_mass, power_primitive, radial_integral,
)

H_FAMILIES = ("annulus", "outer_linear", "inner_linear", "custom")
THETA_FAMILIES = ("one", "cosine", "gaussian_dip", "custom")


# ---------------------------------------------------------------------------
# theta: scalar modulations of the state

@dataclass(frozen=True)
class ThetaKernel:
    family: str
    epsilon: float
    fn: Callable
    sup_dev: float   # sup_z |theta(z) - 1|
    sup_abs: float   # sup_z |theta(z)|


def build_theta(family: str, epsilon: float, fn: Callable | None = None,
                sup_dev: float | None = None) -> ThetaKernel:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if family == "one":
        return ThetaKernel("one", epsilon,
                           lambda z: np.ones_like(np.asarray(z, dtype=np.float64)),
                           0.0, 1.0)
    if family == "cosine":
        return ThetaKernel("cosine", epsilon,
                           lambda z: 1.0 + epsilon * np.cos(np.asarray(z, dtype=np.float64)),
                           epsilon, 1.0 + epsilon)
    if family == "gaussian_dip":
        amp = epsilon / math.sqrt(2.0 * math.pi)

        def dip(z):
            z = np.asarray(z, dtype=np.float64)
            return 1.0 - amp * np.exp(-0.5 * (epsilon * z) ** 2)

        return ThetaKernel("gaussian_dip", epsilon, dip, amp, 1.0)
    if family == "custom":
        if fn is None or sup_dev is None:
            raise ValueError("custom theta needs fn and sup_dev")
        return ThetaKernel("custom", epsilon, fn, sup_dev, 1.0 + sup_dev)
    raise ValueError(f"unknown theta family {family!r}")


# ---------------------------------------------------------------------------
# h: normalized amplitude profiles

@dataclass(frozen=True)
class HKernel:
    family: str
    epsilon: float
    support: tuple[float, float]   # magnitudes
    scale: float                   # h = profile / scale
    sup_abs: float
    profile: Callable
    odd: bool

    def fn(self, z):
        z = np.asarray(z, dtype=np.float64)
        r = np.abs(z)
        inside = (r >= self.support[0]) & (r <= self.support[1])
        return np.where(inside, self.profile(z) / self.scale, 0.0)


def _flat_profile(z):
    return np.ones_like(np.asarray(z, dtype=np.float64))


def _linear_profile(z):
    return np.asarray(z, dtype=np.float64)


def build_h(family: str, epsilon: float, measure: LevyMeasure,
            profile: Callable | None = None,
            support: tuple[float, float] | None = None) -> HKernel:
    """Construct and normalize an amplitude profile for one channel."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if family == "annulus":
        support = (epsilon, 1.0)
        norm_sq = annulus_mass(measure, *support)
        profile, odd = _flat_profile, False
        sup_profile = 1.0
    elif family == "outer_linear":
        support = (1.0, 1.0 / epsilon)
        norm_sq = moment_mass(measure, *support, k=2)
        profile, odd = _linear_profile, True
        sup_profile = support[1]
    elif family == "inner_linear":
        support = (0.0, epsilon)
        norm_sq = moment_mass(measure, *support, k=2)
        profile, odd = _linear_profile, True
        sup_profile = support[1]
    elif family == "custom":
        if profile is None or support is None:
            raise ValueError("custom h needs profile and support")
        norm_sq = radial_integral(measure, lambda z: profile(z) ** 2, *support)
        grid = np.linspace(max(support[0], 1e-12), support[1], 4097)
        sup_profile = float(max(np.max(np.abs(profile(grid))),
                                np.max(np.abs(profile(-grid)))))
        odd = False
    else:
        raise ValueError(f"unknown h family {family!r}")
    if not np.isfinite(norm_sq) or norm_sq <= 0.0:
        raise InadmissibleKernelError(
            f"h family {family!r} has normalizer {norm_sq!r} on {measure.label()}")
    scale = math.sqrt(norm_sq)
    return HKernel(family, epsilon, support, scale, sup_profile / scale,
                   profile, odd)


def h_norm_check(h: HKernel, measure: LevyMeasure) -> float:
    """Quadrature value of the h^2 integral; must be 1 to 1e-8."""
    return radial_integral(measure, lambda z: float(h.fn(z)) ** 2, *h.support)


# ---------------------------------------------------------------------------
# sigma: Lipschitz state maps

@dataclass(frozen=True)
class FieldMap:
    """Named Lipschitz map on coefficient arrays, vectorized over leading axes.

    ball_sup(R) is the exact sup of |map(u)|_H over the H ball of radius R,
    used by the closed-form jump-size bound.
    """

    name: str
    fn: Callable
    lipschitz: float
    maps_v: bool
    ball_sup: Callable


def scaled_identity(c: float = 1.0) -> FieldMap:
    return FieldMap(f"identity:{c:g}",
                    lambda u: c * np.asarray(u, dtype=np.float64),
                    abs(c), True, lambda r: abs(c) * r)


def saturating(c: float = 1.0) -> FieldMap:
    def fn(u):
        u = np.asarray(u, dtype=np.float64)
        n = np.linalg.norm(u, axis=-1, keepdims=True)
        return c * u / (1.0 + n)

    return FieldMap(f"saturating:{c:g}", fn, abs(c), True,
                    lambda r: abs(c) * r / (1.0 + r))


def constant_field(coeffs, name: str | None = None) -> FieldMap:
    g = np.asarray(coeffs, dtype=np.float64)
    gnorm = float(np.linalg.norm(g))
    if name is None:
        nz = np.nonzero(g)[0]
        name = "constant:" + ";".join(f"{g[i]:g}@{i}" for i in nz)

    g_ro = g.view()
    g_ro.setflags(write=False)

    def fn(u):
        u = np.asarray(u, dtype=np.float64)
        if u.shape == g.shape:
            return g_ro
        return np.broadcast_to(g, u.shape).copy()

    return FieldMap(name, fn, 0.0, True, lambda r: gnorm)


def diagonal_map(diag, name: str | None = None) -> FieldMap:
    d = np.asarray(diag, dtype=np.float64)
    top = float(np.max(np.abs(d)))
    return FieldMap(name or "diagonal", lambda u: np.asarray(u, dtype=np.float64) * d,
                    top, True, lambda r: top * r)


def zero_map() -> FieldMap:
    return FieldMap("zero", lambda u: np.zeros_like(np.asarray(u, dtype=np.float64)),
                    0.0, True, lambda r: 0.0)


# ---------------------------------------------------------------------------
# composed jump channels

_PANELS = 24
_GL_ORDER = 10


@dataclass
class JumpChannel:
    sigma: FieldMap
    theta: ThetaKernel
    h: HKernel
    measure: LevyMeasure
    cutoff_delta: float
    sample_range: tuple[float, float]
    activity: float
    h_integral: float
    discarded_qv_fraction: float
    p_negative: float
    nodes: np.ndarray
    node_weights: np.ndarray


def _gl_nodes(lo: float, hi: float):
    """Composite Gauss-Legendre rule over [lo, hi], log-spaced panels."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.geomspace(lo, hi, _PANELS + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _auto_cutoff(h: HKernel, measure: LevyMeasure, budget: float) -> float:
    """Largest delta whose discarded h^2 mass stays within budget."""
    lo, hi = h.support
    if measure.power is not None:
        expo = measure.power + 3.0
        return hi * budget ** (1.0 / expo)
    target = budget
    a, b = 1e-12 * hi, hi

    def discarded(d):
        return radial_integral(measure, lambda z: float(h.fn(z)) ** 2, lo, d)

    for _ in range(80):
        mid = math.sqrt(a * b)
        if discarded(mid) > target:
            b = mid
        else:
            a = mid
    return a


def make_channel(sigma: FieldMap, theta: ThetaKernel, h: HKernel,
                 measure: LevyMeasure, cutoff_delta="auto",
                 qv_budget: float = 1e-4) -> JumpChannel:
    lo, hi = h.support
    if lo > 0.0:
        delta = 0.0
    elif cutoff_delta == "auto" or cutoff_delta is None:
        delta = _auto_cutoff(h, measure, qv_budget)
    else:
        delta = float(cutoff_delta)
        if not 0.0 < delta < hi:
            raise ValueError("cutoff_delta must lie inside the h support")
    sample_lo = max(lo, delta)
    activity = annulus_mass(measure, sample_lo, hi)
    if not np.isfinite(activity):
        raise InadmissibleKernelError("sampled support has infinite mass")
    if delta > 0.0:
        if measure.power is not None:
            discarded = (2.0 * power_primitive(measure.power + 2, lo, delta)
                         / h.scale**2)
        else:
            discarded = radial_integral(measure, lambda z: float(h.fn(z)) ** 2,
                                        lo, delta)
        if discarded > qv_budget * 1.0001:
            raise InadmissibleKernelError(
                f"cutoff {delta:g} discards qv fraction {discarded:.3e}")
    else:
        discarded = 0.0
    h_integral = radial_integral(measure, lambda z: float(h.fn(z)), lo, hi)
    if measure.power is not None:
        p_neg = 0.5
    else:
        pos = radial_integral(measure, lambda z: 1.0 if z > 0 else 0.0,
                              sample_lo, hi)
        p_neg = 1.0 - pos / activity
    node_lo = sample_lo if sample_lo > 0.0 else max(lo, 1e-9 * hi)
    nodes, weights = _gl_nodes(node_lo, hi)
    return JumpChannel(sigma, theta, h, measure, delta, (sample_lo, hi),
                       activity, h_integral, discarded, p_neg, nodes, weights)


@dataclass
class JumpKernel:
    epsilon: float
    channels: tuple[JumpChannel, ...]


def build_jump_kernel(base_sigma: FieldMap, family_h: str, family_theta: str,
                      epsilon: float, measure: LevyMeasure, channels: int = 1,
                      cutoff_delta="auto", qv_budget: float = 1e-4) -> JumpKernel:
    theta = build_theta(family_theta, epsilon)
    h = build_h(family_h, epsilon, measure)
    chan = tuple(make_channel(base_sigma, theta, h, measure, cutoff_delta,
                              qv_budget)
                 for _ in range(channels))
    return JumpKernel(epsilon, chan)


def cert_nodes(channel: JumpChannel) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes spanning the full h support, sampling cutoff ignored.

    The cutoff delta only trims what the path sampler must realize;
    analytical checks integrate the kernel as defined. Channels without a
    cutoff reuse their simulation nodes.
    """
    lo, hi = channel.h.support
    full_lo = max(lo, 1e-14 * hi)
    if channel.sample_range[0] <= full_lo:
        return channel.nodes, channel.node_weights
    return _gl_nodes(full_lo, hi)


def eval_sigma_eps(channel: JumpChannel, coeffs, z):
    """sigma_eps(u, z) for one mark, or row by row for (P, dim) rows and P marks.

    The field is zero where the mark lies off the h support.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(z == 0.0):
        raise ValueError("marks must be nonzero")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    hval = np.asarray(channel.h.fn(z))[..., None]
    if channel.theta.family != "one":
        coeffs = np.asarray(channel.theta.fn(z))[..., None] * coeffs
    return np.where(hval == 0.0, 0.0, channel.sigma.fn(coeffs) * hval)


def compensator_drift(kernel: JumpKernel, coeffs) -> np.ndarray:
    """Mean jump inflow sum_channels integral of sigma_eps(u, z) d(nu).

    Subtracted from the drift so the simulated jumps are compensated. Taken
    over the full h support; the part below any sampling cutoff cancels for
    odd profiles and is part of the absorbed drift otherwise.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    total = np.zeros_like(coeffs)
    for ch in kernel.channels:
        if ch.theta.family == "one":
            if ch.h_integral != 0.0:
                total += ch.h_integral * ch.sigma.fn(coeffs)
            continue
        rho = ch.measure.density
        for q0 in range(0, ch.nodes.size, 32):
            z = ch.nodes[q0:q0 + 32]
            w = ch.node_weights[q0:q0 + 32]
            for sgn in (1.0, -1.0):
                zz = sgn * z
                hv = np.asarray(ch.h.fn(zz))
                tv = np.asarray(ch.theta.fn(zz))
                scaled = tv[:, None] * coeffs[..., None, :]
                vals = ch.sigma.fn(scaled)
                wq = w * np.asarray(rho(zz)) * hv
                total += np.einsum("q,...qn->...n", wq, vals)
    return total


def sup_jump_size(channel: JumpChannel, radius: float, z_grid: int = 4097) -> float:
    """sup over marks and over the H ball of radius M of |sigma_eps(u, z)|_H.

    Exact in the state (via ball_sup), gridded in the mark. The grid includes
    the support endpoints, where the built-in profiles attain their sup.
    """
    lo, hi = channel.h.support
    r = np.linspace(max(lo, 1e-12 * hi), hi, z_grid)
    best = 0.0
    for sgn in (1.0, -1.0):
        z = sgn * r
        hv = np.abs(np.asarray(channel.h.fn(z)))
        tv = np.abs(np.asarray(channel.theta.fn(z)))
        vals = hv * np.array([channel.sigma.ball_sup(t * radius) for t in tv])
        best = max(best, float(vals.max()))
    return best
