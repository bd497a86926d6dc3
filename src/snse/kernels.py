"""Jump-noise kernels.

A kernel's coefficient factorizes as

    sigma_eps(u, z) = sigma(theta_eps(z) u) * h_eps(z)

where sigma is a Lipschitz state map, theta_eps a scalar modulation with
sup |theta_eps - 1| -> 0, and h_eps an amplitude profile normalized so that
the quadratic variation integral of h_eps^2 against the Levy measure is
exactly 1. Built-in h families:

    annulus       indicator of {eps <= |z| <= 1} / sqrt(mass)
    outer_linear  z / sqrt(second moment over {1 <= |z| <= 1/eps})
    inner_linear  z / sqrt(second moment over {0 < |z| <= eps})

The Levy measure is a power law, so the normalizers, the activity, the
cutoff and the integral of h have closed forms. Each kernel carries one
frozen Gauss-Legendre table over the full h support (24 log-spaced panels of
10 nodes, split further at any support edge of the measure inside it)
holding the density-weighted rule weights and the h and theta values at the
nodes. The table stores the +z half only. The -z half is implied by the
table's parity: theta and the density are even, and h(-z) = parity * h(z)
with parity +1 for the annulus and -1 for the linear families. A kernel
whose theta or h breaks this symmetry on the table's nodes is refused. Every
nu-integral sums the half once and adds the sum to itself (or subtracts it,
for an odd power of an odd h), which has the bits of the two-sign sum in
sign order wherever the powers of h at -z mirror those at +z bit for bit
(h and h^2 always; numpy's SIMD pow need not be exactly odd or even). The
compensator, the certification masses and the jump quadratic variation all
integrate against this table, so the kernel's callables are evaluated there
once. A kernel whose table misses more of the h^2 mass than the fixed qv
budget _QV_BUDGET = 1e-4 is refused.

Every state map declares a scalar gain with sigma(t u) = gain(t, |u|_H) sigma(u).
A nu-integral of sigma(theta(z) u) h(z) therefore needs sigma(u) once and the
table's scalar gain moments sum_z w h^k gain(theta(z), |u|)^k, never sigma at
the nodes.

The inner_linear family has infinite activity. The cutoff applies to path
sampling only: marks are drawn from {delta <= |z| <= eps} with delta chosen
so the discarded share of the quadratic variation equals the same fixed
budget _QV_BUDGET. Every nu-integral, the compensator included, still
spans the full support; for the built-in odd profiles the below-cutoff part
of the compensator cancels by symmetry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleKernelError
from .measures import LevyMeasure, annulus_mass, float_label, moment_mass


# ---------------------------------------------------------------------------
# theta: scalar modulations of the state

@dataclass(frozen=True)
class ThetaKernel:
    family: str
    epsilon: float
    fn: Callable


def build_theta(family: str, epsilon: float) -> ThetaKernel:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if family == "one":
        return ThetaKernel("one", epsilon,
                           lambda z: np.ones_like(np.asarray(z, dtype=np.float64)))
    if family == "cosine":
        return ThetaKernel("cosine", epsilon,
                           lambda z: 1.0 + epsilon * np.cos(np.asarray(z, dtype=np.float64)))
    if family == "gaussian_dip":
        amp = epsilon / math.sqrt(2.0 * math.pi)

        def dip(z):
            z = np.asarray(z, dtype=np.float64)
            return 1.0 - amp * np.exp(-0.5 * (epsilon * z) ** 2)

        return ThetaKernel("gaussian_dip", epsilon, dip)
    raise ValueError(f"unknown theta family {family!r}")


# ---------------------------------------------------------------------------
# h: normalized amplitude profiles

@dataclass(frozen=True)
class HKernel:
    family: str
    epsilon: float
    support: tuple[float, float]   # magnitudes
    scale: float                   # h = profile / scale
    profile: Callable

    def fn(self, z):
        z = np.asarray(z, dtype=np.float64)
        r = np.abs(z)
        inside = (r >= self.support[0]) & (r <= self.support[1])
        return np.where(inside, self.profile(z) / self.scale, 0.0)


def _flat_profile(z):
    return np.ones_like(np.asarray(z, dtype=np.float64))


def _linear_profile(z):
    return np.asarray(z, dtype=np.float64)


def build_h(family: str, epsilon: float, measure: LevyMeasure) -> HKernel:
    """Construct and normalize an amplitude profile for one kernel."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if family == "annulus":
        support = (epsilon, 1.0)
        norm_sq = annulus_mass(measure, *support)
        profile = _flat_profile
    elif family == "outer_linear":
        support = (1.0, 1.0 / epsilon)
        norm_sq = moment_mass(measure, *support, k=2)
        profile = _linear_profile
    elif family == "inner_linear":
        support = (0.0, epsilon)
        norm_sq = moment_mass(measure, *support, k=2)
        profile = _linear_profile
    else:
        raise ValueError(f"unknown h family {family!r}")
    if not np.isfinite(norm_sq) or norm_sq <= 0.0:
        raise InadmissibleKernelError(
            f"h family {family!r} has normalizer {norm_sq!r} on {measure.label()}")
    return HKernel(family, epsilon, support, math.sqrt(norm_sq), profile)


def h_norm_check(h: HKernel, measure: LevyMeasure) -> float:
    """The h^2 integral on a kernel's node rule; 1 up to the rule's error."""
    z, w = _node_rule(h, measure)
    return _h2_mass(w * measure.density(z), h.fn(z))


# ---------------------------------------------------------------------------
# sigma: Lipschitz state maps

@dataclass(frozen=True)
class FieldMap:
    """Named Lipschitz map on coefficient arrays, vectorized over leading axes.

    ball_sup(R) is the exact sup of |map(u)|_H over the H ball of radius R,
    used by the closed-form jump-size bound; it acts elementwise on an array
    of radii. gain(t, r) is the scalar with fn(t u) = gain(t, |u|_H) fn(u)
    for every real t; it broadcasts t against r, and the jump kernel's
    nu-integrals rely on it in place of evaluating fn at every mark. A gain
    may return a fresh array or t itself (the table's read-only theta, for
    the linear maps), so callers never write into it. It has at least t's
    shape, even where it is constant in t: the first gain moment sums the
    gains as returned, and a scalar broadcast along the node axis would sum
    in a different order than a real array.
    """

    name: str
    fn: Callable
    ball_sup: Callable
    gain: Callable


def scaled_identity(c: float = 1.0) -> FieldMap:
    return FieldMap(f"identity:{float_label(c)}",
                    lambda u: c * np.asarray(u, dtype=np.float64),
                    lambda r: abs(c) * r, lambda t, r: t)


def saturating(c: float = 1.0) -> FieldMap:
    def fn(u):
        u = np.asarray(u, dtype=np.float64)
        # what np.linalg.norm(u, axis=-1, keepdims=True) computes for real
        # rows, without its Python-level dispatch
        n = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))
        return c * u / (1.0 + n)

    def gain(t, r):
        # t * (1 + r) / (1 + |t| r) in place: two full-size arrays, not four
        out = t * (1.0 + r)
        den = np.abs(t) * r
        den += 1.0
        out /= den
        return out

    return FieldMap(f"saturating:{float_label(c)}", fn,
                    lambda r: abs(c) * r / (1.0 + r), gain)


def constant_field(coeffs, name: str | None = None) -> FieldMap:
    g = np.asarray(coeffs, dtype=np.float64)
    gnorm = float(np.linalg.norm(g))
    if name is None:
        nz = np.nonzero(g)[0]
        name = "constant:" + ";".join(f"{float_label(g[i])}@{i}"
                                      for i in nz)

    g_ro = g.view()
    g_ro.setflags(write=False)

    def fn(u):
        u = np.asarray(u, dtype=np.float64)
        if u.shape == g.shape:
            return g_ro
        out = np.empty(u.shape)
        out[...] = g
        return out

    return FieldMap(name, fn, lambda r: gnorm,
                    lambda t, r: np.ones_like(t))


def diagonal_map(diag, name: str | None = None) -> FieldMap:
    d = np.asarray(diag, dtype=np.float64)
    top = float(np.max(np.abs(d)))
    return FieldMap(name or "diagonal", lambda u: np.asarray(u, dtype=np.float64) * d,
                    lambda r: top * r, lambda t, r: t)


def zero_map() -> FieldMap:
    return FieldMap("zero", lambda u: np.zeros_like(np.asarray(u, dtype=np.float64)),
                    lambda r: 0.0, lambda t, r: np.ones_like(t))


# ---------------------------------------------------------------------------
# composed jump kernels

_PANELS = 24
_GL_ORDER = 10
_SUP_GRID = 4097   # marks on the +z half of the sup_jump_size grid
_QV_BUDGET = 1e-4  # share of the h^2 mass the cutoff and node table may miss


@dataclass(frozen=True)
class NodeTable:
    """Gauss-Legendre rule over the +z half of the h support, frozen at
    construction.

    The marks z > 0 form the composite rule on log-spaced panels. w is the
    rule weight times the Levy density, h and theta the kernel values at the
    same marks. The -z half is implied: w and theta are even, and h at -z is
    parity * h. Every nu-integral of a kernel reads these arrays instead of
    calling the kernel's callables.
    """

    z: np.ndarray       # (Q,)
    w: np.ndarray       # (Q,)
    h: np.ndarray       # (Q,)
    theta: np.ndarray   # (Q,)
    parity: float       # +1.0 for an even h, -1.0 for an odd one


@dataclass
class JumpKernel:
    """The jump noise at one epsilon: sigma(theta u) h on one Poisson random
    measure."""

    epsilon: float
    sigma: FieldMap
    theta: ThetaKernel
    h: HKernel
    measure: LevyMeasure
    cutoff_delta: float
    sample_range: tuple[float, float]
    activity: float
    h_integral: float
    table: NodeTable

    @property
    def channels(self) -> tuple[JumpKernel]:
        # read-only one-tuple, kept because perfbench/suite.py reads it
        return (self,)


@functools.cache
def _gauss_legendre():
    """The _GL_ORDER-point rule on [-1, 1], built once per process on first
    use, so importing the package does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _node_rule(h: HKernel, measure: LevyMeasure):
    """Marks z > 0 of the composite rule over the h support, and its weights.

    Panels are log-spaced and split at every support edge of the measure
    that lies inside them, so the density is smooth on each panel.
    """
    lo, hi = h.support
    start = max(lo, 1e-14 * hi)
    edges = np.geomspace(start, hi, _PANELS + 1).tolist()
    edges += [e for e in measure.support if start < e < hi]
    edges = np.array(sorted(set(edges)))
    x, w = _gauss_legendre()
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    return nodes, (half * w).ravel()


def _h2_mass(w: np.ndarray, hv: np.ndarray) -> float:
    """sum of w h^2 over both signs, from the +z half."""
    return 2.0 * float(np.sum(w * hv**2))


def _node_table(theta: ThetaKernel, h: HKernel, measure: LevyMeasure,
                parity: float) -> NodeTable:
    z, rule = _node_rule(h, measure)
    rho, hv, tv = measure.density(z), h.fn(z), theta.fn(z)
    # the one-sign sums are exact only if the -z half repeats these bits
    if not (np.array_equal(measure.density(-z), rho)
            and np.array_equal(h.fn(-z), parity * hv)
            and np.array_equal(theta.fn(-z), tv)):
        raise InadmissibleKernelError(
            f"theta {theta.family!r} and h {h.family!r} are not symmetric "
            f"in the mark on {measure.label()}")
    table = NodeTable(z, rule * rho, hv, tv, parity)
    for arr in (table.z, table.w, table.h, table.theta):
        arr.setflags(write=False)
    return table


def _parity(h: HKernel) -> float:
    # h is flat on the annulus and odd elsewhere
    return 1.0 if h.family == "annulus" else -1.0


@functools.lru_cache(maxsize=64)
def _family_parts(family_theta: str, family_h: str, epsilon: float,
                  measure: LevyMeasure):
    """theta, h and the node table of a built-in (theta, h) pair.  They do
    not depend on the state map, so the kernels of one (theta, h, epsilon,
    measure) under several maps share them, the table read-only."""
    theta = build_theta(family_theta, epsilon)
    h = build_h(family_h, epsilon, measure)
    return theta, h, _node_table(theta, h, measure, _parity(h))


def make_kernel(sigma: FieldMap, theta: ThetaKernel, h: HKernel,
                measure: LevyMeasure,
                table: NodeTable | None = None) -> JumpKernel:
    """The kernel sigma(theta u) h on measure at h's epsilon, which theta
    must share (ValueError otherwise); table, when given, must be the node
    table of exactly this theta, h and measure."""
    if theta.epsilon != h.epsilon:
        raise ValueError("theta and h must share one epsilon")
    lo, hi = h.support
    # h^2 rho = c |z|^(power + 2) below eps: the largest delta whose
    # discarded share (delta / eps)^(power + 3) stays within budget
    delta = 0.0 if lo > 0.0 else hi * _QV_BUDGET ** (1.0 / (measure.power + 3.0))
    sample_lo = max(lo, delta)
    activity = annulus_mass(measure, sample_lo, hi)
    if not np.isfinite(activity):
        raise InadmissibleKernelError("sampled support has infinite mass")
    parity = _parity(h)
    if table is None:
        table = _node_table(theta, h, measure, parity)
    # every nu-integral runs on the node table, so it must hold the h^2 mass
    qv = _h2_mass(table.w, table.h)
    if abs(qv - 1.0) > _QV_BUDGET:
        raise InadmissibleKernelError(
            f"node rule holds h^2 mass {qv:.10g} on {measure.label()}, "
            f"off by more than the qv budget {_QV_BUDGET:g}")
    h_integral = activity / h.scale if parity > 0.0 else 0.0
    return JumpKernel(h.epsilon, sigma, theta, h, measure, delta,
                      (sample_lo, hi), activity, h_integral, table)


def build_jump_kernel(base_sigma: FieldMap, family_h: str, family_theta: str,
                      epsilon: float, measure: LevyMeasure) -> JumpKernel:
    theta, h, table = _family_parts(family_theta, family_h, float(epsilon),
                                    measure)
    return make_kernel(base_sigma, theta, h, measure, table)


def eval_sigma_eps(kernel: JumpKernel, coeffs, z):
    """sigma_eps(u, z) for one mark, or row by row for (P, dim) rows and P marks.

    The field is zero where the mark lies off the h support.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(z == 0.0):
        raise ValueError("marks must be nonzero")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    hval = np.asarray(kernel.h.fn(z))[..., None]
    if kernel.theta.family != "one":
        coeffs = np.asarray(kernel.theta.fn(z))[..., None] * coeffs
    return np.where(hval == 0.0, 0.0, kernel.sigma.fn(coeffs) * hval)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b row by row over the last axis, b a vector or rows like a.

    Each row is bit-identical to its one-row product: a (P, n) @ (n,) gemv
    sums in a different order, while a stack of vector products takes the
    dot route for every row.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def node_values(kernel: JumpKernel, coeffs):
    """Table weights w, h and the gains gain(theta(z), |u|_H) on the +z half.

    coeffs may carry leading row axes; the gains have shape (..., Q), so
    sigma(theta(z) u) is gain[..., q] * sigma(u) at node q, and at its
    mirror mark -z as well, since theta is even.
    """
    t = kernel.table
    r = np.linalg.norm(coeffs, axis=-1, keepdims=True)
    g = kernel.sigma.gain(t.theta, r)
    shape = r.shape[:-1] + t.theta.shape
    if np.shape(g) != shape:
        g = np.broadcast_to(g, shape)
    return t.w, t.h, g


def gain_moment(kernel: JumpKernel, coeffs, k: int):
    """sum_z w h^k gain(theta(z), |u|_H)^k over both signs, one value per row.

    With it, the nu-integral of |sigma_eps(u, z)|^k is |sigma(u)|^k times
    this moment (and for k = 1 the integral of sigma_eps itself). The +z
    half is summed once and the -z half is parity^k times that sum, added
    in sign order, so an odd power of an odd profile cancels exactly.
    """
    w, hv, g = node_values(kernel, coeffs)
    half = row_dot(g if k == 1 else g**k, w * hv**k)
    return 0.0 + half + kernel.table.parity**k * half


def compensator_drift(kernel: JumpKernel, coeffs) -> np.ndarray:
    """Mean jump inflow, the integral of sigma_eps(u, z) d(nu).

    Subtracted from the drift so the simulated jumps are compensated. Taken
    over the full h support; the part below any sampling cutoff cancels for
    odd profiles and is part of the absorbed drift otherwise.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    total = np.zeros_like(coeffs)
    if kernel.theta.family != "one":
        total += (kernel.sigma.fn(coeffs)
                  * gain_moment(kernel, coeffs, 1)[..., None])
    elif kernel.h_integral != 0.0:
        total += kernel.h_integral * kernel.sigma.fn(coeffs)
    return total


def sup_jump_size(kernel: JumpKernel, radius: float) -> float:
    """sup over marks and over the H ball of radius M of |sigma_eps(u, z)|_H.

    Exact in the state (via ball_sup), gridded in the mark. The grid includes
    the support endpoints, where the built-in profiles attain their sup.
    """
    lo, hi = kernel.h.support
    z = np.linspace(max(lo, 1e-12 * hi), hi, _SUP_GRID)
    # |h| and |theta| are even, so the +z half holds the sup
    hv = np.abs(np.asarray(kernel.h.fn(z)))
    tv = np.abs(np.asarray(kernel.theta.fn(z)))
    return float((hv * kernel.sigma.ball_sup(tv * radius)).max())
