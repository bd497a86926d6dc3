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
the nodes; each map gives these moments next to its gain: one dot per kernel
and k where the gain is constant in |u|, and for saturating a series of J
terms in x = r / (1 + m r), with r = |u| and m the largest |theta| on the
table, whose coefficients are summed over the nodes once per kernel and k.
J is the least count whose tail bound is at most 2^-60 of the value: for
the built-in families at most 41 on eps 0.2 ... 0.01 and 59 on
0.3 ... 0.99, against 240 nodes.

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
from dataclasses import dataclass, field
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
    the linear maps), so callers never write into it.

    moment(t, a, k) takes node vectors t and a and returns the function
    that maps rows u to the gain moment sum_q a_q gain(t_q, |u|_H)^k, one
    value per row. Where the gain does not depend on |u|_H that is one dot,
    taken once. saturating's is a J-term series in x = r / (1 + m r)
    (_saturating_series), one (rows, J) table and one dot per call; it sums
    a (rows, nodes) array of gains only where J would exceed the node
    count, which no built-in theta does. Each row has the bits of its
    one-row call, and a value may be a read-only broadcast, so callers never
    write into it.
    """

    name: str
    fn: Callable
    ball_sup: Callable
    gain: Callable
    moment: Callable


def _every_row(value):
    """The moment of a gain constant in |u|: value on each row of u."""
    return lambda u: np.broadcast_to(value, np.shape(u)[:-1])


def _linear_moment(t, a, k):
    # gain(t, r) = t
    return _every_row(row_dot(t if k == 1 else t**k, a))


def _flat_moment(t, a, k):
    # gain(t, r) = 1: the weights' sum, as a dot with ones
    return _every_row(row_dot(np.ones_like(t), a))


def _power_in_place(x: np.ndarray, k: int) -> np.ndarray:
    """x^k by products, written into x: x * x * x for k = 3 and
    (x * x) * (x * x) for k = 4.

    numpy's pow may round an element of a long array differently from the
    same element of a short one, so a row would lose the bits of its
    one-row call; products are correctly rounded everywhere.
    """
    if k % 2 == 0:
        _power_in_place(x, k // 2)
        x *= x
    elif k > 1:
        base = x.copy()
        _power_in_place(x, k - 1)
        x *= base
    return x


def _saturating_series(t: np.ndarray, a: np.ndarray, k: int):
    """saturating's gain moment of node vectors t and a as a series: the
    centre m and the J coefficients c_j = C(j + k - 1, k - 1)
    sum_q a_q t_q^k (m - |t_q|)^j, or c None where J would exceed the
    node count.

    m is the largest |t_q| over the nodes with a_q t_q^k != 0, and q =
    1 - min |t_q| / m over the same nodes bounds the ratio (m - |t|) x. J
    is the least count with C(J + k - 1, k - 1) q^J / (1 - q)^k <= 2^-60,
    which bounds the tail past J terms of sum_j C(j + k - 1, k - 1) y^j =
    (1 - y)^-k, relative to its value, for every 0 <= y <= q.
    """
    at = a * _power_in_place(t.copy(), k)
    live = np.abs(t[at != 0.0])
    m = live.max(initial=0.0)
    q = 1.0 - live.min() / m if live.size else 0.0
    n = 1
    while n <= t.size and (math.comb(n + k - 1, k - 1) * q**n
                           > 2.0**-60 * (1.0 - q)**k):
        n += 1
    if n > t.size:
        return m, None
    powers = np.empty((n, t.size))
    powers[0] = at
    powers[1:] = m - np.abs(t)
    np.multiply.accumulate(powers, axis=0, out=powers)
    binom = [math.comb(j + k - 1, k - 1) for j in range(n)]
    return m, np.add.reduce(powers, axis=1) * binom


def scaled_identity(c: float = 1.0) -> FieldMap:
    return FieldMap(f"identity:{float_label(c)}",
                    lambda u: c * np.asarray(u, dtype=np.float64),
                    lambda r: abs(c) * r, lambda t, r: t, _linear_moment)


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

    def moment(t, a, k):
        # centred at m = max |t|: 1 + |t| r = (1 + m r)(1 - (m - |t|) x), so
        # gain^k = t^k s^k sum_j C(j + k - 1, k - 1) ((m - |t|) x)^j with
        # w = 1 / (1 + m r), x = r w and s = (1 + r) w, every term >= 0
        m, c = _saturating_series(t, a, k)
        if c is None:
            # more terms than nodes: sum the nodes' gains
            return lambda u: row_dot(_power_in_place(
                gain(t, np.linalg.norm(u, axis=-1, keepdims=True)), k), a)
        c = np.concatenate((np.zeros(k - 1), c))

        def half(u):
            # rows of s, ..., s, x, ..., x (k times s, J - 1 times x): their
            # running products are s, ..., s^k, s^k x, ..., s^k x^(J-1), and
            # c puts zeros against s, ..., s^(k-1). r is kept as a (..., 1)
            # array, so a (dim,) row is written in place too; r = inf gives
            # x = s = NaN, as the gain does
            r = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))
            terms = np.empty(r.shape[:-1] + c.shape)
            w = m * r
            w += 1.0
            np.divide(1.0, w, out=w)
            r *= w
            terms[..., k:] = r
            w += r   # (1 + r) w
            terms[..., :k] = w
            np.multiply.accumulate(terms, axis=-1, out=terms)
            return row_dot(terms, c)

        return half

    return FieldMap(f"saturating:{float_label(c)}", fn,
                    lambda r: abs(c) * r / (1.0 + r), gain, moment)


def constant_field(coeffs) -> FieldMap:
    g = np.asarray(coeffs, dtype=np.float64)
    gnorm = float(np.linalg.norm(g))
    name = "constant:" + ";".join(f"{float_label(g[i])}@{i}"
                                  for i in np.nonzero(g)[0])

    def fn(u):
        out = np.empty(np.shape(u))
        out[...] = g
        return out

    return FieldMap(name, fn, lambda r: gnorm,
                    lambda t, r: np.ones_like(t), _flat_moment)


def zero_map() -> FieldMap:
    return FieldMap("zero", lambda u: np.zeros_like(np.asarray(u, dtype=np.float64)),
                    lambda r: 0.0, lambda t, r: np.ones_like(t), _flat_moment)


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
    calling the kernel's callables, and so does sup_jump_size, through
    sup_h and sup_theta: |h| and |theta| on its uniform grid of _SUP_GRID
    marks from the support's lower end (at least 1e-12 of the upper) to
    the upper end.
    """

    z: np.ndarray       # (Q,)
    w: np.ndarray       # (Q,)
    h: np.ndarray       # (Q,)
    theta: np.ndarray   # (Q,)
    parity: float       # +1.0 for an even h, -1.0 for an odd one
    sup_h: np.ndarray       # (_SUP_GRID,)
    sup_theta: np.ndarray   # (_SUP_GRID,)


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
    # k -> the +z half of gain moment k as a function of the rows, built on
    # first use by gain_moment
    halves: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
    lo, hi = h.support
    grid = np.linspace(max(lo, 1e-12 * hi), hi, _SUP_GRID)
    table = NodeTable(z, rule * rho, hv, tv, parity,
                      np.abs(np.asarray(h.fn(grid))),
                      np.abs(np.asarray(theta.fn(grid))))
    for arr in (table.z, table.w, table.h, table.theta, table.sup_h,
                table.sup_theta):
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
    mirror mark -z as well, since theta is even. Only jump_l2_diff needs
    gains node by node; every other nu-integral takes gain moments.
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
    half is the state map's moment of the table's theta and a = w h^k: one
    dot where the gain is constant in |u|_H, and for saturating a series
    of J terms in x = r / (1 + m r), m = max |theta|, with J the least
    count whose tail bound C(J + k - 1, k - 1) q^J / (1 - q)^k is at most
    2^-60, q = 1 - min |theta| / m. Under theta = one every gain is exactly
    1, so it is the dot of a with the table's theta, one value for every
    row. The kernel keeps each k's moment function, with its series
    coefficients, after its first call. The -z half
    is parity^k times the +z half, added in sign order, so an odd power of
    an odd profile cancels exactly.
    """
    moment = kernel.halves.get(k)
    if moment is None:
        t = kernel.table
        a = t.w * t.h**k
        moment = kernel.halves[k] = (
            _every_row(row_dot(t.theta, a)) if kernel.theta.family == "one"
            else kernel.sigma.moment(t.theta, a, k))
    half = moment(np.asarray(coeffs, dtype=np.float64))
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

    Exact in the state (via ball_sup), gridded in the mark on the node
    table's sup grid. The grid includes the support endpoints, where the
    built-in profiles attain their sup.
    """
    # |h| and |theta| are even, so the +z half holds the sup
    t = kernel.table
    return float((t.sup_h * kernel.sigma.ball_sup(t.sup_theta * radius)).max())
