"""Trilinear convection form and Galerkin nonlinear term.

The convection form is

    b(u, v, w) = <(u . grad) v, w>

with the normalized inner product of `basis`. Products are evaluated
pseudo-spectrally on the collocation grid, whose size is chosen so that
quadrature of the cubic integrand is exact for fields inside the truncation
(no dealiasing error, only round-off).

The Galerkin nonlinear term B(u) is the projection of (u . grad) u onto the
basis, so (B(u), w) = b(u, u, w) for every basis field w and (B(u), u) = 0.
It is computed in stress-divergence form. Since div u = 0,
(u . grad) u = div(u (x) u), and integrating by parts against a mode gives

    B_l = -<u (x) u, grad e_l>.

Split u (x) u into its traceless part D = [[a, b], [b, -a]], with
a = (u_x^2 - u_y^2) / 2 and b = u_x u_y, plus the isotropic part
|u|^2 / 2 * I. The isotropic part pairs with grad e_l to give
-<|u|^2 / 2, div e_l> = 0, because every mode is divergence free. As a
complex number, D = a + i b = w^2 / 2 with w = u_x + i u_y.

The sum over the grid runs on one point of each +-x pair. Under x -> -x
every cos mode is even and every sin mode odd, and the even-M grid maps
onto itself, with H = M^2 / 2 + 2 orbits: the pairs and the 4 fixed
points, where every odd function is 0. Let E and O be w of the cos part
and of the sin part of u on the H representatives, so w(+-x) = E +- O and

    D(x) - D(-x) = 2 E O,    D(x) + D(-x) = E^2 + O^2.

The gradients of cos modes are odd, so B_cos pairs with the difference;
those of sin modes are even, so B_sin pairs with the sum, at weight 1/2 at
the fixed points, where O = 0. The 2 and the 1/2 sit in the projection
table. So B(u) is one stacked gemm that synthesizes E and O, one complex
product and two squares, and one stacked gemm that projects E O onto the
cos modes and E^2 + O^2 onto the sin modes: each gemm has half the flops
of its full-grid form. Every integrand above is a trigonometric polynomial
of degree at most 3 n_max in each variable, which the grid integrates
exactly. The identities therefore hold on the grid, and the advective and
stress forms agree to round-off. `bilinear_b_batch` keeps the advective
form, since it evaluates b(u, v, w) for three different fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec

_TENSOR_TOL = 1e-12   # coupling entries at or below this are dropped as zero
_B_BATCH = 2000       # random triples per verify_b_estimates batch
# nonlinear_term_batch takes (P, dim) rows in blocks of this many, which
# bounds a call's grid buffer to a few MB.  Worker runs take every gemm at
# one BLAS thread; serial ones (one chunk, n_max <= 2, or no thread setter
# found) at the default count, and OpenBLAS splits a gemm this wide well
# across two threads (a 128-row call runs slower on two than on one)
_B_ROWS = 512


def _synth(basis: BasisSpec, coeffs: np.ndarray) -> np.ndarray:
    """Grid values for a coefficient array (..., dim) -> (..., M, M, 2)."""
    c = np.asarray(coeffs, dtype=np.float64)
    out = c @ basis.synthesis_matrix()
    return out.reshape(c.shape[:-1] + (basis.m_grid, basis.m_grid, 2))


def bilinear_b_batch(basis: BasisSpec, cu, cv, cw) -> np.ndarray:
    """b(u, v, w) for coefficient batches of shape (..., dim)."""
    cu, cv = np.broadcast_arrays(
        np.asarray(cu, dtype=np.float64), np.asarray(cv, dtype=np.float64)
    )
    # one synthesis gemm for u, dv/dx, dv/dy beats three separate calls
    trio = np.stack((cu, basis.deriv_coeffs(cv, 0), basis.deriv_coeffs(cv, 1)))
    ug, adv, dv1 = _synth(basis, trio)
    adv *= ug[..., 0:1]
    dv1 *= ug[..., 1:2]
    adv += dv1
    wg = _synth(basis, cw)
    return np.einsum("...xyc,...xyc->...", adv, wg) / basis.m_grid**2


@lru_cache(maxsize=8)
def _half_grid_tables(basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """Synthesis (2, dim/2, 2H) and projection (2, 2H, dim/2) tables on the
    H representatives of the +-x pairs of the grid.

    Index 0 holds the cos modes and index 1 the sin modes, in basis order.
    Synthesis columns interleave the (x, y) values at each representative;
    projection rows interleave the (a, b) weights, which are
    -(d_x e_x - d_y e_y, d_x e_y + d_y e_x) / M^2 times 2 for a cos mode
    and times 1/2 at the 4 fixed points for a sin mode.  The odd functions
    (sin modes and the gradients of cos modes) are set to exact zeros at
    the fixed points.
    """
    m, h = basis.m_grid, basis.dim // 2
    j = np.arange(m)
    flat = j[:, None] * m + j
    mirror = (-j % m)[:, None] * m + (-j % m)
    keep = flat <= mirror
    fixed = flat[keep] == mirror[keep]
    vals = basis.mode_values().reshape(basis.dim, m * m, 2)[:, flat[keep]]
    p = basis.partner
    # d/dx_a e_l = deriv_factor[a, partner(l)] * e_partner(l)
    dx = basis.deriv_factor[0, p][:, None, None] * vals[p]
    dy = basis.deriv_factor[1, p][:, None, None] * vals[p]
    g = np.stack((dx[..., 0] - dy[..., 1], dx[..., 1] + dy[..., 0]), axis=-1)
    g *= -1.0 / m**2
    vals[1::2, fixed] = 0.0
    g[0::2, fixed] = 0.0
    g[0::2] *= 2.0
    g[1::2, fixed] *= 0.5
    synth = np.stack((vals[0::2], vals[1::2])).reshape(2, h, -1)
    proj = np.stack((g[0::2], g[1::2])).reshape(2, h, -1).transpose(0, 2, 1)
    return synth, np.ascontiguousarray(proj)


def nonlinear_term_batch(basis: BasisSpec, coeffs) -> np.ndarray:
    """Galerkin projection of (u . grad) u for a coefficient batch.

    Stress-divergence form on the half grid (see the module docstring):
    synthesize the cos and sin parts of u, form E O and E^2 + O^2, project
    with the cached gradient tables.  A (P, dim) batch goes through in runs
    of at most _B_ROWS rows.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 2 or coeffs.shape[0] <= _B_ROWS:
        return _stress_divergence(basis, coeffs)
    out = np.empty_like(coeffs)
    for lo in range(0, coeffs.shape[0], _B_ROWS):
        out[lo:lo + _B_ROWS] = _stress_divergence(basis,
                                                  coeffs[lo:lo + _B_ROWS])
    return out


def _stress_divergence(basis: BasisSpec, coeffs: np.ndarray) -> np.ndarray:
    synth, proj = _half_grid_tables(basis)
    h = basis.dim // 2
    c = coeffs.reshape(-1, h, 2)   # cos at even indices, sin at odd ones
    # buf[1] and buf[2] take the cos and sin fields E and O, as complex
    # x + i y on the representatives; then buf[0] takes E O and buf[1]
    # E^2 + O^2, the two inputs of the projection
    buf = np.empty((3, c.shape[0], synth.shape[2]))
    np.matmul(c.transpose(2, 0, 1), synth, out=buf[1:])
    z = buf.view(np.complex128)
    even, odd = z[1], z[2]
    np.multiply(even, odd, out=z[0])
    even *= even
    odd *= odd
    even += odd
    out = np.empty(coeffs.shape)
    np.matmul(buf[:2], proj, out=out.reshape(-1, h, 2).transpose(2, 0, 1))
    return out


@dataclass
class CouplingTensor:
    """Sparse table of b(e_i, e_j, e_l) over all basis triples."""

    n_max: int
    dim: int
    i: np.ndarray
    j: np.ndarray
    l: np.ndarray
    vals: np.ndarray

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """B(u) from the tensor: B_l = sum_ij T[i,j,l] c_i c_j."""
        w = self.vals * coeffs[self.i] * coeffs[self.j]
        return np.bincount(self.l, weights=w, minlength=self.dim)


def coupling_tensor(basis: BasisSpec) -> CouplingTensor:
    """All nonzero entries b(e_i, e_j, e_l), computed mode pair by mode pair.

    Cost grows like dim^3; callers guard n_max (the CLI caps dumps at 8).
    """
    vals_grid = basis.mode_values()  # (dim, M, M, 2)
    smat = basis.synthesis_matrix()
    m2 = basis.m_grid**2
    out_i, out_j, out_l, out_v = [], [], [], []
    for j in range(basis.dim):
        pj = basis.partner[j]
        # d/dx_a e_j = deriv_factor[a, partner(j)] * e_partner(j)
        g0 = basis.deriv_factor[0, pj] * vals_grid[pj]
        g1 = basis.deriv_factor[1, pj] * vals_grid[pj]
        adv = vals_grid[..., 0:1] * g0[None] + vals_grid[..., 1:2] * g1[None]
        tj = adv.reshape(basis.dim, -1) @ smat.T / m2  # (i, l)
        ii, ll = np.nonzero(np.abs(tj) > _TENSOR_TOL)
        out_i.append(ii)
        out_j.append(np.full(ii.shape, j, dtype=np.int64))
        out_l.append(ll)
        out_v.append(tj[ii, ll])
    return CouplingTensor(
        basis.n_max, basis.dim,
        np.concatenate(out_i), np.concatenate(out_j),
        np.concatenate(out_l), np.concatenate(out_v),
    )


@dataclass
class BEstimateReport:
    """Empirical sharpness of the two interpolation bounds on b."""

    n_samples: int
    seed: int
    interp_hv_max: float   # |b(u,v,w)| / (2 (|u| |u|_V |w| |w|_V)^(1/2) |v|_V)
    dom_ratio_max: float   # |b(u,u,v)| / (|Au|^(1/2) |u|_V |u|^(1/2) |v|)


def verify_b_estimates(basis: BasisSpec, n_samples: int = 1000,
                       seed: int = 0) -> BEstimateReport:
    """Max ratio of b against its two interpolation bounds on random triples.

    The first bound carries the explicit constant 2 and the report's ratio is
    expected to stay at or below 1. The second has no pinned constant; its max
    ratio is the empirical baseline.
    """
    rng = np.random.default_rng(seed)
    lam = basis.eigenvalues
    hv_max = 0.0
    dom_max = 0.0
    done = 0
    while done < n_samples:
        n = min(_B_BATCH, n_samples - done)
        decays = rng.uniform(0.5, 1.5, size=(3, n))
        cu, cv, cw = (rng.standard_normal((n, basis.dim))
                      * lam[None, :] ** (-decays[a][:, None]) for a in range(3))
        b_uvw = np.abs(bilinear_b_batch(basis, cu, cv, cw))
        nh = [np.linalg.norm(c, axis=1) for c in (cu, cv, cw)]
        nv = [np.sqrt(c**2 @ lam) for c in (cu, cv, cw)]
        bound = 2.0 * np.sqrt(nh[0] * nv[0] * nh[2] * nv[2]) * nv[1]
        hv_max = max(hv_max, float(np.max(b_uvw / bound)))

        # second bound exercised with a rough (H-only) test function
        cr = rng.standard_normal((n, basis.dim))
        b_uuv = np.abs(bilinear_b_batch(basis, cu, cu, cr))
        ndom = np.sqrt(cu**2 @ lam**2)
        denom = np.sqrt(ndom) * nv[0] * np.sqrt(nh[0]) * np.linalg.norm(cr, axis=1)
        dom_max = max(dom_max, float(np.max(b_uuv / denom)))
        done += n
    return BEstimateReport(n_samples, seed, hv_max, dom_max)
