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
-<|u|^2 / 2, div e_l> = 0, because every mode is divergence free. So B(u)
is one synthesis of u, the two stress components formed pointwise, and one
projection gemm against a table of mode gradients: half the gemm flops of
synthesizing u, d_x u and d_y u and projecting (u . grad) u. Every
integrand above is a trigonometric polynomial of degree at most 3 n_max in
each variable, which the grid integrates exactly. The identities therefore
hold on the grid, and the two forms agree to round-off. `bilinear_b_batch`
keeps the advective form, since it evaluates b(u, v, w) for three
different fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec

_TENSOR_TOL = 1e-12   # coupling entries at or below this are dropped as zero
_B_BATCH = 2000       # random triples per verify_b_estimates batch


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
def _stress_table(basis: BasisSpec) -> np.ndarray:
    """(2 M^2, dim) table G that projects the traceless stress onto the modes.

    Column l is -(d_x e_x - d_y e_y, d_x e_y + d_y e_x) / M^2 for mode e_l,
    laid out like the synthesized grid, so (D @ G)_l = -<D, grad e_l>.
    """
    vals = basis.mode_values()
    p = basis.partner
    # d/dx_a e_l = deriv_factor[a, partner(l)] * e_partner(l)
    dx = basis.deriv_factor[0, p][:, None, None, None] * vals[p]
    dy = basis.deriv_factor[1, p][:, None, None, None] * vals[p]
    g = np.stack((dx[..., 0] - dy[..., 1], dx[..., 1] + dy[..., 0]), axis=-1)
    g *= -1.0 / basis.m_grid**2
    return np.ascontiguousarray(g.reshape(basis.dim, -1).T)


def nonlinear_term_batch(basis: BasisSpec, coeffs,
                         block: int | None = None) -> np.ndarray:
    """Galerkin projection of (u . grad) u for a coefficient batch.

    Stress-divergence form: synthesize u, overwrite its grid values with the
    traceless stress (a, b), project with the cached gradient table.  With
    block, a (P, dim) batch goes through in runs of at most block rows, so
    its grid temporaries and gemm shapes are those of a block-row batch.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if block is None or coeffs.ndim != 2 or coeffs.shape[0] <= block:
        return _stress_divergence(basis, coeffs)
    out = np.empty_like(coeffs)
    for lo in range(0, coeffs.shape[0], block):
        out[lo:lo + block] = _stress_divergence(basis,
                                                coeffs[lo:lo + block])
    return out


def _stress_divergence(basis: BasisSpec, coeffs: np.ndarray) -> np.ndarray:
    d = coeffs @ basis.synthesis_matrix()
    ux, uy = d[..., 0::2], d[..., 1::2]  # grid components are interleaved
    uxy = ux * uy
    d *= d
    ux -= uy
    ux *= 0.5
    uy[...] = uxy
    return d @ _stress_table(basis)


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
