"""Real divergence-free Fourier basis on the 2-D periodic torus [0, 2pi)^2.

The velocity space is spanned by modes

    e = sqrt(2) * (k_perp / |k|) * trig(k . x),    trig in {cos, sin},

with k = (kx, ky) an integer wave vector, k_perp = (-ky, kx), and one
representative kept per {k, -k} pair (the one with kx > 0, or kx == 0 and
ky > 0). The zero mode is excluded, so the Stokes operator is strictly
positive on the span.

A field is its coefficient row c of shape (dim,); a batch of fields is an
array of shape (..., dim).

Inner products use the normalized measure dx / (2 pi)^2. Under it the modes
are orthonormal, so a field with coefficient vector c has |u|_H^2 = sum c_i^2
while the plain Lebesgue integral of |u|^2 equals (2 pi)^2 * sum c_i^2. The
Stokes operator acts diagonally with eigenvalue |k|^2 per mode, which gives
the three working norms

    |u|_H  = l2(c),    |u|_V = l2(sqrt(lam) c),    |A u|_H = l2(lam c).

Modes are ordered lexicographically by (|k|^2, kx, ky, parity) with "cos"
before "sin"; the ordering is part of the public contract (mode indices
appear in configs and CSV dumps).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ZeroModeError

TWO_PI = 2.0 * np.pi


def stokes_eigenvalue(k) -> float:
    """Eigenvalue |k|^2 of the Stokes operator for wave vector k = (kx, ky)."""
    kx, ky = int(k[0]), int(k[1])
    if kx == 0 and ky == 0:
        raise ZeroModeError("the constant mode is excluded from the basis")
    return float(kx * kx + ky * ky)


def _half_plane(kx: int, ky: int) -> bool:
    return kx > 0 or (kx == 0 and ky > 0)


@dataclass(frozen=True)
class Mode:
    """One real divergence-free basis function."""

    kx: int
    ky: int
    parity: str  # "cos" or "sin"

    @property
    def eigenvalue(self) -> float:
        return stokes_eigenvalue((self.kx, self.ky))


def collocation_size(n_max: int) -> int:
    # Cubic products of degree-n_max fields carry frequencies up to 3*n_max;
    # uniform-grid quadrature is exact only when no nonzero frequency is a
    # multiple of the grid size, hence at least 3*n_max + 1 points per axis.
    m = 3 * n_max + 1
    return m + (m % 2)


class BasisSpec:
    """Truncated basis with |kx| <= n_max and |ky| <= n_max.

    Construction enumerates the admissible wave vectors, sorts them, and
    precomputes per-mode eigenvalues plus the index tables used for spectral
    differentiation (each derivative maps a mode to its opposite-parity
    partner scaled by +-k_i).
    """

    def __init__(self, n_max: int):
        if n_max < 1:
            raise ValueError("n_max must be a positive integer")
        self.n_max = int(n_max)
        modes = []
        for kx in range(-n_max, n_max + 1):
            for ky in range(-n_max, n_max + 1):
                if (kx == 0 and ky == 0) or not _half_plane(kx, ky):
                    continue
                for parity in ("cos", "sin"):
                    modes.append(Mode(kx, ky, parity))
        modes.sort(key=lambda m: (m.eigenvalue, m.kx, m.ky, m.parity))
        self.modes: tuple[Mode, ...] = tuple(modes)
        self.dim = len(modes)
        self.kx = np.array([m.kx for m in modes], dtype=np.int64)
        self.ky = np.array([m.ky for m in modes], dtype=np.int64)
        self.eigenvalues = (self.kx**2 + self.ky**2).astype(np.float64)
        self.is_cos = np.array([m.parity == "cos" for m in modes])
        self._index = {(m.kx, m.ky, m.parity): i for i, m in enumerate(modes)}
        # opposite-parity partner of each mode (same wave vector)
        self.partner = np.array(
            [self._index[(m.kx, m.ky, "sin" if m.parity == "cos" else "cos")]
             for m in modes],
            dtype=np.int64,
        )
        # d/dx_i e_{k,cos} = -k_i e_{k,sin},  d/dx_i e_{k,sin} = +k_i e_{k,cos}
        sign = np.where(self.is_cos, 1.0, -1.0)
        k_of_partner = np.stack([self.kx, self.ky], axis=0).astype(np.float64)
        self.deriv_factor = sign[None, :] * k_of_partner  # (2, dim)
        self.m_grid = collocation_size(n_max)
        self._mode_values: np.ndarray | None = None

    def __eq__(self, other):
        return isinstance(other, BasisSpec) and other.n_max == self.n_max

    def __hash__(self):
        return hash(("BasisSpec", self.n_max))

    def __repr__(self):
        return f"BasisSpec(n_max={self.n_max}, dim={self.dim})"

    def mode_index(self, kx: int, ky: int, parity: str) -> int:
        """Index of the mode for (possibly non-representative) wave vector k.

        If (kx, ky) lies in the discarded half plane the representative
        (-kx, -ky) is looked up instead; the caller is responsible for the
        sign flip that the cos mode picks up in that case.
        """
        if not _half_plane(kx, ky):
            kx, ky = -kx, -ky
        try:
            return self._index[(kx, ky, parity)]
        except KeyError:
            raise KeyError(f"mode ({kx},{ky},{parity}) outside basis") from None

    def grid(self):
        """Collocation points x_j = 2 pi j / M along each axis."""
        x = TWO_PI * np.arange(self.m_grid) / self.m_grid
        return np.meshgrid(x, x, indexing="ij")

    def mode_values(self) -> np.ndarray:
        """Values of every mode on the collocation grid, shape (dim, M, M, 2)."""
        if self._mode_values is None:
            xg, yg = self.grid()
            vals = np.empty((self.dim, self.m_grid, self.m_grid, 2))
            for i, m in enumerate(self.modes):
                lam = np.sqrt(m.eigenvalue)
                phase = m.kx * xg + m.ky * yg
                trig = np.cos(phase) if m.parity == "cos" else np.sin(phase)
                amp = np.sqrt(2.0) / lam
                vals[i, :, :, 0] = amp * (-m.ky) * trig
                vals[i, :, :, 1] = amp * m.kx * trig
            self._mode_values = vals
        return self._mode_values

    def synthesis_matrix(self) -> np.ndarray:
        """mode_values flattened to (dim, M*M*2) for gemm-style synthesis."""
        return self.mode_values().reshape(self.dim, -1)

    def deriv_coeffs(self, coeffs: np.ndarray, axis: int) -> np.ndarray:
        """Coefficients of d/dx_axis u for coefficient array (..., dim)."""
        return self.deriv_factor[axis] * np.asarray(coeffs)[..., self.partner]


@lru_cache(maxsize=8)
def get_basis(n_max: int) -> BasisSpec:
    """Shared BasisSpec instances so cached grids are built once per n_max."""
    return BasisSpec(n_max)
