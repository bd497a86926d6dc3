"""Basis construction, ordering, norms, and grid consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_l2_integral, max_divergence, random_field
from snse.basis import get_basis, stokes_eigenvalue
from snse.errors import ZeroModeError

TWO_PI = 2.0 * np.pi


class TestEigenvalues:
    def test_known_values(self):
        assert stokes_eigenvalue((1, 0)) == 1.0
        assert stokes_eigenvalue((2, 1)) == 5.0
        assert stokes_eigenvalue((-3, 4)) == 25.0

    def test_zero_mode_rejected(self):
        with pytest.raises(ZeroModeError):
            stokes_eigenvalue((0, 0))

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_positive(self, kx, ky):
        if kx == 0 and ky == 0:
            return
        assert stokes_eigenvalue((kx, ky)) >= 1.0


class TestBasisSpec:
    def test_dimension(self):
        # one representative per {k,-k} pair, two parities each
        for n in (1, 2, 4, 8):
            assert get_basis(n).dim == 4 * n * (n + 1)

    def test_ordering_contract(self, basis2):
        lead = [(m.kx, m.ky, m.parity) for m in basis2.modes[:6]]
        assert lead == [
            (0, 1, "cos"), (0, 1, "sin"),
            (1, 0, "cos"), (1, 0, "sin"),
            (1, -1, "cos"), (1, -1, "sin"),
        ]
        lams = basis2.eigenvalues
        assert np.all(np.diff(lams) >= 0)

    @pytest.mark.parametrize("n_max", [1, 2, 4, 8])
    def test_cos_even_sin_odd_indices(self, n_max):
        # nonlinear splits a coefficient row into its cos and sin parts
        # by reshaping (..., dim) to (..., dim / 2, 2)
        basis = get_basis(n_max)
        assert basis.is_cos[0::2].all()
        assert not basis.is_cos[1::2].any()
        assert np.array_equal(basis.partner[0::2],
                              np.arange(1, basis.dim, 2))

    def test_half_plane_dedup(self, basis2):
        idx = basis2.mode_index(1, 0, "cos")
        assert basis2.mode_index(-1, 0, "cos") == idx
        with pytest.raises(KeyError):
            basis2.mode_index(7, 0, "cos")

    def test_orthonormal_on_grid(self, basis2):
        v = basis2.synthesis_matrix()
        gram = v @ v.T / basis2.m_grid**2
        assert np.max(np.abs(gram - np.eye(basis2.dim))) < 1e-12

    def test_laplacian_via_derivative_tables(self, basis4, rng):
        c = rng.standard_normal(basis4.dim)
        lap = (basis4.deriv_coeffs(basis4.deriv_coeffs(c, 0), 0)
               + basis4.deriv_coeffs(basis4.deriv_coeffs(c, 1), 1))
        assert np.allclose(lap, -basis4.eigenvalues * c, atol=1e-12)


def norms(basis, c):
    """(|u|_H, |u|_V, |A u|_H) of a coefficient row."""
    lam = basis.eigenvalues
    return (np.linalg.norm(c), np.sqrt(c**2 @ lam), np.sqrt(c**2 @ lam**2))


class TestFieldNorms:
    def test_single_mode_examples(self, basis2):
        u = np.zeros(basis2.dim)
        u[basis2.mode_index(1, 0, "cos")] = 2.0
        assert norms(basis2, u) == pytest.approx((2.0, 2.0, 2.0))
        v = np.zeros(basis2.dim)
        v[basis2.mode_index(2, 1, "cos")] = 1.0
        nh, nv, nd = norms(basis2, v)
        assert nh == pytest.approx(1.0)
        assert nv == pytest.approx(np.sqrt(5.0))
        assert nd == pytest.approx(5.0)

    def test_parseval_against_grid_quadrature(self, basis4, rng):
        for _ in range(5):
            u = random_field(basis4, rng, decay=rng.uniform(0.0, 1.5))
            lhs = grid_l2_integral(basis4, u)
            rhs = TWO_PI**2 * float(u @ u)
            assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_norm_ordering(self, basis4, rng):
        # lam >= 1 on the truncation, so H <= V <= domain norm
        u = random_field(basis4, rng, decay=0.7)
        nh, nv, nd = norms(basis4, u)
        assert nh <= nv <= nd

    def test_divergence_free_synthesis(self, basis4, rng):
        for _ in range(5):
            u = random_field(basis4, rng, decay=rng.uniform(0.0, 1.0))
            assert max_divergence(basis4, u) <= 1e-12 * max(1.0, np.linalg.norm(u))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_field_rescaling(seed):
    basis = get_basis(2)
    u = random_field(basis, np.random.default_rng(seed), norm_h=3.0)
    assert np.linalg.norm(u) == pytest.approx(3.0)
