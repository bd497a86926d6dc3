"""Trilinear form against the analytic convolution oracle and its identities."""

import numpy as np
import pytest

from snse import nonlinear
from snse.basis import get_basis
from snse.nonlinear import (
    bilinear_b_batch, coupling_tensor, nonlinear_term_batch, verify_b_estimates,
)

from oracles import (conv_b_modes, conv_coupling_dense, conv_nonlinear, embed,
                     random_field, reference_nonlinear_advective)


@pytest.fixture(scope="module")
def oracle_dense2():
    return conv_coupling_dense(get_basis(2))


def _norm_v(basis, c):
    return np.sqrt(c**2 @ basis.eigenvalues)


class TestIdentities:
    def test_zero_field(self, basis4):
        z = np.zeros(basis4.dim)
        assert np.linalg.norm(nonlinear_term_batch(basis4, z)) == 0.0

    def test_single_mode_self_advection_vanishes(self, basis4):
        for idx in (0, 3, 11, 40):
            u = np.zeros(basis4.dim)
            u[idx] = 1.7
            assert np.linalg.norm(nonlinear_term_batch(basis4, u)) < 1e-13

    def test_energy_conservation(self, basis4, rng):
        for _ in range(20):
            u = random_field(basis4, rng, decay=rng.uniform(0.3, 1.2))
            v = random_field(basis4, rng, decay=rng.uniform(0.3, 1.2))
            scale = np.linalg.norm(u) * _norm_v(basis4, v)**2
            assert abs(bilinear_b_batch(basis4, u, v, v)) <= 1e-10 * max(1.0, scale)

    def test_antisymmetry(self, basis4, rng):
        for _ in range(20):
            u, v, w = (random_field(basis4, rng, decay=rng.uniform(0.3, 1.2))
                       for _ in range(3))
            nh_v, nh_w = np.linalg.norm(v), np.linalg.norm(w)
            scale = np.linalg.norm(u) * (_norm_v(basis4, v) * nh_w
                                         + _norm_v(basis4, w) * nh_v)
            b_sum = (bilinear_b_batch(basis4, u, v, w)
                     + bilinear_b_batch(basis4, u, w, v))
            assert abs(b_sum) <= 1e-10 * max(1.0, scale)

    def test_projection_orthogonal_to_state(self, basis4, rng):
        u = random_field(basis4, rng, decay=0.5)
        bu = nonlinear_term_batch(basis4, u)
        scale = np.linalg.norm(u) * _norm_v(basis4, u)**2
        assert abs(bu @ u) <= 1e-10 * max(1.0, scale)


class TestStressForm:
    """B(u) in stress-divergence form against the advective projection."""

    @pytest.mark.parametrize("lead", [(), (7,), (128,), (2, 3)],
                             ids=["1d", "7", "128", "2x3"])
    @pytest.mark.parametrize("n_max", [1, 2, 4, 8])
    def test_matches_advective_form(self, n_max, lead):
        basis = get_basis(n_max)
        rows = int(np.prod(lead))
        rng = np.random.default_rng(100 * n_max + rows)
        decay = rng.uniform(0.0, 1.2, size=(rows, 1))
        c = (rng.standard_normal((rows, basis.dim))
             * basis.eigenvalues ** -decay
             * np.geomspace(0.1, 10.0, rows)[:, None])
        c = c.reshape(lead + (basis.dim,))
        got = nonlinear_term_batch(basis, c)
        ref = reference_nonlinear_advective(basis, c)
        assert got.shape == c.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        c2, got2 = c.reshape(-1, basis.dim), got.reshape(-1, basis.dim)
        energy = np.abs(np.sum(got2 * c2, axis=1))
        norm_h = np.linalg.norm(c2, axis=1)
        norm_v2 = c2**2 @ basis.eigenvalues
        assert np.all(energy <= 1e-13 * norm_h * norm_v2)

    @pytest.mark.parametrize("n_max", [1, 2, 4, 8])
    def test_zero_batch_gives_exact_zeros(self, n_max):
        basis = get_basis(n_max)
        for shape in ((basis.dim,), (7, basis.dim), (2, 3, basis.dim)):
            got = nonlinear_term_batch(basis, np.zeros(shape))
            assert np.array_equal(got, np.zeros(shape))

    @pytest.mark.parametrize("n_max", [1, 2, 4, 8])
    def test_one_parity_field_has_no_cos_component(self, n_max):
        # B(u) pairs each cos mode with E O, the product of the cos and sin
        # parts of u on the half grid, so it is an exact 0 when either is
        basis = get_basis(n_max)
        rng = np.random.default_rng(n_max)
        c = rng.standard_normal((16, basis.dim)) * basis.eigenvalues ** -0.5
        for keep in (basis.is_cos, ~basis.is_cos):
            got = nonlinear_term_batch(basis, np.where(keep, c, 0.0))
            assert np.all(got[:, basis.is_cos] == 0.0)
            assert np.any(got[:, ~basis.is_cos] != 0.0)


class TestAgainstConvolutionOracle:
    def test_mode_triples(self, basis2, oracle_dense2):
        rng = np.random.default_rng(7)
        eye = np.eye(basis2.dim)
        for _ in range(200):
            i, j, l = rng.integers(0, basis2.dim, size=3)
            ours = bilinear_b_batch(basis2, eye[i], eye[j], eye[l])
            assert abs(float(ours) - oracle_dense2[i, j, l]) < 1e-12

    def test_coupling_tensor_matches_oracle(self, basis2, oracle_dense2):
        tens = coupling_tensor(basis2)
        dense = np.zeros_like(oracle_dense2)
        dense[tens.i, tens.j, tens.l] = tens.vals
        assert np.max(np.abs(dense - oracle_dense2)) < 1e-12

    def test_nonlinear_term_matches_oracle_fields(self, basis2, oracle_dense2, rng):
        for _ in range(25):
            u = random_field(basis2, rng, decay=rng.uniform(0.0, 1.0))
            ours = nonlinear_term_batch(basis2, u)
            ref = conv_nonlinear(basis2, u, dense=oracle_dense2)
            assert np.max(np.abs(ours - ref)) < 1e-9

    def test_tensor_apply_matches_direct(self, basis2, rng):
        tens = coupling_tensor(basis2)
        u = random_field(basis2, rng, decay=0.4)
        assert np.allclose(tens.apply(u), nonlinear_term_batch(basis2, u),
                           atol=1e-12)

    def test_oracle_self_consistency(self, basis2):
        # the analytic route reproduces the antisymmetry identity on its own
        m = get_basis(2).modes
        for (a, b, c) in ((0, 2, 5), (1, 4, 8), (3, 7, 2)):
            assert conv_b_modes(m[a], m[b], m[c]) == pytest.approx(
                -conv_b_modes(m[a], m[c], m[b]), abs=1e-14)


class TestResolutionIndependence:
    def test_embedding_invariance(self, basis2, basis4, rng):
        # same fields represented on a finer basis give the same b
        u, v, w = (random_field(basis2, rng, decay=0.5) for _ in range(3))
        b_small = bilinear_b_batch(basis2, u, v, w)
        b_big = bilinear_b_batch(basis4, *(embed(basis2, c, basis4)
                                           for c in (u, v, w)))
        assert b_small == pytest.approx(b_big, abs=1e-12, rel=1e-12)


class TestEstimates:
    def test_interpolation_bound_holds(self, basis4):
        rep = verify_b_estimates(basis4, n_samples=500, seed=11)
        assert 0.0 < rep.interp_hv_max <= 1.0

    def test_domain_ratio_finite(self, basis4):
        rep = verify_b_estimates(basis4, n_samples=500, seed=11)
        assert np.isfinite(rep.dom_ratio_max)
        assert rep.dom_ratio_max > 0.0


class TestBatchShapes:
    def test_batch_matches_scalar(self, basis2, rng):
        cu = rng.standard_normal((6, basis2.dim))
        cv = rng.standard_normal((6, basis2.dim))
        cw = rng.standard_normal((6, basis2.dim))
        batch = bilinear_b_batch(basis2, cu, cv, cw)
        for p in range(6):
            one = bilinear_b_batch(basis2, cu[p], cv[p], cw[p])
            assert float(one) == pytest.approx(batch[p], rel=1e-13, abs=1e-13)

    def test_nonlinear_batch_matches_scalar(self, basis2, rng):
        c = rng.standard_normal((5, basis2.dim))
        batch = nonlinear_term_batch(basis2, c)
        for p in range(5):
            one = nonlinear_term_batch(basis2, c[p])
            assert np.allclose(batch[p], one, atol=1e-13)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_blocks_match_one_call(self, basis2, rng, block, monkeypatch):
        # 7 rows in runs of block rows: each run is its own batch
        c = rng.standard_normal((7, basis2.dim))
        whole = nonlinear_term_batch(basis2, c)
        monkeypatch.setattr(nonlinear, "_B_ROWS", block)
        blocked = nonlinear_term_batch(basis2, c)
        assert np.allclose(blocked, whole, atol=1e-13)
        for lo in range(0, 7, block):
            assert np.array_equal(blocked[lo:lo + block],
                                  nonlinear_term_batch(basis2,
                                                       c[lo:lo + block]))
