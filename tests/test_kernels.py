"""Jump-kernel construction: normalization, sup values, compensator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from snse.basis import SpectralField, get_basis, random_field
from snse.errors import InadmissibleKernelError
from snse.kernels import (
    build_h, build_jump_kernel, build_theta, compensator_drift, constant_field,
    diagonal_map, eval_sigma_eps, h_norm_check, make_channel, saturating,
    scaled_identity, sup_jump_size, zero_map,
)
from snse.measures import alpha_stable_measure, power_law_measure

NU1 = alpha_stable_measure(1.0)


class TestThetaFamilies:
    def test_declared_sups_on_grid(self):
        z = np.linspace(-50.0, 50.0, 100_001)
        for family in ("one", "cosine", "gaussian_dip"):
            for eps in (0.2, 0.05):
                th = build_theta(family, eps)
                dev = np.max(np.abs(th.fn(z) - 1.0))
                assert dev <= th.sup_dev + 1e-12
                assert np.max(np.abs(th.fn(z))) <= th.sup_abs + 1e-12
                assert th.sup_dev <= eps  # uniform closeness to 1

    def test_cosine_attains_eps(self):
        th = build_theta("cosine", 0.1)
        assert float(th.fn(0.0)) == pytest.approx(1.1)

    def test_gaussian_dip_value(self):
        th = build_theta("gaussian_dip", 0.2)
        assert float(th.fn(0.0)) == pytest.approx(1.0 - 0.2 / math.sqrt(2 * math.pi))

    def test_epsilon_range_enforced(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                build_theta("one", bad)


class TestHFamilies:
    def test_annulus_frozen_sup(self):
        h = build_h("annulus", 0.01, NU1)
        assert h.scale**2 == pytest.approx(198.0, rel=1e-12)
        assert h.sup_abs == pytest.approx(198.0**-0.5, rel=1e-12)
        assert h.sup_abs == pytest.approx(0.07106690545187014, rel=1e-9)

    def test_inner_linear_frozen_sup(self):
        h = build_h("inner_linear", 0.1, NU1)
        assert h.scale**2 == pytest.approx(0.2, rel=1e-12)
        assert h.sup_abs == pytest.approx(0.1 / math.sqrt(0.2), rel=1e-12)
        assert h.sup_abs == pytest.approx(0.22360679774997896, rel=1e-9)

    def test_normalization_independent_quadrature(self):
        # direct scipy route, no shared code with the builders
        for family, eps in (("annulus", 0.2), ("annulus", 0.01),
                            ("outer_linear", 0.1), ("inner_linear", 0.05)):
            h = build_h(family, eps, NU1)
            lo, hi = h.support
            val = 2.0 * quad(lambda r: float(h.fn(r)) ** 2 * r**-2,
                             max(lo, 1e-300), hi, epsrel=1e-12)[0]
            assert val == pytest.approx(1.0, abs=1e-8)
            assert h_norm_check(h, NU1) == pytest.approx(1.0, abs=1e-8)

    def test_sup_decreasing_for_decaying_families(self):
        grid = (0.2, 0.1, 0.05, 0.01)
        for alpha in (0.5, 1.0, 1.5):
            nu = alpha_stable_measure(alpha)
            for family in ("annulus", "inner_linear"):
                sups = [build_h(family, e, nu).sup_abs for e in grid]
                assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_outer_linear_grows_for_stable_measures(self):
        # the documented failure mode: sup |h| increases as eps shrinks
        for alpha in (0.5, 1.0, 1.5):
            nu = alpha_stable_measure(alpha)
            sups = [build_h("outer_linear", e, nu).sup_abs for e in (0.2, 0.1, 0.05)]
            assert sups[0] < sups[1] < sups[2]
            for e, s in zip((0.2, 0.1, 0.05), sups):
                closed = math.sqrt((2.0 - alpha) / (2.0 * (e**alpha - e**2)))
                assert s == pytest.approx(closed, rel=1e-12)

    def test_outer_linear_decays_for_tail_measure(self):
        nu = power_law_measure(-0.5, 1.0, math.inf)  # |z|^(beta-1), beta = 0.5
        sups = [build_h("outer_linear", e, nu).sup_abs for e in (0.2, 0.1, 0.05)]
        assert sups[0] > sups[1] > sups[2]

    def test_empty_overlap_rejected(self):
        tail = power_law_measure(-0.5, 1.0, math.inf)
        with pytest.raises(InadmissibleKernelError):
            build_h("annulus", 0.1, tail)

    def test_off_support_is_zero(self):
        h = build_h("annulus", 0.1, NU1)
        assert float(h.fn(0.05)) == 0.0
        assert float(h.fn(1.5)) == 0.0
        assert float(h.fn(-0.5)) == pytest.approx(1.0 / h.scale)


class TestFieldMaps:
    def test_zoo_shapes_and_lipschitz(self, basis2, rng):
        u = rng.standard_normal((3, basis2.dim))
        for fm in (scaled_identity(0.5), saturating(), zero_map(),
                   diagonal_map(np.linspace(1, 2, basis2.dim)),
                   constant_field(np.eye(basis2.dim)[0])):
            out = fm.fn(u)
            assert out.shape == u.shape
            # empirical Lipschitz ratio never exceeds the declared constant
            v = u + 0.1 * rng.standard_normal(u.shape)
            num = np.linalg.norm(fm.fn(u) - fm.fn(v), axis=-1)
            den = np.linalg.norm(u - v, axis=-1)
            assert np.all(num <= fm.lipschitz * den + 1e-12)

    def test_saturating_bounded(self, basis2, rng):
        fm = saturating()
        u = 100.0 * rng.standard_normal((5, basis2.dim))
        assert np.all(np.linalg.norm(fm.fn(u), axis=-1) < 1.0)

    def test_ball_sup_matches_samples(self, basis2, rng):
        for fm in (scaled_identity(2.0), saturating(0.7),
                   constant_field(0.5 * np.eye(basis2.dim)[1])):
            for radius in (0.5, 3.0):
                best = 0.0
                for _ in range(200):
                    d = rng.standard_normal(basis2.dim)
                    d *= radius / np.linalg.norm(d)
                    best = max(best, float(np.linalg.norm(fm.fn(d))))
                assert best <= fm.ball_sup(radius) + 1e-9
                assert best >= 0.95 * fm.ball_sup(radius) - 1e-9


class TestChannels:
    def test_auto_cutoff_closed_form(self):
        # power density: discarded share (delta/eps)^(2-alpha) = budget
        h = build_h("inner_linear", 0.1, NU1)
        ch = make_channel(scaled_identity(), build_theta("one", 0.1), h, NU1)
        assert ch.cutoff_delta == pytest.approx(0.1 * 1e-4, rel=1e-9)
        assert ch.discarded_qv_fraction <= 1e-4 * 1.0001
        assert ch.sample_range[0] == pytest.approx(1e-5, rel=1e-9)

    def test_explicit_cutoff_validated(self):
        h = build_h("inner_linear", 0.1, NU1)
        with pytest.raises(InadmissibleKernelError):
            make_channel(scaled_identity(), build_theta("one", 0.1), h, NU1,
                         cutoff_delta=0.05)  # discards far too much

    def test_activity_value(self):
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", 0.1, NU1)
        assert kern.channels[0].activity == pytest.approx(18.0, rel=1e-12)

    def test_compensator_annulus_identity(self, basis2):
        # int h dnu = sqrt(mass); with identity sigma the drift is sqrt(198) u
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", 0.01, NU1)
        u = SpectralField.from_modes(basis2, {0: 1.0})
        drift = compensator_drift(kern, u.coeffs)
        assert drift[0] == pytest.approx(math.sqrt(198.0), rel=1e-9)
        assert np.allclose(drift[1:], 0.0)
        assert kern.channels[0].h_integral == pytest.approx(14.071247279470288, rel=1e-9)

    def test_compensator_zero_for_odd_profiles(self, basis2, rng):
        u = random_field(basis2, rng)
        for family in ("outer_linear", "inner_linear"):
            for theta in ("one", "cosine"):
                kern = build_jump_kernel(scaled_identity(), family, theta, 0.1, NU1)
                drift = compensator_drift(kern, u.coeffs)
                assert np.max(np.abs(drift)) < 1e-14

    def test_compensator_quad_path_vs_reference(self, basis2):
        # cosine theta forces the node-quadrature path; check one coefficient
        # against direct adaptive quadrature of the full composition
        kern = build_jump_kernel(scaled_identity(0.7), "annulus", "cosine", 0.2, NU1)
        u = SpectralField.from_modes(basis2, {2: 1.3})
        drift = compensator_drift(kern, u.coeffs)
        ch = kern.channels[0]

        def integrand(r):
            # even in z, so fold equals twice the positive side
            return 2.0 * 0.7 * (1.0 + 0.2 * np.cos(r)) * 1.3 * float(ch.h.fn(r)) * r**-2

        ref = quad(integrand, 0.2, 1.0, epsrel=1e-12)[0]
        assert drift[2] == pytest.approx(ref, rel=1e-8)
        assert np.max(np.abs(np.delete(drift, 2))) < 1e-12

    def test_eval_sigma_eps(self, basis2, rng):
        kern = build_jump_kernel(saturating(), "annulus", "cosine", 0.2, NU1)
        ch = kern.channels[0]
        u = random_field(basis2, rng)
        out = eval_sigma_eps(ch, u.coeffs, 0.5)
        tval = 1.0 + 0.2 * math.cos(0.5)
        expect = ch.sigma.fn(tval * u.coeffs) * float(ch.h.fn(0.5))
        assert np.allclose(out, expect)
        assert np.all(eval_sigma_eps(ch, u.coeffs, 5.0) == 0.0)
        with pytest.raises(ValueError):
            eval_sigma_eps(ch, u.coeffs, 0.0)

    def test_eval_sigma_eps_rows(self, basis2, rng):
        # one mark per row, each row equal to its one-mark value; the last
        # mark lies off the h support
        kern = build_jump_kernel(saturating(), "annulus", "cosine", 0.2, NU1)
        ch = kern.channels[0]
        rows = np.stack([random_field(basis2, rng).coeffs for _ in range(4)])
        marks = np.array([0.5, -0.3, 0.9, 5.0])
        out = eval_sigma_eps(ch, rows, marks)
        assert out.shape == rows.shape
        for r, z in zip(range(4), marks):
            assert np.array_equal(out[r], eval_sigma_eps(ch, rows[r], z))
        assert np.all(out[3] == 0.0)
        with pytest.raises(ValueError):
            eval_sigma_eps(ch, rows, np.array([0.5, 0.0, 0.9, 0.4]))

    def test_sup_jump_size_joint_grid_close_to_closed_form(self):
        # with theta == one the joint sup factorizes exactly
        for family, eps in (("annulus", 0.1), ("inner_linear", 0.05)):
            kern = build_jump_kernel(saturating(), family, "one", eps, NU1)
            ch = kern.channels[0]
            joint = sup_jump_size(ch, radius=2.0)
            closed = ch.h.sup_abs * ch.sigma.ball_sup(2.0)
            assert joint == pytest.approx(closed, rel=1e-6)
