"""Certification checks vs closed forms, dense quadrature, and brute force."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from snse.basis import get_basis
from snse.hypotheses import (_max_witness, certify_kernels,
                             check_growth_lipschitz,
                             check_jump_size_decay, check_qv_limit_v_growth,
                             gap_panel, jump_l2_diff, jump_l2_mass,
                             jump_l4_mass, jump_v2_mass, kernel_grid,
                             martingale_diagnostic, random_sample_fields,
                             sample_panel)
from snse.integrate import BrownianNoiseSpec, SolverConfig, \
    simulate_brownian_batch, simulate_jump_batch
from snse.kernels import (build_jump_kernel, constant_field,
                          saturating, scaled_identity, sup_jump_size)
from snse.measures import (alpha_stable_measure, moment_mass,
                           power_law_measure)
from snse.sampling import derive_stream

from oracles import (random_field, reference_growth_lipschitz,
                     reference_max_witness, reference_qv_limit_v_growth)

NU1 = alpha_stable_measure(1.0)
GRID = (0.2, 0.1, 0.05, 0.02, 0.01)


class TestMassHelpers:
    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            kernel_grid(scaled_identity(), "annulus", "one", (0.1, 0.2), NU1)

    def test_identity_flat_theta_masses(self, basis2):
        rng = np.random.default_rng(2)
        u = random_field(basis2, rng, norm_h=1.7)
        kern = build_jump_kernel(scaled_identity(1.0), "annulus", "one", 0.1,
                                 NU1)
        h2 = float(np.sum(u * u))
        v2 = float((u * u) @ basis2.eigenvalues)
        assert abs(jump_l2_mass(kern, u) - h2) < 1e-8 * h2
        assert abs(jump_v2_mass(kern, u, basis2.eigenvalues) - v2) < 1e-8 * v2
        # flat profile: the |h|^4 mass is 1/(annulus mass) = 1/18
        assert abs(jump_l4_mass(kern, u) - h2 * h2 / 18.0) < 1e-8 * h2 * h2
        v = random_field(basis2, rng, norm_h=0.4)
        duv = float(np.sum((u - v) ** 2))
        assert abs(jump_l2_diff(kern, u, v) - duv) < 1e-8 * duv

    def test_cutoff_channel_masses_span_full_support(self, basis2):
        # sampling drops {|z| < delta}, about 1e-4 of the QV; the masses
        # must still integrate the whole h support
        rng = np.random.default_rng(5)
        u = random_field(basis2, rng, norm_h=1.3)
        kern = build_jump_kernel(scaled_identity(1.0), "inner_linear", "one",
                                 0.05, NU1)
        assert kern.cutoff_delta > 0.0
        discarded = (moment_mass(NU1, 0.0, kern.cutoff_delta, k=2)
                     / kern.h.scale**2)
        assert discarded > 0.5e-4
        h2 = float(np.sum(u * u))
        assert abs(jump_l2_mass(kern, u) - h2) < 1e-8 * h2

    def test_saturating_cosine_dense_quadrature_oracle(self, basis2):
        rng = np.random.default_rng(3)
        u = random_field(basis2, rng, norm_h=1.1)
        eps = 0.05
        kern = build_jump_kernel(saturating(0.8), "annulus", "cosine", eps,
                                 NU1)
        nu = np.linalg.norm(u)

        def integrand(z):
            t = 1 + eps * np.cos(z)
            s2 = (0.8 * t * nu / (1.0 + t * nu)) ** 2
            return s2 * float(kern.h.fn(z)) ** 2 * z**-2

        lo, hi = kern.h.support
        oracle = 2.0 * quad(integrand, lo, hi, epsrel=1e-11)[0]
        assert abs(jump_l2_mass(kern, u) - oracle) < 1e-6 * oracle


class TestGrowthLipschitz:
    def test_identity_flat_theta_constants(self, basis2):
        kernels = kernel_grid(scaled_identity(1.0), "annulus", "one", GRID,
                              NU1)
        rep = check_growth_lipschitz(basis2, kernels)
        assert rep.passed
        for val in rep.values("lipschitz"):
            assert abs(val - 1.0) < 1e-6
        for val in rep.values("growth_l2"):
            assert val < 1.0 + 1e-9

    def test_witness_reproduces_value(self, basis2):
        kernels = kernel_grid(saturating(0.7), "annulus", "cosine",
                              (0.1, 0.05), NU1)
        rep = check_growth_lipschitz(basis2, kernels, n_samples=25)
        fields = random_sample_fields(basis2, 50, rep.seed)
        row = next(r for r in rep.rows
                   if r.check == "growth_l2" and r.epsilon == 0.1)
        u = fields[row.witness]
        val = jump_l2_mass(kernels[0], u) / (1.0 + float(np.sum(u * u)))
        assert val == row.value


class TestBatchedChecks:
    """The array checks against the per-field loops of tests/oracles.py."""

    @pytest.mark.parametrize("vals", [
        [1.0, 3.0, 3.0, 2.0],
        [np.nan, 2.0, np.nan, 2.0],
        [np.nan, np.nan, np.nan],
        [-np.inf, -np.inf],
        [-np.inf, np.nan, -1.0],
        [1.0, np.inf, 2.0, np.inf],
        [np.nan, -np.inf, np.inf],
        [0.5],
    ])
    def test_max_witness_matches_running_max(self, vals):
        got = _max_witness(np.array(vals))
        want = reference_max_witness(vals)
        assert got == want and type(got[0]) is float

    @pytest.mark.parametrize("n_max", [2, 4])
    @pytest.mark.parametrize("grid", ["family_i", "cosine_forced", "tail"])
    def test_rows_match_per_field_oracle(self, grid, n_max):
        basis = get_basis(n_max)
        sigma, family, theta, forcing = {
            "family_i": (saturating(0.5), "annulus", "one", None),
            "cosine_forced": (saturating(0.5), "inner_linear", "cosine",
                              saturating(0.8)),
            "tail": (scaled_identity(1.0), "outer_linear", "one", None),
        }[grid]
        kernels = kernel_grid(sigma, family, theta, GRID, NU1)

        def rows(rep):
            return [(r.check, r.epsilon, r.value, r.witness, r.passed)
                    for r in rep.rows]

        assert (rows(check_growth_lipschitz(basis, kernels, forcing))
                == reference_growth_lipschitz(basis, kernels, forcing))
        assert (rows(check_qv_limit_v_growth(basis, kernels))
                == reference_qv_limit_v_growth(basis, kernels))


class TestJumpSizeDecay:
    def test_flat_family_closed_form(self):
        kernels = kernel_grid(scaled_identity(1.0), "annulus", "one", GRID,
                              NU1)
        rep = check_jump_size_decay(kernels)
        assert rep.passed
        for row in rep.rows:
            e = row.epsilon
            closed = (2.0 * (1.0 / e - 1.0)) ** -0.5
            assert abs(row.value - closed) < 1e-9
        assert abs(rep.rows[-1].value - 0.0710669) < 1e-6

    def test_linear_tail_family_fails_under_stable(self):
        for alpha in (0.5, 1.0, 1.5):
            kernels = kernel_grid(scaled_identity(1.0), "outer_linear", "one",
                                  GRID, alpha_stable_measure(alpha))
            rep = check_jump_size_decay(kernels)
            assert not rep.passed
            vals = [r.value for r in rep.rows]
            assert vals == sorted(vals)  # increasing: the documented failure
            closed = [np.sqrt((2 - alpha) / (2 * (e**alpha - e**2)))
                      for e in GRID]
            assert np.allclose(vals, closed, rtol=1e-10)

    def test_linear_tail_family_passes_under_heavier_tail(self):
        # density |z|^(-1/2) on |z| >= 1: tail mass grows fast enough that
        # the normalization outruns the sup of h
        measure = power_law_measure(-0.5, 1.0, np.inf)
        kernels = kernel_grid(scaled_identity(1.0), "outer_linear", "one",
                              GRID, measure)
        rep = check_jump_size_decay(kernels)
        assert rep.passed

    def test_brute_force_within_one_percent(self, basis2):
        kern = build_jump_kernel(saturating(0.9), "annulus", "cosine", 0.1,
                                 NU1)
        closed = sup_jump_size(kern, 1.0)
        rng = np.random.default_rng(5)
        best = 0.0
        zs = np.linspace(*kern.h.support, 1501)[1:]
        for _ in range(50):
            d = rng.standard_normal(24)
            u = d / np.linalg.norm(d)
            for sgn in (1.0, -1.0):
                tv = np.asarray(kern.theta.fn(sgn * zs))
                hv = np.asarray(kern.h.fn(sgn * zs))
                sig = kern.sigma.fn(tv[:, None] * u[None, :])
                best = max(best, float(
                    (np.abs(hv) * np.linalg.norm(sig, axis=1)).max()))
        assert best <= closed * (1 + 1e-12)
        assert best > 0.99 * closed


class TestQvAndGapPanel:
    def test_identity_flat_theta_gap_is_zero(self, basis2):
        kernels = kernel_grid(scaled_identity(1.0), "annulus", "one", GRID,
                              NU1)
        rep = check_qv_limit_v_growth(basis2, kernels)
        assert rep.passed
        for val in rep.values("qv_gap"):
            assert val < 1e-6

    def test_cosine_gap_decays(self, basis2):
        kernels = kernel_grid(scaled_identity(1.0), "annulus", "cosine", GRID,
                              NU1)
        rep = check_qv_limit_v_growth(basis2, kernels)
        assert rep.passed
        gaps = rep.values("qv_gap")
        assert gaps[0] > gaps[-1] > 0
        assert gaps[-1] < 0.05

    def test_panel_is_flat_spectrum(self, basis2):
        panel = sample_panel(basis2)
        assert panel.shape == (20, basis2.dim)
        norms = np.linalg.norm(panel, axis=1)
        assert np.allclose(norms, np.geomspace(0.1, 10.0, 20), rtol=1e-12)
        assert np.allclose(np.abs(panel), np.abs(panel[:, :1]), rtol=1e-12)
        assert np.array_equal(panel, sample_panel(basis2))

    def test_gap_panel_monotone_and_enveloped(self, basis2):
        kernels = kernel_grid(scaled_identity(0.5), "annulus", "cosine", GRID,
                              NU1)
        rep = gap_panel(basis2, kernels)
        assert rep.passed and rep.monotone
        assert np.all(np.diff(rep.panel_max) < 0)
        assert 1e-4 < rep.envelope_constant < 0.01

    def test_gap_panel_flat_theta_floor(self, basis2):
        kernels = kernel_grid(scaled_identity(0.5), "annulus", "one",
                              (0.1, 0.05), NU1)
        rep = gap_panel(basis2, kernels)
        assert rep.passed
        assert np.all(rep.panel_max < 1e-8)

    def test_certify_bundle(self, basis2):
        good = kernel_grid(scaled_identity(0.5), "annulus", "cosine", GRID,
                           NU1)
        rep = certify_kernels(basis2, good)
        assert rep.passed
        assert any("CERTIFIED" in line for line in rep.summary_lines())
        rows = list(rep.csv_rows())
        assert all(len(r) == 5 for r in rows)

        bad = kernel_grid(scaled_identity(0.5), "outer_linear", "one", GRID,
                          alpha_stable_measure(1.0))
        rep = certify_kernels(basis2, bad)
        assert not rep.passed
        assert not rep.jump_size.passed


class TestMartingale:
    def test_requires_paths_and_trace(self, basis2):
        cfg = SolverConfig(t_end=0.01, dt=1e-3, track_modes=(0,))
        batch = simulate_brownian_batch(
            basis2, cfg, np.zeros(basis2.dim),
            [derive_stream(0, "diagnostic", 0, p) for p in range(3)])
        with pytest.raises(ValueError):
            martingale_diagnostic(batch)
        with pytest.raises(ValueError):
            martingale_diagnostic(batch, trace_index=5)
        # one record: every mean and SE is 0, so the check passed vacuously
        batch = simulate_brownian_batch(
            basis2, cfg, np.zeros(basis2.dim),
            [derive_stream(0, "diagnostic", 0, p) for p in range(100)])
        assert martingale_diagnostic(batch).n_paths == 100
        one = dataclasses.replace(batch, times=batch.times[:1],
                                  mode_traces=batch.mode_traces[:, :1],
                                  drift_traces=batch.drift_traces[:, :1])
        with pytest.raises(ValueError, match="two records"):
            martingale_diagnostic(one)

    def test_trace_index_in_range(self, basis2):
        # enough paths, so only the index can be refused; a negative index
        # would otherwise count from the end and grade another mode
        cfg = SolverConfig(t_end=0.01, dt=1e-3, track_modes=(0, 2))
        batch = simulate_brownian_batch(
            basis2, cfg, np.zeros(basis2.dim),
            [derive_stream(0, "diagnostic", 0, p) for p in range(100)])
        for bad in (-1, -2, 2):
            with pytest.raises(ValueError, match="trace_index"):
                martingale_diagnostic(batch, trace_index=bad)
        assert martingale_diagnostic(batch, trace_index=1).n_paths == 100

    def test_deterministic_paths_have_small_defect(self, basis2):
        rng = np.random.default_rng(9)
        u0 = random_field(basis2, rng, norm_h=0.8)
        cfg = SolverConfig(t_end=0.2, dt=1e-3, track_modes=(0,))
        streams = [derive_stream(0, "diagnostic", 0, p) for p in range(100)]
        batch = simulate_brownian_batch(basis2, cfg, u0, streams)
        rep = martingale_diagnostic(batch)
        assert rep.max_abs_mean < 2e-3

    def test_brownian_ou_martingale(self, basis2):
        g = np.zeros(basis2.dim)
        g[0] = 0.5
        noise = BrownianNoiseSpec(constant_field(g))
        cfg = SolverConfig(t_end=1.0, dt=1e-3, record_stride=5,
                           include_nonlinearity=False, track_modes=(0,))
        u0 = np.zeros(basis2.dim)
        u0[0] = 0.3
        streams = [derive_stream(33, "brownian", 0, p) for p in range(2000)]
        batch = simulate_brownian_batch(basis2, cfg, u0, streams, noise=noise)
        rep = martingale_diagnostic(batch)
        assert rep.n_paths == 2000
        assert rep.passed

    def test_jump_martingale(self, basis2):
        g = np.zeros(basis2.dim)
        g[0] = 0.4
        kern = build_jump_kernel(constant_field(g), "annulus", "one", 0.1,
                                 NU1)
        cfg = SolverConfig(t_end=1.0, dt=1e-3, record_stride=5,
                           include_nonlinearity=False, track_modes=(0,))
        u0 = np.zeros(basis2.dim)
        u0[0] = 0.3
        streams = [derive_stream(34, "jump", 0, p) for p in range(1000)]
        batch = simulate_jump_batch(basis2, cfg, u0, streams, kern)
        rep = martingale_diagnostic(batch)
        assert rep.passed
