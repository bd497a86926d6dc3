"""Integrator tests against closed forms and independent reference schemes."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from snse import integrate, sampling
from snse.basis import get_basis
from snse.integrate import (BrownianNoiseSpec, SolverConfig, simulate_arms,
                            simulate_brownian_batch, simulate_jump_batch)
from snse.kernels import (JumpKernel, ThetaKernel, build_h,
                          build_jump_kernel, constant_field, make_kernel,
                          saturating, scaled_identity)
from snse.measures import alpha_stable_measure
from snse.nonlinear import nonlinear_term_batch
from snse.sampling import (Atoms, brownian_increments, derive_stream,
                           sample_prm, sample_prm_paths)

from oracles import random_field, reference_jump_batch

NU1 = alpha_stable_measure(1.0)


def diag_stream(p=0):
    return derive_stream(0, "diagnostic", 0, p)


def drawn(cfg, arms):
    """(driver, streams) arms as simulate_arms takes them, (driver, noise):
    each arm's streams drawn into its atoms or increments."""
    return [(driver, sample_prm_paths(driver, cfg.t_end, streams)
             if isinstance(driver, JumpKernel)
             else brownian_increments(streams, cfg.n_steps, cfg.dt))
            for driver, streams in arms]


def unit_vector(basis, idx, amp=1.0):
    u = np.zeros(basis.dim)
    u[idx] = amp
    return u


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=0.0, dt=1e-3)
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, dt=-1e-3)
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, dt=3e-3)  # not an integer step count
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, dt=1e-3, record_stride=7)
        # the step loop compares against blowup_norm**2, so nan would turn
        # the cap off and -1 would act as +1
        for kw in ({"t_end": np.inf}, {"t_end": np.nan}, {"dt": np.inf},
                   {"dt": np.nan}, {"blowup_norm": np.nan},
                   {"blowup_norm": np.inf}, {"blowup_norm": -1.0},
                   {"blowup_norm": 0.0}):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**{"t_end": 1.0, "dt": 1e-3, **kw})

    def test_recorded_times(self):
        cfg = SolverConfig(t_end=1.0, dt=1e-3, record_stride=100)
        assert cfg.n_steps == 1000
        assert cfg.n_recorded == 11
        assert np.allclose(cfg.recorded_times(), np.arange(11) * 0.1)

    def test_bad_track_mode(self, basis2):
        cfg = SolverConfig(t_end=0.01, dt=1e-3, track_modes=(999,))
        with pytest.raises(ValueError):
            simulate_brownian_batch(basis2, cfg, np.zeros(basis2.dim),
                                    [diag_stream()])


class TestDeterministicDrift:
    def test_heat_decay_single_mode(self, basis2):
        # one mode, no noise: exact semigroup decay, B vanishes on it
        cfg = SolverConfig(t_end=1.0, dt=1e-3, record_stride=100)
        u0 = unit_vector(basis2, 0, amp=0.7)
        path = simulate_brownian_batch(basis2, cfg, u0, [diag_stream()])
        assert abs(path.terminal[0, 0] - 0.7 * np.exp(-1.0)) < 1e-12
        assert np.linalg.norm(path.terminal[0, 1:]) < 1e-12
        expect = 0.49 * np.exp(-2.0 * path.times)
        assert np.allclose(path.norm_h2[0], expect, rtol=1e-9)

    def test_matches_ode_solver(self, basis2):
        # full drift with nonlinearity and forcing vs a high-accuracy ODE run
        rng = np.random.default_rng(5)
        u0 = random_field(basis2, rng, norm_h=0.5)
        force = saturating(0.8)
        cfg = SolverConfig(t_end=0.5, dt=2e-4, record_stride=2500)
        path = simulate_brownian_batch(basis2, cfg, u0, [diag_stream()],
                                       forcing=force)

        eigs = basis2.eigenvalues

        def rhs(t, y):
            return (-eigs * y - nonlinear_term_batch(basis2, y[None, :])[0]
                    + force.fn(y))

        sol = solve_ivp(rhs, (0.0, 0.5), u0, rtol=1e-11, atol=1e-12,
                        method="RK45")
        ref = sol.y[:, -1]
        rel = np.linalg.norm(path.terminal[0] - ref) / np.linalg.norm(ref)
        assert rel < 2e-3

    def test_sup_and_integral_traces(self, basis2):
        # pure decay keeps the sup at t=0 and gives a closed-form left sum
        cfg = SolverConfig(t_end=1.0, dt=1e-3, include_nonlinearity=False)
        u0 = unit_vector(basis2, 0, amp=2.0)
        path = simulate_brownian_batch(basis2, cfg, u0, [diag_stream()])
        assert path.sup_h4[0] == 16.0
        dt = cfg.dt
        discrete = 4.0 * dt * (1 - np.exp(-2.0)) / (1 - np.exp(-2 * dt))
        assert abs(path.int_v2[0, -1] - discrete) < 1e-10
        assert abs(path.int_v2[0, -1] - 2.0 * (1 - np.exp(-2.0))) < 5e-3

    def test_tracked_mode_drift(self, basis2):
        rng = np.random.default_rng(17)
        u0 = random_field(basis2, rng, norm_h=0.6)
        force = saturating(0.5)
        cfg = SolverConfig(t_end=0.1, dt=1e-3, record_stride=100,
                           track_modes=(0, 3))
        batch = simulate_brownian_batch(basis2, cfg, u0, [diag_stream()],
                                        forcing=force)
        eigs = basis2.eigenvalues
        idx = np.array([0, 3])

        def drift_at(u):
            return (-eigs * u - nonlinear_term_batch(basis2, u[None, :])[0]
                    + force.fn(u))[idx]

        assert np.array_equal(batch.mode_traces[0, 0], u0[idx])
        assert np.allclose(batch.drift_traces[0, 0], drift_at(u0), rtol=1e-12)
        term = batch.terminal[0]
        assert np.array_equal(batch.mode_traces[0, -1], term[idx])
        assert np.allclose(batch.drift_traces[0, -1], drift_at(term),
                           rtol=1e-12)


class TestBrownian:
    def test_ou_exact_recursion(self, basis2):
        # replicate the scheme arithmetic by hand, draw for draw
        c = 0.5
        g = np.zeros(basis2.dim)
        g[0] = c
        noise = BrownianNoiseSpec(constant_field(g))
        cfg = SolverConfig(t_end=0.05, dt=1e-3, include_nonlinearity=False)
        u0 = unit_vector(basis2, 0, amp=0.3)
        batch = simulate_brownian_batch(basis2, cfg, u0,
                                        [derive_stream(7, "brownian", 0, 3)],
                                        noise=noise)

        z = derive_stream(7, "brownian", 0, 3).standard_normal(
            (cfg.n_steps, 1)) * np.sqrt(cfg.dt)
        efac = np.exp(-basis2.eigenvalues * cfg.dt)
        u = u0.copy()
        for n in range(cfg.n_steps):
            u = efac * (u + g * z[n, 0])
        assert np.array_equal(batch.terminal[0], u)

    def test_ou_stationary_variance(self, basis2):
        c, dt, t_end, n_paths = 0.5, 1e-3, 8.0, 1500
        g = np.zeros(basis2.dim)
        g[0] = c
        noise = BrownianNoiseSpec(constant_field(g))
        cfg = SolverConfig(t_end=t_end, dt=dt, record_stride=8000,
                           include_nonlinearity=False)
        streams = [derive_stream(42, "brownian", 0, p) for p in range(n_paths)]
        batch = simulate_brownian_batch(basis2, cfg, np.zeros(basis2.dim),
                                        streams, noise=noise)
        vals = batch.terminal[:, 0]
        alpha2 = np.exp(-2.0 * dt)
        exact = c * c * dt * alpha2 * (1 - alpha2**cfg.n_steps) / (1 - alpha2)
        se_var = exact * np.sqrt(2.0 / (n_paths - 1))
        assert abs(np.var(vals, ddof=1) - exact) < 4 * se_var
        assert abs(np.mean(vals)) < 4 * np.sqrt(exact / n_paths)

    def test_batch_matches_scalar(self, basis2):
        rng = np.random.default_rng(3)
        u0 = random_field(basis2, rng, norm_h=0.4)
        noise = BrownianNoiseSpec(saturating(0.7))
        cfg = SolverConfig(t_end=0.2, dt=1e-3, record_stride=40)
        streams = lambda: [derive_stream(9, "brownian", 0, p) for p in range(6)]
        batch = simulate_brownian_batch(basis2, cfg, u0, streams(), noise=noise)
        for p in range(6):
            one = simulate_brownian_batch(basis2, cfg, u0,
                                          [derive_stream(9, "brownian", 0, p)],
                                          noise=noise)
            assert np.allclose(batch.terminal[p], one.terminal[0],
                               rtol=1e-10, atol=1e-14)
            assert np.allclose(batch.norm_h2[p], one.norm_h2[0],
                               rtol=1e-10, atol=1e-14)
        again = simulate_brownian_batch(basis2, cfg, u0, streams(), noise=noise)
        assert np.array_equal(batch.terminal, again.terminal)
        assert np.array_equal(batch.norm_h2, again.norm_h2)

    def test_no_noise_draws_nothing(self, basis2):
        # noise=None is a zero sigma arm: its streams are never drawn from
        class Undrawable:
            def __getattr__(self, name):
                raise AssertionError(f"drew from the stream ({name})")

        u0 = unit_vector(basis2, 2, amp=0.5)
        cfg = SolverConfig(t_end=0.05, dt=1e-2)
        a = simulate_brownian_batch(basis2, cfg, u0, [Undrawable()] * 3)
        b = simulate_brownian_batch(basis2, cfg, u0,
                                    [diag_stream(p) for p in range(3)])
        for name in _FIELDS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                          err_msg=name)

    def test_no_noise_channels_is_deterministic(self, basis2):
        u0 = unit_vector(basis2, 2, amp=0.5)
        cfg = SolverConfig(t_end=0.1, dt=1e-3)
        a = simulate_brownian_batch(basis2, cfg, u0, [diag_stream()],
                                    noise=None)
        b = simulate_brownian_batch(basis2, cfg, u0, [diag_stream(1)])
        assert np.array_equal(a.terminal, b.terminal)


class TestJump:
    def test_matches_event_driven_reference(self, basis2):
        """Jump-adapted macro stepping vs a fine event-driven integration."""
        sigma = saturating(0.6)
        kernel = build_jump_kernel(sigma, "annulus", "one", 0.1, NU1)
        rng = np.random.default_rng(8)
        u0 = random_field(basis2, rng, norm_h=0.8)
        t_end = 0.5
        cfg = SolverConfig(t_end=t_end, dt=5e-4, include_nonlinearity=False)
        path = simulate_jump_batch(basis2, cfg, u0,
                                   [derive_stream(11, "jump", 0, 2)], kernel)

        atoms = sample_prm(kernel, t_end, derive_stream(11, "jump", 0, 2))
        eigs = basis2.eigenvalues

        def advance(u, span, dt_fine=2e-5):
            if span <= 0:
                return u
            n = max(1, int(np.ceil(span / dt_fine)))
            h = span / n
            f = np.exp(-eigs * h)
            for _ in range(n):
                u = f * (u - h * kernel.h_integral * sigma.fn(u))
            return u

        u = u0.copy()
        t = 0.0
        for time, mark in zip(atoms.times, atoms.marks):
            u = advance(u, time - t)
            u = u + sigma.fn(float(kernel.theta.fn(mark)) * u) * float(kernel.h.fn(mark))
            t = time
        u = advance(u, t_end - t)

        rel = np.linalg.norm(path.terminal[0] - u) / np.linalg.norm(u)
        assert rel < 5e-3
        assert path.jump_counts[0, -1] == len(atoms)

    def test_mean_decay_constant_sigma(self, basis2):
        # compensation makes the mode mean follow the semigroup
        g = np.zeros(basis2.dim)
        g[0] = 0.4
        kernel = build_jump_kernel(constant_field(g), "annulus", "one", 0.1,
                                   NU1)
        cfg = SolverConfig(t_end=1.0, dt=1e-3, record_stride=1000,
                           include_nonlinearity=False)
        u0 = unit_vector(basis2, 0, amp=1.0)
        n_paths = 800
        streams = [derive_stream(21, "jump", 0, p) for p in range(n_paths)]
        batch = simulate_jump_batch(basis2, cfg, u0, streams, kernel)
        vals = batch.terminal[:, 0]
        target = np.exp(-1.0)
        se = np.std(vals, ddof=1) / np.sqrt(n_paths)
        assert abs(np.mean(vals) - target) < 4 * se + 1e-3
        assert batch.jump_counts[:, -1].mean() > 10  # activity 18 on [0,1]

    def test_batch_matches_scalar(self, basis2):
        sigma = saturating(0.5)
        kernel = build_jump_kernel(sigma, "annulus", "one", 0.2, NU1)
        rng = np.random.default_rng(12)
        u0 = random_field(basis2, rng, norm_h=0.5)
        cfg = SolverConfig(t_end=0.3, dt=1e-3, record_stride=60)
        streams = lambda: [derive_stream(5, "jump", 0, p) for p in range(5)]
        batch = simulate_jump_batch(basis2, cfg, u0, streams(), kernel)
        for p in range(5):
            one = simulate_jump_batch(basis2, cfg, u0,
                                      [derive_stream(5, "jump", 0, p)], kernel)
            assert np.allclose(batch.terminal[p], one.terminal[0],
                               rtol=1e-10, atol=1e-14)
            assert np.array_equal(batch.jump_counts[p], one.jump_counts[0])
            n_events = len(sample_prm(kernel, 0.3,
                                      derive_stream(5, "jump", 0, p)))
            assert batch.jump_counts[p, -1] == n_events
        again = simulate_jump_batch(basis2, cfg, u0, streams(), kernel)
        assert np.array_equal(batch.terminal, again.terminal)


class TestJumpOracle:
    """Batched rounds against the one-path, one-atom reference integrator."""

    FIELDS = ("terminal", "int_v2", "sup_h4", "norm_h2", "jump_counts",
              "blowup_time")

    @staticmethod
    def _both(basis, cfg, u0, kernel, n_paths, seed):
        def streams():
            return [derive_stream(seed, "jump", 0, p) for p in range(n_paths)]
        return (simulate_jump_batch(basis, cfg, u0, streams(), kernel),
                reference_jump_batch(basis, cfg, u0, streams(), kernel))

    def test_linear_many_atoms_per_step(self, basis2):
        g = np.zeros(basis2.dim)
        g[2] = 0.5
        kernel = build_jump_kernel(constant_field(g), "annulus", "one", 0.05,
                                   NU1)
        cfg = SolverConfig(t_end=1.0, dt=0.05, record_stride=2,
                           include_nonlinearity=False)
        u0 = random_field(basis2, np.random.default_rng(4), norm_h=0.5)
        got, ref = self._both(basis2, cfg, u0, kernel, 64, 31)
        assert got.jump_counts[:, -1].mean() > 2 * 38 * cfg.dt
        # activity 38 over dt = 0.05: many steps hold several atoms
        most = [np.bincount((sample_prm(kernel, cfg.t_end,
                                        derive_stream(31, "jump", 0, p)).times
                             / cfg.dt).astype(int)).max() for p in range(64)]
        assert max(most) >= 4
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(ref, name), err_msg=name)

    def test_atoms_at_step_starts_and_shared_times(self, basis2, monkeypatch):
        # atom times snapped to a grid of dt/4: several atoms share a time,
        # some sit exactly at n dt, and those of every fourth grid point are
        # one ulp below it, which for n = 17 falls into the step that starts
        # after it; such substeps have length 0 or below and are skipped
        g = np.zeros(basis2.dim)
        g[2] = 0.5
        kernel = build_jump_kernel(constant_field(g), "annulus", "one", 0.05,
                                   NU1)
        cfg = SolverConfig(t_end=1.0, dt=0.05, include_nonlinearity=False,
                           track_modes=(0, 2))
        quarter = cfg.dt / 4
        drawn_times = []

        def snapped(kernel, horizon, streams):
            atoms, counts = sampling_prm_paths(kernel, horizon, streams)
            k = np.floor(atoms.times / quarter)
            times = k * quarter
            times[k % 4 == 0] = np.nextafter(times[k % 4 == 0], 0.0)
            drawn_times.append(times)
            return Atoms(times, atoms.marks), counts

        sampling_prm_paths = sampling.sample_prm_paths
        monkeypatch.setattr(sampling, "sample_prm_paths", snapped)
        monkeypatch.setattr(integrate, "sample_prm_paths", snapped)
        u0 = random_field(basis2, np.random.default_rng(9), norm_h=0.5)
        got, ref = self._both(basis2, cfg, u0, kernel, 16, 53)
        times = drawn_times[0]
        step = np.minimum((times / cfg.dt).astype(int), cfg.n_steps - 1)
        assert np.any(times[1:] == times[:-1])
        assert np.any(step * cfg.dt == times)
        assert np.any(step * cfg.dt > times)
        for name in _FIELDS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(ref, name), err_msg=name)

    def test_zero_length_substeps(self, basis2, monkeypatch):
        # four atoms of every path moved to times whose substep has length
        # 0: exactly at the step start 0.25, twice at 0.42 (the second at
        # its row's previous time) and at 0.85, where int(0.85 / dt) = 17
        # puts it in a step whose start 17 dt lies after it
        g = np.zeros(basis2.dim)
        g[2] = 0.5
        kernel = build_jump_kernel(constant_field(g), "annulus", "one", 0.05,
                                   NU1)
        cfg = SolverConfig(t_end=1.0, dt=0.05, include_nonlinearity=False,
                           track_modes=(0, 2))
        placed = np.array([0.25, 0.42, 0.42, 0.85])
        assert int(0.25 / cfg.dt) * cfg.dt == 0.25
        assert int(0.85 / cfg.dt) == 17 and 17 * cfg.dt > 0.85
        moved = []

        def placing(kernel, horizon, streams):
            atoms, counts = sampling_prm_paths(kernel, horizon, streams)
            times = atoms.times.copy()
            for lo, k in zip((np.cumsum(counts) - counts).tolist(),
                             counts.tolist()):
                if k >= placed.size:
                    times[lo:lo + placed.size] = placed
                    times[lo:lo + k].sort()
                    moved.append(lo)
            return Atoms(times, atoms.marks), counts

        sampling_prm_paths = sampling.sample_prm_paths
        monkeypatch.setattr(sampling, "sample_prm_paths", placing)
        monkeypatch.setattr(integrate, "sample_prm_paths", placing)
        u0 = random_field(basis2, np.random.default_rng(9), norm_h=0.5)
        got, ref = self._both(basis2, cfg, u0, kernel, 16, 83)
        assert len(moved) == 2 * 16
        for name in _FIELDS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(ref, name), err_msg=name)

    def test_mark_off_the_h_support(self, basis2, monkeypatch):
        # the first mark of every path moves just past the annulus edge 1,
        # where h is 0 and theta is 1e6; sigma is non-finite beyond H norm
        # 10, so that jump is exactly zero only if the integrator forces it
        eps = 0.05
        theta = ThetaKernel(
            "bump", eps,
            lambda z: np.where(np.abs(z) <= 1.0, 1.0 + eps * np.cos(z), 1e6))
        sat = saturating(0.5)

        def capped(u):
            u = np.asarray(u, dtype=np.float64)
            n = np.linalg.norm(u, axis=-1, keepdims=True)
            return np.where(n <= 10.0, sat.fn(u), np.inf)

        sigma = dataclasses.replace(sat, name="capped", fn=capped)
        kernel = make_kernel(sigma, theta, build_h("annulus", eps, NU1), NU1)
        cfg = SolverConfig(t_end=0.5, dt=0.05, include_nonlinearity=False,
                           track_modes=(0, 2))
        moved = []

        def off_support(kernel, horizon, streams):
            atoms, counts = sampling_prm_paths(kernel, horizon, streams)
            first = (np.cumsum(counts) - counts)[counts > 0]
            marks = atoms.marks.copy()
            marks[first] = np.copysign(np.nextafter(1.0, 2.0), marks[first])
            moved.append(first.size)
            return Atoms(atoms.times, marks), counts

        sampling_prm_paths = sampling.sample_prm_paths
        monkeypatch.setattr(sampling, "sample_prm_paths", off_support)
        monkeypatch.setattr(integrate, "sample_prm_paths", off_support)
        u0 = random_field(basis2, np.random.default_rng(9), norm_h=0.5)
        got, ref = self._both(basis2, cfg, u0, kernel, 16, 61)
        assert moved[0] == 16
        assert kernel.h.fn(np.nextafter(1.0, 2.0)) == 0.0
        assert np.isnan(got.blowup_time).all()
        for name in _FIELDS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(ref, name), err_msg=name)

    def test_odd_profile_compensator_skips_sigma(self, basis2):
        # outer_linear under theta = one has h_integral 0, so the compensator
        # is an exact 0 there and must not read sigma, which is non-finite
        # beyond H norm 0.2: the paths start at 0.5 and live until an atom
        sat = saturating(0.5)

        def capped(u):
            u = np.asarray(u, dtype=np.float64)
            n = np.linalg.norm(u, axis=-1, keepdims=True)
            return np.where(n <= 0.2, sat.fn(u), np.inf)

        sigma = dataclasses.replace(sat, name="capped", fn=capped)
        kernel = build_jump_kernel(sigma, "outer_linear", "one", 0.1, NU1)
        assert kernel.h_integral == 0.0
        cfg = SolverConfig(t_end=0.5, dt=0.01, include_nonlinearity=False,
                           track_modes=(0, 2))
        u0 = random_field(basis2, np.random.default_rng(3), norm_h=0.5)
        got, ref = self._both(basis2, cfg, u0, kernel, 8, 71)
        assert np.isnan(ref.blowup_time).any()
        for name in _FIELDS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(ref, name), err_msg=name)

    def test_nonlinear_saturating_cosine(self, basis2):
        kernel = build_jump_kernel(saturating(0.5), "annulus", "cosine", 0.05,
                                   NU1)
        cfg = SolverConfig(t_end=0.5, dt=0.01, record_stride=5)
        u0 = random_field(basis2, np.random.default_rng(5), norm_h=0.6)
        got, ref = self._both(basis2, cfg, u0, kernel, 32, 37)
        for name in ("terminal", "int_v2", "sup_h4", "norm_h2"):
            np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                       rtol=1e-10, atol=1e-14, err_msg=name)
        np.testing.assert_array_equal(got.jump_counts, ref.jump_counts)
        np.testing.assert_array_equal(got.blowup_time, ref.blowup_time)

    def test_every_path_blows_up_inside_atom_steps(self, basis2):
        # odd profile, so no compensator drift: only an atom (size >= 4.7)
        # can leave the ball of radius 3
        g = np.zeros(basis2.dim)
        g[0] = 20.0
        kernel = build_jump_kernel(constant_field(g), "outer_linear", "one",
                                   0.1, NU1)
        cfg = SolverConfig(t_end=4.0, dt=0.05, record_stride=4,
                           include_nonlinearity=False, blowup_norm=3.0)
        u0 = unit_vector(basis2, 1, amp=0.5)
        got, ref = self._both(basis2, cfg, u0, kernel, 16, 41)
        assert np.all(np.isfinite(got.blowup_time))
        for p, t_blow in enumerate(got.blowup_time):
            atoms = sample_prm(kernel, cfg.t_end, derive_stream(41, "jump", 0, p))
            n = round(t_blow / cfg.dt) - 1
            assert np.any((atoms.times >= n * cfg.dt)
                          & (atoms.times < (n + 1) * cfg.dt))
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(ref, name), err_msg=name)


_FIELDS = ("norm_h2", "norm_v2", "int_v2", "mode_traces", "drift_traces",
           "jump_counts", "sup_h4", "blowup_time", "terminal")


class TestPlanOrder:
    @pytest.mark.parametrize("n_rows, n_steps, rate", [
        (40, 7, 0.8), (25, 50, 4.0), (1, 5, 3.0), (9, 3, 0.0)])
    def test_matches_lexsort(self, n_rows, n_steps, rate):
        # (step, rank, row) triples as a plan makes them, shuffled: rows
        # from an offset, zero-atom rows, a single row, no atom at all
        rng = np.random.default_rng(n_rows)
        per = rng.poisson(rate, size=(n_rows, n_steps)).ravel()
        row = np.repeat(np.repeat(np.arange(n_rows), n_steps), per) + 7
        step = np.repeat(np.tile(np.arange(n_steps), n_rows), per)
        rank = np.concatenate([np.arange(k) for k in per]
                              + [np.empty(0, dtype=int)])
        mix = rng.permutation(row.size)
        row, step, rank = row[mix], step[mix], rank[mix]
        assert (per == 0).any() or n_rows == 1
        np.testing.assert_array_equal(integrate._plan_order(step, rank, row),
                                      np.lexsort((row, rank, step)))

    def test_key_overflow_falls_back(self):
        step = np.array([2**40, 5, 2**40, 0])
        rank = np.array([0, 1, 0, 3])
        row = np.array([2**22, 9, 3, 2**22])
        np.testing.assert_array_equal(integrate._plan_order(step, rank, row),
                                      np.lexsort((row, rank, step)))


class TestStackedArms:
    def test_blowup_inside_atom_steps(self, basis2):
        # the outer_linear oracle config, stacked behind a Brownian arm
        # and next to a second jump arm: each arm keeps its single-arm bits
        g = np.zeros(basis2.dim)
        g[0] = 20.0
        sigma = constant_field(g)
        kernels = [build_jump_kernel(sigma, "outer_linear", "one", eps, NU1)
                   for eps in (0.2, 0.1)]
        cfg = SolverConfig(t_end=4.0, dt=0.05, record_stride=4,
                           include_nonlinearity=False, blowup_norm=3.0,
                           track_modes=(0, 1))
        u0 = unit_vector(basis2, 1, amp=0.5)
        noise = BrownianNoiseSpec(sigma)

        def streams(arm, j):
            return [derive_stream(41, arm, j, p) for p in range(16)]

        stacked = simulate_arms(basis2, cfg, u0,
                                drawn(cfg, [(sigma, streams("brownian", 0)),
                                            (kernels[0], streams("jump", 0)),
                                            (kernels[1], streams("jump", 1))]))
        alone = [simulate_brownian_batch(basis2, cfg, u0,
                                         streams("brownian", 0), noise)]
        alone += [simulate_jump_batch(basis2, cfg, u0, streams("jump", j), k)
                  for j, k in enumerate(kernels)]
        for got, ref in zip(stacked, alone):
            for name in _FIELDS:
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(ref, name),
                                              err_msg=name)
        for j, batch in enumerate(stacked[1:]):
            assert np.isfinite(batch.blowup_time).any()
            for p, t_blow in enumerate(batch.blowup_time):
                times = sample_prm(kernels[j], cfg.t_end,
                                   derive_stream(41, "jump", j, p)).times
                if np.isfinite(t_blow):
                    # atoms after the blow-up step are never counted
                    times = times[times < t_blow]
                assert batch.jump_counts[p, -1] == times.size

    def test_one_map_call_per_state(self, basis2):
        # the one sigma map sees every row of the stack once per step, and
        # each atom's row twice, for its jump and for the compensator after
        # it
        seen = [0]

        def fn(u):
            seen[0] += len(u)
            return sat.fn(u)

        sat = saturating(0.5)
        sigma = dataclasses.replace(sat, fn=fn)
        kernel = build_jump_kernel(sigma, "annulus", "one", 0.1, NU1)
        cfg = SolverConfig(t_end=0.2, dt=0.01, include_nonlinearity=False)
        u0 = random_field(basis2, np.random.default_rng(8), norm_h=0.5)
        brown, jump = simulate_arms(
            basis2, cfg, u0,
            drawn(cfg, [
                (sigma, [derive_stream(59, "brownian", 0, p) for p in range(6)]),
                (kernel, [derive_stream(59, "jump", 0, p) for p in range(6)])]))
        assert np.isnan(jump.blowup_time).all()
        atoms = int(jump.jump_counts[:, -1].sum())
        assert atoms > 0
        assert seen[0] == cfg.n_steps * 12 + 2 * atoms

    def test_busy_theta_one_and_cosine_arms(self, basis2):
        # a round passes theta v to sigma once any arm of the stack has
        # theta != one, and v itself when every arm has theta = one: both
        # arms keep the bits they have alone and those of the reference
        sigma = saturating(0.5)
        kernels = [build_jump_kernel(sigma, "annulus", theta, 0.01, NU1)
                   for theta in ("one", "cosine")]
        cfg = SolverConfig(t_end=0.1, dt=0.01, include_nonlinearity=False,
                           track_modes=(0, 2))
        u0 = random_field(basis2, np.random.default_rng(12), norm_h=0.5)

        def streams(j):
            return [derive_stream(47, "jump", j, p) for p in range(8)]

        stacked = simulate_arms(basis2, cfg, u0,
                                drawn(cfg, [(k, streams(j))
                                            for j, k in enumerate(kernels)]))
        for j, (kernel, got) in enumerate(zip(kernels, stacked)):
            # activity 198 over dt = 0.01: about two atoms per path and step
            assert got.jump_counts[:, -1].min() >= 10
            alone = simulate_jump_batch(basis2, cfg, u0, streams(j), kernel)
            ref = reference_jump_batch(basis2, cfg, u0, streams(j), kernel)
            for name in _FIELDS:
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(alone, name),
                                              err_msg=name)
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(ref, name),
                                              err_msg=name)

    def test_nonlinear_term_once_per_state(self, basis2, monkeypatch):
        # B(u) goes through the module binding integrate.nonlinear_term_batch
        # (a benchmark wraps it): once per main step, once for the last
        # record and once per atom round, whose count per step is the most
        # atoms any jump row of the stack has in that step
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return nonlinear_term_batch(*args)

        monkeypatch.setattr(integrate, "nonlinear_term_batch", counted)
        sigma = saturating(0.5)
        kernels = [build_jump_kernel(sigma, "annulus", theta, eps, NU1)
                   for theta, eps in (("one", 0.05), ("cosine", 0.02))]
        cfg = SolverConfig(t_end=0.1, dt=0.01)
        u0 = random_field(basis2, np.random.default_rng(14), norm_h=0.5)

        def streams(arm, j):
            return [derive_stream(71, arm, j, p) for p in range(6)]

        simulate_arms(basis2, cfg, u0,
                      drawn(cfg, [(sigma, streams("brownian", 0))]
                            + [(k, streams("jump", j))
                               for j, k in enumerate(kernels)]))
        most = np.zeros(cfg.n_steps, dtype=int)
        for j, kernel in enumerate(kernels):
            for g in streams("jump", j):
                times = sample_prm(kernel, cfg.t_end, g).times
                step = np.minimum((times / cfg.dt).astype(int),
                                  cfg.n_steps - 1)
                most = np.maximum(most, np.bincount(step,
                                                    minlength=cfg.n_steps))
        assert most.sum() > cfg.n_steps
        assert calls[0] == cfg.n_steps + 1 + most.sum()

    def test_b_blocks_cross_arm_boundaries(self, basis2, monkeypatch):
        # 3 arms of 300 paths stack 900 rows: every B(u) call takes them in
        # blocks of _B_ROWS whatever arm they belong to, and each nonlinear
        # arm stays within round-off of its one-arm run
        from snse import nonlinear

        log = []   # per B(u) call: its rows, then the rows of each block
        term = integrate.nonlinear_term_batch
        stress = nonlinear._stress_divergence

        def outer(basis, u):
            log.append([len(u)])
            return term(basis, u)

        def inner(basis, c):
            log[-1].append(len(c))
            return stress(basis, c)

        sigma = saturating(0.5)
        kernels = [build_jump_kernel(sigma, "annulus", "cosine", eps, NU1)
                   for eps in (0.2, 0.1)]
        cfg = SolverConfig(t_end=0.05, dt=0.01)
        u0 = random_field(basis2, np.random.default_rng(3), norm_h=0.6)
        noise = BrownianNoiseSpec(sigma)

        def streams(arm, j):
            return [derive_stream(61, arm, j, p) for p in range(300)]

        monkeypatch.setattr(integrate, "nonlinear_term_batch", outer)
        monkeypatch.setattr(nonlinear, "_stress_divergence", inner)
        stacked = simulate_arms(basis2, cfg, u0,
                                drawn(cfg, [(sigma, streams("brownian", 0))]
                                      + [(k, streams("jump", j))
                                         for j, k in enumerate(kernels)]))
        monkeypatch.undo()
        b = nonlinear._B_ROWS
        assert b < 900
        for rows, *blocks in log:
            assert blocks == [min(b, rows - lo) for lo in range(0, rows, b)]
        # every main step and the last record see the whole stack
        assert sum(rows == 900 for rows, *_ in log) == cfg.n_steps + 1
        alone = [simulate_brownian_batch(basis2, cfg, u0,
                                         streams("brownian", 0), noise)]
        alone += [simulate_jump_batch(basis2, cfg, u0, streams("jump", j), k)
                  for j, k in enumerate(kernels)]
        for got, ref in zip(stacked, alone):
            for name in ("terminal", "norm_h2", "int_v2", "sup_h4"):
                want = getattr(ref, name)
                np.testing.assert_allclose(
                    getattr(got, name), want, rtol=1e-13,
                    atol=1e-13 * np.max(np.abs(want)), err_msg=name)
            np.testing.assert_array_equal(got.jump_counts, ref.jump_counts)
            np.testing.assert_array_equal(got.blowup_time, ref.blowup_time)
        assert stacked[2].jump_counts[:, -1].sum() > 0

    def test_two_maps_in_one_stack_refused(self, basis2):
        # equal maps built twice are two objects: the arms must share one
        kernel = build_jump_kernel(saturating(0.5), "annulus", "one", 0.1,
                                   NU1)
        cfg = SolverConfig(t_end=0.02, dt=0.01)
        u0 = unit_vector(basis2, 0, amp=0.3)
        arms = drawn(cfg, [(saturating(0.5), [diag_stream()]),
                           (kernel, [diag_stream(1)])])
        with pytest.raises(ValueError, match="one sigma map"):
            simulate_arms(basis2, cfg, u0, arms)
        other = build_jump_kernel(saturating(0.5), "annulus", "cosine", 0.1,
                                  NU1)
        with pytest.raises(ValueError, match="one sigma map"):
            simulate_arms(basis2, cfg, u0,
                          drawn(cfg, [(kernel, [diag_stream()]),
                                      (other, [diag_stream(1)])]))
        # two Brownian arms on equal maps that are not one object
        twin = dataclasses.replace(kernel.sigma)
        assert twin == kernel.sigma and twin is not kernel.sigma
        with pytest.raises(ValueError, match="one sigma map"):
            simulate_arms(basis2, cfg, u0,
                          drawn(cfg, [(kernel.sigma, [diag_stream()]),
                                      (twin, [diag_stream(1)])]))

    def test_jump_arm_without_atoms(self, basis2):
        # activity 2 (1/0.9 - 1) = 0.22 per unit time over 0.05: the quiet
        # arm draws no atom on any path, while the busy arm (activity 198)
        # draws about ten per path
        sigma = saturating(0.5)
        quiet = build_jump_kernel(sigma, "annulus", "cosine", 0.9, NU1)
        busy = build_jump_kernel(sigma, "annulus", "one", 0.01, NU1)
        cfg = SolverConfig(t_end=0.05, dt=0.01, include_nonlinearity=False,
                           track_modes=(0, 2))
        u0 = random_field(basis2, np.random.default_rng(6), norm_h=0.5)

        def streams(j):
            return [derive_stream(43, "jump", j, p) for p in range(8)]

        stacked = simulate_arms(basis2, cfg, u0,
                                drawn(cfg, [(quiet, streams(0)),
                                            (busy, streams(1))]))
        alone = [simulate_jump_batch(basis2, cfg, u0, streams(j), k)
                 for j, k in enumerate((quiet, busy))]
        assert not stacked[0].jump_counts.any()
        assert stacked[1].jump_counts[:, -1].min() > 0
        for got, ref in zip(stacked, alone):
            for name in _FIELDS:
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(ref, name),
                                              err_msg=name)

    def test_no_atoms_anywhere(self, basis2):
        # a plan with no atoms at all: every step is the compensated
        # exponential Euler step, replayed here operation for operation
        g = np.zeros(basis2.dim)
        g[0] = 0.5
        kernel = build_jump_kernel(constant_field(g), "annulus", "one", 0.9,
                                   NU1)
        comp = kernel.h_integral * g
        cfg = SolverConfig(t_end=0.05, dt=0.01, include_nonlinearity=False)
        u0 = unit_vector(basis2, 0, amp=0.3)
        batch = simulate_jump_batch(basis2, cfg, u0,
                                    [derive_stream(43, "jump", 0, p)
                                     for p in range(4)], kernel)
        assert not batch.jump_counts.any()
        efac = np.exp(-basis2.eigenvalues * cfg.dt)
        u = u0.copy()
        for _ in range(cfg.n_steps):
            u = efac * ((0.0 - comp) * cfg.dt + u)
        for p in range(4):
            assert np.array_equal(batch.terminal[p], u)


class TestNoiseAsData:
    """simulate_arms steps the noise it is handed, and refuses bad noise."""

    CFG = SolverConfig(t_end=0.05, dt=0.01, include_nonlinearity=False,
                       track_modes=(0, 2))

    @staticmethod
    def _kernel(theta="one"):
        # activity 198: about ten atoms per path over t_end = 0.05
        return build_jump_kernel(saturating(0.5), "annulus", theta, 0.01, NU1)

    @staticmethod
    def _streams(n=6):
        return [derive_stream(37, "jump", 0, p) for p in range(n)]

    def _step(self, basis, arms):
        u0 = random_field(basis, np.random.default_rng(5), norm_h=0.5)
        return simulate_arms(basis, self.CFG, u0, arms)

    def test_two_arms_share_one_draw(self, basis2):
        # one (Atoms, counts) handed to two jump arms of one stack: both get
        # the bytes of the one-arm run from the same streams
        kernel = self._kernel("cosine")
        atoms, counts = sample_prm_paths(kernel, self.CFG.t_end,
                                         self._streams())
        assert counts.min() > 1
        first, second = self._step(basis2, [(kernel, (atoms, counts)),
                                            (kernel, (atoms, counts))])
        u0 = random_field(basis2, np.random.default_rng(5), norm_h=0.5)
        alone = simulate_jump_batch(basis2, self.CFG, u0, self._streams(),
                                    kernel)
        for name in _FIELDS:
            np.testing.assert_array_equal(getattr(first, name),
                                          getattr(second, name),
                                          err_msg=name)
            np.testing.assert_array_equal(getattr(first, name),
                                          getattr(alone, name),
                                          err_msg=name)

    def test_increments_not_steps_by_paths(self, basis2):
        kernel = self._kernel()
        n = self.CFG.n_steps
        for dw in (np.zeros((n + 1, 6)), np.zeros((n - 1, 6)),
                   np.zeros(n), np.zeros((n, 6, 1))):
            with pytest.raises(ValueError, match="n_steps, paths"):
                self._step(basis2, [(kernel.sigma, dw)])
        # five increments columns next to a jump arm of six paths
        drawn_atoms = sample_prm_paths(kernel, self.CFG.t_end,
                                       self._streams())
        with pytest.raises(ValueError, match="same number of paths"):
            self._step(basis2, [(kernel.sigma, np.zeros((n, 5))),
                                (kernel, drawn_atoms)])

    def test_driver_neither_map_nor_kernel(self, basis2):
        # None (the former Brownian marker), a noise spec and an h kernel
        # drive no arm, whatever the noise next to them
        kernel = self._kernel()
        dw = np.zeros((self.CFG.n_steps, 6))
        for driver in (None, BrownianNoiseSpec(kernel.sigma), kernel.h):
            with pytest.raises(ValueError, match="FieldMap.*JumpKernel"):
                self._step(basis2, [(driver, dw)])
            with pytest.raises(ValueError, match="FieldMap.*JumpKernel"):
                self._step(basis2, [(kernel.sigma, dw), (driver, dw)])

    def test_fifth_positional_argument(self, basis2):
        # forcing, out and turn are keyword-only: a noise spec handed
        # positionally binds to nothing
        kernel = self._kernel()
        dw = np.zeros((self.CFG.n_steps, 6))
        u0 = random_field(basis2, np.random.default_rng(5), norm_h=0.5)
        with pytest.raises(TypeError):
            simulate_arms(basis2, self.CFG, u0, [(kernel.sigma, dw)],
                          BrownianNoiseSpec(kernel.sigma))

    def test_counts_not_summing_to_atoms(self, basis2):
        kernel = self._kernel()
        atoms, counts = sample_prm_paths(kernel, self.CFG.t_end,
                                         self._streams())
        for shift in (1, -1):
            wrong = counts.copy()
            wrong[2] += shift
            with pytest.raises(ValueError, match="counts must sum"):
                self._step(basis2, [(kernel, (atoms, wrong))])

    def test_atom_times_off_the_horizon(self, basis2):
        kernel = self._kernel()
        atoms, counts = sample_prm_paths(kernel, self.CFG.t_end,
                                         self._streams())
        last = int(counts[0]) - 1
        for p, t in ((0, -1e-12), (last, np.nextafter(self.CFG.t_end, 1.0)),
                     (last, np.nan)):
            times = atoms.times.copy()
            times[p] = t
            with pytest.raises(ValueError, match=r"off \[0, t_end\]"):
                self._step(basis2, [(kernel, (Atoms(times, atoms.marks),
                                              counts))])

    def test_atom_times_unsorted_in_a_path(self, basis2):
        kernel = self._kernel()
        atoms, counts = sample_prm_paths(kernel, self.CFG.t_end,
                                         self._streams())
        # a path's atoms follow the previous path's, whose last atom is
        # mostly later than this path's first: that is no disorder
        start = int(counts[0])
        assert atoms.times[start] < atoms.times[start - 1]
        self._step(basis2, [(kernel, (atoms, counts))])
        times = atoms.times.copy()
        times[[start, start + 1]] = times[[start + 1, start]]
        with pytest.raises(ValueError, match="unsorted in a path"):
            self._step(basis2, [(kernel, (Atoms(times, atoms.marks),
                                          counts))])


class TestArmTraces:
    def test_chunks_write_every_entry_once(self, basis2, monkeypatch):
        # chunks of 7 over 30 paths write a record-major store through
        # windows: each chunk's window starts at the sentinel, ends with
        # every entry written, each record once, and nothing outside it
        # changes
        sigma = saturating(0.5)
        kernel = build_jump_kernel(sigma, "annulus", "one", 0.1, NU1)
        cfg = SolverConfig(t_end=0.06, dt=0.01, record_stride=2,
                           track_modes=(0, 3))
        u0 = random_field(basis2, np.random.default_rng(4), norm_h=0.5)
        traces = integrate.ArmTraces(cfg, 2, 30, basis2.dim)
        assert traces.norm_h2.shape == (cfg.n_recorded, 2, 30)
        assert traces.mode_traces.shape == (cfg.n_recorded, 2, 30, 2)
        sentinel = {"jump_counts": -1, "blowup_time": -1.0}
        for name in integrate._TRACES:
            getattr(traces, name)[...] = sentinel.get(name, np.nan)
        written = []
        record = integrate.ArmTraces.record

        def counted(self, r, *args):
            written.append(r)
            return record(self, r, *args)

        monkeypatch.setattr(integrate.ArmTraces, "record", counted)
        for lo in range(0, 30, 7):
            hi = min(lo + 7, 30)
            window = traces.window(lo, hi)
            before = {name: getattr(traces, name).copy()
                      for name in integrate._TRACES}
            for name in integrate._TRACES:
                fresh = getattr(window, name) == sentinel.get(name, np.nan)
                if name not in sentinel:
                    fresh = np.isnan(getattr(window, name))
                assert fresh.all(), name
            arms = [(sigma, sampling.PathStreams(9, "brownian", 0,
                                                 range(lo, hi))),
                    (kernel, sampling.PathStreams(9, "jump", 0,
                                                  range(lo, hi)))]
            written.clear()
            simulate_arms(basis2, cfg, u0, drawn(cfg, arms), out=window)
            assert sorted(written) == list(range(cfg.n_recorded))
            for name in integrate._TRACES:
                got = getattr(window, name)
                if name == "blowup_time":
                    assert np.isnan(got).all()
                elif name == "jump_counts":
                    assert (got >= 0).all()
                else:
                    assert np.isfinite(got).all(), name
                # outside the window the store keeps what it had
                cut = (slice(None),) * (2 if name in integrate._RECORDED
                                        else 1)
                now, old = getattr(traces, name), before[name]
                for part in (slice(0, lo), slice(hi, None)):
                    np.testing.assert_array_equal(now[cut + (part,)],
                                                  old[cut + (part,)])
        batches = traces.batches()
        assert batches[1].jump_counts[:, -1].sum() > 0
        for batch in batches:
            assert batch.norm_h2.shape == (30, cfg.n_recorded)
            assert batch.mode_traces.shape == (30, cfg.n_recorded, 2)
            assert batch.terminal.shape == (30, basis2.dim)
            np.testing.assert_array_equal(batch.mode_traces[:, 0],
                                          np.tile(u0[[0, 3]], (30, 1)))


class TestBlowUpAndExit:
    def test_batch_masks_blown_path(self, basis2):
        cfg = SolverConfig(t_end=3.0, dt=1e-3, record_stride=100,
                           include_nonlinearity=False, blowup_norm=1e3)
        u0 = np.zeros((2, basis2.dim))
        u0[1, 0] = 1.0
        batch = simulate_brownian_batch(basis2, cfg, u0,
                                        [diag_stream(0), diag_stream(1)],
                                        forcing=scaled_identity(6.0))
        assert list(batch.valid_mask()) == [True, False]
        t_blow = batch.blowup_time[1]
        assert 1.2 < t_blow < 1.6
        before = batch.times < t_blow
        assert np.all(np.isfinite(batch.norm_h2[1, before]))
        assert np.all(np.isnan(batch.norm_h2[1, ~before]))
        assert np.all(np.isnan(batch.terminal[1]))
        assert np.all(np.isfinite(batch.terminal[0]))
        assert np.isfinite(batch.sup_h4[1])
        assert np.isfinite(batch.int_v2[1, -1])

    def test_growth_records_closed_form(self, basis2):
        # linear growth mode: per-step factor has a closed form
        dt, stride = 1e-3, 10
        cfg = SolverConfig(t_end=1.0, dt=dt, record_stride=stride,
                           include_nonlinearity=False)
        u0 = unit_vector(basis2, 0, amp=1.0)
        batch = simulate_brownian_batch(basis2, cfg, u0, [diag_stream()],
                                        forcing=scaled_identity(3.0))
        f = (1 + 3 * dt) * np.exp(-dt)
        rs = np.arange(cfg.n_recorded)
        h2_ref = f ** (2 * stride * rs)
        assert np.allclose(batch.norm_h2[0], h2_ref, rtol=1e-9)

        steps = np.arange(cfg.n_steps)
        iv2_all = np.concatenate([[0.0], np.cumsum(dt * f ** (2 * steps))])
        iv2_ref = iv2_all[stride * rs]
        assert np.allclose(batch.int_v2[0], iv2_ref, rtol=1e-9)

    def test_v_integral_weights_eigenvalue(self, basis2):
        # lambda=5 mode forced just above neutral: the V-integral piles up
        # about five times faster than the H-norm grows
        dt, stride = 1e-3, 10
        cfg = SolverConfig(t_end=1.0, dt=dt, record_stride=stride,
                           include_nonlinearity=False)
        idx = basis2.mode_index(1, 2, "cos")
        lam = basis2.eigenvalues[idx]
        assert lam == 5.0
        u0 = unit_vector(basis2, idx, amp=1.0)
        batch = simulate_brownian_batch(basis2, cfg, u0, [diag_stream()],
                                        forcing=scaled_identity(5.5))
        f = (1 + 5.5 * dt) * np.exp(-5.0 * dt)
        rs = np.arange(cfg.n_recorded)
        assert np.allclose(batch.norm_h2[0], f ** (2 * stride * rs), rtol=1e-9)
        steps = np.arange(cfg.n_steps)
        iv2_all = np.concatenate([[0.0], np.cumsum(dt * lam * f ** (2 * steps))])
        iv2_ref = iv2_all[stride * rs]
        assert np.allclose(batch.int_v2[0], iv2_ref, rtol=1e-9)
