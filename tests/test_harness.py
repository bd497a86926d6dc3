import dataclasses

import numpy as np
import pytest

from snse.basis import get_basis
from snse.errors import CertificationError, ConfigError
from snse.harness import (ExperimentConfig, functional_samples, manifest_lines,
                          persist, run_arm, run_experiment)
from snse.hypotheses import kernel_grid
from snse.integrate import BrownianNoiseSpec, SolverConfig
from snse.kernels import (constant_field, saturating, scaled_identity,
                          zero_map)
from snse.measures import alpha_stable_measure
from snse.stats import compare_laws


def _sigma(basis, amp=0.5, idx=0):
    g = np.zeros(basis.dim)
    g[idx] = amp
    return constant_field(g)


def _solver(t_end=0.5, dt=1e-3, stride=50):
    return SolverConfig(t_end, dt, record_stride=stride,
                        include_nonlinearity=False, track_modes=(0,))


def _config(basis, eps=(0.2, 0.1), n_paths=120, seed=11, **kw):
    sigma = kw.pop("sigma", None) or _sigma(basis)
    kernels = kw.pop("kernels", None)
    if kernels is None:
        kernels = kernel_grid(sigma, "annulus", "one", eps,
                              alpha_stable_measure(1.0))
    u0 = np.zeros(basis.dim)
    u0[0] = 0.3
    return ExperimentConfig(
        basis=basis, solver=kw.pop("solver", _solver()), initial=u0,
        noise=BrownianNoiseSpec(sigma), kernels=tuple(kernels),
        functionals=kw.pop("functionals", ("normH2", "mode:0")),
        n_paths=n_paths, seed=seed, **kw)


@pytest.fixture(scope="module")
def basis1():
    return get_basis(1)


class TestConfigValidation:
    def test_wrong_initial_dimension(self, basis1):
        with pytest.raises(ConfigError):
            cfg = _config(basis1)
            ExperimentConfig(basis=basis1, solver=cfg.solver,
                             initial=np.zeros(3), noise=cfg.noise,
                             kernels=cfg.kernels)

    def test_unknown_functional(self, basis1):
        with pytest.raises(ConfigError):
            _config(basis1, functionals=("energy",))

    def test_repeated_functional(self, basis1):
        with pytest.raises(ConfigError, match="listed twice"):
            _config(basis1, functionals=("normH2", "normH2"))
        # one mode has one name, so mode:0 cannot come back as mode:00
        for alias in ("mode:00", "mode: 0", "mode:+0"):
            with pytest.raises(ConfigError, match="bad functional"):
                _config(basis1, functionals=("mode:0", alias))

    def test_mode_index_out_of_range(self, basis1):
        with pytest.raises(ConfigError):
            _config(basis1, functionals=("mode:99",))

    def test_sigma_name_mismatch(self, basis1):
        kernels = kernel_grid(_sigma(basis1), "annulus", "one",
                              (0.2, 0.1), alpha_stable_measure(1.0))
        cfg = _config(basis1)
        with pytest.raises(ConfigError):
            ExperimentConfig(basis=basis1, solver=cfg.solver,
                             initial=cfg.initial,
                             noise=BrownianNoiseSpec(scaled_identity(0.5)),
                             kernels=tuple(kernels))

    def test_equal_names_are_not_one_map(self, basis1):
        # both maps are named saturating:0.5, but only one map object gives
        # the two arms one diffusion limit
        near = saturating(0.5000001)
        assert near.name == saturating(0.5).name
        kernels = kernel_grid(near, "annulus", "one", (0.2, 0.1),
                              alpha_stable_measure(1.0))
        with pytest.raises(ConfigError, match="not the Brownian sigma"):
            _config(basis1, sigma=saturating(0.5), kernels=kernels)

    def test_grid_must_decrease(self, basis1):
        sigma = _sigma(basis1)
        kernels = kernel_grid(sigma, "annulus", "one",
                              (0.2, 0.1), alpha_stable_measure(1.0))
        with pytest.raises(ConfigError, match="decreasing"):
            _config(basis1, sigma=sigma, kernels=tuple(reversed(kernels)))

    def test_hash_stable_and_sensitive(self, basis1):
        a = _config(basis1, seed=11)
        b = _config(basis1, seed=11)
        c = _config(basis1, seed=12)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16


class TestRunArm:
    def test_chunk_size_does_not_change_values(self, basis1):
        cfg = _config(basis1, n_paths=50, chunk_size=512)
        alt = dataclasses.replace(cfg, chunk_size=7)
        a = run_arm(cfg, "jump", 0)
        b = run_arm(alt, "jump", 0)
        assert np.array_equal(a.terminal, b.terminal, equal_nan=True)
        assert np.array_equal(a.jump_counts, b.jump_counts)


_FIELDS = ("norm_h2", "norm_v2", "int_v2", "mode_traces", "drift_traces",
           "jump_counts", "sup_h4", "blowup_time", "terminal")


class TestStackedArms:
    """run_experiment advances every arm of a chunk together; run_arm one."""

    @staticmethod
    def _pairs(cfg):
        res = run_experiment(cfg)
        yield res.bm_batch, run_arm(cfg, "brownian", 0)
        for j, batch in enumerate(res.jump_batches):
            yield batch, run_arm(cfg, "jump", j)

    def test_linear_arms_bit_identical(self, basis1):
        # chunks of 30, 30, 30 and 10 paths: the V-norm gemv is taken arm
        # by arm, because its rows depend on the batch shape
        cfg = _config(basis1, n_paths=100, chunk_size=30)
        for stacked, alone in self._pairs(cfg):
            for name in _FIELDS:
                np.testing.assert_array_equal(getattr(stacked, name),
                                              getattr(alone, name),
                                              err_msg=name)

    def test_mixed_theta_arms_bit_identical(self, basis1):
        # a theta = cosine arm next to a theta = one arm under one
        # saturating map: the main step's sigma(u) serves the Brownian rows
        # and both compensators, and a round's sigma(theta v) both arms'
        # jumps, with the one arm's theta planned as 1.0
        sigma = saturating(0.5)
        nu = alpha_stable_measure(1.0)
        kernels = (kernel_grid(sigma, "annulus", "cosine", (0.2,), nu)
                   + kernel_grid(sigma, "annulus", "one", (0.1,), nu))
        cfg = _config(basis1, n_paths=100, chunk_size=40, sigma=sigma,
                      kernels=kernels)
        for stacked, alone in self._pairs(cfg):
            for name in _FIELDS:
                np.testing.assert_array_equal(getattr(stacked, name),
                                              getattr(alone, name),
                                              err_msg=name)

    def test_nonlinear_arms_agree(self, basis2):
        # only the B(u) gemm sees another batch shape when arms are stacked
        from oracles import random_field

        sigma = saturating(0.5)
        kernels = kernel_grid(sigma, "annulus", "cosine", (0.2, 0.1),
                              alpha_stable_measure(1.0))
        solver = SolverConfig(0.2, 0.01, record_stride=5)
        cfg = ExperimentConfig(
            basis=basis2, solver=solver,
            initial=random_field(basis2, np.random.default_rng(3), norm_h=0.6),
            noise=BrownianNoiseSpec(sigma), kernels=tuple(kernels),
            n_paths=100, seed=5, chunk_size=40)
        for stacked, alone in self._pairs(cfg):
            for name in ("terminal", "norm_h2", "int_v2", "sup_h4"):
                ref = getattr(alone, name)
                np.testing.assert_allclose(
                    getattr(stacked, name), ref, rtol=1e-13,
                    atol=1e-13 * np.max(np.abs(ref)), err_msg=name)
            np.testing.assert_array_equal(stacked.jump_counts,
                                          alone.jump_counts)
            np.testing.assert_array_equal(stacked.blowup_time,
                                          alone.blowup_time)


class TestFunctionalSamples:
    def test_deterministic_decay_values(self, basis1):
        zero = zero_map()
        cfg = _config(basis1, sigma=zero, n_paths=4,
                      functionals=("normH2", "normV2", "mode:0",
                                   "sup_normH2"))
        batch = run_arm(cfg, "brownian", 0)
        # eigenvalue 1 for the first mode, so the field is 0.3 e^{-t} e_0
        ref = 0.3 * np.exp(-0.5)
        assert functional_samples(batch, "mode:0") == pytest.approx(
            [ref] * 4, rel=1e-12)
        assert functional_samples(batch, "normH2") == pytest.approx(
            [ref ** 2] * 4, rel=1e-12)
        assert functional_samples(batch, "normV2") == pytest.approx(
            [ref ** 2] * 4, rel=1e-12)
        assert functional_samples(batch, "sup_normH2") == pytest.approx(
            [0.09] * 4, rel=1e-12)

    def test_unknown_name_rejected(self, basis1):
        cfg = _config(basis1, n_paths=2)
        batch = run_arm(cfg, "brownian", 0)
        with pytest.raises(ConfigError):
            functional_samples(batch, "enstrophy")


@pytest.fixture(scope="module")
def result(basis1):
    return run_experiment(_config(basis1, n_paths=150))


class TestRunExperiment:
    def test_row_layout(self, result):
        assert len(result.rows) == 2 * (1 + 2)
        assert [r.arm for r in result.rows[:2]] == ["bm", "bm"]
        jump = result.rows[2:]
        assert [r.epsilon for r in jump] == [0.2, 0.2, 0.1, 0.1]
        for r in jump:
            assert np.isfinite(r.gap_vs_bm) and np.isfinite(r.ks_stat)
            assert r.ks_pass is not None

    def test_rows_match_direct_comparison(self, result):
        row = result.jump_rows("normH2")[0]
        cmp = compare_laws(result.samples_bm["normH2"],
                           result.samples_jump[0]["normH2"])
        assert row.gap_vs_bm == cmp.mean_gap
        assert row.joint_se == cmp.joint_se
        assert row.ks_stat == cmp.ks_stat

    def test_matched_linear_arms_agree(self, result):
        # both arms share the constant sigma, so the mode mean matches
        # e^{-T} u0 up to Monte Carlo error on either side
        for row in result.jump_rows("mode:0"):
            assert row.gap_vs_bm <= 5.0 * row.joint_se + 1e-12

    def test_no_blowup_and_uniform_moments(self, result):
        assert result.blowup_bm == 0.0
        assert result.blowup_jump == [0.0, 0.0]
        assert not result.invalid
        assert len(result.moments) == 3
        assert all(m.uniform for m in result.moments)

    def test_certified(self, result):
        assert result.certified and not result.forced
        assert result.notes == ()

    def test_gate_refuses_nondecaying_kernels(self, basis1):
        sigma = _sigma(basis1)
        bad = kernel_grid(sigma, "outer_linear", "one", (0.2, 0.1),
                          alpha_stable_measure(1.0))
        cfg = _config(basis1, sigma=sigma, kernels=tuple(bad))
        with pytest.raises(CertificationError):
            run_experiment(cfg)

    def test_force_runs_and_marks_uncertified(self, basis1):
        sigma = _sigma(basis1)
        bad = kernel_grid(sigma, "outer_linear", "one", (0.2, 0.1),
                          alpha_stable_measure(1.0))
        cfg = _config(basis1, sigma=sigma, kernels=tuple(bad), n_paths=100)
        res = run_experiment(cfg, force=True)
        assert res.forced and not res.certified
        assert any("UNCERTIFIED" in line for line in manifest_lines(res))

    def test_too_few_paths(self, basis1):
        with pytest.raises(ConfigError):
            run_experiment(_config(basis1, n_paths=50))

    def test_all_blowup_marks_invalid(self, basis1):
        zero = zero_map()
        solver = SolverConfig(0.5, 1e-3, record_stride=50,
                              include_nonlinearity=False, track_modes=(0,),
                              blowup_norm=5.0)
        cfg = _config(basis1, sigma=zero, n_paths=100, solver=solver,
                      forcing=scaled_identity(8.0))
        res = run_experiment(cfg)
        assert res.blowup_bm == 1.0
        assert res.invalid
        assert np.isnan(res.rows[0].mean)

    def test_no_kernels_runs_bm_only(self, basis1):
        cfg = _config(basis1, kernels=())
        res = run_experiment(cfg)
        assert len(res.rows) == 2
        assert len(res.moments) == 1
        assert res.moments[0].uniform


class TestPersist:
    def test_reruns_are_byte_identical(self, basis1, tmp_path):
        res_a = run_experiment(_config(basis1, n_paths=110))
        res_b = run_experiment(_config(basis1, n_paths=110))
        persist(res_a, tmp_path / "a", dump_paths=True)
        persist(res_b, tmp_path / "b", dump_paths=True)
        for name in ("summary.csv", "moments.csv", "manifest.txt",
                     "paths_bm.csv", "paths_eps0.2.csv", "paths_eps0.1.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_refuses_overwrite(self, basis1, tmp_path):
        res = run_experiment(_config(basis1, n_paths=100))
        persist(res, tmp_path)
        with pytest.raises(FileExistsError):
            persist(res, tmp_path)
        persist(res, tmp_path, overwrite=True)

    def test_manifest_contents(self, basis1, tmp_path):
        cfg = _config(basis1, n_paths=100, seed=23)
        res = run_experiment(cfg)
        persist(res, tmp_path)
        text = (tmp_path / "manifest.txt").read_text()
        fields = dict(line.split(": ", 1) for line in text.splitlines()
                      if ": " in line)
        assert fields["seed"] == "23"
        assert fields["config_hash"] == cfg.config_hash()
        assert fields["certification"] == "passed"
        assert fields["invalid"] == "false"
        assert "timestamp" not in text

    def test_csv_headers_and_dump_shape(self, basis1, tmp_path):
        cfg = _config(basis1, n_paths=100)
        res = run_experiment(cfg)
        persist(res, tmp_path, dump_paths=True)
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == ("arm,epsilon,functional,mean,se,"
                              "gap_vs_bm,joint_se,ks_stat,ks_pass")
        assert summary[1].startswith("bm,,normH2,")
        moments = (tmp_path / "moments.csv").read_text().splitlines()
        assert moments[0] == ("arm,epsilon,supH4,supH4_se,"
                              "intV2sq,intV2sq_se,uniformity_flag")
        dump = (tmp_path / "paths_bm.csv").read_text().splitlines()
        assert dump[0] == "path_id,t,normH2,normV2,u_e0,n_jumps_so_far"
        n_rec = cfg.solver.n_recorded
        assert len(dump) == 1 + 100 * n_rec
        assert all(line.endswith(",0") for line in dump[1:])
