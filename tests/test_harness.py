import dataclasses
import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import path_dump_lines
from snse import harness, integrate
from snse.basis import get_basis
from snse.errors import CertificationError, ConfigError
from snse.harness import (ExperimentConfig, csv_cell, functional_samples,
                          manifest_lines, persist, run_arm, run_experiment)
from snse.hypotheses import kernel_grid
from snse.integrate import BrownianNoiseSpec, SolverConfig
from snse.kernels import (constant_field, saturating, scaled_identity,
                          zero_map)
from snse.measures import alpha_stable_measure
from snse.sampling import PathStreams, brownian_increments, sample_prm_paths
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
        near = saturating(0.5)
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

    # worker threads: W = min(#chunks, #CPUs) for B(u) at n_max >= 3, so an
    # affinity of n CPUs forces W = n on three chunks, for n <= 3

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(n)))

    @staticmethod
    def _spy(monkeypatch, before=None):
        """Patch ArmTraces.window, which run_arm calls once per chunk before
        the chunk takes the turn, to record (first path, thread, error
        state) of each chunk, then call before(first path)."""
        calls = []
        real = harness.ArmTraces.window

        def spy(traces, lo, hi):
            calls.append((lo, threading.current_thread(), np.geterr()))
            if before is not None:
                before(lo)
            return real(traces, lo, hi)

        monkeypatch.setattr(harness.ArmTraces, "window", spy)
        return calls

    @staticmethod
    def _nonlinear(basis, t_end=0.05):
        # 100 paths in chunks of 34: three chunks, so W = 2 gives worker 0
        # two chunks and worker 1 one
        sigma = saturating(0.5)
        kernels = kernel_grid(sigma, "annulus", "one", (0.2, 0.1),
                              alpha_stable_measure(1.0))
        u0 = np.zeros(basis.dim)
        u0[0], u0[4] = 0.3, 0.3
        return ExperimentConfig(
            basis=basis, solver=SolverConfig(t_end, 0.01, track_modes=(0, 4)),
            initial=u0, noise=BrownianNoiseSpec(sigma),
            kernels=tuple(kernels), functionals=("normH2", "mode:0"),
            n_paths=100, seed=7, chunk_size=34)

    @staticmethod
    def _blas_counts():
        return [get() for get, _ in harness._blas_thread_fns()]

    def test_workers_give_serial_bytes(self, basis4, monkeypatch, tmp_path):
        if not harness._blas_thread_fns():
            pytest.skip("no OpenBLAS thread setter: every run is serial")
        cfg = self._nonlinear(basis4)
        out = {}
        # three workers on three chunks are more workers than the host's
        # two cores; a short switch interval interleaves them more often
        interval = sys.getswitchinterval()
        for cpus in (1, 2, 3):
            self._cpus(monkeypatch, cpus)
            calls = self._spy(monkeypatch)
            sys.setswitchinterval(1e-5 if cpus == 3 else interval)
            try:
                res = run_experiment(cfg)
            finally:
                sys.setswitchinterval(interval)
            persist(res, tmp_path / str(cpus), dump_paths=True)
            out[cpus] = [res.bm_batch] + res.jump_batches
            assert sorted(lo for lo, _, _ in calls) == [0, 34, 68]
            assert len({thread for _, thread, _ in calls}) == cpus
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert len(names) == 6
        for cpus in (2, 3):
            for one, other in zip(out[1], out[cpus]):
                for name in ("times",) + _FIELDS:
                    np.testing.assert_array_equal(getattr(one, name),
                                                  getattr(other, name),
                                                  err_msg=name)
            assert names == sorted(
                p.name for p in (tmp_path / str(cpus)).iterdir())
            for name in names:
                assert ((tmp_path / "1" / name).read_bytes()
                        == (tmp_path / str(cpus) / name).read_bytes()), name

    def test_worker_failure_reaches_caller(self, basis4, monkeypatch,
                                           tmp_path, request):
        if not harness._blas_thread_fns():
            pytest.skip("no OpenBLAS thread setter: every run is serial")
        self._cpus(monkeypatch, 2)
        cfg = self._nonlinear(basis4, t_end=0.01)
        # start at 2 BLAS threads, not the workers' 1, whatever an earlier
        # run left; the old counts come back after the test
        for get, put in harness._blas_thread_fns():
            request.addfinalizer(functools.partial(put, get()))
            put(2)
        before = self._blas_counts()
        assert set(before) == {2}
        run_arm(cfg, "brownian")
        assert self._blas_counts() == before
        # chunk 34 fails on worker 1's thread once the caller has taken
        # chunk 0, and chunk 0 waits for that thread to end, so worker 0
        # sees the failure before it could take chunk 68
        failed, both_taken = [], threading.Barrier(2, timeout=60)

        def before_chunk(lo):
            if lo == 34:
                failed.append(threading.current_thread())
                both_taken.wait()
                raise RuntimeError("chunk 34 failed")
            if lo == 0:
                both_taken.wait()
                failed[0].join(60)

        calls = self._spy(monkeypatch, before_chunk)
        with pytest.raises(RuntimeError, match="chunk 34 failed"):
            persist(run_experiment(cfg), tmp_path / "out")
        assert sorted(lo for lo, _, _ in calls) == [0, 34]
        assert failed[0] is not threading.current_thread()
        assert not failed[0].is_alive()
        assert not (tmp_path / "out").exists()
        assert self._blas_counts() == before

    def test_workers_keep_callers_error_state(self, basis4, monkeypatch):
        if not harness._blas_thread_fns():
            pytest.skip("no OpenBLAS thread setter: every run is serial")
        self._cpus(monkeypatch, 2)
        calls = self._spy(monkeypatch)
        with np.errstate(over="ignore", under="warn"):
            run_arm(self._nonlinear(basis4, t_end=0.01), "all")
        assert len({thread for _, thread, _ in calls}) == 2
        for _, _, state in calls:
            assert state["over"] == "ignore" and state["under"] == "warn"

    # the turn: workers hold one lock except around their main step's B(u)

    @staticmethod
    def _within(call, deadline=60.0):
        """call() on a helper thread, its result or exception passed on; a
        call still running after deadline seconds (a deadlock) fails."""
        box = {}

        def run():
            try:
                box["out"] = call()
            except BaseException as exc:
                box["exc"] = exc

        helper = threading.Thread(target=run, daemon=True)
        helper.start()
        helper.join(deadline)
        assert not helper.is_alive(), f"no return within {deadline} s"
        if "exc" in box:
            raise box["exc"]
        return box["out"]

    def _two_chunks(self, basis):
        # 2 chunks of 50 paths, 3 arms: 150 stacked rows in a main step
        return dataclasses.replace(self._nonlinear(basis), chunk_size=50)

    def test_workers_take_turns(self, basis4, monkeypatch):
        if not harness._blas_thread_fns():
            pytest.skip("no OpenBLAS thread setter: every run is serial")
        self._cpus(monkeypatch, 2)
        calls = self._spy(monkeypatch)
        count, inside, most = threading.Lock(), [0], [0]

        def counted(real):
            def call(*args):
                with count:
                    inside[0] += 1
                    most[0] = max(most[0], inside[0])
                try:
                    # a window in which the other worker could come in
                    time.sleep(1e-3)
                    return real(*args)
                finally:
                    with count:
                        inside[0] -= 1
            return call

        # the chunk's draws, as harness binds them, and every compensator
        for module, name in ((harness, "brownian_increments"),
                             (harness, "sample_prm_paths"),
                             (integrate, "_compensator")):
            monkeypatch.setattr(module, name,
                                counted(getattr(module, name)))
        self._within(lambda: run_arm(self._two_chunks(basis4), "all"))
        assert sorted(lo for lo, _, _ in calls) == [0, 50]
        assert len({thread for _, thread, _ in calls}) == 2
        assert most[0] == 1

    def _worker_1_fails(self, basis, monkeypatch, tmp_path, name, hit):
        """integrate.<name> raises on worker 1's first call whose arguments
        hit() accepts: the error reaches the caller, nothing is persisted,
        and a second run then gives the serial bytes."""
        if not harness._blas_thread_fns():
            pytest.skip("no OpenBLAS thread setter: every run is serial")
        cfg = self._two_chunks(basis)
        self._cpus(monkeypatch, 1)
        serial = run_arm(cfg, "all")
        self._cpus(monkeypatch, 2)
        real = getattr(integrate, name)
        caller, failed = [], []

        def failing(*args):
            if (threading.current_thread() is not caller[0] and not failed
                    and hit(*args)):
                failed.append(threading.current_thread())
                raise RuntimeError(f"{name} failed")
            return real(*args)

        def run():
            caller.append(threading.current_thread())
            persist(run_experiment(cfg), tmp_path / "out")

        monkeypatch.setattr(integrate, name, failing)
        with pytest.raises(RuntimeError, match=f"{name} failed"):
            self._within(run)
        assert len(failed) == 1 and not failed[0].is_alive()
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr(integrate, name, real)
        calls = self._spy(monkeypatch)
        again = self._within(lambda: run_arm(cfg, "all"))
        assert len({thread for _, thread, _ in calls}) == 2
        for one, other in zip(serial, again):
            for field in ("times",) + _FIELDS:
                np.testing.assert_array_equal(getattr(one, field),
                                              getattr(other, field),
                                              err_msg=field)

    def test_failure_with_turn_let_go(self, basis4, monkeypatch, tmp_path):
        # worker 1's first full-stack drift is its first main step's B(u),
        # which runs with the turn let go
        self._worker_1_fails(basis4, monkeypatch, tmp_path, "_explicit_drift",
                             lambda basis, cfg, u, forcing: len(u) == 150)

    def test_failure_with_turn_held(self, basis4, monkeypatch, tmp_path):
        self._worker_1_fails(basis4, monkeypatch, tmp_path, "_compensator",
                             lambda *args: True)

    def test_small_and_linear_runs_start_no_thread(self, basis1, basis2,
                                                   basis4, monkeypatch):
        # steps bound by Python: threads would only contend for the GIL
        self._cpus(monkeypatch, 2)
        calls = self._spy(monkeypatch)
        started = []
        monkeypatch.setattr(harness.threading.Thread, "start",
                            lambda t: started.append(t))
        run_arm(self._nonlinear(basis2, t_end=0.01), "all")
        run_arm(_config(basis1, n_paths=50, chunk_size=10), "all")
        linear4 = self._nonlinear(basis4, t_end=0.01)
        linear4.solver = dataclasses.replace(linear4.solver,
                                             include_nonlinearity=False)
        run_arm(linear4, "all")
        assert started == []
        assert len(calls) == 3 + 5 + 3
        assert {thread for _, thread, _ in calls} == {threading.current_thread()}

    def test_direct_call_writes_run_arm_bytes(self, basis4, monkeypatch):
        # the one step path: a one-chunk simulate_arms call with no turn
        # takes a fresh lock, and writes the bytes a (serial) run_arm writes
        # for the same paths, here its second chunk of three
        self._cpus(monkeypatch, 1)
        cfg = self._nonlinear(basis4)
        ran = run_arm(cfg, "all")
        paths = range(34, 68)
        arms = [(cfg.noise.sigma, brownian_increments(
            PathStreams(cfg.seed, "brownian", 0, paths), cfg.solver.n_steps,
            cfg.solver.dt))]
        arms += [(k, sample_prm_paths(k, cfg.solver.t_end,
                                      PathStreams(cfg.seed, "jump", j, paths)))
                 for j, k in enumerate(cfg.kernels)]
        direct = integrate.simulate_arms(cfg.basis, cfg.solver, cfg.initial,
                                         arms, forcing=cfg.forcing)
        assert len(direct) == len(ran) == 3
        assert ran[2].jump_counts[paths.start:paths.stop, -1].sum() > 0
        for got, full in zip(direct, ran):
            assert got.times.tobytes() == full.times.tobytes()
            for name in _FIELDS:
                want = getattr(full, name)[paths.start:paths.stop]
                assert getattr(got, name).tobytes() == want.tobytes(), name


_FIELDS =("norm_h2", "norm_v2", "int_v2", "mode_traces", "drift_traces",
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

    def test_one_run_arm_call(self, basis1, monkeypatch):
        # every arm runs through the module binding harness.run_arm (a
        # benchmark wraps it), once per experiment
        calls = []

        def counted(config, arm, *rest):
            calls.append(arm)
            return run_arm(config, arm, *rest)

        monkeypatch.setattr(harness, "run_arm", counted)
        run_experiment(_config(basis1, n_paths=100))
        assert calls == ["all"]

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

    def test_near_equal_epsilons_keep_their_outputs(self, basis1, tmp_path):
        # 0.2000001 and 0.2 print alike with six significant digits; each
        # arm still gets its own path dump and its own manifest line
        cfg = _config(basis1, eps=(0.2000001, 0.2), n_paths=100)
        res = run_experiment(cfg)
        persist(res, tmp_path, dump_paths=True)
        track = cfg.solver.track_modes
        for name, batch in (("paths_eps0.2000001.csv", res.jump_batches[0]),
                            ("paths_eps0.2.csv", res.jump_batches[1])):
            text = "\n".join(path_dump_lines(batch, track)) + "\n"
            assert (tmp_path / name).read_text() == text
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in lines
                if line.startswith("blowup_eps")] == [
            "blowup_eps=0.2000001", "blowup_eps=0.2"]

    def test_refuses_overwrite(self, basis1, tmp_path):
        res = run_experiment(_config(basis1, n_paths=100))
        persist(res, tmp_path)
        with pytest.raises(FileExistsError):
            persist(res, tmp_path)
        persist(res, tmp_path, overwrite=True)

    @pytest.mark.parametrize("name", ["summary.csv", "moments.csv",
                                      "manifest.txt", "paths_bm.csv",
                                      "paths_eps0.2.csv", "paths_eps0.1.csv"])
    def test_refuses_any_existing_output(self, basis1, tmp_path, name):
        res = run_experiment(_config(basis1, n_paths=100))
        assert name in harness.output_names(res.config, dump_paths=True)
        (tmp_path / name).write_text("old\n")
        with pytest.raises(FileExistsError, match=name):
            persist(res, tmp_path, dump_paths=True)
        # refused before anything is written
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_text() == "old\n"

    def test_path_dump_cells_are_csv_cells(self, basis1):
        # a per-cell reference over a jump arm where some paths blow up
        # (their later norms and modes are nan) and two modes are tracked;
        # 501 records a path, so the dump's blocks of about 16k rows split
        # the 40 paths unevenly
        solver = SolverConfig(0.5, 1e-3, record_stride=1,
                              include_nonlinearity=False, track_modes=(2, 0),
                              blowup_norm=0.6)
        cfg = _config(basis1, sigma=_sigma(basis1, amp=1.0), n_paths=40,
                      solver=solver)
        batch = run_arm(cfg, "jump", 1)
        assert 0 < np.isfinite(batch.blowup_time).sum() < batch.n_paths
        assert batch.jump_counts[:, -1].any()
        ref = ["path_id,t,normH2,normV2,u_e2,u_e0,n_jumps_so_far"]
        for p in range(batch.n_paths):
            for r in range(batch.n_recorded):
                cells = [p, batch.times[r], batch.norm_h2[p, r],
                         batch.norm_v2[p, r], *batch.mode_traces[p, r],
                         batch.jump_counts[p, r]]
                ref.append(",".join(map(csv_cell, cells)))
        assert path_dump_lines(batch, solver.track_modes) == ref

    def test_path_dumps_stream(self, basis1, tmp_path):
        # two dumps of 200,200 rows each: holding one dump's lines and text
        # at once takes about 25 MB, a block of about 16k rows a few MB
        solver = SolverConfig(1.0, 1e-3, record_stride=1,
                              include_nonlinearity=False, track_modes=(0,))
        res = run_experiment(_config(basis1, eps=(0.2,), n_paths=200,
                                     solver=solver))
        assert res.bm_batch.n_paths * res.bm_batch.n_recorded >= 200_000
        tracemalloc.start()
        try:
            persist(res, tmp_path, dump_paths=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        text = "\n".join(path_dump_lines(res.bm_batch, (0,))) + "\n"
        assert (tmp_path / "paths_bm.csv").read_text() == text

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
