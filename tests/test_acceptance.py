"""End-to-end acceptance gate: one test per shipped guarantee.

Every test pins a tolerance and a wall-clock budget and fails loudly when
either is missed. The two Monte Carlo experiments (the linear exact-law
testbed and the desk-scale nonlinear run) are module fixtures shared by the
tests that grade them, so each simulation happens once per suite run.

Budgets are generous for a laptop-class single core; the whole gate took
4 min 48 s on a shared 2-vCPU host (Python 3.11, numpy 2.4, OpenBLAS
0.3.31), where the same gate has read between about 2 and 5 minutes.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from snse.basis import get_basis
from snse.config import load_config
from snse.harness import persist, run_experiment
from snse.hypotheses import (certify_kernels, check_jump_size_decay,
                             kernel_grid, martingale_diagnostic)
from snse.kernels import build_h, h_norm_check, scaled_identity, saturating
from snse.measures import alpha_stable_measure, annulus_mass, power_law_measure
from snse.nonlinear import bilinear_b_batch, nonlinear_term_batch, verify_b_estimates

from oracles import conv_coupling_dense, conv_nonlinear

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
GRID5 = (0.2, 0.1, 0.05, 0.02, 0.01)
NU1 = alpha_stable_measure(1.0)


def _within(elapsed: float, budget: float, what: str):
    assert elapsed < budget, f"{what} took {elapsed:.1f}s, budget {budget:.0f}s"


def _norm_h(basis, coeffs):
    return np.linalg.norm(coeffs, axis=-1)


def _norm_v(basis, coeffs):
    return np.sqrt(np.sum(basis.eigenvalues * coeffs * coeffs, axis=-1))


@pytest.fixture(scope="module")
def ou_run():
    run = load_config(EXAMPLES / "ou_linear.cfg")
    t0 = time.perf_counter()
    res = run_experiment(run.experiment)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ou_rerun():
    # identical config, second run in the same process: same bytes
    run = load_config(EXAMPLES / "ou_linear.cfg")
    return run_experiment(run.experiment)


@pytest.fixture(scope="module")
def desk_run():
    run = load_config(EXAMPLES / "desk_convergence.cfg")
    t0 = time.perf_counter()
    res = run_experiment(run.experiment)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_rerun():
    run = load_config(EXAMPLES / "desk_convergence.cfg")
    return run_experiment(run.experiment)


def test_a01_trilinear_identities(basis8):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    u = rng.standard_normal((1000, basis8.dim))
    v = rng.standard_normal((1000, basis8.dim))
    w = rng.standard_normal((1000, basis8.dim))

    b_uvv = bilinear_b_batch(basis8, u, v, v)
    bound = 1e-10 * _norm_h(basis8, u) * _norm_v(basis8, v) ** 2
    assert np.all(np.abs(b_uvv) <= bound)

    anti = bilinear_b_batch(basis8, u, v, w) + bilinear_b_batch(basis8, u, w, v)
    scale = 1e-10 * _norm_h(basis8, u) * _norm_v(basis8, v) * _norm_v(basis8, w)
    assert np.all(np.abs(anti) <= scale)
    _within(time.perf_counter() - t0, 10.0, "trilinear identity sweep")


def test_a02_nonlinear_term_matches_convolution_oracle():
    t0 = time.perf_counter()
    basis = get_basis(4)
    dense = conv_coupling_dense(basis)
    rng = np.random.default_rng(3)
    fields = rng.standard_normal((100, basis.dim))
    got = nonlinear_term_batch(basis, fields)
    want = np.stack([conv_nonlinear(basis, c, dense) for c in fields])
    assert np.abs(got - want).max() <= 1e-9
    _within(time.perf_counter() - t0, 30.0, "convolution oracle comparison")


def test_a03_convection_estimate_ratio_bounded(basis8):
    t0 = time.perf_counter()
    rep = verify_b_estimates(basis8, n_samples=10**4)
    assert rep.n_samples == 10**4
    assert rep.interp_hv_max <= 1.0
    _within(time.perf_counter() - t0, 30.0, "estimate ratio sweep")


def test_a04_levy_quadrature_and_normalization():
    t0 = time.perf_counter()
    mass = annulus_mass(NU1, 0.01, 1.0)
    assert abs(mass - 198.0) <= 1e-8 * 198.0
    for family in ("annulus", "inner_linear"):
        for eps in GRID5:
            h = build_h(family, eps, NU1)
            assert abs(h_norm_check(h, NU1) - 1.0) <= 1e-8
    _within(time.perf_counter() - t0, 5.0, "quadrature checks")


def test_a05_certification_and_generator_gap_decay():
    t0 = time.perf_counter()
    basis = get_basis(2)
    for sigma in (scaled_identity(0.5), saturating(0.5)):
        for theta in ("one", "cosine"):
            for family in ("annulus", "inner_linear"):
                kernels = kernel_grid(sigma, family, theta, GRID5, NU1)
                rep = certify_kernels(basis, kernels)
                tag = f"{sigma.name}/{theta}/{family}"
                assert rep.growth.passed, tag
                assert rep.jump_size.passed, tag
                assert rep.qv.passed, tag
                # panel max must fall strictly with epsilon unless the gap
                # already sits at numerical zero (flat theta, normalized h)
                assert rep.gap.passed, tag
                assert rep.gap.epsilons == GRID5
                h2 = 1.0 + np.sum(rep.gap.panel**2, axis=1)
                assert np.all(rep.gap.gaps[-1] < 1e-3 * h2), tag
    _within(time.perf_counter() - t0, 120.0, "certification sweep")


def test_a06_tail_family_closed_form_discrepancy():
    t0 = time.perf_counter()
    for alpha in (0.5, 1.0, 1.5):
        kernels = kernel_grid(scaled_identity(1.0), "outer_linear", "one",
                              GRID5, alpha_stable_measure(alpha))
        rep = check_jump_size_decay(kernels)
        assert not rep.passed
        vals = np.array([r.value for r in rep.rows])
        assert np.all(np.diff(vals) > 0.0)
        closed = np.sqrt([(2.0 - alpha) / (2.0 * (e**alpha - e**2))
                          for e in GRID5])
        assert np.allclose(vals, closed, rtol=1e-8)

    heavier = power_law_measure(-0.5, 1.0, np.inf)
    kernels = kernel_grid(scaled_identity(1.0), "outer_linear", "one",
                          GRID5, heavier)
    assert check_jump_size_decay(kernels).passed
    _within(time.perf_counter() - t0, 30.0, "tail family closed forms")


def test_a07_linear_testbed_exact_laws(ou_run):
    res, elapsed = ou_run
    assert res.certified and not res.invalid

    x = res.samples_bm["mode:2"]
    n = x.size
    assert n >= 0.99 * res.config.n_paths and res.config.n_paths == 2 * 10**4
    var = float(np.var(x, ddof=1))
    se_var = var * np.sqrt(2.0 / (n - 1))
    assert abs(var - 0.125) <= 3.0 * se_var

    row = res.jump_rows("mode:2")[0]
    target = np.exp(-res.config.solver.t_end) * 0.3
    assert abs(row.mean - target) <= 3.0 * row.se
    _within(elapsed, 180.0, "linear testbed run")


def test_a08_martingale_diagnostic_both_arms(ou_run):
    res, _ = ou_run
    t0 = time.perf_counter()
    for batch in (res.bm_batch, res.jump_batches[0]):
        rep = martingale_diagnostic(batch, trace_index=0)
        assert rep.n_paths >= 10**4
        assert rep.passed, (rep.max_abs_mean, rep.worst_time)
    _within(time.perf_counter() - t0, 180.0, "martingale diagnostics")


def test_a09_weak_convergence_trend(desk_run):
    res, elapsed = desk_run
    assert res.certified and not res.invalid
    for functional in ("normH2", "mode:0"):
        rows = res.jump_rows(functional)
        assert [r.epsilon for r in rows] == [0.2, 0.1, 0.05]
        gaps = [r.gap_vs_bm for r in rows]
        ses = [r.joint_se for r in rows]
        for k in range(len(rows) - 1):
            slack = max(ses[k], ses[k + 1])
            assert gaps[k + 1] <= gaps[k] + slack, (functional, gaps, ses)
        assert rows[-1].ks_pass, (functional, rows[-1].ks_stat)
    _within(elapsed, 900.0, "desk-scale convergence run")


def test_a10_moment_bound_uniformity(desk_run):
    res, _ = desk_run
    jump = [m for m in res.moments if m.arm == "jump"]
    assert len(jump) == 3
    for quantity in ("sup_h4", "int_v2_sq"):
        vals = np.array([getattr(m, quantity) for m in jump])
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        assert vals.max() <= 3.0 * vals.min(), (quantity, vals)
    assert all(m.uniform for m in jump)


def test_a11_rerun_determinism(tmp_path, ou_run, ou_rerun,
                               desk_run, desk_rerun):
    pairs = [("ou", ou_run[0], ou_rerun), ("desk", desk_run[0], desk_rerun)]
    for label, first, second in pairs:
        d1, d2 = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        persist(first, d1)
        persist(second, d2)
        for name in ("summary.csv", "moments.csv", "manifest.txt"):
            b1 = (d1 / name).read_bytes()
            b2 = (d2 / name).read_bytes()
            assert b1 == b2, f"{label}/{name} differs between reruns"
