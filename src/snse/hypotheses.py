"""Numerical certification of the noise hypotheses and generator convergence.

Each check works on a kernel grid: the same base map, theta family and h
family built at a strictly decreasing list of epsilon values.  Constants
are estimated by maximization over fields drawn at fixed seeds and
reported with the seed and the witness index attaining them, so every
number is reproducible from the config.  Limits that are pointwise in the
state are certified on panels only, never claimed for the whole space;
the uniform-in-epsilon statements use the largest grid epsilon as their
threshold.

The mass helpers take (P, dim) rows of states and return one value per
row, each bit-identical to its one-row call.  Every map is radial,
sigma(t u) = gain(t, |u|_H) sigma(u), so a check takes the fields' squared
norms, sigma and its dot products once per grid, and each kernel adds only
its gain moments (or gains), with the bits of the one-kernel helpers,
which are built on the same pieces.

Check names map onto the certified statements as follows:
  * check_growth_lipschitz: linear-growth and Lipschitz bounds of the
    drift map and the jump field, L2 and L4 in the jump mark.
  * check_jump_size_decay:  sup over states and marks of the jump size,
    which must decay to zero along the epsilon grid.
  * check_qv_limit_v_growth: the quadratic-variation mass of the jump
    field must approach the Brownian one, and its V-norm mass must grow
    at most linearly in the squared V-norm.
  * gap_panel: generator gap on quadratic observables over a fixed panel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .generators import block_gap, brownian_block
# bound here, though unused, because perfbench/tracing.py wraps this name
from .generators import generator_gap  # noqa: F401
from .kernels import (FieldMap, JumpKernel, build_jump_kernel, gain_moment,
                      row_dot, sq_norm, sup_jump_size, zero_map)
from .measures import LevyMeasure, float_label

_QV_TOL = 0.05          # largest qv_gap allowed at the smallest epsilon
_QV_TREND_SLACK = 1.05  # relative rise of qv_gap tolerated along the grid
_GAP_FLOOR = 1e-12      # generator-gap panel max treated as numerical zero
_GROWTH_SEED = 101      # sampled fields of check_growth_lipschitz
_QV_SEED = 202          # sampled fields of check_qv_limit_v_growth


# ---------------------------------------------------------------------------
# kernel grids and node-quadrature mass helpers

def kernel_grid(base_sigma: FieldMap, family_h: str, family_theta: str,
                eps_grid, measure: LevyMeasure) -> list[JumpKernel]:
    """One kernel per epsilon, epsilons strictly decreasing."""
    eps_grid = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    return [build_jump_kernel(base_sigma, family_h, family_theta, e, measure)
            for e in eps_grid]


def _radial(sigma: FieldMap, u):
    """|u|_H^2 and sigma(u) per row: what a nu-integral needs besides gains."""
    u = np.asarray(u, dtype=np.float64)
    n2 = sq_norm(u)
    return n2, sigma.fn(u, n2)


def jump_l2_mass(kernel: JumpKernel, u):
    """Integral of |sigma_eps(u, z)|_H^2 d(nu), one value per row."""
    n2, sig = _radial(kernel.sigma, u)
    return gain_moment(kernel, n2, 2) * row_dot(sig, sig)


def jump_l4_mass(kernel: JumpKernel, u):
    """Integral of |sigma_eps(u, z)|_H^4 d(nu), one value per row."""
    n2, sig = _radial(kernel.sigma, u)
    return gain_moment(kernel, n2, 4) * row_dot(sig, sig) ** 2


def _diff_parts(nu, su, nv, sv):
    """The epsilon-free part of jump_l2_diff, from _radial of u and of v:
    the radii |u|_H and |v|_H and, with d = sigma(u) - sigma(v), the dots
    |d|^2, d . sigma(v) and |sigma(v)|^2, each as a (..., 1) column."""
    d = su - sv
    return (np.sqrt(nu[..., None]), np.sqrt(nv[..., None]),
            *(x[..., None] for x in (row_dot(d, d), row_dot(d, sv),
                                     row_dot(sv, sv))))


def _l2_diff(kernel: JumpKernel, ru, rv, dd, ds, ss):
    """jump_l2_diff from _diff_parts: gains at the nodes, then arithmetic."""
    t, gain = kernel.table, kernel.sigma.gain
    gu = gain(t.theta, ru)
    dg = gu - gain(t.theta, rv)
    node = gu * gu * dd + 2.0 * gu * dg * ds + dg * dg * ss
    # the -z half repeats these bits: theta and h^2 are even
    part = row_dot(node, t.w * t.h * t.h)
    return 0.0 + part + part


def jump_l2_diff(kernel: JumpKernel, u, v):
    """Integral of |sigma_eps(u, z) - sigma_eps(v, z)|_H^2 d(nu).

    One value per row pair. With s_u = sigma(u), s_v = sigma(v), d = s_u - s_v
    and, at each node, the gains g_u, g_v and D = g_u - g_v, the integrand is

        |g_u s_u - g_v s_v|^2 = g_u^2 |d|^2 + 2 g_u D (d . s_v) + D^2 |s_v|^2,

    so each row needs three dot products and then node arithmetic only. It
    is stable for nearby u and v: d and D are differences taken before
    anything is squared, so every term is already of the size of the result,
    where three gain moments of u, v and the cross term would cancel
    catastrophically. The sum runs on the +z half of the table and is added
    twice.
    """
    return _l2_diff(kernel, *_diff_parts(*_radial(kernel.sigma, u),
                                         *_radial(kernel.sigma, v)))


def jump_v2_mass(kernel: JumpKernel, u, eigenvalues):
    """Same as jump_l2_mass but in the V norm."""
    n2, sig = _radial(kernel.sigma, u)
    return gain_moment(kernel, n2, 2) * row_dot(sig * sig, eigenvalues)


def brownian_l2_mass(kernel: JumpKernel, u):
    """|sigma(u)|_H^2 of the matched Brownian noise, per row."""
    return np.sum(kernel.sigma.fn(u) ** 2, axis=-1)


# ---------------------------------------------------------------------------
# sample panels

def sample_panel(basis: BasisSpec) -> np.ndarray:
    """Fixed panel of 20 flat-spectrum fields, H norms log-spaced on [0.1, 10].

    Equal per-mode energy keeps max_k |x_k|^2 at |x|^2/dim, which is what
    makes the generator-gap bound on quadratic observables sharp rather
    than concentration dependent.
    """
    rng = np.random.default_rng(2024)
    norms = np.geomspace(0.1, 10.0, 20)
    signs = np.where(rng.random((20, basis.dim)) < 0.5, -1.0, 1.0)
    return signs * (norms[:, None] / np.sqrt(basis.dim))


@functools.lru_cache(maxsize=16)
def random_sample_fields(basis: BasisSpec, count: int, seed: int) -> np.ndarray:
    """Random fields with log-uniform norms, for constant estimation.

    Drawn once per (n_max, count, seed), the key a basis hashes to, and
    returned read-only, since every check of a grid sweep asks again.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, basis.dim))
    for i in range(count):
        direction = rng.standard_normal(basis.dim)
        direction *= basis.eigenvalues ** -rng.uniform(0.5, 1.5)
        r = 10.0 ** rng.uniform(-1.3, 1.3)
        out[i] = direction * (r / np.linalg.norm(direction))
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# report containers

@dataclass
class CheckRow:
    check: str
    epsilon: float
    value: float
    witness: int
    passed: bool


@dataclass
class HypothesisReport:
    name: str
    rows: list[CheckRow]
    passed: bool
    seed: int | None = None
    notes: tuple[str, ...] = ()

    def values(self, check: str) -> list[float]:
        return [r.value for r in self.rows if r.check == check]

    def summary_lines(self) -> list[str]:
        out = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        for r in self.rows:
            out.append(f"    {r.check:<12} eps={float_label(r.epsilon):<7} "
                       f"value={r.value:.6g} witness={r.witness} "
                       f"{'ok' if r.passed else 'FAIL'}")
        out.extend("    note: " + n for n in self.notes)
        return out


# ---------------------------------------------------------------------------
# the checks

def _grid_epsilons(kernels) -> list[float]:
    eps = [k.epsilon for k in kernels]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("kernels must come in strictly decreasing epsilon order")
    if any(k.sigma is not kernels[0].sigma for k in kernels):
        raise ValueError("the kernels of a grid must share one sigma map")
    return eps


def _max_witness(vals) -> tuple[float, int]:
    """Largest value and the first index attaining it; NaN never wins.

    (-inf, 0) when no value exceeds -inf, as for a running maximum that
    starts at -inf with witness 0 and takes only strict improvements.
    """
    vals = np.where(np.isnan(vals), -np.inf, vals)
    i = int(np.argmax(vals))
    return (float(vals[i]), i) if vals[i] > -np.inf else (-np.inf, 0)


def check_growth_lipschitz(basis: BasisSpec, kernels, forcing: FieldMap | None = None,
                           n_samples: int = 40) -> HypothesisReport:
    """Linear-growth (L2 and L4) and Lipschitz constants, max over the grid.

    Constants are ratios maximized over sampled fields:
      growth_l2:  (|F(u)|^2 + jump L2 mass) / (1 + |u|_H^2)
      growth_l4:  jump L4 mass / (1 + |u|_H^4)
      lipschitz:  (|F(u)-F(v)|^2 + jump L2 mass of the difference) / |u-v|^2
    Pass means finite.
    """
    eps = _grid_epsilons(kernels)
    F = forcing if forcing is not None else zero_map()
    fields = random_sample_fields(basis, 2 * n_samples, _GROWTH_SEED)
    us, vs = fields[:n_samples], fields[n_samples:]

    n2, su = _radial(kernels[0].sigma, us)
    ss = row_dot(su, su)
    diff = _diff_parts(n2, su, *_radial(kernels[0].sigma, vs))
    fu = F.fn(us)
    f2 = np.sum(fu**2, axis=1)
    fdiff = np.sum((fu - F.fn(vs)) ** 2, axis=1)
    duv = np.sum((us - vs) ** 2, axis=1)
    rows = []
    for e, kern in zip(eps, kernels):
        m2, m4 = gain_moment(kern, n2, 2), gain_moment(kern, n2, 4)
        for name, vals in (
                ("growth_l2", (f2 + m2 * ss) / (1.0 + n2)),
                ("growth_l4", m4 * ss**2 / (1.0 + n2**2)),
                ("lipschitz", (fdiff + _l2_diff(kern, *diff)) / duv)):
            val, wit = _max_witness(vals)
            rows.append(CheckRow(name, e, val, wit, bool(np.isfinite(val))))
    return HypothesisReport("growth_lipschitz", rows,
                            all(r.passed for r in rows), _GROWTH_SEED)


def check_jump_size_decay(kernels) -> HypothesisReport:
    """sup over |u|_H <= 1 and all marks of the jump size, per epsilon.

    A conforming kernel family has this table strictly decreasing toward
    zero; the check fails when it does not decay.
    """
    eps = _grid_epsilons(kernels)
    vals = [sup_jump_size(k, 1.0) for k in kernels]
    decaying = all(b < a for a, b in zip(vals, vals[1:])) or all(
        v == 0.0 for v in vals)
    rows = [CheckRow("sup_jump", e, v, -1, decaying)
            for e, v in zip(eps, vals)]
    notes = ()
    if not decaying:
        notes = ("sup jump size does not decay along the epsilon grid; "
                 "small-jump certification fails for this h family under "
                 "this measure",)
    return HypothesisReport("jump_size_decay", rows, decaying, notes=notes)


def check_qv_limit_v_growth(basis: BasisSpec, kernels,
                            n_samples: int = 40) -> HypothesisReport:
    """Quadratic-variation matching and V-norm growth of the jump field.

    qv_gap per epsilon is the max over sampled u of
      |jump L2 mass - matched Brownian L2 mass| / (1 + |u|_H^2);
    it must be non-increasing along the grid (up to _QV_TREND_SLACK and a
    1e-9 floor) and below _QV_TOL at the smallest epsilon.  v_growth is
    the max of (jump V2 mass) / (1 + |u|_V^2); it must be finite.
    """
    eps = _grid_epsilons(kernels)
    fields = random_sample_fields(basis, n_samples, _QV_SEED)
    eigs = basis.eigenvalues

    n2, sig = _radial(kernels[0].sigma, fields)
    h2 = 1.0 + n2
    v2 = 1.0 + row_dot(fields * fields, eigs)
    ss, sv2 = row_dot(sig, sig), row_dot(sig * sig, eigs)
    brownian = brownian_l2_mass(kernels[0], fields)
    rows = []
    gaps = []
    for e, kern in zip(eps, kernels):
        m2 = gain_moment(kern, n2, 2)
        gap, gw = _max_witness(np.abs(m2 * ss - brownian) / h2)
        gaps.append(gap)
        rows.append(CheckRow("qv_gap", e, gap, gw, True))
        vg, vw = _max_witness(m2 * sv2 / v2)
        rows.append(CheckRow("v_growth", e, vg, vw, bool(np.isfinite(vg))))

    trend_ok = all(b <= a * _QV_TREND_SLACK + 1e-9 for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= _QV_TOL
    for r in rows:
        if r.check == "qv_gap":
            r.passed = bool(trend_ok and final_ok)
    return HypothesisReport("qv_limit_v_growth", rows,
                            all(r.passed for r in rows), _QV_SEED)


# ---------------------------------------------------------------------------
# generator gap panel

@dataclass
class GapPanelReport:
    epsilons: tuple[float, ...]
    panel: np.ndarray          # (n_panel, dim) test fields
    gaps: np.ndarray           # (n_eps, n_panel)
    panel_max: np.ndarray      # (n_eps,)
    monotone: bool
    envelope_constant: float   # max over (eps, x) of gap / (1 + |x|^2)
    passed: bool


def gap_panel(basis: BasisSpec, kernels) -> GapPanelReport:
    """Generator gap on quadratic observables over sample_panel's fields.

    The panel max must decrease strictly along the grid whenever it sits
    above _GAP_FLOOR; a gap that is already at numerical zero for every
    epsilon (flat theta with normalized h) passes as well.
    """
    eps = _grid_epsilons(kernels)
    panel = sample_panel(basis)
    n2, block = brownian_block(kernels[0].sigma, panel)
    gaps = np.stack([block_gap(kern, n2, block) for kern in kernels])
    panel_max = gaps.max(axis=1)
    monotone = all(nxt < cur or max(cur, nxt) <= _GAP_FLOOR
                   for cur, nxt in zip(panel_max, panel_max[1:]))
    h2 = 1.0 + n2
    envelope = float((gaps / h2[None, :]).max())
    return GapPanelReport(tuple(eps), panel, gaps, panel_max, monotone,
                          envelope, monotone)


# ---------------------------------------------------------------------------
# bundled certification

@dataclass
class CertificationReport:
    label: str
    growth: HypothesisReport
    jump_size: HypothesisReport
    qv: HypothesisReport
    gap: GapPanelReport
    passed: bool

    def csv_rows(self):
        """(check, epsilon, value, witness, pass) rows for the report CSV."""
        for rep in (self.growth, self.jump_size, self.qv):
            for r in rep.rows:
                yield (r.check, r.epsilon, r.value, r.witness, r.passed)
        for e, v in zip(self.gap.epsilons, self.gap.panel_max):
            yield ("generator_gap", e, float(v), -1, self.gap.passed)

    def summary_lines(self) -> list[str]:
        out = [f"== {self.label}: {'CERTIFIED' if self.passed else 'FAILED'}"]
        for rep in (self.growth, self.jump_size, self.qv):
            out.extend("  " + line for line in rep.summary_lines())
        gp = self.gap
        out.append(f"  [{'PASS' if gp.passed else 'FAIL'}] generator_gap "
                   f"panel max: "
                   + ", ".join(f"{float_label(e)}:{v:.3g}"
                               for e, v in zip(gp.epsilons, gp.panel_max)))
        return out


def certify_kernels(basis: BasisSpec, kernels, forcing: FieldMap | None = None,
                    n_samples: int = 40,
                    label: str | None = None) -> CertificationReport:
    """Run every check on one kernel grid and bundle the verdicts."""
    k0 = kernels[0]
    if label is None:
        label = (f"sigma={k0.sigma.name} theta={k0.theta.family} "
                 f"h={k0.h.family} nu={k0.measure.label()}")
    growth = check_growth_lipschitz(basis, kernels, forcing, n_samples)
    jump_size = check_jump_size_decay(kernels)
    qv = check_qv_limit_v_growth(basis, kernels, n_samples)
    gp = gap_panel(basis, kernels)
    passed = growth.passed and jump_size.passed and qv.passed and gp.passed
    return CertificationReport(label, growth, jump_size, qv, gp, passed)


# ---------------------------------------------------------------------------
# martingale diagnostic

@dataclass
class MartingaleReport:
    n_paths: int
    times: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    max_abs_mean: float
    worst_time: float
    passed: bool


def martingale_diagnostic(batch, trace_index: int = 0) -> MartingaleReport:
    """Empirical check that the compensated mode coordinate is a martingale.

    Builds M(t) = x_k(t) - x_k(0) - trapezoid integral of the recorded
    generator drift, per path, and requires |sample mean| <= 3 SE at every
    recorded time.  Needs at least 100 non-blown paths and two records (one
    record gives M = 0 and passes vacuously), and trace_index must index a
    tracked mode, 0 <= trace_index < len(track_modes).
    """
    n_tracked = batch.mode_traces.shape[2]
    if not 0 <= trace_index < n_tracked:
        raise ValueError(f"trace_index {trace_index} is outside the "
                         f"{n_tracked} recorded traces")
    valid = batch.valid_mask()
    if valid.sum() < 100 or batch.n_recorded < 2:
        raise ValueError("martingale diagnostic needs at least 100 paths "
                         "and two records")
    x = batch.mode_traces[valid, :, trace_index]
    drift = batch.drift_traces[valid, :, trace_index]
    dt_rec = np.diff(batch.times)
    # trapezoid keeps the quadrature bias at O(dt_rec^2), well under the
    # Monte Carlo band even at coarse record strides
    mid = 0.5 * (drift[:, :-1] + drift[:, 1:]) * dt_rec[None, :]
    integral = np.concatenate(
        [np.zeros((x.shape[0], 1)), np.cumsum(mid, axis=1)], axis=1)
    m = x - x[:, :1] - integral
    means = m.mean(axis=0)
    ses = m.std(axis=0, ddof=1) / np.sqrt(m.shape[0])
    ok = np.all(np.abs(means) <= 3.0 * ses + 1e-12)
    worst = int(np.argmax(np.abs(means)))
    return MartingaleReport(int(valid.sum()), batch.times, means, ses,
                            float(np.abs(means).max()),
                            float(batch.times[worst]), bool(ok))
