"""Exponential Euler time stepping for the projected system.

The Stokes part is integrated exactly through the semigroup factor
exp(-lambda*dt); the bilinear term, forcing and noise enter through an
explicit step evaluated at the left endpoint.  Two drivers share one step
loop (records, blow-up masking, running integrals) and differ only in how
a step moves the batch: a Brownian one, and a pure-jump one whose atoms
come from a sampled Poisson random measure and whose drift carries the
subtracted compensator.  Steps that contain atoms are split at the atom
times, with the jump applied to the left limit; all paths with a k-th atom
in a step take their k-th substep together, so the kernel and drift
evaluations per step scale with the largest atom count of any path, not
with the number of atoms.

Per-path randomness contract (pinned by tests, do not reorder):
  * Brownian arm: one standard_normal((n_steps, n_channels)) call per path.
  * Jump arm: one sample_prm call per path, nothing else.

Trajectories are never clamped.  Once a path leaves the configured norm
ball it is marked blown up, its state traces turn NaN from that record on,
and the rest of the batch keeps going; the scalar entry points raise
BlowUpError instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .errors import BlowUpError
from .kernels import FieldMap, JumpKernel, compensator_drift, eval_sigma_eps
from .nonlinear import nonlinear_term_batch
from .sampling import sample_prm


@dataclass(frozen=True)
class BrownianNoiseSpec:
    """Independent scalar Wiener channels with state dependent coefficient maps."""

    channels: tuple[FieldMap, ...]

    @property
    def n_channels(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    dt: float
    record_stride: int = 1
    include_nonlinearity: bool = True
    track_modes: tuple[int, ...] = ()
    blowup_norm: float = 1e6

    def __post_init__(self):
        if self.t_end <= 0.0 or self.dt <= 0.0:
            raise ValueError("t_end and dt must be positive")
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be an integer multiple of dt")
        if self.record_stride < 1 or n % self.record_stride:
            raise ValueError("record_stride must divide the step count")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def n_recorded(self) -> int:
        return self.n_steps // self.record_stride + 1

    def recorded_times(self) -> np.ndarray:
        return np.arange(self.n_recorded) * (self.record_stride * self.dt)


@dataclass
class PathBatch:
    """Recorded traces for a batch of trajectories.

    norm_h2 / norm_v2 / mode_traces are NaN from the first record after a
    blow-up, while int_v2, sup_h4 and jump_counts freeze at their last
    valid value.  drift_traces holds the generator drift of each tracked
    mode, -lambda_k u_k - B_k(u) + F_k(u), without any jump compensator,
    so the compensated-martingale integrand can be reconstructed.
    """

    times: np.ndarray
    norm_h2: np.ndarray
    norm_v2: np.ndarray
    int_v2: np.ndarray
    mode_traces: np.ndarray
    drift_traces: np.ndarray
    jump_counts: np.ndarray
    sup_h4: np.ndarray
    blowup_time: np.ndarray
    terminal: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.norm_h2.shape[0]

    @property
    def n_recorded(self) -> int:
        return self.times.size

    def valid_mask(self) -> np.ndarray:
        return np.isnan(self.blowup_time)


@dataclass
class PathSample:
    """Single-path view with the same field meanings as PathBatch."""

    times: np.ndarray
    norm_h2: np.ndarray
    norm_v2: np.ndarray
    int_v2: np.ndarray
    mode_traces: np.ndarray
    drift_traces: np.ndarray
    jump_counts: np.ndarray
    sup_h4: float
    terminal: np.ndarray

    @classmethod
    def from_batch(cls, batch: PathBatch, p: int) -> "PathSample":
        return cls(batch.times, batch.norm_h2[p], batch.norm_v2[p],
                   batch.int_v2[p], batch.mode_traces[p],
                   batch.drift_traces[p], batch.jump_counts[p],
                   float(batch.sup_h4[p]), batch.terminal[p])


def _tile_initial(u0, n_paths: int, dim: int) -> np.ndarray:
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.ndim == 1:
        u = np.tile(u0, (n_paths, 1))
    else:
        u = np.array(u0, dtype=np.float64)
    if u.shape != (n_paths, dim):
        raise ValueError(f"initial condition shape {u.shape} does not match "
                         f"({n_paths}, {dim})")
    return u


def _explicit_drift(basis: BasisSpec, cfg: SolverConfig, u: np.ndarray,
                    forcing: FieldMap | None) -> np.ndarray:
    """-B(u) + F(u) on (P, dim) rows; the Stokes part lives in the semigroup."""
    if cfg.include_nonlinearity:
        out = -nonlinear_term_batch(basis, u)
    else:
        out = np.zeros_like(u)
    if forcing is not None:
        out = out + forcing.fn(u)
    return out


class _Recorder:
    def __init__(self, cfg: SolverConfig, n_paths: int, dim: int):
        n_rec = cfg.n_recorded
        self.track = np.asarray(cfg.track_modes, dtype=np.intp)
        if self.track.size and (self.track.min() < 0 or self.track.max() >= dim):
            raise ValueError("track_modes index out of range")
        k = self.track.size
        self.times = cfg.recorded_times()
        self.norm_h2 = np.empty((n_paths, n_rec))
        self.norm_v2 = np.empty((n_paths, n_rec))
        self.int_v2 = np.empty((n_paths, n_rec))
        self.mode_traces = np.empty((n_paths, n_rec, k))
        self.drift_traces = np.empty((n_paths, n_rec, k))
        self.jump_counts = np.zeros((n_paths, n_rec), dtype=np.int64)

    def record(self, r: int, u, drift, eigs, iv2, counts):
        self.norm_h2[:, r] = np.sum(u * u, axis=1)
        self.norm_v2[:, r] = (u * u) @ eigs
        self.int_v2[:, r] = iv2
        self.jump_counts[:, r] = counts
        if self.track.size:
            self.mode_traces[:, r, :] = u[:, self.track]
            self.drift_traces[:, r, :] = (-eigs * u + drift)[:, self.track]

    def finish(self, u, sup4, blow_t) -> PathBatch:
        return PathBatch(self.times, self.norm_h2, self.norm_v2, self.int_v2,
                         self.mode_traces, self.drift_traces, self.jump_counts,
                         sup4, blow_t, u)


def _integrate(basis: BasisSpec, cfg: SolverConfig, u: np.ndarray,
               forcing: FieldMap | None, advance) -> PathBatch:
    """The step loop both arms share: records, blow-up masking, integrals.

    advance(n, u, expl, active) moves every path across step n, given the
    explicit drift expl at u and the mask of paths not yet blown up. It
    returns (end states, integral of |u|_V^2 over the step, sup of |u|_H^2
    over the states visited inside the step with -inf where none, atoms
    applied per path); the last two are None when nothing happens inside
    the step.
    """
    n_paths = u.shape[0]
    eigs = basis.eigenvalues
    rec = _Recorder(cfg, n_paths, basis.dim)
    active = np.ones(n_paths, dtype=bool)
    blow_t = np.full(n_paths, np.nan)
    iv2 = np.zeros(n_paths)
    counts = np.zeros(n_paths, dtype=np.int64)
    sup4 = np.sum(u * u, axis=1) ** 2
    cap2 = cfg.blowup_norm**2

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.n_steps):
            expl = _explicit_drift(basis, cfg, u, forcing)
            if n % cfg.record_stride == 0:
                rec.record(n // cfg.record_stride, u, expl, eigs, iv2, counts)
            u_new, iv2_step, sup2, applied = advance(n, u, expl, active)
            if applied is not None:
                counts += applied

            h2 = np.sum(u_new * u_new, axis=1)
            was_active = active.copy()
            bad = active & (~np.isfinite(h2) | (h2 > cap2))
            if bad.any():
                blow_t[bad] = (n + 1) * cfg.dt
                active = active & ~bad
                u_new[bad] = np.nan
            iv2_step[~np.isfinite(iv2_step)] = 0.0
            iv2[was_active] += iv2_step[was_active]
            np.maximum(sup4, np.where(active, h2 * h2, -np.inf), out=sup4)
            if sup2 is not None:
                seen = active & np.isfinite(sup2)
                sup4[seen] = np.maximum(sup4[seen], sup2[seen] * sup2[seen])
            u = u_new
        expl = _explicit_drift(basis, cfg, u, forcing)
        rec.record(cfg.n_recorded - 1, u, expl, eigs, iv2, counts)
    return rec.finish(u, sup4, blow_t)


def simulate_brownian_batch(basis: BasisSpec, cfg: SolverConfig, u0,
                            streams, noise: BrownianNoiseSpec | None = None,
                            forcing: FieldMap | None = None) -> PathBatch:
    """Drive a batch of paths with independent Wiener channels.

    streams is one numpy Generator per path; noise=None integrates the
    deterministic system.
    """
    n_paths = len(streams)
    u = _tile_initial(u0, n_paths, basis.dim)
    n_ch = noise.n_channels if noise is not None else 0
    dw = np.zeros((n_paths, cfg.n_steps, n_ch))
    if n_ch:
        root = np.sqrt(cfg.dt)
        for p, g in enumerate(streams):
            dw[p] = g.standard_normal((cfg.n_steps, n_ch)) * root

    eigs = basis.eigenvalues
    efac = np.exp(-eigs * cfg.dt)

    def advance(n, u, drift, active):
        step = u + cfg.dt * drift
        for i in range(n_ch):
            step = step + noise.channels[i].fn(u) * dw[:, n, i, None]
        return efac * step, cfg.dt * ((u * u) @ eigs), None, None

    return _integrate(basis, cfg, u, forcing, advance)


def _row_dot(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w @ v row by row, each row bit-identical to its one-row product.

    A (P, dim) @ (dim,) product goes through gemv, whose sums differ in the
    last bits from the dot product of a single row; a stack of vector
    products takes the dot route for every row.
    """
    return np.matmul(w[:, None, :], v)[:, 0]


def simulate_jump_batch(basis: BasisSpec, cfg: SolverConfig, u0,
                        streams, kernel: JumpKernel,
                        forcing: FieldMap | None = None) -> PathBatch:
    """Drive a batch of paths with the compensated pure-jump noise.

    A step with atoms is split at the atom times: between atoms the state
    moves by the exponential Euler step with the compensated drift of the
    last substate, and each atom adds sigma_eps to the left limit. Round k
    of a step advances, as one batch, every path that has a k-th atom in
    that step.
    """
    n_paths = len(streams)
    u = _tile_initial(u0, n_paths, basis.dim)
    prms = [sample_prm(kernel, cfg.t_end, g) for g in streams]
    path = np.repeat(np.arange(n_paths), [len(a) for a in prms])
    times = np.concatenate([a.times for a in prms])
    marks = np.concatenate([a.marks for a in prms])
    chans = np.concatenate([a.channels for a in prms])
    step = np.minimum((times / cfg.dt).astype(int), cfg.n_steps - 1)
    # rank of each atom among its path's atoms in the same step
    _, first, group = np.unique(path * cfg.n_steps + step, return_index=True,
                                return_inverse=True)
    rank = np.arange(times.size) - first[group]
    order = np.lexsort((path, rank, step))
    path, times, marks, chans, rank = (a[order] for a in
                                       (path, times, marks, chans, rank))
    bounds = np.searchsorted(step[order], np.arange(cfg.n_steps + 1))

    eigs = basis.eigenvalues
    efac = np.exp(-eigs * cfg.dt)

    def advance(n, u, expl, active):
        driftc = expl - compensator_drift(kernel, u)
        u_new = efac * (u + cfg.dt * driftc)
        iv2_step = cfg.dt * ((u * u) @ eigs)
        here = np.arange(bounds[n], bounds[n + 1])
        here = here[active[path[here]]]
        if not here.size:
            return u_new, iv2_step, None, None
        rows = path[here[rank[here] == 0]]
        u_cur, drift = u[rows], driftc[rows]
        t = np.full(rows.size, n * cfg.dt)
        piece = np.zeros(rows.size)
        sup2 = np.full(rows.size, -np.inf)   # fmax below skips NaN substates
        for k_atoms in np.split(here, np.flatnonzero(np.diff(rank[here])) + 1):
            at = np.searchsorted(rows, path[k_atoms])
            delta = times[k_atoms] - t[at]
            go = delta > 0.0
            if go.any():
                a, d = at[go], delta[go, None]
                v = u_cur[a]
                piece[a] += d[:, 0] * _row_dot(v * v, eigs)
                v = np.exp(-eigs * d) * (v + d * drift[a])
                u_cur[a] = v
                sup2[a] = np.fmax(sup2[a], np.sum(v * v, axis=1))
            for c, channel in enumerate(kernel.channels):
                on = chans[k_atoms] == c
                if on.any():
                    a = at[on]
                    u_cur[a] += eval_sigma_eps(channel, u_cur[a],
                                               marks[k_atoms[on]])
            v = u_cur[at]
            sup2[at] = np.fmax(sup2[at], np.sum(v * v, axis=1))
            t[at] = times[k_atoms]
            drift[at] = (_explicit_drift(basis, cfg, v, forcing)
                         - compensator_drift(kernel, v))
        delta = (n * cfg.dt + cfg.dt) - t
        piece += delta * _row_dot(u_cur * u_cur, eigs)
        u_new[rows] = np.exp(-eigs * delta[:, None]) * (u_cur
                                                        + delta[:, None] * drift)
        iv2_step[rows] = piece
        sup2_all = np.full(n_paths, -np.inf)
        sup2_all[rows] = sup2
        return (u_new, iv2_step, sup2_all,
                np.bincount(path[here], minlength=n_paths))

    return _integrate(basis, cfg, u, forcing, advance)


def _single(batch: PathBatch) -> PathSample:
    t = float(batch.blowup_time[0])
    if np.isfinite(t):
        raise BlowUpError(t)
    return PathSample.from_batch(batch, 0)


def simulate_brownian(basis: BasisSpec, cfg: SolverConfig, u0, stream,
                      noise: BrownianNoiseSpec | None = None,
                      forcing: FieldMap | None = None) -> PathSample:
    """Single-path Brownian run; raises BlowUpError instead of masking."""
    return _single(simulate_brownian_batch(basis, cfg, u0, [stream], noise,
                                           forcing))


def simulate_jump(basis: BasisSpec, cfg: SolverConfig, u0, stream,
                  kernel: JumpKernel,
                  forcing: FieldMap | None = None) -> PathSample:
    """Single-path jump run; raises BlowUpError instead of masking."""
    return _single(simulate_jump_batch(basis, cfg, u0, [stream], kernel,
                                       forcing))


def exit_time_index(batch: PathBatch, level: float) -> np.ndarray:
    """First recorded index where |u|_H^2 or the running V-integral exceeds level.

    Returns n_recorded for paths that never exit; a blown-up path exits at
    its first NaN record at the latest.
    """
    h2 = batch.norm_h2
    bad = (h2 > level) | (batch.int_v2 > level) | ~np.isfinite(h2)
    return np.where(bad.any(axis=1), bad.argmax(axis=1), batch.n_recorded)
