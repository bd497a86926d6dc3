"""Exponential Euler time stepping for the projected system.

The Stokes part is integrated exactly through the semigroup factor
exp(-lambda*dt); the bilinear term, forcing and noise enter through an
explicit step evaluated at the left endpoint.  One step function,
simulate_arms, drives a stack of arms (records, blow-up masking, running
integrals): the same paths of a Brownian arm and of any number of pure-jump
arms form one (rows, dim) state, so a step takes one B(u) call and one
record for all of them.  A Brownian block adds its Wiener increments; a
jump block subtracts its own kernel's compensator from the drift and takes
the atoms of its sampled Poisson random measure.  Steps that contain atoms
are split at the atom times, with the jump applied to the left limit.  The
atoms of every jump block are sampled and planned once per stack, with the
substep lengths and each atom's kernel factors h(z) and theta(z), and all
rows with a k-th atom in a step take their k-th substep together, so the
kernel and drift evaluations per step scale with the largest atom count of
any row, not with the number of atoms or of arms.  A round only writes the
norms of its substeps and jumps into buffers of its step; each row's
integral of |u|_V^2 and sup of |u|_H^2 over the step are reduced once,
after the last round.  Every arm of a stack takes one sigma map, evaluated
once per state on all rows.  BLAS products run block by block, one arm's
rows at a time, so every operation on a row has the bits it has when that
arm runs alone, except B(u) in the atom rounds, where the rows of all jump
arms meet and the gemm's rows can move in the last bits.

Per-path randomness contract (pinned by tests, do not reorder):
  * Brownian arm: one standard_normal(n_steps) call per path.
  * Jump arm: one poisson count and then one random(3 * count) call per
    path, nothing else (sampling.sample_prm_paths).
Draws stay one pinned sequence per path, taken path after path.  So a
chunk may serve every path's sequence from one re-keyed generator
(sampling.PathStreams); the draws are the same as from one generator per
path.

Trajectories are never clamped.  Once a path leaves the configured norm
ball it is marked blown up, its state traces turn NaN from that record on,
and the rest of the batch keeps going.  A single path is a batch of one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .kernels import FieldMap, JumpKernel, gain_moment, row_dot
from .nonlinear import nonlinear_term_batch
from .sampling import sample_prm_paths
# bound here, though unused, because perfbench/tracing.py wraps these names
from .kernels import compensator_drift, eval_sigma_eps  # noqa: F401
from .sampling import sample_prm  # noqa: F401


@dataclass(frozen=True)
class BrownianNoiseSpec:
    """One scalar Wiener process with a state dependent coefficient map."""

    sigma: FieldMap

    @property
    def channels(self) -> tuple[FieldMap]:
        # read-only one-tuple, kept because perfbench/suite.py reads it
        return (self.sigma,)


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    dt: float
    record_stride: int = 1
    include_nonlinearity: bool = True
    track_modes: tuple[int, ...] = ()
    blowup_norm: float = 1e6

    def __post_init__(self):
        if not (0.0 < self.t_end < np.inf and 0.0 < self.dt < np.inf):
            raise ValueError("t_end and dt must be finite and positive")
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be an integer multiple of dt")
        if self.record_stride < 1 or n % self.record_stride:
            raise ValueError("record_stride must divide the step count")
        if not 0.0 < self.blowup_norm < np.inf:
            raise ValueError("blowup_norm must be finite and positive")

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
                    forcing: FieldMap | None,
                    block: int | None = None) -> np.ndarray:
    """-B(u) + F(u) on (P, dim) rows; the Stokes part lives in the semigroup.

    B(u) runs in blocks of at most block rows.
    """
    if cfg.include_nonlinearity:
        out = nonlinear_term_batch(basis, u, block)
        np.negative(out, out=out)
    else:
        out = np.zeros(u.shape)
    if forcing is not None:
        out = out + forcing.fn(u)
    return out


# the PathBatch traces, in field order
_TRACES = ("norm_h2", "norm_v2", "int_v2", "mode_traces", "drift_traces",
           "jump_counts", "sup_h4", "blowup_time", "terminal")


class ArmTraces:
    """Preallocated traces of n_arms arms of n_paths paths each.

    Every array has the PathBatch layout behind a leading arm axis, so a
    record writes the stacked rows of all arms with one assignment per
    trace, and arm a's PathBatch is a view of slot a.  window(lo, hi) is
    the same store cut to paths lo..hi-1 of every arm, for one chunk.
    """

    def __init__(self, cfg: SolverConfig, n_arms: int, n_paths: int,
                 dim: int):
        self.track = np.asarray(cfg.track_modes, dtype=np.intp)
        if self.track.size and (self.track.min() < 0
                                or self.track.max() >= dim):
            raise ValueError("track_modes index out of range")
        rows = (n_arms, n_paths)
        recs = rows + (cfg.n_recorded,)
        self.times = cfg.recorded_times()
        self.norm_h2 = np.empty(recs)
        self.norm_v2 = np.empty(recs)
        self.int_v2 = np.empty(recs)
        self.mode_traces = np.empty(recs + (self.track.size,))
        self.drift_traces = np.empty(recs + (self.track.size,))
        self.jump_counts = np.zeros(recs, dtype=np.int64)
        self.sup_h4 = np.empty(rows)
        self.blowup_time = np.empty(rows)
        self.terminal = np.empty(rows + (dim,))

    def window(self, lo: int, hi: int) -> ArmTraces:
        view = copy.copy(self)
        for name in _TRACES:
            setattr(view, name, getattr(self, name)[:, lo:hi])
        return view

    def batches(self) -> list[PathBatch]:
        return [PathBatch(self.times, *(getattr(self, name)[a]
                                        for name in _TRACES))
                for a in range(self.norm_h2.shape[0])]

    def record(self, r: int, u, h2, v2, drift, eigs, iv2, counts):
        """Record r of the stacked rows u, arm by arm."""
        rows = self.norm_h2.shape[:2]
        self.norm_h2[:, :, r] = h2.reshape(rows)
        self.norm_v2[:, :, r] = v2.reshape(rows)
        self.int_v2[:, :, r] = iv2.reshape(rows)
        self.jump_counts[:, :, r] = counts.reshape(rows)
        if self.track.size:
            k = self.track
            modes = rows + (k.size,)
            uk = u[:, k]
            self.mode_traces[:, :, r] = uk.reshape(modes)
            # -lambda_k u_k + drift_k, built in the gathered copy
            uk *= -eigs[k]
            uk += drift[:, k]
            self.drift_traces[:, :, r] = uk.reshape(modes)

    def finish(self, u, sup4, blow_t) -> None:
        rows = self.norm_h2.shape[:2]
        self.sup_h4[...] = sup4.reshape(rows)
        self.blowup_time[...] = blow_t.reshape(rows)
        self.terminal[...] = u.reshape(rows + u.shape[1:])


def _compensator(v, s, coef, gains, zero) -> np.ndarray:
    """The compensator at rows v, given s = sigma(v): one coefficient per
    row times s, coef on the theta = one rows and the first gain moment on
    the (rows, kernel) of gains, and an exact 0 on the rows of zero (None
    or a mask), which s may hold non-finite, so each row has the bits of
    kernels.compensator_drift."""
    if gains:
        coef = coef.copy()
        for rows, kernel in gains:
            coef[rows] = gain_moment(kernel, v[rows], 1)
    out = 0.0 + coef[:, None] * s
    if zero is not None:
        out[zero] = 0.0
    return out


class _AtomPlan:
    """The atoms of every jump block of a stack, ordered once for the loop.

    The jump rows of the stack lie in span; coef holds, per row there, the
    theta = one compensator coefficient h_integral (0 for theta != one or
    an odd profile), zero masks the rows of a theta = one arm with an odd
    profile (None if there are none), and gains the (rows, kernel) of
    every theta != one arm, rows a slice of span.  Atoms sit sorted by
    (step, rank, row), rank being an atom's place among its row's atoms in
    the same step.  For step n, atoms bounds[n] to bounds[n+1] - 1 fall in
    it, rows[n] holds its rows with atoms (ascending) and tails[n] the rest
    of the step after each row's last atom, and rounds[n] its rank rounds
    as (lo, hi, s_lo, s_hi, gains): atoms lo to hi - 1, the substeps s_lo
    to s_hi - 1 up to them, and the (rows, kernel) of the theta != one
    arms, rows being a slice of the round.  Per atom: at is its place in
    its step's rows, h and theta the kernel values at its mark (theta 1.0
    for theta = one, where the product is exact), and atom_coef and
    atom_zero its row's coef and zero.  Per substep: sub_at is the place of
    its row and sub_delta its length, from the step start or the row's
    previous atom up to the atom; substeps sub_bounds[n] to
    sub_bounds[n+1] - 1 fall in step n.  An atom at its row's previous
    time, or at a step start that rounding put after it, has no substep.
    h_zero tells whether any atom's mark lies off the h support.
    """

    def __init__(self, cfg: SolverConfig, jumpy):
        n_steps, dt = cfg.n_steps, cfg.dt
        self.span = span = slice(jumpy[0][0].start, jumpy[-1][0].stop)
        self.coef = np.zeros(span.stop - span.start)
        zero = np.zeros(self.coef.size, dtype=bool)
        self.gains = []
        row, times, hv, tv = [], [], [], []
        for block, kernel, streams in jumpy:
            rows = slice(block.start - span.start, block.stop - span.start)
            if kernel.theta.family == "one":
                self.coef[rows] = kernel.h_integral
                zero[rows] = kernel.h_integral == 0.0
            else:
                self.gains.append((rows, kernel))
            drawn, counts = sample_prm_paths(kernel, cfg.t_end, streams)
            row.append(np.repeat(np.arange(block.start, block.stop), counts))
            hv.append(kernel.h.fn(drawn.marks))
            tv.append(np.ones(len(drawn)) if kernel.theta.family == "one"
                      else kernel.theta.fn(drawn.marks))
            times.append(drawn.times)
        row = np.concatenate(row)
        times = np.concatenate(times)

        step = np.minimum((times / dt).astype(int), n_steps - 1)
        # a row's atoms are in time order, so each (row, step) is one run
        key = row * n_steps + step
        fresh = np.ones(key.size, dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        last = np.ones(key.size, dtype=bool)
        last[:-1] = fresh[1:]
        first = np.flatnonzero(fresh)[np.cumsum(fresh) - 1]
        rank = np.arange(key.size) - first
        prev = np.empty_like(times)
        prev[1:] = times[:-1]
        prev[fresh] = step[fresh] * dt
        tail = np.zeros_like(times)
        tail[fresh] = (step[last] * dt + dt) - times[last]

        order = np.lexsort((row, rank, step))
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        self.bounds = np.zeros(n_steps + 1, dtype=np.intp)
        np.cumsum(np.bincount(step, minlength=n_steps), out=self.bounds[1:])
        self.at = (place[first] - self.bounds[step])[order]
        self.row = row[order]
        delta = (times - prev)[order]
        sub = np.flatnonzero(delta > 0.0)
        self.sub_at, self.sub_delta = self.at[sub], delta[sub]
        self.sub_bounds = np.searchsorted(sub, self.bounds)
        self.h = np.concatenate(hv)[order]
        self.theta = np.concatenate(tv)[order]
        # decided once: a mark off the h support is rare, and only then
        # does a jump need its zero forced (sigma may be non-finite there)
        self.h_zero = bool(np.any(self.h == 0.0))
        self.atom_coef = self.coef[self.row - span.start]
        self.zero, self.atom_zero = None, None
        if zero.any():
            self.zero, self.atom_zero = zero, zero[self.row - span.start]
        rank, step, tail = rank[order], step[order], tail[order]

        n_rows = np.bincount(step[rank == 0], minlength=n_steps)
        heads = [slice(lo, lo + k) for lo, k in zip(self.bounds[:-1].tolist(),
                                                     n_rows.tolist())]
        self.rows = [self.row[h] for h in heads]
        self.tails = [tail[h] for h in heads]
        new_round = np.ones(key.size, dtype=bool)
        new_round[1:] = (step[1:] != step[:-1]) | (rank[1:] != rank[:-1])
        lo = np.flatnonzero(new_round)
        hi = np.append(lo[1:], key.size)
        self.rounds = [[] for _ in range(n_steps)]
        for r_lo, r_hi, s_lo, s_hi, n in zip(
                lo.tolist(), hi.tolist(), np.searchsorted(sub, lo).tolist(),
                np.searchsorted(sub, hi).tolist(), step[lo].tolist()):
            self.rounds[n].append((r_lo, r_hi, s_lo, s_hi,
                                   self._gains(r_lo, r_hi)))

    def _gains(self, lo: int, hi: int) -> list:
        """(rows, kernel) of the round's theta != one rows, rows being
        slices of the round (one arm's rows each)."""
        out = []
        for rows, kernel in self.gains:
            # a round's rows ascend, so one arm's rows are one run
            a, b = np.searchsorted(self.row[lo:hi] - self.span.start,
                                   (rows.start, rows.stop))
            if a < b:
                out.append((slice(int(a), int(b)), kernel))
        return out


def simulate_arms(basis: BasisSpec, cfg: SolverConfig, u0, arms,
                  noise: BrownianNoiseSpec | None = None,
                  forcing: FieldMap | None = None,
                  out: ArmTraces | None = None) -> list[PathBatch]:
    """Drive the same paths of several arms as one stacked batch.

    arms is a sequence of (kernel, streams) pairs, streams yielding one
    numpy Generator per path, with as many paths in every arm.  Streams
    are taken in path order, each arm's once, and each is used up before
    the next is taken, so a stream need only be valid until then (see
    sampling.PathStreams).  kernel None makes a Brownian arm driven by
    noise (noise=None integrates the deterministic system); a JumpKernel
    makes a compensated pure-jump arm.  Every arm that is driven must take
    the same sigma map object (ValueError otherwise).  u0 is one (dim,) row
    or one row per path, shared by every arm.  The traces go to out, an
    ArmTraces (or window of one) of exactly these arms and paths, or to a
    new one; returns one PathBatch per arm.

    A step with atoms is split at the atom times: between atoms the state
    moves by the exponential Euler step with the compensated drift of the
    last substate, and each atom adds sigma_eps to the left limit.  Round k
    of a step advances, as one batch, every row of every jump arm that has
    a k-th atom in that step.  The sigma map is evaluated once per state on
    all rows: in a main step sigma(u) serves the Wiener increments and
    every compensator, and in a round sigma(theta v) gives every jump (v
    goes in as it is when every arm has theta = one) and sigma(v) every
    compensator.
    """
    n_paths = len(arms[0][1])
    if any(len(streams) != n_paths for _, streams in arms):
        raise ValueError("every arm needs the same number of paths")
    maps = [noise.sigma if kernel is None else kernel.sigma
            for kernel, _ in arms if kernel is not None or noise is not None]
    if any(m is not maps[0] for m in maps):
        raise ValueError("the arms of a stack must share one sigma map object")
    sigma = maps[0].fn if maps else None
    u = np.tile(_tile_initial(u0, n_paths, basis.dim), (len(arms), 1))
    if out is None:
        out = ArmTraces(cfg, len(arms), n_paths, basis.dim)
    blocks = [slice(a * n_paths, (a + 1) * n_paths) for a in range(len(arms))]

    root = np.sqrt(cfg.dt)
    wiener = []   # (block, increments) of each Brownian arm
    jumpy = []    # (block, kernel, streams) of each jump arm
    for block, (kernel, streams) in zip(blocks, arms):
        if kernel is not None:
            jumpy.append((block, kernel, streams))
        elif noise is not None:
            # step-major, so each step reads one contiguous row
            dw = np.empty((cfg.n_steps, n_paths))
            for p, g in enumerate(streams):
                dw[:, p] = g.standard_normal(cfg.n_steps) * root
            wiener.append((block, dw))
    plan = _AtomPlan(cfg, jumpy) if jumpy else None

    eigs = basis.eigenvalues
    neg_eigs = -eigs
    efac = np.exp(neg_eigs * cfg.dt)
    n_rows = u.shape[0]

    # BLAS products run in blocks of one arm's paths, as in a one-arm run:
    # a gemv's or gemm's rows depend on the batch shape, and B(u)'s grid
    # temporaries grow with it
    def explicit(u):
        return _explicit_drift(basis, cfg, u, forcing, n_paths)

    def norms(u):
        uu = u * u
        v2 = np.empty(uu.shape[0])
        for block in blocks:
            np.matmul(uu[block], eigs, out=v2[block])
        return np.add.reduce(uu, axis=1), v2

    def split_step(n, u_cur, drift):
        # step n of the rows with atoms, split at their atoms: end states,
        # integral of |u|_V^2 over the step and sup of |u|_H^2 inside it.
        # The rounds write d |w|_V^2 and |w|_H^2 of each substep and |v|_H^2
        # of each jump into step buffers; the per-row sums and maxima are
        # taken once after the last round.  The substeps sit in (rank, row)
        # order, so each row still sums its pieces in rank order.
        a0, a1 = plan.bounds[n], plan.bounds[n + 1]
        s0, s1 = plan.sub_bounds[n], plan.sub_bounds[n + 1]
        sub_v2, sub_h2 = np.empty(s1 - s0), np.empty(s1 - s0)
        atom_h2 = np.empty(a1 - a0)
        for lo, hi, s_lo, s_hi, gains in plan.rounds[n]:
            a, d = plan.sub_at[s_lo:s_hi], plan.sub_delta[s_lo:s_hi, None]
            here = slice(s_lo - s0, s_hi - s0)
            w = u_cur[a]
            np.multiply(d[:, 0], row_dot(w * w, eigs), out=sub_v2[here])
            w += d * drift[a]
            w *= np.exp(neg_eigs * d)
            np.add.reduce(w * w, axis=1, out=sub_h2[here])
            at = plan.at[lo:hi]
            if s_hi - s_lo == hi - lo:
                v = w   # every atom of the round has its substep: a is at
            else:
                u_cur[a] = w
                v = u_cur[at]
            h = plan.h[lo:hi, None]
            # 1.0 * v is v, so theta multiplies only where some arm needs it
            jump = sigma(plan.theta[lo:hi, None] * v if plan.gains else v) * h
            if plan.h_zero:
                jump[h[:, 0] == 0.0] = 0.0
            v += jump
            u_cur[at] = v
            np.add.reduce(v * v, axis=1, out=atom_h2[lo - a0:hi - a0])
            dv = explicit(v)
            dv -= _compensator(v, sigma(v), plan.atom_coef[lo:hi], gains,
                               None if plan.atom_zero is None
                               else plan.atom_zero[lo:hi])
            drift[at] = dv
        piece = np.zeros(len(u_cur))
        np.add.at(piece, plan.sub_at[s0:s1], sub_v2)
        sup2 = np.full(len(u_cur), -np.inf)   # fmax skips NaN states
        np.fmax.at(sup2, plan.sub_at[s0:s1], sub_h2)
        np.fmax.at(sup2, plan.at[a0:a1], atom_h2)
        delta = plan.tails[n][:, None]
        piece += delta[:, 0] * row_dot(u_cur * u_cur, eigs)
        return np.exp(neg_eigs * delta) * (u_cur + delta * drift), piece, sup2

    active = np.ones(n_rows, dtype=bool)
    blow_t = np.full(n_rows, np.nan)
    iv2 = np.zeros(n_rows)
    counts = np.zeros(n_rows, dtype=np.int64)
    h2, v2 = norms(u)
    sup4 = h2 ** 2
    cap2 = cfg.blowup_norm**2

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.n_steps):
            expl = explicit(u)
            if n % cfg.record_stride == 0:
                out.record(n // cfg.record_stride, u, h2, v2, expl, eigs,
                           iv2, counts)
            iv2_step = cfg.dt * v2
            su = sigma(u) if sigma is not None else None
            if plan is not None:
                jr = plan.span
                expl[jr] -= _compensator(u[jr], su[jr], plan.coef, plan.gains,
                                         plan.zero)
            atoms = plan is not None and plan.bounds[n] < plan.bounds[n + 1]
            if atoms:
                rows = plan.rows[n]
                end, piece, sup2 = split_step(n, u[rows], expl[rows])
            # the compensated drift becomes the end states in place
            u_new = expl
            u_new *= cfg.dt
            u_new += u
            for block, dw in wiener:
                u_new[block] += su[block] * dw[n, :, None]
            u_new *= efac
            # for peak memory, neither sigma(u) nor the split end states
            # stay live through norms and the next step's B(u)
            del su
            if atoms:
                u_new[rows] = end
                del end
                iv2_step[rows] = piece
                # a row's atoms count while it is not blown up
                met = np.bincount(plan.at[plan.bounds[n]:plan.bounds[n + 1]],
                                  minlength=rows.size)
                counts[rows] += met * active[rows]

            h2, v2 = norms(u_new)
            was_active = active
            bad = active & ~(h2 <= cap2)   # NaN and inf fail the test too
            if bad.any():
                blow_t[bad] = (n + 1) * cfg.dt
                active = active & ~bad
                u_new[bad] = np.nan
                h2[bad] = np.nan
                v2[bad] = np.nan
            np.add(iv2, iv2_step, out=iv2,
                   where=was_active & np.isfinite(iv2_step))
            np.maximum(sup4, np.where(active, h2 * h2, -np.inf), out=sup4)
            if atoms:
                # the states inside the step, on the rows still running
                keep = active[rows] & np.isfinite(sup2)
                sup4[rows[keep]] = np.maximum(sup4[rows[keep]],
                                              sup2[keep] * sup2[keep])
            u = u_new
        out.record(cfg.n_recorded - 1, u, h2, v2, explicit(u), eigs, iv2,
                   counts)
    out.finish(u, sup4, blow_t)
    return out.batches()


def simulate_brownian_batch(basis: BasisSpec, cfg: SolverConfig, u0,
                            streams, noise: BrownianNoiseSpec | None = None,
                            forcing: FieldMap | None = None) -> PathBatch:
    """Drive a batch of paths with the Brownian noise.

    streams is one numpy Generator per path; noise=None integrates the
    deterministic system.
    """
    return simulate_arms(basis, cfg, u0, [(None, streams)], noise,
                         forcing)[0]


def simulate_jump_batch(basis: BasisSpec, cfg: SolverConfig, u0,
                        streams, kernel: JumpKernel,
                        forcing: FieldMap | None = None) -> PathBatch:
    """Drive a batch of paths with the compensated pure-jump noise."""
    return simulate_arms(basis, cfg, u0, [(kernel, streams)], None,
                         forcing)[0]
