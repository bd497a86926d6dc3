"""Exponential Euler time stepping for the projected system.

The Stokes part is integrated exactly through the semigroup factor
exp(-lambda*dt); the bilinear term, forcing and noise enter through an
explicit step evaluated at the left endpoint.  One step function,
simulate_arms, drives a stack of arms (records, blow-up masking, running
integrals): the same paths of a Brownian arm and of any number of pure-jump
arms form one (rows, dim) state, so a step takes one B(u) call and one
record for all of them.  An arm is a driver and its noise, which the caller
draws (see sampling): a Brownian block adds its sigma map's sigma(u) times
its Wiener increments; a jump block subtracts its kernel's compensator from
the drift and takes the atoms of its Poisson random measure.  Steps that
contain atoms are split at the atom times, with the jump applied to the
left limit.  The atoms of every jump block are planned once per stack, with
the substep lengths and each atom's kernel factors h(z) and theta(z), and
all rows with a k-th atom in a step take their k-th substep together, so
the kernel and drift evaluations per step scale with the largest atom count
of any row, not with the number of atoms or of arms.  A round only writes
the norms of its substeps and jumps into buffers of its step; each row's
integral of |u|_V^2 and sup of |u|_H^2 over the step are reduced once,
after the last round.  Every arm of a stack takes one sigma map, evaluated
once per state on all rows.  B(u) runs in fixed blocks of nonlinear._B_ROWS
of the stacked rows, whatever arm they belong to, and the V-norm gemv arm
by arm, so a linear arm has the bits it has when it runs alone, while a
gemm's rows can move in the last bits with the block shape.

Trajectories are never clamped.  Once a path leaves the configured norm
ball it is marked blown up, its state traces turn NaN from that record on,
and the rest of the batch keeps going.  A single path is a batch of one.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .kernels import FieldMap, JumpKernel, gain_moment, row_dot, zero_map
from .nonlinear import nonlinear_term_batch
from .sampling import brownian_increments, sample_prm_paths
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
                    forcing: FieldMap | None) -> np.ndarray:
    """-B(u) + F(u) on (P, dim) rows; the Stokes part lives in the semigroup.

    B(u) runs in blocks of nonlinear._B_ROWS rows.
    """
    if cfg.include_nonlinearity:
        out = nonlinear_term_batch(basis, u)
        np.negative(out, out=out)
    else:
        out = np.zeros(u.shape)
    if forcing is not None:
        out = out + forcing.fn(u)
    return out


# the PathBatch traces, in field order
_TRACES = ("norm_h2", "norm_v2", "int_v2", "mode_traces", "drift_traces",
           "jump_counts", "sup_h4", "blowup_time", "terminal")


# PathBatch fields with one entry per record, stored record-major
_RECORDED = _TRACES[:6]


class ArmTraces:
    """Preallocated traces of n_arms arms of n_paths paths each.

    The per-record traces are stored record-major, (records, arms, paths[,
    k]), so a record writes the stacked rows of all arms as one contiguous
    block per trace; sup_h4, blowup_time and terminal are (arms, paths[,
    dim]).  Arm a's PathBatch holds views of slot a, with the record axis
    moved behind the path axis.  window(lo, hi) is the same store cut to
    paths lo..hi-1 of every arm, for one chunk.
    """

    def __init__(self, cfg: SolverConfig, n_arms: int, n_paths: int,
                 dim: int):
        self.track = np.asarray(cfg.track_modes, dtype=np.intp)
        if self.track.size and (self.track.min() < 0
                                or self.track.max() >= dim):
            raise ValueError("track_modes index out of range")
        rows = (n_arms, n_paths)
        recs = (cfg.n_recorded,) + rows
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
            cut = (slice(None),) * (2 if name in _RECORDED else 1)
            setattr(view, name, getattr(self, name)[cut + (slice(lo, hi),)])
        return view

    def batches(self) -> list[PathBatch]:
        return [PathBatch(self.times, *(
            np.moveaxis(getattr(self, name)[:, a], 0, 1)
            if name in _RECORDED else getattr(self, name)[a]
            for name in _TRACES)) for a in range(self.sup_h4.shape[0])]

    def record(self, r: int, u, h2, v2, drift, eigs, iv2, counts):
        """Record r of the stacked rows u, one block per trace."""
        rows = self.sup_h4.shape
        self.norm_h2[r] = h2.reshape(rows)
        self.norm_v2[r] = v2.reshape(rows)
        self.int_v2[r] = iv2.reshape(rows)
        self.jump_counts[r] = counts.reshape(rows)
        if self.track.size:
            k = self.track
            modes = rows + (k.size,)
            uk = u[:, k]
            self.mode_traces[r] = uk.reshape(modes)
            # -lambda_k u_k + drift_k, built in the gathered copy
            uk *= -eigs[k]
            uk += drift[:, k]
            self.drift_traces[r] = uk.reshape(modes)

    def finish(self, u, sup4, blow_t) -> None:
        rows = self.sup_h4.shape
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


def _plan_order(step, rank, row) -> np.ndarray:
    """np.lexsort((row, rank, step)) of unique triples, as one argsort of
    the int64 key (step n_rank + rank) width + row while that fits."""
    n_rank, width = int(rank.max(initial=0)) + 1, int(row.max(initial=0)) + 1
    if (int(step.max(initial=0)) + 1) * n_rank * width >= 1 << 63:
        return np.lexsort((row, rank, step))
    return np.argsort((step * n_rank + rank) * width + row)


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
    as (lo, hi, gains): atoms lo to hi - 1 and the (rows, kernel) of the
    theta != one arms, rows being a slice of the round.  Per atom: at is
    its place in its step's rows, delta the length of its substep, from
    the step start or the row's previous atom up to the atom (0 for an atom
    at its row's previous time, or at a step start that rounding put after
    it), h and theta the kernel values at its mark (theta = one gives exact
    ones), and atom_coef and atom_zero its row's coef and zero.  h_zero
    tells whether any atom's mark lies off the h support.
    """

    def __init__(self, cfg: SolverConfig, jumpy):
        n_steps, dt = cfg.n_steps, cfg.dt
        self.span = span = slice(jumpy[0][0].start, jumpy[-1][0].stop)
        self.coef = np.zeros(span.stop - span.start)
        zero = np.zeros(self.coef.size, dtype=bool)
        self.gains = []
        row, times, hv, tv = [], [], [], []
        for block, kernel, (drawn, counts) in jumpy:
            rows = slice(block.start - span.start, block.stop - span.start)
            if kernel.theta.family == "one":
                self.coef[rows] = kernel.h_integral
                zero[rows] = kernel.h_integral == 0.0
            else:
                self.gains.append((rows, kernel))
            if counts.sum() != len(drawn):
                raise ValueError("atom counts must sum to the atom count")
            row.append(np.repeat(np.arange(block.start, block.stop), counts))
            hv.append(kernel.h.fn(drawn.marks))
            tv.append(kernel.theta.fn(drawn.marks))
            times.append(drawn.times)
        row = np.concatenate(row)
        times = np.concatenate(times)
        # a row's atoms are in time order, so each (row, step) is one run
        if not (np.all((times >= 0.0) & (times <= cfg.t_end)) and np.all(
                (times[1:] >= times[:-1]) | (row[1:] != row[:-1]))):
            raise ValueError("atom times unsorted in a path or off [0, t_end]")

        step = np.minimum((times / dt).astype(int), n_steps - 1)
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

        order = _plan_order(step, rank, row)
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        self.bounds = np.zeros(n_steps + 1, dtype=np.intp)
        np.cumsum(np.bincount(step, minlength=n_steps), out=self.bounds[1:])
        self.at = (place[first] - self.bounds[step])[order]
        self.row = row[order]
        self.delta = np.maximum(times - prev, 0.0)[order]
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
        for r_lo, r_hi, n in zip(lo.tolist(), hi.tolist(),
                                 step[lo].tolist()):
            self.rounds[n].append((r_lo, r_hi, self._gains(r_lo, r_hi)))

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


def simulate_arms(basis: BasisSpec, cfg: SolverConfig, u0, arms, *,
                  forcing: FieldMap | None = None,
                  out: ArmTraces | None = None,
                  turn: threading.Lock | None = None) -> list[PathBatch]:
    """Drive the same paths of several arms as one stacked batch.

    arms is a sequence of (driver, drawn) pairs with as many paths in every
    arm, drawn being the arm's noise.  A FieldMap sigma drives a Brownian
    arm by its (n_steps, paths) Wiener increments, a JumpKernel a
    compensated pure-jump arm by the (Atoms, counts) of its Poisson random
    measure, each path's atoms in time order on [0, t_end].  Arms may share
    their noise.  Any other driver, noise that is not so, or arms that do
    not all take the same sigma map object raise ValueError.  u0 is one
    (dim,) row or one row per path, shared by every arm.  The traces go to
    out, an ArmTraces (or window of one) of exactly these arms and paths,
    or to a new one; returns one PathBatch per arm.

    A step with atoms is split at the atom times: between atoms the state
    moves by the exponential Euler step with the compensated drift of the
    last substate, and each atom adds sigma_eps to the left limit.  Round k
    of a step advances, as one batch, every row of every jump arm that has
    a k-th atom in that step.  The sigma map is evaluated once per state on
    all rows: in a main step sigma(u) serves the Wiener increments and
    every compensator, and in a round sigma(theta v) gives every jump (v
    goes in as it is when every arm has theta = one) and sigma(v) every
    compensator.

    turn, a lock that the workers of one run share (harness.run_arm), is
    held by the caller and let go here only while the main step's B(u)
    runs, whose gemms release the GIL.  So one worker's small-array work
    can run next to another's gemms but never next to another's
    small-array work, where the two would pass the GIL back and forth on
    every numpy call.  Taking turns reorders no arithmetic.  Without a
    turn the call takes and holds a fresh lock of its own.
    """
    for driver, _ in arms:
        if not isinstance(driver, (FieldMap, JumpKernel)):
            raise ValueError("an arm's driver must be a FieldMap (Brownian) "
                             f"or a JumpKernel, not {type(driver).__name__}")
    # a jump arm's noise spans the steps too, with one count per path
    shapes = [np.shape(drawn) if isinstance(driver, FieldMap)
              else (cfg.n_steps, len(drawn[1])) for driver, drawn in arms]
    if any(s != shapes[0] or s[:-1] != (cfg.n_steps,) for s in shapes):
        raise ValueError("every arm's noise must be (n_steps, paths), with "
                         "the same number of paths")
    n_paths = shapes[0][1]
    maps = [driver if isinstance(driver, FieldMap) else driver.sigma
            for driver, _ in arms]
    if any(m is not maps[0] for m in maps):
        raise ValueError("the arms of a stack must share one sigma map object")
    sigma = maps[0].fn
    u = np.tile(_tile_initial(u0, n_paths, basis.dim), (len(arms), 1))
    if out is None:
        out = ArmTraces(cfg, len(arms), n_paths, basis.dim)
    blocks = [slice(a * n_paths, (a + 1) * n_paths) for a in range(len(arms))]

    wiener = []   # (block, increments) of each Brownian arm
    jumpy = []    # (block, kernel, (Atoms, counts)) of each jump arm
    for block, (driver, drawn) in zip(blocks, arms):
        if isinstance(driver, FieldMap):
            wiener.append((block, drawn))
        else:
            jumpy.append((block, driver, drawn))
    plan = _AtomPlan(cfg, jumpy) if jumpy else None

    eigs = basis.eigenvalues
    neg_eigs = -eigs
    efac = np.exp(neg_eigs * cfg.dt)
    n_rows = u.shape[0]

    # the V-norm gemv runs arm by arm, as in a one-arm run: its rows
    # depend on the batch shape
    def norms(u):
        uu = u * u
        v2 = np.empty(uu.shape[0])
        for block in blocks:
            np.matmul(uu[block], eigs, out=v2[block])
        return np.add.reduce(uu, axis=1), v2

    def split_step(n, u_cur, drift):
        # step n of the rows with atoms, split at their atoms: end states,
        # integral of |u|_V^2 over the step and sup of |u|_H^2 inside it.
        # Every atom ends one substep; one of length 0 (see _AtomPlan)
        # moves its row to (u + 0 drift) e^0 = u, the same bits.  A round
        # gathers its rows once, and writes d |v|_V^2 of each substep and
        # the larger of |v|_H^2 before and after each jump into step
        # buffers; the per-row sums and maxima are taken once after the
        # last round.  The atoms sit in (rank, row) order, so each row
        # still sums its pieces in rank order.
        a0, a1 = plan.bounds[n], plan.bounds[n + 1]
        sub_v2, step_h2 = np.empty(a1 - a0), np.empty(a1 - a0)
        for lo, hi, gains in plan.rounds[n]:
            at, d = plan.at[lo:hi], plan.delta[lo:hi, None]
            here = slice(lo - a0, hi - a0)
            v = u_cur[at]
            np.multiply(d[:, 0], row_dot(v * v, eigs), out=sub_v2[here])
            v += d * drift[at]
            v *= np.exp(neg_eigs * d)
            sub_h2 = np.add.reduce(v * v, axis=1)
            h = plan.h[lo:hi, None]
            # 1.0 * v is v, so theta multiplies only where some arm needs it
            jump = sigma(plan.theta[lo:hi, None] * v if plan.gains else v) * h
            if plan.h_zero:
                jump[h[:, 0] == 0.0] = 0.0
            v += jump
            u_cur[at] = v
            np.fmax(sub_h2, np.add.reduce(v * v, axis=1), out=step_h2[here])
            dv = _explicit_drift(basis, cfg, v, forcing)
            dv -= _compensator(v, sigma(v), plan.atom_coef[lo:hi], gains,
                               None if plan.atom_zero is None
                               else plan.atom_zero[lo:hi])
            drift[at] = dv
        piece = np.zeros(len(u_cur))
        np.add.at(piece, plan.at[a0:a1], sub_v2)
        sup2 = np.full(len(u_cur), -np.inf)   # fmax skips NaN states
        np.fmax.at(sup2, plan.at[a0:a1], step_h2)
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

    if turn is None:
        turn = threading.Lock()
        turn.acquire()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.n_steps):
            # the other workers take their turns while B(u) runs
            turn.release()
            try:
                expl = _explicit_drift(basis, cfg, u, forcing)
            finally:
                turn.acquire()
            if n % cfg.record_stride == 0:
                out.record(n // cfg.record_stride, u, h2, v2, expl, eigs,
                           iv2, counts)
            iv2_step = cfg.dt * v2
            su = sigma(u)
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
        out.record(cfg.n_recorded - 1, u, h2, v2,
                   _explicit_drift(basis, cfg, u, forcing), eigs, iv2, counts)
    out.finish(u, sup4, blow_t)
    return out.batches()


def simulate_brownian_batch(basis: BasisSpec, cfg: SolverConfig, u0,
                            streams, noise: BrownianNoiseSpec | None = None,
                            forcing: FieldMap | None = None) -> PathBatch:
    """Drive a batch of paths with the Brownian noise.

    streams is one numpy Generator per path; noise=None integrates the
    deterministic system, as a zero sigma arm that draws nothing.
    """
    if noise is None:
        arm = (zero_map(), np.zeros((cfg.n_steps, len(streams))))
    else:
        arm = (noise.sigma, brownian_increments(streams, cfg.n_steps, cfg.dt))
    return simulate_arms(basis, cfg, u0, [arm], forcing=forcing)[0]


def simulate_jump_batch(basis: BasisSpec, cfg: SolverConfig, u0,
                        streams, kernel: JumpKernel,
                        forcing: FieldMap | None = None) -> PathBatch:
    """Drive a batch of paths with the compensated pure-jump noise."""
    drawn = sample_prm_paths(kernel, cfg.t_end, streams)
    return simulate_arms(basis, cfg, u0, [(kernel, drawn)],
                         forcing=forcing)[0]
