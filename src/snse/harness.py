"""Monte Carlo experiment harness: paired arms, law gaps, persistence.

An experiment runs one Brownian arm plus one jump arm per epsilon from the
same initial field and time grid, evaluates a fixed set of terminal
functionals on every path, and compares each jump law against the Brownian
reference (mean gap with joint standard error, and a two-sample KS test).
The Brownian noise sigma(u) dW and every kernel's jumps sigma(theta u) h
take one sigma map object, as the paired arms share one diffusion limit.

Reproducibility contract: every path owns a counter-based stream (see
sampling), from which each chunk draws its noise; the paths run in chunks
of `chunk_size` per arm (the size is in the config hash), on worker
threads for B(u) at n_max >= 3 (run_arm), and a chunk advances those paths
of every arm together as one stacked batch, so its working memory scales
with 1 + the number of epsilons.
(config, seed) fix every output byte for a given numpy/BLAS build and BLAS
thread setting (1 on worker threads), whatever the worker count; persisted
files carry no timestamps.  Linear runs are also byte-stable across BLAS
thread counts (tested), and each linear arm has the bits of its one-arm run
(tested); serial nonlinear runs are not: B(u) on P = 512 random rows at
n_max = 8 differs in 117,460 of 147,456 entries (<= 1.1e-15 of the largest)
at 1 and 2 threads (at n_max = 4 in none, untested), and a stack takes B(u)
in fixed blocks of its rows across arms, the V-norm gemv arm by arm, so a
nonlinear arm can move in the last bits against its one-arm run.

A chunk's jump atoms are drawn and planned all at once, so a run whose
chunk expects more than ATOM_BUDGET atoms is refused before it starts.

Before simulating, the harness re-derives the linear-growth / Lipschitz and
jump-size-decay certificates for the supplied kernel grid and refuses to run
when either fails, unless explicitly forced; forced runs are labelled
UNCERTIFIED in the manifest.
"""

from __future__ import annotations

import contextvars
import ctypes
import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisSpec
from .errors import CertificationError, ConfigError
from .hypotheses import check_growth_lipschitz, check_jump_size_decay
from .integrate import (ArmTraces, BrownianNoiseSpec, PathBatch,
                        SolverConfig, simulate_arms)
# bound here, though unused, because perfbench/tracing.py wraps these names
from .integrate import simulate_brownian_batch, simulate_jump_batch  # noqa: F401
from .kernels import FieldMap, JumpKernel
from .measures import float_label
from .sampling import PathStreams, brownian_increments, sample_prm_paths
# bound only for perfbench/tracing.py
from .sampling import derive_stream  # noqa: F401
from .stats import compare_laws, summarize

BLOWUP_BUDGET = 0.01
# expected atoms per chunk, each worker planning one at ~190 traced B/atom
ATOM_BUDGET = 2_000_000

_KNOWN_FUNCTIONALS = ("normH2", "normV2", "sup_normH2")
_BLAS_THREAD_FNS = tuple(f"{lib}_{{}}_num_threads{abi}" for abi in ("64_", "")
                         for lib in ("scipy_openblas", "openblas"))


def functional_mode(name: str) -> int | None:
    """k for a plainly written `mode:k` functional, None for any other name."""
    if not name.startswith("mode:"):
        return None
    k = name[5:]
    if not k.isdecimal() or k != str(int(k)):
        raise ConfigError(f"bad functional {name!r}")
    return int(k)


def _check_functional(name: str, dim: int) -> None:
    if name in _KNOWN_FUNCTIONALS:
        return
    k = functional_mode(name)
    if k is None:
        raise ConfigError(f"unknown functional {name!r}")
    if not 0 <= k < dim:
        raise ConfigError(f"functional {name!r}: mode index out of range")


def functional_samples(batch: PathBatch, name: str) -> np.ndarray:
    """Per-path functional values, restricted to non-blown-up paths."""
    valid = batch.valid_mask()
    if name == "normH2":
        vals = batch.norm_h2[:, -1]
    elif name == "normV2":
        vals = batch.norm_v2[:, -1]
    elif name == "sup_normH2":
        vals = np.sqrt(batch.sup_h4)
    elif (k := functional_mode(name)) is not None:
        vals = batch.terminal[:, k]
    else:
        raise ConfigError(f"unknown functional {name!r}")
    return vals[valid]


@dataclass
class ExperimentConfig:
    """Everything a paired Brownian-vs-jump experiment needs.

    The Brownian sigma must be the very map object of every jump kernel's
    base sigma, so the two arms share a diffusion limit.
    """

    basis: BasisSpec
    solver: SolverConfig
    initial: np.ndarray
    noise: BrownianNoiseSpec
    kernels: tuple[JumpKernel, ...]
    functionals: tuple[str, ...] = ("normH2",)
    n_paths: int = 1000
    seed: int = 0
    forcing: FieldMap | None = None
    chunk_size: int = 512
    label: str = "experiment"

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=np.float64)
        if self.initial.shape != (self.basis.dim,):
            raise ConfigError("initial condition has wrong dimension")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be positive")
        # stream keys hold the seed in 64 bits, so a wider one would alias
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed {self.seed} is outside [0, 2**64)")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")
        if not self.functionals:
            raise ConfigError("at least one functional required")
        for i, name in enumerate(self.functionals):
            _check_functional(name, self.basis.dim)
            if name in self.functionals[:i]:
                raise ConfigError(f"functional {name!r} listed twice")
        eps = [k.epsilon for k in self.kernels]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("kernel grid must have strictly decreasing epsilon")
        for kern in self.kernels:
            if kern.sigma is not self.noise.sigma:
                raise ConfigError(
                    f"jump base sigma {kern.sigma.name!r} is not the "
                    f"Brownian sigma map {self.noise.sigma.name!r}")

    @property
    def epsilons(self) -> tuple[float, ...]:
        return tuple(k.epsilon for k in self.kernels)

    def canonical(self) -> str:
        """Stable plain-text rendering used for the config hash."""
        s = self.solver
        nz = np.nonzero(self.initial)[0]
        lines = [
            f"basis.n_max={self.basis.n_max}",
            f"solver.t_end={s.t_end!r}",
            f"solver.dt={s.dt!r}",
            f"solver.record_stride={s.record_stride}",
            f"solver.nonlinearity={s.include_nonlinearity}",
            f"solver.blowup_norm={s.blowup_norm!r}",
            "solver.track_modes=" + ",".join(str(k) for k in s.track_modes),
            "initial=" + ";".join(f"{self.initial[i]!r}@{i}" for i in nz),
            "forcing=" + (self.forcing.name if self.forcing else "zero"),
            "brownian=" + self.noise.sigma.name,
            "functionals=" + ",".join(self.functionals),
            f"paths={self.n_paths}",
            f"seed={self.seed}",
            f"chunk={self.chunk_size}",
        ]
        for kern in self.kernels:
            # channels=1 stays in the text so that pinned hashes hold
            lines.append(
                f"jump.eps={kern.epsilon!r}:h={kern.h.family}"
                f":theta={kern.theta.family}:measure={kern.measure.label()}"
                f":sigma={kern.sigma.name}:delta={kern.cutoff_delta!r}"
                f":channels=1")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _blas_thread_fns() -> list:
    """(get, set) thread counts of each OpenBLAS in the process, by the names
    of _BLAS_THREAD_FNS; [] if the map is unreadable or a library has none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {ln.split()[-1] for ln in maps if "openblas" in ln}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return []
    fns = [next(((getattr(lib, f.format("get")), getattr(lib, f.format("set")))
                 for f in _BLAS_THREAD_FNS if hasattr(lib, f.format("set"))),
                None) for lib in libs]
    return fns if fns and None not in fns else []


def run_arm(config: ExperimentConfig, arm: str, eps_index: int = 0):
    """One full arm as a PathBatch, or every arm as a list for arm="all".

    arm is "brownian", "jump" (the kernel at eps_index) or "all": the
    Brownian arm, then one jump arm per epsilon.  Paths run in chunks of
    chunk_size, and a chunk advances those paths of every requested arm as
    one stacked batch, written straight into each arm's preallocated
    traces.  Each arm of a chunk first draws its noise, from one Philox
    generator re-keyed to each path's stream in turn (sampling.PathStreams),
    as (config.noise.sigma, increments) or (kernel, (Atoms, counts)).
    Worker w of W runs chunks w, w + W, ...: worker 0 on the caller's
    thread, the others on threads in copies of the caller's context
    (numpy's error state included) with every OpenBLAS at one thread.  The
    workers share one lock, the turn: a worker holds it from a chunk's
    first draw to its last record, and simulate_arms lets it go only while
    the main step's B(u) runs (see there).  The first exception stops
    every worker taking chunks and is raised once all have finished.

    Raises ConfigError, before any chunk is planned, when a chunk's jump
    arms expect more than ATOM_BUDGET atoms (activity * t_end * paths).
    """
    arms = [(arm, eps_index)] if arm != "all" else (
        [("brownian", 0)] + [("jump", j) for j in range(len(config.kernels))])
    n = config.n_paths
    size = min(n, config.chunk_size)
    atoms = size * config.solver.t_end * sum(
        config.kernels[j].activity for name, j in arms
        if name == "jump")
    if atoms > ATOM_BUDGET:
        raise ConfigError(
            f"a chunk of {size} paths expects {atoms:.3g} jump atoms, over "
            f"the budget of {ATOM_BUDGET:.3g}; lower chunk_size or t_end, "
            "or pick a kernel of lower activity")
    traces = ArmTraces(config.solver, len(arms), n, config.basis.dim)
    bounds = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    # threads pay only where B(u)'s gemms, which release the GIL, dominate;
    # the workers take turns at everything else (see simulate_arms)
    workers = min(len(bounds), len(os.sched_getaffinity(0))) if (
        config.solver.include_nonlinearity and config.basis.n_max >= 3
        and hasattr(os, "sched_getaffinity")) else 1
    blas = _blas_thread_fns() if workers > 1 else []
    workers = workers if blas else 1
    turn = threading.Lock()
    errors: list[BaseException] = []
    solver = config.solver

    def drawn(name: str, j: int, paths: range):
        streams = PathStreams(config.seed, name, j, paths)
        if name == "brownian":
            return config.noise.sigma, brownian_increments(
                streams, solver.n_steps, solver.dt)
        kernel = config.kernels[j]
        return kernel, sample_prm_paths(kernel, solver.t_end, streams)

    def work(w: int) -> None:
        try:
            for lo, hi in bounds[w::workers]:
                if errors:
                    return
                window = traces.window(lo, hi)
                with turn:
                    simulate_arms(config.basis, solver, config.initial,
                                  [drawn(name, j, range(lo, hi))
                                   for name, j in arms],
                                  forcing=config.forcing, out=window,
                                  turn=turn)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work, w)) for w in range(1, workers)]
    old = [get() for get, _ in blas]
    try:
        for _, put in blas:
            put(1)
        for t in threads:
            t.start()
        work(0)
        for t in threads:
            t.join()
    finally:
        for (_, put), count in zip(blas, old):
            put(count)
    if errors:
        raise errors[0]
    batches = traces.batches()
    return batches if arm == "all" else batches[0]


@dataclass(frozen=True)
class FunctionalRow:
    arm: str
    epsilon: float | None
    functional: str
    mean: float
    se: float
    gap_vs_bm: float | None = None
    joint_se: float | None = None
    ks_stat: float | None = None
    ks_pass: bool | None = None


@dataclass(frozen=True)
class MomentRow:
    """Fourth-moment summaries: E sup_t |u|_H^4 and E (int |u|_V^2 dt)^2."""

    arm: str
    epsilon: float | None
    sup_h4: float
    sup_h4_se: float
    int_v2_sq: float
    int_v2_sq_se: float
    uniform: bool


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[FunctionalRow]
    moments: list[MomentRow]
    samples_bm: dict
    samples_jump: list[dict]
    bm_batch: PathBatch
    jump_batches: list[PathBatch]
    blowup_bm: float
    blowup_jump: list[float]
    certified: bool
    forced: bool
    notes: tuple[str, ...] = ()

    @property
    def invalid(self) -> bool:
        frac = [self.blowup_bm] + list(self.blowup_jump)
        return any(f > BLOWUP_BUDGET for f in frac)

    def jump_rows(self, functional: str) -> list[FunctionalRow]:
        return [r for r in self.rows
                if r.arm == "jump" and r.functional == functional]


def _blowup_fraction(batch: PathBatch) -> float:
    return float(1.0 - batch.valid_mask().mean())


def _moments_of(batch: PathBatch) -> tuple[float, float, float, float]:
    valid = batch.valid_mask()
    return _summ(batch.sup_h4[valid]) + _summ(batch.int_v2[valid, -1] ** 2)


def _summ(x: np.ndarray) -> tuple[float, float]:
    # all-blow-up arms yield empty samples; report nan instead of raising
    if x.size == 0:
        return float("nan"), float("nan")
    mean, _, se = summarize(x)
    return mean, se


def _floor3(vals) -> float:
    arr = np.asarray(vals, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    return 3.0 * float(finite.min()) if finite.size else float("inf")


def run_experiment(config: ExperimentConfig, force: bool = False,
                   threads: int = 1) -> ExperimentResult:
    """Simulate all arms and assemble the comparison tables.

    Raises CertificationError when the kernel grid fails the startup checks
    and force is not set.  Blow-up above 1 percent on any arm marks the
    result invalid but still returns it, so callers can report the failure.
    `threads` is ignored, kept only until perfbench/suite.py stops passing it.
    """
    if config.n_paths < 100:
        raise ConfigError("experiments need at least 100 paths per arm")

    notes: list[str] = []
    certified = True
    if config.kernels:
        growth = check_growth_lipschitz(config.basis, config.kernels,
                                        config.forcing)
        decay = check_jump_size_decay(config.kernels)
        certified = growth.passed and decay.passed
        for rep in (growth, decay):
            if not rep.passed:
                notes.append(f"check {rep.name} failed")
                notes.extend(rep.notes)
        if not certified and not force:
            raise CertificationError("; ".join(notes))

    bm_batch, *jump_batches = run_arm(config, "all")

    samples_bm = {f: functional_samples(bm_batch, f)
                  for f in config.functionals}
    samples_jump = [{f: functional_samples(b, f) for f in config.functionals}
                    for b in jump_batches]

    rows: list[FunctionalRow] = []
    for f in config.functionals:
        mean, se = _summ(samples_bm[f])
        rows.append(FunctionalRow("bm", None, f, mean, se))
    for kern, sj in zip(config.kernels, samples_jump):
        for f in config.functionals:
            mean, se = _summ(sj[f])
            a, b = samples_bm[f], sj[f]
            if a.size and b.size:
                cmp = compare_laws(a, b)
                rows.append(FunctionalRow("jump", kern.epsilon, f, mean, se,
                                          cmp.mean_gap, cmp.joint_se,
                                          cmp.ks_stat, cmp.ks_pass))
            else:
                rows.append(FunctionalRow("jump", kern.epsilon, f, mean, se,
                                          float("nan"), float("nan"),
                                          float("nan"), False))

    raw = [("bm", None) + _moments_of(bm_batch)]
    for kern, b in zip(config.kernels, jump_batches):
        raw.append(("jump", kern.epsilon) + _moments_of(b))
    lim_sup = _floor3([r[2] for r in raw if r[0] == "jump"])
    lim_iv = _floor3([r[4] for r in raw if r[0] == "jump"])
    moments = [MomentRow(arm, eps, s4, s4se, iv, ivse,
                         bool(s4 <= lim_sup and iv <= lim_iv))
               for arm, eps, s4, s4se, iv, ivse in raw]

    return ExperimentResult(config, rows, moments, samples_bm, samples_jump,
                            bm_batch, jump_batches,
                            _blowup_fraction(bm_batch),
                            [_blowup_fraction(b) for b in jump_batches],
                            certified, force and not certified, tuple(notes))


# ---------------------------------------------------------------------------
# persistence: every file a command writes is named, refused when it
# exists and written here, and every CSV cell is a csv_cell


def csv_cell(x) -> str:
    """One CSV field: empty for None, lowercase booleans, repr floats."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def csv_lines(header: str, rows) -> list[str]:
    """The header, then one line of csv_cell fields per row."""
    return [header] + [",".join(map(csv_cell, row)) for row in rows]


def summary_lines(result: ExperimentResult) -> list[str]:
    return csv_lines(
        "arm,epsilon,functional,mean,se,gap_vs_bm,joint_se,ks_stat,ks_pass",
        ((r.arm, r.epsilon, r.functional, r.mean, r.se, r.gap_vs_bm,
          r.joint_se, r.ks_stat, r.ks_pass) for r in result.rows))


def moment_lines(result: ExperimentResult) -> list[str]:
    return csv_lines(
        "arm,epsilon,supH4,supH4_se,intV2sq,intV2sq_se,uniformity_flag",
        ((m.arm, m.epsilon, m.sup_h4, m.sup_h4_se, m.int_v2_sq,
          m.int_v2_sq_se, m.uniform) for m in result.moments))


def manifest_lines(result: ExperimentResult) -> list[str]:
    # plain key: value; deliberately no timestamps so reruns are
    # byte-identical
    cfg = result.config
    lines = [
        "format: snse-manifest-1",
        f"code_version: {__version__}",
        f"seed: {cfg.seed}",
        f"config_hash: {cfg.config_hash()}",
        f"paths: {cfg.n_paths}",
        "epsilons: " + ",".join(repr(e) for e in cfg.epsilons),
        "functionals: " + ",".join(cfg.functionals),
        "certification: " + ("UNCERTIFIED (forced)" if result.forced
                             else "passed" if result.certified else "failed"),
        f"invalid: {csv_cell(result.invalid)}",
        f"blowup_bm: {result.blowup_bm!r}",
    ]
    lines += [f"blowup_eps={float_label(eps)}: {frac!r}"
              for eps, frac in zip(cfg.epsilons, result.blowup_jump)]
    return lines + [f"note: {note}" for note in result.notes]


def path_dump_blocks(batch: PathBatch, track_modes):
    """A path dump's header line, then its rows, one per (path, record),
    about 16k at a time as one string of lines; repr of a Python number is
    its csv_cell."""
    n, recs = batch.n_paths, batch.n_recorded
    fields = [np.broadcast_to(np.arange(n)[:, None], (n, recs)),
              np.broadcast_to(batch.times, (n, recs)), batch.norm_h2,
              batch.norm_v2, *(batch.mode_traces[:, :, i]
                               for i in range(len(track_modes))),
              batch.jump_counts]
    yield ",".join(["path_id", "t", "normH2", "normV2",
                    *(f"u_e{k}" for k in track_modes), "n_jumps_so_far"])
    # about 16k rows at a time, so few Python numbers and lines are alive
    step = 1 + (1 << 14) // recs
    for lo in range(0, n, step):
        columns = [map(repr, f[lo:lo + step].ravel().tolist()) for f in fields]
        yield "\n".join(map(",".join, zip(*columns)))


def dump_name(epsilon: float | None) -> str:
    """Path-dump file of the Brownian arm (None) or of a jump arm."""
    return ("paths_bm.csv" if epsilon is None
            else f"paths_eps{float_label(epsilon)}.csv")


def output_names(config: ExperimentConfig, dump_paths: bool) -> list[str]:
    """Every file persist writes for this config."""
    names = ["summary.csv", "moments.csv", "manifest.txt"]
    if dump_paths:
        names += [dump_name(e) for e in (None,) + config.epsilons]
    return names


def refuse_existing(out_dir, names, force: bool) -> None:
    """FileExistsError(path) for the first out_dir/name that exists,
    unless force; commands call it before any work."""
    for name in names:
        path = Path(out_dir) / name
        if path.exists() and not force:
            raise FileExistsError(str(path))


def write_lines(out_dir, name: str, lines) -> Path:
    """Write lines to out_dir/name as they come, each (a string of one
    line or more) ended by a newline, making the directory; return the
    path."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for line in lines:
            f.write(line + "\n")
    return path


def persist(result: ExperimentResult, out_dir, dump_paths: bool = False,
            overwrite: bool = False) -> Path:
    """Write summary.csv, moments.csv, manifest.txt (and optional dumps),
    after refusing them all if any exists and overwrite is off."""
    cfg = result.config
    names = output_names(cfg, dump_paths)
    refuse_existing(out_dir, names, overwrite)
    write_lines(out_dir, "summary.csv", summary_lines(result))
    write_lines(out_dir, "moments.csv", moment_lines(result))
    write_lines(out_dir, "manifest.txt", manifest_lines(result))
    # the dump names, if any, follow the three tables, one per arm
    for name, batch in zip(names[3:], [result.bm_batch, *result.jump_batches]):
        write_lines(out_dir, name,
                    path_dump_blocks(batch, cfg.solver.track_modes))
    return Path(out_dir)
