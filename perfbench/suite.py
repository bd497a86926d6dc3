"""The benchmark's workloads: one timed unit of work each, plus output checks.

A workload is an INI run file under ``workloads/`` (loaded with the run's
seed) and a number of harness threads.  One repetition runs the workload
from a loaded config to persisted and checked outputs:

* ``ou_linear``: linear testbed, graded against the exact law of the
  discrete scheme on the forced mode, plus the martingale diagnostic.
* ``desk_nonlinear``: nonlinear desk run at two harness threads, graded on
  certification, blow-up and the fourth-moment table.
* ``cert_cosine``: certification sweep over the conforming families and the
  tail family, then a paired run whose compensator needs quadrature.

Every check is one operation that passes or fails.  Statistical checks use
a 5 standard-error band, so a correct program fails one with probability
below 1e-4 (the martingale check tests 101 recorded times); the rest are
exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import snse

HERE = Path(__file__).resolve().parent
Z_BAND = 5.0
GRID5 = (0.2, 0.1, 0.05, 0.02, 0.01)
OUTPUT_FILES = ("summary.csv", "moments.csv", "manifest.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    threads: int
    certify_sweep: bool


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("ou_linear", "ou_linear.cfg", 1, False),
    Workload("desk_nonlinear", "desk_nonlinear.cfg", 2, False),
    Workload("cert_cosine", "cert_cosine.cfg", 1, True),
)}

# smoke mode: the same workloads at a size that runs in seconds
SMOKE_PATHS = 100
SMOKE_STEPS = 10
SMOKE_CERT_SAMPLES = 4


def config_path(workload: Workload) -> Path:
    return HERE / "workloads" / workload.config


def load(workload: Workload, seed: int, smoke: bool = False):
    """The workload's ExperimentConfig for this seed."""
    config = snse.load_config(config_path(workload), seed=seed,
                              n_paths=SMOKE_PATHS if smoke else None).experiment
    if smoke:
        solver = config.solver
        config.solver = dataclasses.replace(
            solver, t_end=SMOKE_STEPS * solver.dt, record_stride=1)
    return config


@dataclass
class Outcome:
    """What one repetition produced: output digests, checks and counts."""

    digests: dict
    checks: list          # (name, passed, detail)
    counts: dict


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_once(workload: Workload, config, out_dir: Path, threads: int,
             smoke: bool = False) -> Outcome:
    """One repetition: (sweep), paired experiment, persist, checks."""
    checks: list = []
    digests: dict = {}
    if workload.certify_sweep:
        n_samples = SMOKE_CERT_SAMPLES if smoke else 40
        digests["certification"] = certification_sweep(checks, n_samples)
    result = snse.run_experiment(config, threads=threads)
    out = snse.persist(result, out_dir, overwrite=True)
    for name in OUTPUT_FILES:
        digests[name] = sha256_file(out / name)
    CHECKS[workload.name](result, checks)
    batches = [result.bm_batch] + list(result.jump_batches)
    counts = {
        "paths_per_arm": config.n_paths,
        "arms": len(batches),
        "steps": config.solver.n_steps,
        "path_steps": sum(b.n_paths for b in batches) * config.solver.n_steps,
        "atoms_applied": int(sum(int(b.jump_counts[:, -1].sum())
                                 for b in result.jump_batches)),
        "blown_up": int(sum(int((~b.valid_mask()).sum()) for b in batches)),
    }
    return Outcome(digests, checks, counts)


# ---------------------------------------------------------------------------
# certification sweep (cert_cosine)

def certification_sweep(checks: list, n_samples: int) -> str:
    """Certify the conforming families and grade the tail family.

    Returns a digest of every certification row so repetitions can be
    compared byte for byte.
    """
    basis = snse.get_basis(2)
    nu1 = snse.alpha_stable_measure(1.0)
    digest = hashlib.sha256()
    for sigma in (snse.scaled_identity(0.5), snse.saturating(0.5)):
        for theta in ("one", "cosine"):
            for family in ("annulus", "inner_linear"):
                kernels = snse.kernel_grid(sigma, family, theta, GRID5, nu1)
                rep = snse.certify_kernels(basis, kernels,
                                           n_samples=n_samples)
                digest.update(repr(list(rep.csv_rows())).encode())
                checks.append((f"certified {sigma.name}/{theta}/{family}",
                               rep.passed, ""))
    for alpha in (0.5, 1.0, 1.5):
        kernels = snse.kernel_grid(snse.scaled_identity(1.0), "outer_linear",
                                   "one", GRID5,
                                   snse.alpha_stable_measure(alpha))
        rep = snse.check_jump_size_decay(kernels)
        vals = np.array([r.value for r in rep.rows])
        closed = np.sqrt([(2.0 - alpha) / (2.0 * (e**alpha - e**2))
                          for e in GRID5])
        ok = (not rep.passed and bool(np.all(np.diff(vals) > 0.0))
              and bool(np.allclose(vals, closed, rtol=1e-8)))
        digest.update(repr(vals.tolist()).encode())
        checks.append((f"tail family fails with closed-form witnesses "
                       f"alpha={alpha:g}", ok, repr(vals.tolist())))
    heavier = snse.power_law_measure(-0.5, 1.0, np.inf)
    kernels = snse.kernel_grid(snse.scaled_identity(1.0), "outer_linear",
                               "one", GRID5, heavier)
    rep = snse.check_jump_size_decay(kernels)
    digest.update(repr([r.value for r in rep.rows]).encode())
    checks.append(("tail family passes under the heavier tail", rep.passed,
                   ""))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# exact law of the linear testbed

def jump_step_moments(lam: float, dt: float, rate: float, jump: float,
                      comp: float, grid: int = 1000) -> tuple[float, float]:
    """Mean and second moment of one step's increment on a decoupled mode.

    The jump-adapted split advances x by x <- exp(-lam L)(x - L comp) over
    each piece of length L between atoms and adds `jump` at each atom of a
    rate-`rate` Poisson process.  Measured at the end of a step of length
    dt, the increment is

        S = sum_atoms jump phi(tau) - comp sum_pieces L phi(a),

    phi(s) = exp(-lam (dt - s)), a the left end of a piece.  Writing W(s)
    for the part of S from a piece starting at s onward, m1 = E W and
    m2 = E W^2 satisfy renewal equations in s that are solved backward
    from W(dt) = 0 by the trapezoid rule on `grid` cells.
    """
    s = np.linspace(0.0, dt, grid + 1)
    h = dt / grid
    phi = np.exp(-lam * (dt - s))
    ell = -np.expm1(-rate * (dt - s)) / rate      # E[length of piece at s]
    # m1 = A - comp phi ell with A' = rate phi (comp ell - jump), A(dt) = 0
    f = rate * phi * (comp * ell - jump)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))))
    m1 = -(cum[-1] - cum) - comp * phi * ell
    m2 = np.zeros(grid + 1)
    no_atom = np.exp(-rate * (dt - s))
    for i in range(grid - 1, -1, -1):
        t = s[i:]
        piece = jump * phi[i:] - comp * (t - s[i]) * phi[i]
        vals = rate * np.exp(-rate * (t - s[i])) * (
            piece * piece + 2.0 * piece * m1[i:] + m2[i:])
        integral = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        # m2[i] (zero so far) enters its own integral with weight h/2
        m2[i] = ((no_atom[i] * (comp * (dt - s[i]) * phi[i]) ** 2 + integral)
                 / (1.0 - 0.5 * h * rate))
    return float(m1[0]), float(m2[0])


def linear_testbed_law(config, mode: int) -> dict:
    """Exact mean and variance of mode `mode` at t_end for both arms.

    Valid for the linear testbed: no nonlinearity or forcing, a constant
    noise field, one channel, flat h and theta = one, so the mode evolves
    on its own under both schemes.
    """
    solver = config.solver
    lam = float(config.basis.eigenvalues[mode])
    x0 = float(config.initial[mode])
    dt, n = solver.dt, solver.n_steps
    g = float(config.noise.channels[0].fn(np.zeros(config.basis.dim))[mode])
    ch = config.kernels[0].channels[0]
    jump = g * float(ch.h.fn(ch.sample_range[1]))
    comp = g * ch.h_integral
    m1, m2 = jump_step_moments(lam, dt, ch.activity, jump, comp)
    k = np.arange(n)
    free = x0 * np.exp(-lam * n * dt)
    return {
        "bm_mean": free,
        "bm_var": g * g * dt * float(np.sum(np.exp(-2.0 * lam * dt * (k + 1)))),
        "jump_mean": free + m1 * float(np.sum(np.exp(-lam * dt * k))),
        "jump_var": (m2 - m1 * m1) * float(np.sum(np.exp(-2.0 * lam * dt * k))),
    }


def _z_mean(x: np.ndarray, mean: float, var: float) -> float:
    return abs(float(x.mean()) - mean) / np.sqrt(var / x.size)


def _z_var(x: np.ndarray, var: float) -> float:
    d = x - x.mean()
    m4 = float(np.mean(d**4))
    est = float(np.var(x, ddof=1))
    return abs(est - var) / np.sqrt(max(m4 - est * est, 1e-300) / x.size)


def check_ou_linear(result, checks: list) -> None:
    config = result.config
    checks.append(("certified, blow-up within budget",
                   result.certified and not result.invalid, ""))
    mode = 2
    law = linear_testbed_law(config, mode)
    arms = (("bm", result.samples_bm["mode:2"]),
            ("jump", result.samples_jump[0]["mode:2"]))
    for arm, x in arms:
        z = _z_mean(x, law[f"{arm}_mean"], law[f"{arm}_var"])
        checks.append((f"{arm} mode:2 mean matches exact law", z <= Z_BAND,
                       f"z={z:.3f}"))
        z = _z_var(x, law[f"{arm}_var"])
        checks.append((f"{arm} mode:2 variance matches exact law",
                       z <= Z_BAND, f"z={z:.3f}"))
    trace = config.solver.track_modes.index(mode)
    for arm, batch in (("bm", result.bm_batch),
                       ("jump", result.jump_batches[0])):
        rep = snse.martingale_diagnostic(batch, trace_index=trace)
        worst = float(np.max(np.abs(rep.means) / (rep.ses + 1e-300)))
        ok = bool(np.all(np.abs(rep.means) <= Z_BAND * rep.ses + 1e-12))
        checks.append((f"{arm} compensated mode:2 is a martingale", ok,
                       f"max |mean|/se={worst:.3f}"))


def check_desk(result, checks: list) -> None:
    checks.append(("certified", result.certified, ""))
    checks.append(("blow-up at most 1% on every arm", not result.invalid,
                   repr([result.blowup_bm] + list(result.blowup_jump))))
    vals = np.array([[m.sup_h4, m.int_v2_sq] for m in result.moments])
    checks.append(("fourth-moment rows finite and positive",
                   bool(np.all(np.isfinite(vals)) and np.all(vals > 0.0)),
                   ""))
    checks.append(("fourth-moment rows uniform over epsilon",
                   all(m.uniform for m in result.moments if m.arm == "jump"),
                   ""))


def check_cert(result, checks: list) -> None:
    checks.append(("paired run certified, blow-up within budget",
                   result.certified and not result.invalid, ""))


CHECKS = {
    "ou_linear": check_ou_linear,
    "desk_nonlinear": check_desk,
    "cert_cosine": check_cert,
}
