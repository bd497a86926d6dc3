"""snse benchmark: time to verdict, set-up time and peak memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload ou_linear --seed 1 --seconds 20 --trace 0

Workloads (see suite.py): ou_linear, desk_nonlinear, cert_cosine.

With --trace 0 the run measures, untraced:
  wall_s       median over repetitions of the seconds from a loaded config
               to outputs persisted and checked;
  setup_s      median seconds a fresh interpreter spends before the first
               time step (import, load_config, basis tables), over several
               child processes;
  peak_rss_mb  peak resident memory of this process plus that of its
               largest child.
Repetitions run until --seconds have passed, and at least twice, so the
outputs of repetitions with the same seed can be compared byte for byte.

Both times are reported at a reference machine speed.  On a shared host
the same code runs up to 1.8x slower for stretches of seconds to minutes
while neighbours are busy.  So a fixed pure-Python loop is timed on each
allowed CPU before and after every repetition and probe, and each time is
scaled by CAL_REF_S over the loop's mean time around it.  The raw medians
are in the detail line.

With --trace 1 untraced and traced repetitions alternate for --seconds,
then one traced repetition runs at the other harness thread count; the
run reports the per-layer metrics (see tracing.py, raw seconds) and the
tracing overhead, and writes the spans of the last traced repetition to
.perfbench_out/.

--smoke shrinks every workload to seconds, for the benchmark's own test.

Every check on the outputs is one operation; the last line of standard
output is {"correct", "attempted", "failed", "metrics"}, and the line
before it a JSON object with the config hash, counts, output digests and
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "nonlinear.calls": "count",
    "nonlinear.rows": "count",
    "nonlinear.rows_per_call": "count",
    "nonlinear.self_s": "s",
    "nonlinear.gflop": "gflop_computed",
    "nonlinear.gflops": "gflop/s",
    "kernels.compensator_calls": "count",
    "kernels.compensator_self_s": "s",
    "kernels.compensator_us_per_call": "us",
    "kernels.sigma_eps_calls": "count",
    "kernels.sigma_eps_self_s": "s",
    "kernels.grid_s": "s",
    "sampling.prm_calls": "count",
    "sampling.atoms": "count",
    "sampling.prm_self_s": "s",
    "sampling.stream_self_s": "s",
    "integrate.bm_s": "s",
    "integrate.bm_self_s": "s",
    "integrate.jump_s": "s",
    "integrate.jump_self_s": "s",
    "integrate.path_steps": "count",
    "integrate.atoms_applied": "count",
    "integrate.atom_yield": "ratio",
    "integrate.blowups": "count",
    "integrate.jump_over_bm": "ratio",
    "harness.chunks": "count",
    "harness.arm_s": "s",
    "harness.experiment_self_s": "s",
    "harness.persist_s": "s",
    "harness.persist_bytes": "bytes",
    "harness.speedup_2t": "ratio",
    "hypotheses.gate_s": "s",
    "hypotheses.certify_s": "s",
    "hypotheses.growth_s": "s",
    "hypotheses.decay_s": "s",
    "hypotheses.qv_s": "s",
    "hypotheses.gap_s": "s",
    "hypotheses.quadrature_calls": "count",
    "hypotheses.self_s": "s",
    "generators.gap_calls": "count",
    "generators.self_s": "s",
    "stats.compare_calls": "count",
    "stats.samples": "count",
    "stats.compare_s": "s",
    "trace.overhead_frac": "ratio",
}

# the loop takes about CAL_REF_S on an idle 2.0 GHz x86-64 vCPU
CAL_LOOP = 300_000
CAL_REF_S = 0.0125

PROBES_UNTRACED = 5
PROBES_TRACED = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def probe_setup(config_path: Path, seed: int, count: int) -> list[dict]:
    """Set-up times of `count` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        cal = calibration_s()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC),
             str(config_path), str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec.pop("ready_s") - start
        rec["cal_s"] = (cal + calibration_s()) / 2
        out.append(rec)
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0   # ru_maxrss is in KiB on Linux


def _loop_s() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for k in range(CAL_LOOP):
            acc += k
        best = min(best, time.perf_counter() - start)
    return best


def calibration_s() -> float:
    """Machine speed: mean over this process's CPUs of a fixed loop's time.

    The loop runs pinned to each allowed CPU in turn (best of three), and
    the process's CPU set is restored afterwards.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Run:
    """Repetitions of one workload and the operations they were graded on."""

    def __init__(self, workload, config, smoke: bool, out_dir: Path):
        self.workload = workload
        self.config = config
        self.smoke = smoke
        self.out_dir = out_dir
        self.attempted = 0
        self.failed: list = []
        self.first = None          # Outcome of the first repetition

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append({"check": name, "detail": detail})

    def repetition(self, threads: int, tracer=None):
        """Wall seconds of one repetition, or None if it raised."""
        import suite
        import tracing

        if tracer is not None:
            tracing.install(tracer)
        try:
            start = time.perf_counter()
            outcome = suite.run_once(self.workload, self.config,
                                     self.out_dir, threads, self.smoke)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.record("repetition completes", False,
                        traceback.format_exc(limit=1).strip())
            return None
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        for name, ok, detail in outcome.checks:
            self.record(name, bool(ok), detail)
        if self.first is None:
            self.first = outcome
        else:
            self.record(f"outputs identical to the first repetition "
                        f"(threads={threads}, traced={tracer is not None})",
                        outcome.digests == self.first.digests,
                        repr(outcome.digests))
        return wall


def measure(run: Run, seconds: float, threads: int):
    walls: list[float] = []
    cals: list[float] = []
    start = time.perf_counter()
    before = calibration_s()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        wall = run.repetition(threads)
        if wall is None:
            break
        after = calibration_s()
        walls.append(wall)
        cals.append((before + after) / 2)
        before = after
    return walls, cals


def measure_traced(run: Run, seconds: float, threads: int):
    import tracing

    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    tracer = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall = run.repetition(threads)
        tracer = tracing.Tracer()
        twall = run.repetition(threads, tracer)
        if wall is None or twall is None:
            return None
        plain.append(wall)
        traced.append(twall)
        layers.append(tracing.layer_metrics(tracer))
    other = 1 if threads > 1 else 2
    alt = tracing.Tracer()
    if run.repetition(other, alt) is None:
        return None
    tracer.write_spans(run.out_dir / "spans.csv")
    metrics = tracing.median_metrics(layers)
    arm = {threads: metrics["harness.arm_s"],
           other: tracing.layer_metrics(alt)["harness.arm_s"]}
    metrics["harness.speedup_2t"] = arm[1] / arm[2]
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    self_times = tracing.layer_self_times(tracer.summary())
    return metrics, traced, self_times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snse" / "__init__.py").is_file():
        print(f"error: snse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    workload = suite.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(suite.WORKLOADS), file=sys.stderr)
        return 2

    out_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config = suite.load(workload, args.seed, args.smoke)
    n_probes = 1 if args.smoke else (PROBES_TRACED if args.trace
                                     else PROBES_UNTRACED)
    probes = probe_setup(suite.config_path(workload), args.seed, n_probes)

    run = Run(workload, config, args.smoke, out_dir)
    detail = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke,
              "threads": workload.threads,
              "config_hash": config.config_hash()}
    if args.trace:
        traced = measure_traced(run, args.seconds, workload.threads)
        if traced is None:
            print(json.dumps({"detail": detail, "failed": run.failed}),
                  file=sys.stderr)
            return 1
        layer, walls, self_times = traced
        layer["setup.import_s"] = statistics.median(
            p["import_s"] for p in probes)
        layer["config.load_s"] = statistics.median(p["load_s"] for p in probes)
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        detail["layer_self_s"] = dict(sorted(self_times.items(),
                                             key=lambda kv: -kv[1]))
    else:
        walls, cals = measure(run, args.seconds, workload.threads)
        if not walls:
            print(json.dumps({"detail": detail, "failed": run.failed}),
                  file=sys.stderr)
            return 1
        detail["raw_wall_s"] = statistics.median(walls)
        detail["raw_setup_s"] = statistics.median(p["setup_s"] for p in probes)
        detail["calibration_s"] = cals
        values = {
            "wall_s": statistics.median(
                w * CAL_REF_S / c for w, c in zip(walls, cals)),
            "setup_s": statistics.median(
                p["setup_s"] * CAL_REF_S / p["cal_s"] for p in probes),
            "peak_rss_mb": peak_rss_mb()}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    detail.update({
        "counts": run.first.counts,
        "digests": run.first.digests,
        "repetition_s": walls,
        "setup_probes": probes,
        "failed_checks": run.failed,
        "checks": [[name, bool(ok), info]
                   for name, ok, info in run.first.checks],
        "environment": environment(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not run.failed, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
