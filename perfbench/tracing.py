"""Span tracing around calls into snse's layers, from outside the package.

Each public function is wrapped at the name its calling module binds (for
example ``snse.integrate.nonlinear_term_batch``, which the integrators look
up at call time), so the wrapper sees every call without any change to
``src/``.  A span records its name, start, end and parent.  A layer's self
time is the time its spans cover minus the part their child spans cover.

Spans opened on a worker thread with no open span of its own are children
of the span open on the main thread, which is the harness call that started
the pool.  Wrappers only time and count; arguments and results pass through
untouched, so a traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import snse


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent span]
        self.counts = defaultdict(float)
        self._stacks: dict = {}        # thread ident -> open spans
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patched: list = []

    def _open(self, name: str):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        return stack, span

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a timed wrapper until unwrap_all()."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                with self._lock:
                    count(self.counts, args, out)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s} over all closed spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - _covered(
                start, end, children.get(id(span), ()))
        return dict(out)

    def write_spans(self, path: Path) -> None:
        """One CSV row per span: index, name, start, end, parent index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                par = index[id(parent)] if parent is not None else -1
                fh.write(f"{i},{name},{start - t0!r},{end - t0!r},{par}\n")


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return total + (cur_hi - cur_lo)


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries as the spans

def _count_nonlinear(counts, args, out):
    basis, coeffs = args[0], args[1]
    rows = coeffs.shape[0] if coeffs.ndim > 1 else 1
    counts["nonlinear.rows"] += rows
    # synthesis of u, du/dx, du/dy ((3P, dim) @ (dim, 2M^2)) and projection
    # ((P, 2M^2) @ (2M^2, dim)); elementwise work is not counted
    counts["nonlinear.flop"] += 16.0 * rows * basis.dim * basis.m_grid**2


def _count_prm(counts, args, out):
    counts["sampling.atoms"] += len(out)


def _counter_for_arm(arm: str):
    def count(counts, args, out):
        cfg, streams = args[1], args[3]
        counts[f"integrate.{arm}_path_steps"] += len(streams) * cfg.n_steps
        counts["integrate.blowups"] += int((~out.valid_mask()).sum())
        if arm == "jump":
            counts["integrate.atoms_applied"] += int(out.jump_counts[:, -1].sum())
    return count


def _count_samples(counts, args, out):
    counts["stats.samples"] += len(args[0]) + len(args[1])


def _count_persist(counts, args, out):
    counts["harness.persist_bytes"] += sum(
        p.stat().st_size for p in Path(out).iterdir() if p.is_file())


def install(tracer: Tracer) -> None:
    """Wrap every traced binding; calls from the benchmark go through snse."""
    integrate, harness, hypotheses = snse.integrate, snse.harness, snse.hypotheses
    w = tracer.wrap
    # called by the benchmark itself
    w(snse, "run_experiment", "harness.experiment")
    w(snse, "persist", "harness.persist", _count_persist)
    w(snse, "certify_kernels", "hypotheses.certify")
    w(snse, "check_jump_size_decay", "hypotheses.decay")
    w(snse, "kernel_grid", "kernels.grid")
    w(snse, "martingale_diagnostic", "hypotheses.martingale")
    # harness -> integrate, sampling, stats, startup gate
    w(harness, "run_arm", "harness.arm")
    w(harness, "simulate_brownian_batch", "integrate.bm", _counter_for_arm("bm"))
    w(harness, "simulate_jump_batch", "integrate.jump", _counter_for_arm("jump"))
    w(harness, "derive_stream", "sampling.stream")
    w(harness, "compare_laws", "stats.compare", _count_samples)
    w(harness, "summarize", "stats.summarize")
    w(harness, "check_growth_lipschitz", "hypotheses.gate.growth")
    w(harness, "check_jump_size_decay", "hypotheses.gate.decay")
    # integrate -> nonlinear, kernels, sampling
    w(integrate, "nonlinear_term_batch", "nonlinear", _count_nonlinear)
    w(integrate, "compensator_drift", "kernels.compensator")
    w(integrate, "eval_sigma_eps", "kernels.sigma_eps")
    w(integrate, "sample_prm", "sampling.prm", _count_prm)
    # certification internals
    w(hypotheses, "check_growth_lipschitz", "hypotheses.growth")
    w(hypotheses, "check_jump_size_decay", "hypotheses.decay")
    w(hypotheses, "check_qv_limit_v_growth", "hypotheses.qv")
    w(hypotheses, "gap_panel", "hypotheses.gap")
    for walker in ("jump_l2_mass", "jump_l4_mass", "jump_l2_diff",
                   "jump_v2_mass"):
        w(hypotheses, walker, "hypotheses.quadrature")
    w(hypotheses, "generator_gap", "generators.gap")
    w(snse.generators, "jump_qv_matrix", "generators.quadrature")


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_self_times(summary: dict) -> dict:
    """Self seconds per module, with the kernels functions kept apart."""
    out: dict = defaultdict(float)
    for name, row in summary.items():
        key = name if name.startswith("kernels.") else name.split(".")[0]
        out[key] += row["self_s"]
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced repetition (no units)."""
    s = tracer.summary()
    c = tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return s.get(name, zero)

    def total(*names):
        return sum(row(n)["total_s"] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    nl, comp = row("nonlinear"), row("kernels.compensator")
    bm, jump = row("integrate.bm"), row("integrate.jump")
    gflop = c["nonlinear.flop"] / 1e9
    bm_steps, jump_steps = c["integrate.bm_path_steps"], c["integrate.jump_path_steps"]
    walkers = ("hypotheses.quadrature", "generators.quadrature")
    return {
        "nonlinear.calls": nl["calls"],
        "nonlinear.rows": c["nonlinear.rows"],
        "nonlinear.rows_per_call": ratio(c["nonlinear.rows"], nl["calls"]),
        "nonlinear.self_s": nl["self_s"],
        "nonlinear.gflop": gflop,
        "nonlinear.gflops": ratio(gflop, nl["self_s"]),
        "kernels.compensator_calls": comp["calls"],
        "kernels.compensator_self_s": comp["self_s"],
        "kernels.compensator_us_per_call": 1e6 * ratio(comp["self_s"],
                                                       comp["calls"]),
        "kernels.sigma_eps_calls": row("kernels.sigma_eps")["calls"],
        "kernels.sigma_eps_self_s": row("kernels.sigma_eps")["self_s"],
        "kernels.grid_s": row("kernels.grid")["total_s"],
        "sampling.prm_calls": row("sampling.prm")["calls"],
        "sampling.atoms": c["sampling.atoms"],
        "sampling.prm_self_s": row("sampling.prm")["self_s"],
        "sampling.stream_self_s": row("sampling.stream")["self_s"],
        "integrate.bm_s": bm["total_s"],
        "integrate.bm_self_s": bm["self_s"],
        "integrate.jump_s": jump["total_s"],
        "integrate.jump_self_s": jump["self_s"],
        "integrate.path_steps": bm_steps + jump_steps,
        "integrate.atoms_applied": c["integrate.atoms_applied"],
        "integrate.atom_yield": ratio(c["integrate.atoms_applied"],
                                      c["sampling.atoms"]),
        "integrate.blowups": c["integrate.blowups"],
        "integrate.jump_over_bm": ratio(ratio(jump["total_s"], jump_steps),
                                        ratio(bm["total_s"], bm_steps)),
        "harness.chunks": bm["calls"] + jump["calls"],
        "harness.arm_s": row("harness.arm")["total_s"],
        "harness.experiment_self_s": row("harness.experiment")["self_s"],
        "harness.persist_s": row("harness.persist")["total_s"],
        "harness.persist_bytes": c["harness.persist_bytes"],
        "hypotheses.gate_s": total("hypotheses.gate.growth",
                                   "hypotheses.gate.decay"),
        "hypotheses.certify_s": row("hypotheses.certify")["total_s"],
        "hypotheses.growth_s": total("hypotheses.growth",
                                     "hypotheses.gate.growth"),
        "hypotheses.decay_s": total("hypotheses.decay",
                                    "hypotheses.gate.decay"),
        "hypotheses.qv_s": row("hypotheses.qv")["total_s"],
        "hypotheses.gap_s": row("hypotheses.gap")["total_s"],
        "hypotheses.quadrature_calls": sum(row(n)["calls"] for n in walkers),
        "hypotheses.self_s": layer_self_times(s).get("hypotheses", 0.0),
        "generators.gap_calls": row("generators.gap")["calls"],
        "generators.self_s": layer_self_times(s).get("generators", 0.0),
        "stats.compare_calls": row("stats.compare")["calls"],
        "stats.samples": c["stats.samples"],
        "stats.compare_s": row("stats.compare")["total_s"],
    }


def median_metrics(runs: list[dict]) -> dict:
    return {k: float(np.median([r[k] for r in runs])) for k in runs[0]}
