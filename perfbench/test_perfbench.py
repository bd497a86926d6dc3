"""The benchmark's own tests: smoke runs of every workload, the refusal
outside a source tree, and the exact linear-testbed law.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import suite  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines[-2]
    assert result["attempted"] >= 2
    want = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    detail = json.loads(lines[-2])["detail"]
    assert detail["digests"]["summary.csv"]
    assert detail["config_hash"] and detail["counts"]["path_steps"] > 0


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ou_linear", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_jump_step_mean_matches_closed_form():
    lam, dt, rate, jump, comp = 1.0, 0.01, 38.0, 0.08, 1.7
    m1, _ = suite.jump_step_moments(lam, dt, rate, jump, comp)
    drift = (np.exp(-lam * dt) * (1 - np.exp(-rate * dt)) / rate
             + (1 - np.exp(-lam * dt)) / lam
             - (1 - np.exp(-(lam + rate) * dt)) / (lam + rate))
    jumps = rate * (1 - np.exp(-lam * dt)) / lam
    assert m1 == pytest.approx(jump * jumps - comp * drift, rel=1e-7)


def test_jump_step_moments_match_simulation():
    lam, dt, rate = 1.0, 0.01, 300.0
    jump, comp = 0.5 / np.sqrt(rate), 0.5 * np.sqrt(rate)
    m1, m2 = suite.jump_step_moments(lam, dt, rate, jump, comp)
    rng = np.random.default_rng(0)
    n = 20000
    out = np.empty(n)
    for i in range(n):
        x, t = 0.0, 0.0
        for tau in np.sort(rng.random(rng.poisson(rate * dt))) * dt:
            x = np.exp(-lam * (tau - t)) * (x - (tau - t) * comp) + jump
            t = tau
        out[i] = np.exp(-lam * (dt - t)) * (x - (dt - t) * comp)
    var = m2 - m1 * m1
    assert abs(out.mean() - m1) <= 5 * np.sqrt(var / n)
    d2 = (out - out.mean()) ** 2
    assert abs(out.var() - var) <= 5 * np.sqrt(d2.var() / n)


def test_covered_merges_and_clips():
    assert tracing._covered(0.0, 10.0, []) == 0.0
    assert tracing._covered(0.0, 10.0, [(1, 3), (2, 4), (6, 7)]) == 4.0
    assert tracing._covered(0.0, 10.0, [(-5, 1), (9, 20)]) == 2.0


def test_tracer_self_time_and_restore():
    import time
    import types

    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)

    def outer():
        ns.inner()
        time.sleep(0.01)

    ns.outer = outer
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    tracer.unwrap_all()
    assert ns.outer is outer
    s = tracer.summary()
    assert s["inner"]["calls"] == 1 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["inner"]["total_s"])
    assert 0.005 < s["outer"]["self_s"] < 0.05
