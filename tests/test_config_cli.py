import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

import snse
from snse.cli import main
from snse.config import (_SCHEMA, load_config, parse_coeff_list,
                         parse_map_spec, parse_measure_spec)
from snse.errors import ConfigError
from snse.harness import run_arm
from snse.integrate import SolverConfig

MINIMAL = """\
[basis]
n_max = 1

[solver]
t_end = 0.2
dt = 1e-3

[brownian]
sigma = constant:0.5@0

[experiment]
paths = 120
"""

WITH_JUMP = MINIMAL + """
[jump]
sigma = constant:0.5@0
family_h = annulus
epsilon = 0.2, 0.1
measure = stable:1.0
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(dedent(text))
    return str(p)


class TestMapAndMeasureSpecs:
    def test_map_specs(self):
        assert parse_map_spec("zero", 8).name == "zero"
        m = parse_map_spec("identity:2", 8)
        assert m.name == "identity:2"
        assert np.allclose(m.fn(np.ones(8)), 2.0)
        sat = parse_map_spec("saturating:0.8", 8)
        u = np.zeros(8)
        u[0] = 1.0
        assert sat.fn(u)[0] == pytest.approx(0.4)
        c = parse_map_spec("constant:0.5@0;-0.25@3", 8)
        g = c.fn(np.zeros(8))
        assert g[0] == 0.5 and g[3] == -0.25

    def test_map_spec_errors(self):
        with pytest.raises(ConfigError):
            parse_map_spec("fourier", 8)
        with pytest.raises(ConfigError):
            parse_map_spec("identity:abc", 8)
        with pytest.raises(ConfigError):
            parse_map_spec("constant:1.0@99", 8)

    def test_measure_specs(self):
        assert "1" in parse_measure_spec("stable:1.0").label()
        nu = parse_measure_spec("power:-0.5,1,inf")
        assert nu.density(2.0) == pytest.approx(2.0 ** -0.5)
        with pytest.raises(ConfigError):
            parse_measure_spec("gaussian:1")
        with pytest.raises(ConfigError):
            parse_measure_spec("stable:abc")

    def test_coeff_list(self):
        v = parse_coeff_list("0.3@0, -0.1@5", 8)
        assert v[0] == 0.3 and v[5] == -0.1 and np.count_nonzero(v) == 2
        with pytest.raises(ConfigError):
            parse_coeff_list("0.3@9", 8)
        with pytest.raises(ConfigError):
            parse_coeff_list("x@0", 8)
        for spec, match in (("0.3@0, 0.4@0", "given twice"),
                            ("nan@0", "not finite"),
                            ("0.3@0, inf@1", "not finite")):
            with pytest.raises(ConfigError, match=match):
                parse_coeff_list(spec, 8)
            with pytest.raises(ConfigError, match=match):
                parse_map_spec("constant:" + spec.replace(",", ";"), 8)


class TestLoader:
    def test_minimal_defaults(self, tmp_path):
        run = load_config(_write(tmp_path, MINIMAL))
        cfg = run.experiment
        assert cfg.basis.dim == 8
        assert cfg.solver.t_end == 0.2
        assert cfg.functionals == ("normH2",)
        assert cfg.kernels == ()
        assert cfg.seed == 0
        assert cfg.n_paths == 120
        # default initial condition excites two low modes
        assert np.count_nonzero(cfg.initial) == 2
        assert run.out_dir is None and not run.dump_paths

    def test_jump_section(self, tmp_path):
        run = load_config(_write(tmp_path, WITH_JUMP))
        cfg = run.experiment
        assert cfg.epsilons == (0.2, 0.1)
        assert cfg.kernels[0].sigma.name == "constant:0.5@0"
        assert cfg.kernels[0].h.family == "annulus"
        # perfbench/suite.py reads both noises through these one-tuples
        assert cfg.kernels[0].channels[0] is cfg.kernels[0]
        assert cfg.noise.channels[0] is cfg.noise.sigma

    def test_overrides(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        cfg = load_config(path, seed=99, n_paths=12).experiment
        assert cfg.seed == 99 and cfg.n_paths == 12

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(_write(tmp_path, MINIMAL + "\n[extra]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        bad = MINIMAL.replace("dt = 1e-3", "dt = 1e-3\ntimestep = 2")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(_write(tmp_path, bad))

    def test_missing_section_and_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required section"):
            load_config(_write(tmp_path, "[basis]\nn_max = 1\n"))
        bad = MINIMAL.replace("paths = 120", "")
        with pytest.raises(ConfigError, match="missing required key"):
            load_config(_write(tmp_path, bad))

    def test_sigma_mismatch(self, tmp_path):
        bad = WITH_JUMP.replace("sigma = constant:0.5@0\nfamily_h",
                                "sigma = identity:0.5\nfamily_h")
        with pytest.raises(ConfigError, match="sigma must equal"):
            load_config(_write(tmp_path, bad))

    def test_epsilon_must_decrease(self, tmp_path):
        bad = WITH_JUMP.replace("epsilon = 0.2, 0.1", "epsilon = 0.1, 0.2")
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, bad))

    def test_track_modes_follow_functionals(self, tmp_path):
        text = MINIMAL.replace("paths = 120",
                               "paths = 120\nfunctionals = normH2, mode:3\n"
                               "track = 1")
        cfg = load_config(_write(tmp_path, text)).experiment
        assert cfg.solver.track_modes == (1, 3)

    def test_bad_values(self, tmp_path):
        with pytest.raises(ConfigError, match="not a number"):
            load_config(_write(tmp_path, MINIMAL.replace("t_end = 0.2",
                                                         "t_end = fast")))
        text = MINIMAL.replace("dt = 1e-3", "dt = 1e-3\nnonlinearity = maybe")
        with pytest.raises(ConfigError, match="not a boolean"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("yes", True), ("on", True), ("1", True),
        ("false", False), ("no", False), ("off", False), ("0", False),
        ("Off", False)])
    def test_nonlinearity_words(self, tmp_path, word, value):
        text = MINIMAL.replace("dt = 1e-3", f"dt = 1e-3\nnonlinearity = {word}")
        cfg = load_config(_write(tmp_path, text)).experiment
        assert cfg.solver.include_nonlinearity is value

    @pytest.mark.parametrize("old, new, match", [
        ("paths = 120", "paths = 120\ntrack = x", "track"),
        ("measure = stable:1.0", "measure = stable:1.0\ncutoff_delta = abc",
         "cutoff_delta"),
        ("sigma = constant:0.5@0\n\n[experiment]",
         "sigma = constant:0.5@0\nchannels = 0\n\n[experiment]", "channels"),
        ("n_max = 1", "n_max = 0", "n_max"),
        ("t_end = 0.2", "t_end = inf", "finite"),
        ("dt = 1e-3", "dt = nan", "finite"),
        ("dt = 1e-3", "dt = 1e-3\nblowup_norm = nan", "blowup_norm"),
        ("dt = 1e-3", "dt = 1e-3\nblowup_norm = -1", "blowup_norm"),
        ("paths = 120", "paths = 120\ninitial = 0.3@0, 0.4@0", "twice"),
        ("paths = 120", "paths = 120\ninitial = nan@0", "finite"),
        ("paths = 120", "paths = 120\nfunctionals = normH2, normH2",
         "listed twice"),
        ("constant:0.5@0", "identity:nan", "not finite"),
        ("constant:0.5@0", "saturating:inf", "not finite"),
        ("constant:0.5@0", "identity:-inf", "not finite"),
        ("measure = stable:1.0", "measure = power:nan,0.1,1", "not finite"),
        ("measure = stable:1.0", "measure = power:-1.5,nan,1", "not finite"),
        ("measure = stable:1.0", "measure = power:-1.5,0.1,nan", "support"),
        ("measure = stable:1.0", "measure = stable:inf", "not finite"),
    ], ids=["track", "cutoff_delta", "channels", "n_max", "t_end_inf",
            "dt_nan", "blowup_nan", "blowup_negative", "initial_repeat",
            "initial_nan", "functional_repeat", "identity_nan",
            "saturating_inf", "identity_minus_inf", "power_nan",
            "power_lo_nan", "power_hi_nan", "stable_inf"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, old, new, match):
        assert old in WITH_JUMP
        path = _write(tmp_path, WITH_JUMP.replace(old, new))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["check", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_readme_lists_every_key(self):
        # the README "Run file" table is the only user-facing key list
        text = (EXAMPLES.parent / "README.md").read_text()
        table = text.split("\n## Run file\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", table, re.M)
        assert sorted(rows) == sorted((section, key)
                                      for section, keys in _SCHEMA.items()
                                      for key in keys)

    @pytest.mark.parametrize("sigma, measure, old, new", [
        ("saturating:0.5", "stable:1", "0.5", "0.5000001"),
        ("identity:0.5", "stable:1", "0.5", "0.5000001"),
        ("constant:0.5@2", "stable:1", "0.5@", "0.5000001@"),
        ("saturating:0.5", "stable:1", "stable:1", "stable:1.0000001"),
        ("saturating:0.5", "power:-2,0.001,inf", "-2,", "-2.0000001,"),
        ("saturating:0.5", "power:-2,0.001,inf", "0.001", "0.0010000001"),
    ])
    def test_near_equal_values_hash_apart(self, tmp_path, sigma, measure,
                                          old, new):
        # each pair prints alike with six significant digits; the labels
        # that enter the hash must still tell the values apart
        text = dedent(f"""\
            [basis]
            n_max = 2

            [solver]
            t_end = 0.2
            dt = 0.01

            [brownian]
            sigma = {sigma}

            [jump]
            sigma = {sigma}
            family_h = annulus
            epsilon = 0.2, 0.1
            measure = {measure}

            [experiment]
            paths = 128
            """)
        near = text.replace(old, new)
        assert near != text
        hashes = [load_config(_write(tmp_path, t, name)).experiment.config_hash()
                  for t, name in ((text, "a.cfg"), (near, "b.cfg"))]
        assert hashes[0] != hashes[1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")


GOOD_JUMP = """\
[basis]
n_max = 1

[solver]
t_end = 0.2
dt = 1e-3

[brownian]
sigma = identity:0.4

[jump]
sigma = identity:0.4
family_h = annulus
epsilon = 0.2, 0.1
measure = stable:1.0

[experiment]
paths = 100
seed = 3
functionals = normH2, mode:0
"""

BAD_JUMP = GOOD_JUMP.replace("family_h = annulus", "family_h = outer_linear")


class TestCliCheck:
    def test_pass_writes_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, GOOD_JUMP)
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "rep")]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out
        report = (tmp_path / "rep" / "check_report.csv").read_text()
        assert report.splitlines()[0] == "check,epsilon,value,witness,pass"
        assert "generator_gap" in report

    def test_near_equal_epsilons_print_apart(self, tmp_path, capsys):
        # 0.1000001 prints as 0.1 under :g; every report line must still
        # tell the two grid points apart
        cfg = _write(tmp_path, GOOD_JUMP.replace("0.2, 0.1", "0.1000001, 0.1"))
        main(["check", "--config", cfg])
        lines = capsys.readouterr().out.splitlines()
        assert sum("eps=0.1000001 " in line for line in lines) == 6
        assert sum("eps=0.1 " in line for line in lines) == 6
        assert any("0.1000001:" in line and "0.1:" in line for line in lines)

    def test_failing_grid_exits_1(self, tmp_path, capsys):
        cfg = _write(tmp_path, BAD_JUMP)
        assert main(["check", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "note:" in out

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert main(["check"]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()


class TestCliSimulate:
    def test_bm_arm_prints_and_dumps(self, tmp_path, capsys):
        cfg = _write(tmp_path, GOOD_JUMP)
        out_a = tmp_path / "a"
        assert main(["simulate", "--config", cfg, "--paths", "5",
                     "--out", str(out_a)]) == 0
        text = capsys.readouterr().out
        assert "arm: bm" in text and "normH2: mean=" in text
        dump_a = (out_a / "paths_bm.csv").read_bytes()
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--paths", "5",
                     "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert dump_a == (out_b / "paths_bm.csv").read_bytes()

    def test_jump_arm_uses_smallest_epsilon(self, tmp_path, capsys):
        cfg = _write(tmp_path, GOOD_JUMP)
        assert main(["simulate", "--config", cfg, "--paths", "4",
                     "--arm", "jump", "--out", str(tmp_path / "j")]) == 0
        assert "eps=0.1" in capsys.readouterr().out
        assert (tmp_path / "j" / "paths_eps0.1.csv").exists()

    def test_near_equal_epsilon_keeps_its_label(self, tmp_path, capsys):
        # 0.1000001 prints as 0.1 under :g; the label and the dump name
        # must still tell it from an arm at 0.1
        cfg = _write(tmp_path, GOOD_JUMP.replace("0.2, 0.1", "0.2, 0.1000001"))
        assert main(["simulate", "--config", cfg, "--paths", "4",
                     "--arm", "jump", "--out", str(tmp_path / "j")]) == 0
        assert "eps=0.1000001 " in capsys.readouterr().out
        assert [p.name for p in (tmp_path / "j").iterdir()] == [
            "paths_eps0.1000001.csv"]

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        cfg = _write(tmp_path, GOOD_JUMP)
        monkeypatch.setenv("SNSE_SEED", "21")
        assert main(["simulate", "--config", cfg, "--paths", "2"]) == 0
        assert "seed: 21" in capsys.readouterr().out
        assert main(["simulate", "--config", cfg, "--paths", "2",
                     "--seed", "9"]) == 0
        assert "seed: 9" in capsys.readouterr().out
        monkeypatch.setenv("SNSE_SEED", "pi")
        assert main(["simulate", "--config", cfg, "--paths", "2"]) == 2

    def test_seed_outside_64_bits_refused(self, tmp_path, capsys,
                                          monkeypatch):
        # stream keys hold 64 seed bits: seed -1 would draw what 2**64 - 1
        # draws and 2**64 what 0 draws, each under a config hash of its own
        cfg = _write(tmp_path, GOOD_JUMP)
        assert main(["simulate", "--config", cfg, "--paths", "2",
                     "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        monkeypatch.setenv("SNSE_SEED", "18446744073709551616")
        assert main(["simulate", "--config", cfg, "--paths", "2"]) == 2
        assert "seed" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="seed"):
            load_config(cfg, seed=2**64)
        assert load_config(cfg, seed=2**64 - 1).experiment.seed == 2**64 - 1

    def test_blowup_exits_3(self, tmp_path, capsys):
        text = GOOD_JUMP.replace(
            "dt = 1e-3", "dt = 1e-3\nblowup_norm = 2").replace(
            "[experiment]", "[drift]\nforcing = identity:40\n\n[experiment]")
        cfg = _write(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--paths", "3"]) == 3
        capsys.readouterr()


# inner_linear under stable:1 at eps = 0.1 has an activity of about 2e5
# per unit time: a chunk of 512 paths on [0, 1] expects about 1e8 atoms
HEAVY_JUMP = (GOOD_JUMP.replace("t_end = 0.2", "t_end = 1")
              .replace("family_h = annulus", "family_h = inner_linear")
              .replace("epsilon = 0.2, 0.1", "epsilon = 0.1")
              .replace("paths = 100", "paths = 600"))


class TestAtomBudget:
    def test_simulate_refuses_jump_arm(self, tmp_path, capsys):
        cfg = _write(tmp_path, HEAVY_JUMP)
        assert main(["simulate", "--config", cfg, "--arm", "jump"]) == 2
        assert "budget" in capsys.readouterr().err
        # the Brownian arm plans no atoms
        assert main(["simulate", "--config", cfg, "--paths", "2"]) == 0
        capsys.readouterr()

    def test_run_experiment_refuses(self, tmp_path):
        run = load_config(_write(tmp_path, HEAVY_JUMP))
        with pytest.raises(ConfigError, match="budget"):
            snse.run_experiment(run.experiment)

    def test_check_still_certifies(self, tmp_path, capsys):
        cfg = _write(tmp_path, HEAVY_JUMP)
        assert main(["check", "--config", cfg]) == 0
        assert "CERTIFIED" in capsys.readouterr().out


ZERO_NOISE = GOOD_JUMP.replace("identity:0.4", "zero") + """
[output]
dir = PLACEHOLDER
"""


class TestCliConverge:
    def test_zero_noise_run_passes(self, tmp_path, capsys):
        text = ZERO_NOISE.replace("PLACEHOLDER", str(tmp_path / "run"))
        cfg = _write(tmp_path, text)
        assert main(["converge", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        summary = (tmp_path / "run" / "summary.csv").read_text()
        assert summary.splitlines()[0].startswith("arm,epsilon,functional")
        assert (tmp_path / "run" / "moments.csv").exists()
        assert (tmp_path / "run" / "manifest.txt").exists()
        # second run into the same directory must refuse without --force
        assert main(["converge", "--config", cfg]) == 2
        capsys.readouterr()
        assert main(["converge", "--config", cfg, "--force"]) == 0
        capsys.readouterr()

    def test_uncertified_paths(self, tmp_path, capsys):
        cfg = _write(tmp_path, BAD_JUMP)
        assert main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 1
        assert "certification failed" in capsys.readouterr().err
        assert main(["converge", "--config", cfg, "--force",
                     "--out", str(tmp_path / "y")]) == 1
        out = capsys.readouterr().out
        assert "UNCERTIFIED" in out
        manifest = (tmp_path / "y" / "manifest.txt").read_text()
        assert "UNCERTIFIED" in manifest

    def test_requires_out_dir(self, tmp_path, capsys):
        cfg = _write(tmp_path, GOOD_JUMP)
        assert main(["converge", "--config", cfg]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_refuses_output_before_simulating(self, tmp_path, capsys,
                                              monkeypatch):
        # a missing or occupied output directory is refused before any arm
        # runs, not after the whole comparison
        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr("snse.cli.run_experiment", refuse)
        cfg = _write(tmp_path, GOOD_JUMP)
        assert main(["converge", "--config", cfg]) == 2
        assert "output directory" in capsys.readouterr().err
        out = tmp_path / "run"
        out.mkdir()
        (out / "summary.csv").write_text("")
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
        assert "output exists" in capsys.readouterr().err


class TestCliTensorDump:
    def test_dump_to_file(self, tmp_path, capsys):
        assert main(["tensor-dump", "--nmax", "1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "tensor_n1.csv").read_text().splitlines()
        assert lines[0] == "i,j,l,b_ijl"
        assert len(lines) > 1

    def test_dump_to_stdout(self, capsys):
        assert main(["tensor-dump", "--nmax", "1"]) == 0
        assert capsys.readouterr().out.startswith("i,j,l,b_ijl")

    def test_guard_rails(self, capsys):
        assert main(["tensor-dump", "--nmax", "9"]) == 1
        assert "refusing" in capsys.readouterr().err
        assert main(["tensor-dump", "--nmax", "0"]) == 2
        capsys.readouterr()


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# one short persisted run of a config in a fresh interpreter, so the BLAS
# thread setting of its environment is read before numpy loads
SHORT_RUN = """
import dataclasses, sys
from snse.config import load_config
from snse.harness import persist, run_experiment
cfg = load_config(sys.argv[1], n_paths=100).experiment
cfg.solver = dataclasses.replace(cfg.solver, t_end=0.2)
persist(run_experiment(cfg), sys.argv[2], dump_paths=True)
"""


class TestShippedConfigs:
    @pytest.mark.parametrize("path, digest", [
        ("examples/desk_convergence.cfg", "79530e16b07d3753"),
        ("examples/family_i.cfg", "3806f4edd055bf2d"),
        ("examples/family_ii_alt.cfg", "2077145aaeba2665"),
        ("examples/family_ii_stable.cfg", "47181f524ee767f7"),
        ("examples/ou_linear.cfg", "d348f890140507c5"),
        ("perfbench/workloads/cert_cosine.cfg", "45e510c7a7a8af14"),
        ("perfbench/workloads/desk_nonlinear.cfg", "c2bd9015f8d3c336"),
        ("perfbench/workloads/ou_linear.cfg", "6698791d8aedc30e"),
    ])
    def test_config_hash_pinned(self, path, digest):
        # the hash names every persisted run; a loader change must keep it
        run = load_config(EXAMPLES.parent / path)
        assert run.experiment.config_hash() == digest

    def test_family_i_certifies(self, capsys):
        assert main(["check", "--config",
                     str(EXAMPLES / "family_i.cfg")]) == 0
        capsys.readouterr()

    def test_family_ii_stable_fails(self, capsys):
        assert main(["check", "--config",
                     str(EXAMPLES / "family_ii_stable.cfg")]) == 1
        capsys.readouterr()

    def test_family_ii_alt_passes(self, capsys):
        assert main(["check", "--config",
                     str(EXAMPLES / "family_ii_alt.cfg")]) == 0
        capsys.readouterr()

    def test_remaining_configs_load(self):
        for name in ("ou_linear", "desk_convergence"):
            run = load_config(EXAMPLES / f"{name}.cfg")
            assert run.experiment.kernels

    def test_desk_state_leaves_initial_span(self):
        # B(u0) != 0 must carry both arms off the ray through u0; a state
        # with B(u0) = 0 and noise parallel to u keeps the share at 1e-16
        cfg = load_config(EXAMPLES / "desk_convergence.cfg").experiment
        short = dataclasses.replace(
            cfg, n_paths=100,
            solver=SolverConfig(t_end=0.1, dt=cfg.solver.dt,
                                record_stride=cfg.solver.record_stride))
        assert cfg.epsilons[2] == 0.05
        unit = cfg.initial / np.linalg.norm(cfg.initial)
        for arm, j in (("brownian", 0), ("jump", 2)):
            u = run_arm(short, arm, j).terminal
            off = u - np.outer(u @ unit, unit)
            share = np.linalg.norm(off, axis=1) / np.linalg.norm(u, axis=1)
            assert share.min() >= 1e-3, (arm, share.min())

    def test_linear_bytes_independent_of_blas_threads(self, tmp_path):
        # linear runs make no BLAS product whose bits follow the thread
        # count; nonlinear runs do (B(u)), so only this config is pinned
        src = str(Path(snse.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", SHORT_RUN,
                            str(EXAMPLES / "ou_linear.cfg"),
                            str(tmp_path / threads)], env=env, check=True)
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert names == ["manifest.txt", "moments.csv", "paths_bm.csv",
                         "paths_eps0.2.csv", "summary.csv"]
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only; the package must not pull it in
        src = str(Path(snse.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, snse; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))"],
            env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_public_names_resolve(self):
        # every exported name exists on the package, and none is listed twice
        assert len(snse.__all__) == len(set(snse.__all__))
        missing = [name for name in snse.__all__ if not hasattr(snse, name)]
        assert missing == []

    def test_console_script_installed(self):
        proc = subprocess.run(["snse", "tensor-dump", "--nmax", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("i,j,l,b_ijl")
