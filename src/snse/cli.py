"""Command line interface.

Subcommands:
  check        certify the configured jump-kernel grid and print the report
  simulate     run one arm, print functional summaries, optionally dump paths
  converge     run the Brownian-vs-jump comparison and write CSV outputs
  tensor-dump  write the nonzero advection-coupling entries as CSV

Exit codes: 0 success, 1 certification or convergence failure, 2 usage or
configuration error, 3 numerical failure (blow-up over budget).

Seed precedence: --seed beats the SNSE_SEED environment variable, which
beats the seed in the run file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .basis import get_basis
from .config import load_config
from .errors import CertificationError, ConfigError
from .harness import (BLOWUP_BUDGET, csv_cell, functional_samples,
                      path_dump_lines, persist, run_arm, run_experiment)
from .hypotheses import certify_kernels
from .measures import float_label
from .nonlinear import coupling_tensor
from .stats import summarize

MAX_DUMP_NMAX = 8


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run configuration file")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--force", action="store_true",
                        help="proceed despite failed certification; "
                             "allow overwriting previous output")

    p = argparse.ArgumentParser(
        prog="snse",
        description="Spectral simulator and certification lab for 2-D "
                    "stochastic Navier-Stokes dynamics.")
    sub = p.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", parents=[common],
                         help="run the noise-hypothesis certification")
    chk.set_defaults(fn=cmd_check)

    sim = sub.add_parser("simulate", parents=[common],
                         help="simulate one arm and summarize functionals")
    sim.add_argument("--paths", type=int, help="override the path count")
    sim.add_argument("--arm", choices=("bm", "jump"), default="bm",
                     help="which arm to run (jump uses the smallest epsilon)")
    sim.set_defaults(fn=cmd_simulate)

    cnv = sub.add_parser("converge", parents=[common],
                         help="run all arms and compare laws against the "
                              "Brownian reference")
    cnv.set_defaults(fn=cmd_converge)

    tdp = sub.add_parser("tensor-dump", parents=[common],
                         help="dump the advection coupling tensor")
    tdp.add_argument("--nmax", type=int, required=True,
                     help=f"spectral cutoff (at most {MAX_DUMP_NMAX})")
    tdp.set_defaults(fn=cmd_tensor_dump)
    return p


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SNSE_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"SNSE_SEED={env!r} is not an integer") from None


def _require_config(args) -> str:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return args.config


def cmd_check(args) -> int:
    run = load_config(_require_config(args), seed=_resolve_seed(args))
    cfg = run.experiment
    if not cfg.kernels:
        raise ConfigError("check needs a [jump] section")
    report = certify_kernels(cfg.basis, cfg.kernels, cfg.forcing,
                             label=cfg.label)
    for line in report.summary_lines():
        print(line)
    for rep in (report.growth, report.jump_size, report.qv):
        for note in rep.notes:
            print(f"note: {note}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["check,epsilon,value,witness,pass"]
        lines += [",".join(csv_cell(v) for v in row)
                  for row in report.csv_rows()]
        (out / "check_report.csv").write_text("\n".join(lines) + "\n")
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    run = load_config(_require_config(args), seed=_resolve_seed(args),
                      n_paths=args.paths)
    cfg = run.experiment
    if args.arm == "jump":
        if not cfg.kernels:
            raise ConfigError("simulate --arm jump needs a [jump] section")
        idx = len(cfg.kernels) - 1
        batch = run_arm(cfg, "jump", idx)
        eps = float_label(cfg.epsilons[idx])
        label, dump_name = f"jump eps={eps}", f"paths_eps{eps}.csv"
    else:
        batch = run_arm(cfg, "brownian", 0)
        label, dump_name = "bm", "paths_bm.csv"

    frac = 1.0 - batch.valid_mask().mean()
    print(f"arm: {label}  paths: {batch.n_paths}  seed: {cfg.seed}  "
          f"blown_up: {frac:.2%}")
    for f in cfg.functionals:
        vals = functional_samples(batch, f)
        if vals.size == 0:
            print(f"{f}: no valid paths")
            continue
        mean, var, se = summarize(vals)
        print(f"{f}: mean={mean:.10g} se={se:.4g} var={var:.10g}")

    out_dir = args.out or run.out_dir
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        text = "\n".join(path_dump_lines(batch, cfg.solver.track_modes)) + "\n"
        (out / dump_name).write_text(text)
        print(f"wrote {out / dump_name}")
    if frac > BLOWUP_BUDGET:
        print(f"numerical failure: {frac:.2%} of paths blew up "
              f"(budget {BLOWUP_BUDGET:.0%})", file=sys.stderr)
        return 3
    return 0


def cmd_converge(args) -> int:
    run = load_config(_require_config(args), seed=_resolve_seed(args))
    cfg = run.experiment
    if not cfg.kernels:
        raise ConfigError("converge needs a [jump] section")
    # refuse before simulating: persist would refuse only after every arm ran
    out_dir = args.out or run.out_dir
    if not out_dir:
        raise ConfigError("no output directory: pass --out or set "
                          "[output] dir in the run file")
    target = Path(out_dir) / "summary.csv"
    if target.exists() and not args.force:
        raise FileExistsError(str(target))
    result = run_experiment(cfg, force=args.force)

    if result.forced:
        print("UNCERTIFIED: kernel checks failed, proceeding under --force")
        for note in result.notes:
            print(f"note: {note}")
    print(f"run {cfg.label}  seed {cfg.seed}  hash {cfg.config_hash()}  "
          f"paths {cfg.n_paths}")
    print(f"{'functional':<14}{'epsilon':>9}{'mean':>14}{'gap_vs_bm':>13}"
          f"{'joint_se':>12}{'ks':>9}  ks_pass")
    for r in result.rows:
        eps = "bm" if r.epsilon is None else float_label(r.epsilon)
        gap = "" if r.gap_vs_bm is None else f"{r.gap_vs_bm:.4g}"
        jse = "" if r.joint_se is None else f"{r.joint_se:.4g}"
        ks = "" if r.ks_stat is None else f"{r.ks_stat:.4g}"
        kp = "" if r.ks_pass is None else ("yes" if r.ks_pass else "NO")
        print(f"{r.functional:<14}{eps:>9}{r.mean:>14.6g}{gap:>13}"
              f"{jse:>12}{ks:>9}  {kp}")

    persist(result, out_dir, dump_paths=run.dump_paths, overwrite=args.force)
    print(f"wrote {Path(out_dir) / 'summary.csv'}")

    if result.invalid:
        print("numerical failure: blow-up fraction above budget",
              file=sys.stderr)
        return 3
    if result.forced:
        return 1
    last = [r for r in result.rows
            if r.arm == "jump" and r.epsilon == cfg.epsilons[-1]]
    ok = all(r.gap_vs_bm <= 3.0 * r.joint_se + 1e-12 and r.ks_pass
             for r in last)
    print("convergence at smallest epsilon: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _tensor_csv_rows(tensor):
    yield "i,j,l,b_ijl"
    for i, j, l, v in zip(tensor.i, tensor.j, tensor.l, tensor.vals):
        yield f"{i},{j},{l},{v!r}"


def cmd_tensor_dump(args) -> int:
    if args.nmax < 1:
        raise ConfigError("--nmax must be positive")
    if args.nmax > MAX_DUMP_NMAX:
        print(f"refusing tensor dump for nmax={args.nmax}: entry count "
              f"grows like dim^3, cap is {MAX_DUMP_NMAX}", file=sys.stderr)
        return 1
    tensor = coupling_tensor(get_basis(args.nmax))
    lines = list(_tensor_csv_rows(tensor))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        target = out / f"tensor_n{args.nmax}.csv"
        target.write_text("\n".join(lines) + "\n")
        print(f"wrote {target} ({len(lines) - 1} entries)")
    else:
        for line in lines:
            print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileExistsError as exc:
        print(f"output exists: {exc} (use --force to overwrite)",
              file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
