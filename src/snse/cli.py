"""Command line interface.

Subcommands:
  check        certify the configured jump-kernel grid and print the report
  simulate     run one arm, print functional summaries, optionally dump paths
  converge     run the Brownian-vs-jump comparison and write CSV outputs
  tensor-dump  write the nonzero advection-coupling entries as CSV

Exit codes: 0 success, 1 certification or convergence failure, 2 usage or
configuration error, 3 numerical failure (blow-up over budget).

Seed precedence: --seed beats the SNSE_SEED environment variable, which
beats the seed in the run file.  Output files are named, refused and
written by harness; this module parses, prints and calls.
"""

from __future__ import annotations

import argparse
import os
import sys

from .basis import get_basis
from .config import load_config
from .errors import CertificationError, ConfigError
from .harness import (BLOWUP_BUDGET, csv_lines, dump_name,
                      functional_samples, output_names, path_dump_blocks,
                      persist, refuse_existing, run_arm, run_experiment,
                      write_lines)
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
    if args.out:
        refuse_existing(args.out, ["check_report.csv"], args.force)
    report = certify_kernels(cfg.basis, cfg.kernels, cfg.forcing,
                             label=cfg.label)
    for line in report.summary_lines():
        print(line)
    if args.out:
        write_lines(args.out, "check_report.csv",
                    csv_lines("check,epsilon,value,witness,pass",
                              report.csv_rows()))
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    run = load_config(_require_config(args), seed=_resolve_seed(args),
                      n_paths=args.paths)
    cfg = run.experiment
    arm, idx, eps, label = "brownian", 0, None, "bm"
    if args.arm == "jump":
        if not cfg.kernels:
            raise ConfigError("simulate --arm jump needs a [jump] section")
        arm, idx, eps = "jump", len(cfg.kernels) - 1, cfg.epsilons[-1]
        label = f"jump eps={float_label(eps)}"
    out_dir = args.out or run.out_dir
    if out_dir:
        refuse_existing(out_dir, [dump_name(eps)], args.force)
    batch = run_arm(cfg, arm, idx)

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

    if out_dir:
        path = write_lines(out_dir, dump_name(eps),
                           path_dump_blocks(batch, cfg.solver.track_modes))
        print(f"wrote {path}")
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
    refuse_existing(out_dir, output_names(cfg, run.dump_paths), args.force)
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

    out = persist(result, out_dir, run.dump_paths, overwrite=args.force)
    print(f"wrote {out / 'summary.csv'}")

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


def cmd_tensor_dump(args) -> int:
    if args.nmax < 1:
        raise ConfigError("--nmax must be positive")
    if args.nmax > MAX_DUMP_NMAX:
        print(f"refusing tensor dump for nmax={args.nmax}: entry count "
              f"grows like dim^3, cap is {MAX_DUMP_NMAX}", file=sys.stderr)
        return 1
    name = f"tensor_n{args.nmax}.csv"
    if args.out:
        refuse_existing(args.out, [name], args.force)
    t = coupling_tensor(get_basis(args.nmax))
    lines = csv_lines("i,j,l,b_ijl", zip(t.i, t.j, t.l, t.vals))
    if args.out:
        path = write_lines(args.out, name, lines)
        print(f"wrote {path} ({len(lines) - 1} entries)")
    else:
        print("\n".join(lines))
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
