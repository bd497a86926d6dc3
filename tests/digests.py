"""sha256 of every output of a set of runs, one line each, so that the
outputs of two checkouts can be compared with diff.

Run from the repository root, once in each checkout, and diff the two
listings:

    PYTHONPATH=src python tests/digests.py --seed 1 --seed 301 perfbench/workloads/*.cfg
    PYTHONPATH=src python tests/digests.py --paths 1024 examples/desk_convergence.cfg

Each config runs once per --seed given (at its own seed if none is),
at its own path count or at --paths, through run_experiment and persist
with the path dumps.  A run prints its config hash, one digest per
(arm, PathBatch field), arm 0 being the Brownian arm and arm j the jump
arm at the j-th epsilon, one per persisted file, and one of the rows of
certify_kernels on the config's kernel grid:

    <sha256>  <config>@<seed>:<paths> arm0.norm_h2
    <sha256>  <config>@<seed>:<paths> file.summary.csv
    <sha256>  <config>@<seed>:<paths> certification

The bytes are fixed by (config, seed) for one numpy/BLAS build and BLAS
thread setting (see harness), so compare listings taken on one machine
with the same OPENBLAS_NUM_THREADS.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import tempfile
from pathlib import Path

from snse.config import load_config
from snse.harness import persist, run_experiment
from snse.hypotheses import certify_kernels


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(config) -> list[tuple[str, str]]:
    """(name, digest) of one run of an ExperimentConfig: its config hash,
    then every PathBatch field of every arm, then every file persist writes
    with the path dumps, then the certification rows of its kernel grid.
    A certification failure does not stop the run (force), so every config
    gives its digests."""
    result = run_experiment(config, force=True)
    out = [("config_hash", config.config_hash())]
    for a, batch in enumerate([result.bm_batch, *result.jump_batches]):
        for field in dataclasses.fields(batch):
            data = getattr(batch, field.name).tobytes()
            out.append((f"arm{a}.{field.name}", sha256(data)))
    with tempfile.TemporaryDirectory() as tmp:
        persist(result, tmp, dump_paths=True)
        for file in sorted(Path(tmp).iterdir()):
            out.append((f"file.{file.name}", sha256(file.read_bytes())))
    report = certify_kernels(config.basis, config.kernels)
    out.append(("certification",
                sha256(repr(list(report.csv_rows())).encode())))
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", help="run files (.cfg)")
    parser.add_argument("--seed", type=int, action="append",
                        help="a seed to run each config at, repeatable "
                        "(default: the config's own)")
    parser.add_argument("--paths", type=int, default=None,
                        help="paths per arm (default: the config's own)")
    args = parser.parse_args(argv)
    for path in args.configs:
        for seed in args.seed or [None]:
            config = load_config(path, seed=seed,
                                 n_paths=args.paths).experiment
            run = f"{Path(path).name}@{config.seed}:{config.n_paths}"
            for name, digest in digests(config):
                print(f"{digest}  {run} {name}", flush=True)


if __name__ == "__main__":
    main()
