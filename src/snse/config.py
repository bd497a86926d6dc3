"""INI run-configuration loader.

A run file has sections [basis], [solver], [experiment] (required),
[brownian] plus optional [jump], [drift] and [output].  Unknown sections or
keys are hard errors: a typo must never silently fall back to a default.
README.md lists every key with its default.

Coefficient maps are named by compact specs (zero, identity:c,
saturating:c, constant:a@i;a@i) and the Brownian sigma spec must equal the
jump base sigma spec so the two arms share a diffusion limit.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import get_basis
from .errors import ConfigError
from .harness import ExperimentConfig, functional_mode
from .hypotheses import kernel_grid
from .integrate import BrownianNoiseSpec, SolverConfig
from .kernels import (FieldMap, constant_field, saturating, scaled_identity,
                      zero_map)
from .measures import LevyMeasure, alpha_stable_measure, power_law_measure

_SCHEMA = {
    "basis": {"n_max"},
    "solver": {"t_end", "dt", "record_stride", "nonlinearity", "blowup_norm"},
    "drift": {"forcing"},
    "brownian": {"sigma", "channels"},
    "jump": {"sigma", "family_h", "family_theta", "epsilon", "measure"},
    "experiment": {"paths", "seed", "functionals", "initial", "track",
                   "chunk_size"},
    "output": {"dir", "dump_paths"},
}

_REQUIRED_SECTIONS = ("basis", "solver", "brownian", "experiment")


def parse_map_spec(spec: str, dim: int) -> FieldMap:
    """Coefficient map from a compact config string."""
    head, _, rest = spec.strip().partition(":")
    try:
        if head == "zero":
            return zero_map()
        if head == "identity":
            return scaled_identity(float(rest or 1.0))
        if head == "saturating":
            return saturating(float(rest or 1.0))
        if head == "constant":
            return constant_field(parse_coeff_list(rest, dim, sep=";"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad map spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown map spec {spec!r}")


def parse_measure_spec(spec: str) -> LevyMeasure:
    head, _, rest = spec.strip().partition(":")
    try:
        if head == "stable":
            return alpha_stable_measure(float(rest))
        if head == "power":
            power, lo, hi = (tok.strip() for tok in rest.split(","))
            return power_law_measure(float(power), float(lo), float(hi))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad measure spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown measure spec {spec!r}")


def parse_coeff_list(spec: str, dim: int, sep: str = ",") -> np.ndarray:
    """amp@index list like 0.3@0, 0.3@2 into a coefficient vector."""
    out = np.zeros(dim)
    seen = set()
    for item in spec.split(sep):
        amp, _, idx = item.partition("@")
        try:
            k = int(idx)
            val = float(amp)
        except ValueError:
            raise ConfigError(f"bad coefficient entry {item.strip()!r}") from None
        if not 0 <= k < dim:
            raise ConfigError(f"coefficient index {k} out of range")
        if k in seen:
            raise ConfigError(f"coefficient index {k} given twice")
        if not np.isfinite(val):
            raise ConfigError(f"coefficient {item.strip()!r} is not finite")
        seen.add(k)
        out[k] = val
    return out


_REQUIRED = object()
_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _read(section, key: str, kind=str, default=_REQUIRED):
    """section[key] converted by kind, or default when the key is absent."""
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"[{section.name}] missing required key {key!r}")
        return default
    val = section[key]
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[val.lower()]
        return kind(val)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section.name}] {key} = {val!r} is not "
                          f"{_KIND_NAMES[kind]}") from None


@contextmanager
def _config_errors(prefix: str):
    """Report a ValueError from a constructor as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


@dataclass
class LoadedRun:
    experiment: ExperimentConfig
    out_dir: str | None
    dump_paths: bool


def _read_sections(path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(p.read_text(), source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from None
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        for key in cp[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    for name in _REQUIRED_SECTIONS:
        if not cp.has_section(name):
            raise ConfigError(f"missing required section [{name}]")
    return cp


def load_config(path, seed: int | None = None,
                n_paths: int | None = None) -> LoadedRun:
    """Build an ExperimentConfig from a run file, applying CLI overrides."""
    cp = _read_sections(path)

    n_max = _read(cp["basis"], "n_max", int)
    with _config_errors("[basis] "):
        basis = get_basis(n_max)
    dim = basis.dim

    exp = cp["experiment"]
    functionals = tuple(tok.strip() for tok in
                        _read(exp, "functionals", default="normH2").split(","))
    track_spec = _read(exp, "track", default="")
    try:
        extra = {int(t) for t in track_spec.split(",")} if track_spec else set()
    except ValueError:
        raise ConfigError("[experiment] track must be a comma list of "
                          "integers") from None
    track = sorted(extra | ({functional_mode(f) for f in functionals} - {None}))
    bad = [k for k in track if not 0 <= k < dim]
    if bad:
        raise ConfigError(f"tracked mode {bad[0]} out of range")

    sol = cp["solver"]
    with _config_errors("[solver] "):
        solver = SolverConfig(
            t_end=_read(sol, "t_end", float),
            dt=_read(sol, "dt", float),
            record_stride=_read(sol, "record_stride", int, 1),
            include_nonlinearity=_read(sol, "nonlinearity", bool, True),
            track_modes=tuple(track),
            blowup_norm=_read(sol, "blowup_norm", float, 1e6))

    drift = cp["drift"] if cp.has_section("drift") else {}
    spec = _read(drift, "forcing", default="zero")
    forcing = None if spec == "zero" else parse_map_spec(spec, dim)

    bm = cp["brownian"]
    sigma_spec = _read(bm, "sigma")
    channels = _read(bm, "channels", int, 1)
    if channels < 1:
        raise ConfigError("[brownian] channels must be at least 1")
    sigma = parse_map_spec(sigma_spec, dim)
    noise = BrownianNoiseSpec((sigma,) * channels)

    kernels: tuple = ()
    if cp.has_section("jump"):
        jmp = cp["jump"]
        jump_sigma = _read(jmp, "sigma")
        if jump_sigma != sigma_spec:
            raise ConfigError("[jump] sigma must equal [brownian] sigma "
                              f"({jump_sigma!r} vs {sigma_spec!r})")
        eps_spec = _read(jmp, "epsilon")
        try:
            eps = tuple(float(tok) for tok in eps_spec.split(","))
        except ValueError:
            raise ConfigError("[jump] epsilon must be a comma list of floats") from None
        family_h = _read(jmp, "family_h")
        family_theta = _read(jmp, "family_theta", default="one")
        measure = parse_measure_spec(_read(jmp, "measure"))
        with _config_errors("[jump] "):
            kernels = tuple(kernel_grid(sigma, family_h, family_theta, eps,
                                        measure, channels))

    initial = parse_coeff_list(_read(exp, "initial", default="0.3@0, 0.3@2"),
                               dim)

    out = cp["output"] if cp.has_section("output") else {}
    with _config_errors(""):
        experiment = ExperimentConfig(
            basis=basis, solver=solver, initial=initial, noise=noise,
            kernels=kernels, functionals=functionals,
            n_paths=n_paths if n_paths is not None
            else _read(exp, "paths", int),
            seed=seed if seed is not None else _read(exp, "seed", int, 0),
            forcing=forcing, chunk_size=_read(exp, "chunk_size", int, 512),
            label=Path(path).stem)
    return LoadedRun(experiment, _read(out, "dir", default=None),
                     _read(out, "dump_paths", bool, False))
