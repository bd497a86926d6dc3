"""INI run-configuration loader.

A run file has sections [basis], [solver], [experiment] (required),
[brownian] plus optional [jump], [drift] and [output].  Unknown sections or
keys are hard errors: a typo must never silently fall back to a default.

Coefficient maps are named by compact specs (zero, identity:c,
saturating:c, constant:a@i;a@i) and the Brownian sigma spec must equal the
jump base sigma spec so the two arms share a diffusion limit.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import get_basis
from .errors import ConfigError
from .harness import ExperimentConfig
from .hypotheses import kernel_grid
from .integrate import BrownianNoiseSpec, SolverConfig
from .kernels import (FieldMap, constant_field, saturating, scaled_identity,
                      zero_map)
from .measures import (LevyMeasure, alpha_stable_measure, power_law_measure)

_SCHEMA = {
    "basis": {"n_max"},
    "solver": {"t_end", "dt", "record_stride", "nonlinearity", "blowup_norm"},
    "drift": {"forcing"},
    "brownian": {"sigma", "channels"},
    "jump": {"sigma", "family_h", "family_theta", "epsilon", "measure",
             "cutoff_delta", "qv_budget", "channels"},
    "experiment": {"paths", "seed", "functionals", "initial", "track",
                   "chunk_size"},
    "output": {"dir", "dump_paths"},
}

_REQUIRED_SECTIONS = ("basis", "solver", "brownian", "experiment")

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


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
            g = np.zeros(dim)
            for item in rest.split(";"):
                amp, _, idx = item.partition("@")
                k = int(idx)
                if not 0 <= k < dim:
                    raise ConfigError(
                        f"map spec {spec!r}: index {k} out of range")
                g[k] = float(amp)
            return constant_field(g)
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


def parse_coeff_list(spec: str, dim: int) -> np.ndarray:
    """amp@index list like 0.3@0, 0.3@2 into a coefficient vector."""
    out = np.zeros(dim)
    for item in spec.split(","):
        amp, _, idx = item.partition("@")
        try:
            k = int(idx)
            val = float(amp)
        except ValueError:
            raise ConfigError(f"bad coefficient entry {item.strip()!r}") from None
        if not 0 <= k < dim:
            raise ConfigError(f"coefficient index {k} out of range")
        out[k] = val
    return out


_MISSING = object()


class _Section:
    """One validated section with typed getters.

    Raw values are strings; a non-string return means the default was used.
    """

    def __init__(self, name: str, raw: dict):
        self.name = name
        self.raw = raw

    def _fetch(self, key: str, default):
        if key in self.raw:
            return self.raw[key].strip()
        if default is _MISSING:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        return default

    def get(self, key: str, default=None):
        return self._fetch(key, default)

    def get_float(self, key: str, default=None):
        val = self._fetch(key, default)
        if not isinstance(val, str):
            return val
        try:
            return float(val)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] {key} = {val!r} is not a number") from None

    def get_int(self, key: str, default=None):
        val = self._fetch(key, default)
        if not isinstance(val, str):
            return val
        try:
            return int(val)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] {key} = {val!r} is not an integer") from None

    def get_bool(self, key: str, default=None):
        val = self._fetch(key, default)
        if not isinstance(val, str):
            return val
        if val.lower() in _TRUE:
            return True
        if val.lower() in _FALSE:
            return False
        raise ConfigError(f"[{self.name}] {key} = {val!r} is not a boolean")

    def require(self, key: str) -> str:
        return self._fetch(key, _MISSING)


@dataclass
class LoadedRun:
    experiment: ExperimentConfig
    out_dir: str | None
    dump_paths: bool


def _read_sections(path) -> dict[str, _Section]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(p.read_text(), source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from None
    sections: dict[str, _Section] = {}
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        for key in cp[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
        sections[name] = _Section(name, dict(cp[name]))
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    return sections


def _functional_modes(functionals) -> list[int]:
    out = []
    for f in functionals:
        if f.startswith("mode:"):
            try:
                out.append(int(f[5:]))
            except ValueError:
                raise ConfigError(f"bad functional {f!r}") from None
    return out


def load_config(path, seed: int | None = None,
                n_paths: int | None = None) -> LoadedRun:
    """Build an ExperimentConfig from a run file, applying CLI overrides."""
    sec = _read_sections(path)

    basis = get_basis(sec["basis"].get_int("n_max", _MISSING))
    dim = basis.dim

    exp = sec["experiment"]
    functionals = tuple(tok.strip() for tok in
                        exp.get("functionals", "normH2").split(","))
    try:
        track = sorted(set(_functional_modes(functionals))
                       | ({int(t) for t in exp.get("track").split(",")}
                          if exp.get("track") else set()))
    except ValueError:
        raise ConfigError("[experiment] track must be a comma list of "
                          "integers") from None
    bad = [k for k in track if not 0 <= k < dim]
    if bad:
        raise ConfigError(f"tracked mode {bad[0]} out of range")

    sol = sec["solver"]
    try:
        solver = SolverConfig(
            t_end=sol.get_float("t_end", _MISSING),
            dt=sol.get_float("dt", _MISSING),
            record_stride=sol.get_int("record_stride", 1),
            include_nonlinearity=sol.get_bool("nonlinearity", True),
            track_modes=tuple(track),
            blowup_norm=sol.get_float("blowup_norm", 1e6))
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from None

    forcing = None
    if "drift" in sec:
        spec = sec["drift"].get("forcing", "zero")
        if spec != "zero":
            forcing = parse_map_spec(spec, dim)

    bm = sec["brownian"]
    sigma_spec = bm.require("sigma")
    channels = bm.get_int("channels", 1)
    if channels < 1:
        raise ConfigError("[brownian] channels must be at least 1")
    sigma = parse_map_spec(sigma_spec, dim)
    noise = BrownianNoiseSpec((sigma,) * channels)

    kernels: tuple = ()
    if "jump" in sec:
        jmp = sec["jump"]
        if jmp.require("sigma") != sigma_spec:
            raise ConfigError(
                "[jump] sigma must equal [brownian] sigma "
                f"({jmp.require('sigma')!r} vs {sigma_spec!r})")
        if jmp.get_int("channels", channels) != channels:
            raise ConfigError("[jump] channels must equal [brownian] channels")
        try:
            eps = tuple(float(tok) for tok in jmp.require("epsilon").split(","))
        except ValueError:
            raise ConfigError("[jump] epsilon must be a comma list of floats") from None
        cutoff = jmp.get("cutoff_delta", "auto")
        if cutoff != "auto":
            cutoff = jmp.get_float("cutoff_delta")
        family_h = jmp.require("family_h")
        family_theta = jmp.get("family_theta", "one")
        measure = jmp.require("measure")
        try:
            kernels = tuple(kernel_grid(
                sigma, family_h, family_theta, eps,
                parse_measure_spec(measure), channels=channels,
                cutoff_delta=cutoff,
                qv_budget=jmp.get_float("qv_budget", 1e-4)))
        except ValueError as exc:
            raise ConfigError(f"[jump] {exc}") from None

    initial = parse_coeff_list(exp.get("initial", "0.3@0, 0.3@2"), dim)

    out = sec.get("output")
    out_dir = out.get("dir") if out else None
    dump = out.get_bool("dump_paths", False) if out else False

    try:
        experiment = ExperimentConfig(
            basis=basis, solver=solver, initial=initial, noise=noise,
            kernels=kernels, functionals=functionals,
            n_paths=n_paths if n_paths is not None
            else exp.get_int("paths", _MISSING),
            seed=seed if seed is not None else exp.get_int("seed", 0),
            forcing=forcing, chunk_size=exp.get_int("chunk_size", 512),
            label=Path(path).stem)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return LoadedRun(experiment, out_dir, dump)
