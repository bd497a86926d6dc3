"""Poisson random measure sampling and reproducible stream derivation.

Every path owns a counter-based generator keyed by (seed, arm, eps-index,
path-index), so a path's random draws do not depend on how paths are grouped
into batches.

Event draw order per channel is fixed and documented: count, then times, then
magnitudes, then signs. Changing it would silently change every jump-arm
trajectory, so the order is pinned by tests.  A path's atoms come back as
struct-of-arrays (``Atoms``), stably sorted by (time, channel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import JumpChannel, JumpKernel
from .measures import power_magnitude_ppf

ARM_CODES = {"brownian": 1, "jump": 2, "diagnostic": 3}

_MASK64 = (1 << 64) - 1
_ENVELOPE_CELLS = 64   # rejection-envelope cells over the sampled range


def stream_key(seed: int, arm: str, eps_index: int, path_index: int) -> int:
    """128-bit Philox key; injective in (arm, eps_index, path_index)."""
    if not 0 <= eps_index < (1 << 16):
        raise ValueError("eps_index out of range")
    if not 0 <= path_index < (1 << 40):
        raise ValueError("path_index out of range")
    hi = (ARM_CODES[arm] << 56) | (eps_index << 40) | path_index
    return ((hi & _MASK64) << 64) | (seed & _MASK64)


def derive_stream(seed: int, arm: str, eps_index: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(seed, arm, eps_index, path_index)))


@dataclass(frozen=True)
class Atoms:
    """The atoms of one path's Poisson random measure, as parallel arrays."""

    times: np.ndarray
    marks: np.ndarray
    channels: np.ndarray

    def __len__(self) -> int:
        return self.times.size


def _sample_magnitudes(ch: JumpChannel, n: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = ch.sample_range
    if ch.measure.power is not None:
        return power_magnitude_ppf(ch.measure.power, lo, hi, rng.random(n))
    return _rejection_magnitudes(ch, n, rng)


def _rejection_magnitudes(ch: JumpChannel, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Piecewise-constant-envelope rejection sampler for custom densities.

    The envelope is the per-cell max of the density on a refinement grid,
    padded by 5 percent; adequate for the piecewise-smooth densities this
    package targets, not for wildly oscillatory ones.
    """
    lo, hi = ch.sample_range
    cells = _ENVELOPE_CELLS
    edges = np.geomspace(lo, hi, cells + 1) if lo > 0 else np.linspace(lo, hi, cells + 1)
    dens = ch.measure.density

    def radial(r):
        return np.asarray(dens(r)) + np.asarray(dens(-r))

    tops = np.empty(cells)
    for i in range(cells):
        fine = np.linspace(edges[i], edges[i + 1], 33)
        tops[i] = 1.05 * float(np.max(radial(fine)))
    cell_mass = tops * np.diff(edges)
    cdf = np.cumsum(cell_mass) / np.sum(cell_mass)
    out = np.empty(n)
    got = 0
    while got < n:
        m = max(64, 2 * (n - got))
        cells_drawn = np.searchsorted(cdf, rng.random(m))
        r = edges[cells_drawn] + rng.random(m) * np.diff(edges)[cells_drawn]
        accept = rng.random(m) * tops[cells_drawn] <= radial(r)
        r = r[accept][: n - got]
        out[got:got + r.size] = r
        got += r.size
    return out


def _sample_channel(ch: JumpChannel, horizon: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(sorted times, signed marks) of one channel, in the pinned draw order."""
    count = int(rng.poisson(ch.activity * horizon))
    times = np.sort(rng.random(count)) * horizon
    mags = _sample_magnitudes(ch, count, rng)
    signs = np.where(rng.random(count) < ch.p_negative, -1.0, 1.0)
    return times, signs * mags


def sample_prm(kernel: JumpKernel, horizon: float,
               rng: np.random.Generator) -> Atoms:
    """All atoms of every channel on [0, horizon], sorted by (time, channel)."""
    drawn = [_sample_channel(ch, horizon, rng) for ch in kernel.channels]
    times = np.concatenate([t for t, _ in drawn])
    marks = np.concatenate([m for _, m in drawn])
    channels = np.repeat(np.arange(len(drawn)), [t.size for t, _ in drawn])
    order = np.lexsort((channels, times))
    return Atoms(times[order], marks[order], channels[order])
