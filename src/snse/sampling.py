"""Poisson random measure sampling and reproducible stream derivation.

Every path owns a counter-based generator keyed by (seed, arm, eps-index,
path-index), so a path's random draws do not depend on how paths are grouped
into batches.

Event draw order per channel is fixed and documented: count, then times, then
magnitudes (the power law's closed-form inverse CDF), then signs (fair, the
measures being symmetric). Changing it would silently change every jump-arm
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


def _sample_channel(ch: JumpChannel, horizon: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(sorted times, signed marks) of one channel, in the pinned draw order."""
    count = int(rng.poisson(ch.activity * horizon))
    times = np.sort(rng.random(count)) * horizon
    mags = power_magnitude_ppf(ch.measure.power, *ch.sample_range,
                               rng.random(count))
    signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
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
