"""The one module that takes random draws: reproducible streams, and from
them the noise of both arms, Wiener increments and Poisson random measure
atoms, which the integrator only steps.

Every path owns a counter-based stream keyed by (seed, arm, eps-index,
path-index), so a path's random draws do not depend on how paths are
grouped into batches.  Per-path randomness contract (pinned by tests, do
not reorder: a change would silently change every trajectory):
  * Brownian arm: one standard_normal(n_steps) call (brownian_increments).
  * Jump arm: one poisson count, then one random(3 * count) call, read as
    count times, count magnitudes (the power law's closed-form inverse
    CDF) and count signs (fair, the measures being symmetric), nothing
    else.  sample_prm_paths takes the draws path by path and does the rest
    once for all paths; sample_prm is its one-path call.  A path's atoms
    come back as struct-of-arrays (Atoms), sorted by time.
Draws stay one pinned sequence per path, taken path after path.  So a
chunk may serve every path's sequence from one re-keyed generator
(PathStreams); the draws are the same as from one generator per path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import JumpKernel
from .measures import power_magnitude_ppf

ARM_CODES = {"brownian": 1, "jump": 2, "diagnostic": 3}

_MASK64 = (1 << 64) - 1


def stream_key(seed: int, arm: str, eps_index: int, path_index: int) -> int:
    """128-bit Philox key; injective in (seed, arm, eps_index, path_index),
    as each field fills its own bits and is refused outside its range."""
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed out of range")
    if not 0 <= eps_index < (1 << 16):
        raise ValueError("eps_index out of range")
    if not 0 <= path_index < (1 << 40):
        raise ValueError("path_index out of range")
    hi = (ARM_CODES[arm] << 56) | (eps_index << 40) | path_index
    return (hi << 64) | seed


def derive_stream(seed: int, arm: str, eps_index: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(seed, arm, eps_index, path_index)))


class PathStreams:
    """The streams of some paths of one arm, served in path order by one
    generator.

    Iterating yields, for each path in turn, the same Generator with its
    Philox bit generator re-keyed through the documented state setter
    (counter 0, key stream_key(seed, arm, eps_index, path), empty buffer),
    so path p draws what derive_stream(seed, arm, eps_index, p) draws.  A
    stream is valid until the next one is taken.  Re-keying costs about a
    quarter of building a generator, whose constructor also seeds a
    SeedSequence from OS entropy that a keyed Philox never uses.
    """

    def __init__(self, seed: int, arm: str, eps_index: int, paths: range):
        self.seed, self.arm, self.eps_index = seed, arm, eps_index
        self.paths = paths
        self.generator = np.random.Generator(np.random.Philox(0))

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        bits = self.generator.bit_generator
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, dtype=np.uint64),
                           "key": np.zeros(2, dtype=np.uint64)},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        key = state["state"]["key"]
        for p in self.paths:
            k = stream_key(self.seed, self.arm, self.eps_index, p)
            key[0], key[1] = k & _MASK64, k >> 64
            bits.state = state
            yield self.generator


def brownian_increments(streams, n_steps: int, dt: float) -> np.ndarray:
    """(n_steps, paths) Wiener increments over steps of dt, one path per
    stream: step-major, so each step reads one contiguous row."""
    root = np.sqrt(dt)
    dw = np.empty((n_steps, len(streams)))
    for p, g in enumerate(streams):
        dw[:, p] = g.standard_normal(n_steps) * root
    return dw


@dataclass(frozen=True)
class Atoms:
    """The atoms of one path's Poisson random measure, as parallel arrays."""

    times: np.ndarray
    marks: np.ndarray

    def __len__(self) -> int:
        return self.times.size


def sample_prm_paths(kernel: JumpKernel, horizon: float,
                     streams) -> tuple[Atoms, np.ndarray]:
    """The atoms of one path per stream on [0, horizon], path after path,
    each path's sorted by time; and every path's atom count.

    Each stream gives its pinned draws before the next is taken: the count,
    then 3 * count uniforms (one call gives the same doubles as three calls
    of count each).  Sorting the times within each path, the magnitudes'
    inverse CDF and the signs then run once over all paths.
    """
    rate = kernel.activity * horizon
    counts, draws = [], []
    for rng in streams:
        count = int(rng.poisson(rate))
        counts.append(count)
        draws.append(rng.random(3 * count))
    counts = np.array(counts, dtype=np.intp)
    path = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    # the k-th atom of a path reads draws 3 start + k, + count, + 2 count
    k = np.arange(path.size) - start[path]
    at = k + 3 * start[path]
    run = counts[path]
    draws = np.concatenate(draws) if draws else np.empty(0)
    # sort each path's times in a row padded with +inf past its count
    pad = np.full((counts.size, counts.max(initial=0)), np.inf)
    pad[path, k] = draws[at]
    pad.sort(axis=1)
    times = pad[np.arange(pad.shape[1]) < counts[:, None]] * horizon
    mags = power_magnitude_ppf(kernel.measure.power, *kernel.sample_range,
                               draws[at + run])
    signs = np.where(draws[at + 2 * run] < 0.5, -1.0, 1.0)
    return Atoms(times, signs * mags), counts


def sample_prm(kernel: JumpKernel, horizon: float,
               rng: np.random.Generator) -> Atoms:
    """All atoms on [0, horizon], sorted by time."""
    return sample_prm_paths(kernel, horizon, [rng])[0]
