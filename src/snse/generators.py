"""Quadratic-variation blocks of the two generators and the gap between them.

For g(x) = x_k x_j both generators share the drift part, so the gap on the
quadratic observables is the gap between the variation blocks: sum_i of
sigma_i(x) outer sigma_i(x) on the Brownian arm and the nu-integral of the
jump-field outer products on the pure-jump arm.
"""

from __future__ import annotations

import numpy as np

from .integrate import BrownianNoiseSpec
from .kernels import JumpKernel, gain_moment


def diffusion_qv_matrix(noise: BrownianNoiseSpec, x) -> np.ndarray:
    """sum_i sigma_i(x) outer sigma_i(x), one (dim, dim) block per row of x."""
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros(x.shape + x.shape[-1:])
    for ch in noise.channels:
        s = ch.fn(x)
        total += s[..., :, None] * s[..., None, :]
    return total


def jump_qv_matrix(kernel: JumpKernel, x) -> np.ndarray:
    """sum_channels integral of sigma_eps(x, z) outer sigma_eps(x, z) d(nu).

    Each channel contributes sigma(x) outer sigma(x) times its second gain
    moment over the full-support node table; one block per row of x.
    """
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros(x.shape + x.shape[-1:])
    for ch in kernel.channels:
        sig = ch.sigma.fn(x)
        total += (gain_moment(ch, x, 2)[..., None, None]
                  * (sig[..., :, None] * sig[..., None, :]))
    return total


def generator_gap(kernel: JumpKernel, noise: BrownianNoiseSpec, x):
    """max_{k,j} |L_jump - L_diffusion| on the quadratic observables, per row."""
    diff = jump_qv_matrix(kernel, x) - diffusion_qv_matrix(noise, x)
    return np.max(np.abs(diff), axis=(-2, -1))


def matched_noise(kernel: JumpKernel) -> BrownianNoiseSpec:
    """The Brownian arm whose variation the jump kernel approximates."""
    return BrownianNoiseSpec(tuple(ch.sigma for ch in kernel.channels))
