"""Quadratic-variation blocks of the two generators and the gap between them.

For g(x) = x_k x_j both generators share the drift part, so the gap on the
quadratic observables is the gap between the variation blocks: sigma(x)
outer sigma(x) on the Brownian arm and the nu-integral of the jump-field
outer products on the pure-jump arm.
"""

from __future__ import annotations

import numpy as np

from .kernels import FieldMap, JumpKernel, gain_moment, sq_norm


def brownian_block(sigma: FieldMap, x):
    """|x|_H^2 and the Brownian block sigma(x) outer sigma(x) per row."""
    x = np.asarray(x, dtype=np.float64)
    n2 = sq_norm(x)
    s = sigma.fn(x, n2)
    return n2, s[..., :, None] * s[..., None, :]


def block_gap(kernel: JumpKernel, n2, block):
    """generator_gap from brownian_block's n2 and block."""
    diff = gain_moment(kernel, n2, 2)[..., None, None] * block - block
    return np.max(np.abs(diff), axis=(-2, -1))


def jump_qv_matrix(kernel: JumpKernel, x) -> np.ndarray:
    """The integral of sigma_eps(x, z) outer sigma_eps(x, z) d(nu).

    It is sigma(x) outer sigma(x) times the kernel's second gain moment
    over the full-support node table; one block per row of x.
    """
    n2, block = brownian_block(kernel.sigma, x)
    return gain_moment(kernel, n2, 2)[..., None, None] * block


def generator_gap(kernel: JumpKernel, x):
    """max_{k,j} |L_jump - L_diffusion| on the quadratic observables, per row.

    The diffusion is the Brownian arm the kernel approximates, whose
    variation block is sigma(x) outer sigma(x) for the kernel's base map.
    """
    return block_gap(kernel, *brownian_block(kernel.sigma, x))
