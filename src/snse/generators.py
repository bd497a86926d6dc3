"""Quadratic-variation blocks of the two generators and the gap between them.

For g(x) = x_k x_j both generators share the drift part, so the gap on the
quadratic observables is the gap between the variation blocks: sigma(x)
outer sigma(x) on the Brownian arm and the nu-integral of the jump-field
outer products on the pure-jump arm.
"""

from __future__ import annotations

import numpy as np

from .kernels import JumpKernel, gain_moment


def _outer(s: np.ndarray) -> np.ndarray:
    return s[..., :, None] * s[..., None, :]


def jump_qv_matrix(kernel: JumpKernel, x) -> np.ndarray:
    """The integral of sigma_eps(x, z) outer sigma_eps(x, z) d(nu).

    It is sigma(x) outer sigma(x) times the kernel's second gain moment
    over the full-support node table; one block per row of x.
    """
    x = np.asarray(x, dtype=np.float64)
    return (gain_moment(kernel, x, 2)[..., None, None]
            * _outer(kernel.sigma.fn(x)))


def generator_gap(kernel: JumpKernel, x):
    """max_{k,j} |L_jump - L_diffusion| on the quadratic observables, per row.

    The diffusion is the Brownian arm the kernel approximates, whose
    variation block is sigma(x) outer sigma(x) for the kernel's base map.
    """
    x = np.asarray(x, dtype=np.float64)
    diff = jump_qv_matrix(kernel, x) - _outer(kernel.sigma.fn(x))
    return np.max(np.abs(diff), axis=(-2, -1))
