"""Quadratic-variation blocks and the generator gap vs closed forms and direct quadrature."""

import numpy as np
from scipy.integrate import quad

from snse.generators import (diffusion_qv_matrix, generator_gap,
                             jump_qv_matrix, matched_noise)
from snse.integrate import BrownianNoiseSpec
from snse.kernels import (build_jump_kernel, constant_field, saturating,
                          scaled_identity)
from snse.measures import alpha_stable_measure

from oracles import random_field

NU1 = alpha_stable_measure(1.0)


def test_diffusion_qv_closed_form(basis2):
    rng = np.random.default_rng(4)
    x = random_field(basis2, rng, norm_h=1.2)
    g1 = rng.standard_normal(basis2.dim)
    g2 = rng.standard_normal(basis2.dim)
    noise = BrownianNoiseSpec((constant_field(g1), constant_field(g2)))
    expect = np.outer(g1, g1) + np.outer(g2, g2)
    assert np.allclose(diffusion_qv_matrix(noise, x), expect, rtol=1e-14)


def test_jump_qv_identity_sigma(basis2):
    # theta == 1: the integral collapses to |h|^2-mass times the outer square
    rng = np.random.default_rng(6)
    x = random_field(basis2, rng, norm_h=0.9)
    kern = build_jump_kernel(scaled_identity(0.7), "annulus", "one", 0.1, NU1)
    q = jump_qv_matrix(kern, x)
    assert np.allclose(q, 0.49 * np.outer(x, x), rtol=1e-8)


def test_jump_qv_cosine_theta_scalar_weight(basis2):
    rng = np.random.default_rng(7)
    x = random_field(basis2, rng, norm_h=0.9)
    eps = 0.2
    kern = build_jump_kernel(scaled_identity(1.0), "annulus", "cosine", eps,
                             NU1)
    ch = kern.channels[0]

    def integrand(z):
        return ((1 + eps * np.cos(z)) ** 2 * float(ch.h.fn(z)) ** 2
                * z ** -2)

    lo, hi = ch.h.support
    w = sum(quad(integrand, lo, hi, epsrel=1e-12)[0] for _ in range(1))
    w *= 2.0  # both signs: cosine and h are even in z
    assert np.allclose(jump_qv_matrix(kern, x), w * np.outer(x, x),
                       rtol=1e-8)


def test_jump_qv_saturating_entrywise_quadrature(basis2):
    rng = np.random.default_rng(9)
    x = random_field(basis2, rng, norm_h=1.5)
    eps = 0.1
    kern = build_jump_kernel(saturating(0.8), "annulus", "cosine", eps, NU1)
    ch = kern.channels[0]
    nx = np.linalg.norm(x)
    q = jump_qv_matrix(kern, x)

    def entry(k, j):
        def integrand(z):
            t = 1 + eps * np.cos(z)
            s = 0.8 / (1.0 + abs(t) * nx)
            return (t * s) ** 2 * x[k] * x[j] * float(ch.h.fn(z)) ** 2 * z ** -2

        lo, hi = ch.h.support
        return 2.0 * quad(integrand, lo, hi, epsrel=1e-12)[0]

    for k, j in [(0, 0), (0, 3), (5, 2)]:
        assert abs(q[k, j] - entry(k, j)) < 1e-7 * (1 + abs(entry(k, j)))


def test_gap_vanishes_for_flat_theta(basis2):
    rng = np.random.default_rng(10)
    x = random_field(basis2, rng, norm_h=2.0)
    kern = build_jump_kernel(saturating(0.9), "annulus", "one", 0.05, NU1)
    gap = generator_gap(kern, matched_noise(kern), x)
    assert gap < 1e-6


def test_gap_decreases_with_epsilon(basis2):
    rng = np.random.default_rng(11)
    x = random_field(basis2, rng, norm_h=1.0)
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        kern = build_jump_kernel(scaled_identity(1.0), "annulus", "cosine",
                                 eps, NU1)
        gaps.append(generator_gap(kern, matched_noise(kern), x))
    assert gaps[0] > gaps[1] > gaps[2] > 0
    # leading term is linear in eps, so a 4x eps drop shrinks the gap ~4x
    assert 0.15 < gaps[2] / gaps[0] < 0.35

