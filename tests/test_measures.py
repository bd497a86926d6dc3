"""Levy-measure masses and moments: closed forms vs adaptive quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from snse.errors import InfiniteMassError
from oracles import power_magnitude_cdf
from snse.measures import (
    LevyMeasure, alpha_stable_measure, annulus_mass, moment_mass,
    power_law_measure, power_magnitude_ppf, power_primitive,
)


class TestAnnulusMass:
    def test_frozen_reference_values(self):
        nu1 = alpha_stable_measure(1.0)
        assert annulus_mass(nu1, 0.01, 1.0) == pytest.approx(198.0, rel=1e-12)
        nu_half = alpha_stable_measure(0.5)
        assert annulus_mass(nu_half, 0.25, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_closed_form_vs_quadrature(self):
        for alpha in (0.5, 1.0, 1.5):
            nu = alpha_stable_measure(alpha)
            for a, b in ((0.01, 1.0), (0.1, 2.0), (1.0, math.inf)):
                closed = annulus_mass(nu, a, b)
                ref = 2.0 * quad(lambda r: r**nu.power, a, b, epsabs=1e-13,
                                 epsrel=1e-10)[0]
                assert ref == pytest.approx(closed, rel=1e-8)

    def test_general_formula(self):
        # mass of {a<=|z|<=b} under |z|^(-1-alpha) is 2 (a^-alpha - b^-alpha)/alpha
        for alpha in (0.3, 1.0, 1.7):
            nu = alpha_stable_measure(alpha)
            a, b = 0.05, 0.8
            expect = 2.0 * (a**-alpha - b**-alpha) / alpha
            assert annulus_mass(nu, a, b) == pytest.approx(expect, rel=1e-12)

    def test_divergence_detected(self):
        with pytest.raises(InfiniteMassError):
            annulus_mass(alpha_stable_measure(0.5), 0.0, 1.0)
        with pytest.raises(InfiniteMassError):
            moment_mass(power_law_measure(-0.5, 1.0, math.inf), 1.0, math.inf, k=2)

    def test_heavy_tail_still_integrable(self):
        # |z|^-2 over {|z|>=1} integrates to 2
        assert annulus_mass(alpha_stable_measure(1.0), 1.0, math.inf) == pytest.approx(2.0)


class TestMoments:
    def test_second_moment_closed_forms(self):
        nu1 = alpha_stable_measure(1.0)
        # int z^2 |z|^-2 over {0<|z|<=eps} = 2 eps
        for eps in (0.2, 0.1, 0.05):
            assert moment_mass(nu1, 0.0, eps, k=2) == pytest.approx(2.0 * eps, rel=1e-12)
        # int z^2 |z|^-2 over {1<=|z|<=1/eps} = 2 (1/eps - 1)
        for eps in (0.2, 0.1):
            expect = 2.0 * (1.0 / eps - 1.0)
            assert moment_mass(nu1, 1.0, 1.0 / eps, k=2) == pytest.approx(expect, rel=1e-12)

    def test_outer_second_moment_general_alpha(self):
        for alpha, eps in ((0.5, 0.1), (1.5, 0.05)):
            nu = alpha_stable_measure(alpha)
            expect = 2.0 * (eps ** (alpha - 2.0) - 1.0) / (2.0 - alpha)
            assert moment_mass(nu, 1.0, 1.0 / eps, k=2) == pytest.approx(expect, rel=1e-12)

    def test_tail_measure_moment(self):
        beta = 0.5
        nu = power_law_measure(beta - 1.0, 1.0, math.inf)
        eps = 0.1
        expect = 2.0 * (eps ** (-2.0 - beta) - 1.0) / (2.0 + beta)
        assert moment_mass(nu, 1.0, 1.0 / eps, k=2) == pytest.approx(expect, rel=1e-12)


class TestValidation:
    def test_alpha_range(self):
        for bad in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                alpha_stable_measure(bad)

    def test_support_shape(self):
        with pytest.raises(ValueError):
            LevyMeasure((1.0, 0.5), power=0.0)


class TestMagnitudeLaw:
    def test_ppf_cdf_roundtrip(self):
        u = np.linspace(0.001, 0.999, 200)
        for p, a, b in ((-2.0, 0.1, 1.0), (-1.0, 0.2, 2.0), (-0.5, 1.0, 10.0)):
            x = power_magnitude_ppf(p, a, b, u)
            assert np.all((x >= a) & (x <= b))
            assert np.allclose(power_magnitude_cdf(p, a, b, x), u, atol=1e-12)

    def test_primitive_examples(self):
        assert power_primitive(-2.0, 0.01, 1.0) == pytest.approx(99.0)
        assert power_primitive(-1.0, 0.1, 1.0) == pytest.approx(math.log(10.0))
