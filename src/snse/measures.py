"""Levy measures on the punctured real line.

A measure is a symmetric power law: density rho(z) = |z|^power on one
symmetric annulus {lo <= |z| <= hi}. Every annulus moment has a closed
form, and the magnitude law of a sampled annulus has a closed-form inverse
CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteMassError


def float_label(x: float) -> str:
    """x in a label or file name: the short :g text when it reads back as
    x, else repr, so two distinct values never share a label."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class LevyMeasure:
    """Support (lo, hi) plus exponent, with density rho(z) = |z|^power on
    {lo <= |z| <= hi}."""

    support: tuple[float, float]
    power: float
    alpha: float | None = None

    def __post_init__(self):
        lo, hi = self.support
        if not 0.0 <= lo < hi:
            raise ValueError(f"bad support annulus ({lo}, {hi})")

    def density(self, z):
        """rho(z): |z|^power on the support, 0 off it."""
        r = np.abs(z)
        lo, hi = self.support
        return np.where((r >= lo) & (r <= hi), r ** self.power, 0.0)

    def label(self) -> str:
        if self.alpha is not None:
            return f"stable:{float_label(self.alpha)}"
        lo, hi = self.support
        return (f"power:{float_label(self.power)}@{float_label(lo)}"
                f":{float_label(hi)}")


def alpha_stable_measure(alpha: float) -> LevyMeasure:
    """The symmetric measure with density |z|^(-1-alpha), alpha in (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("stability index must lie in (0, 2)")
    return LevyMeasure((0.0, math.inf), power=-1.0 - alpha, alpha=alpha)


def power_law_measure(power: float, lo: float = 0.0, hi: float = math.inf) -> LevyMeasure:
    """Density |z|^power restricted to the annulus {lo <= |z| <= hi}."""
    return LevyMeasure((lo, hi), power=power)


def power_primitive(p: float, a: float, b: float) -> float:
    """Integral of r^p over [a, b], 0 <= a < b <= inf, raising on divergence."""
    if a == b:
        return 0.0
    q = p + 1.0
    if b == math.inf:
        if q >= 0.0:
            raise InfiniteMassError(f"r^{p:g} not integrable at infinity")
        return -(a**q) / q
    if a == 0.0:
        if q <= 0.0:
            raise InfiniteMassError(f"r^{p:g} not integrable at zero")
        return b**q / q
    if q == 0.0:
        return math.log(b / a)
    return (b**q - a**q) / q


def moment_mass(measure: LevyMeasure, a: float, b: float, k: int = 0) -> float:
    """Integral of |z|^k over {a <= |z| <= b}, in closed form."""
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= a < b")
    lo, hi = max(measure.support[0], a), min(measure.support[1], b)
    if lo >= hi:
        return 0.0
    return 2.0 * power_primitive(measure.power + k, lo, hi)


def annulus_mass(measure: LevyMeasure, a: float, b: float) -> float:
    """Measure of the annulus {a <= |z| <= b}."""
    return moment_mass(measure, a, b, k=0)


def power_magnitude_ppf(p: float, a: float, b: float, u):
    """Inverse CDF of the magnitude law with density prop. to r^p on [a, b]."""
    u = np.asarray(u, dtype=np.float64)
    q = p + 1.0
    if q == 0.0:
        return a * (b / a) ** u
    aq = a**q
    bq = 0.0 if b == math.inf else b**q
    if b == math.inf and q > 0:
        raise InfiniteMassError("magnitude law not normalizable")
    return (aq + u * (bq - aq)) ** (1.0 / q)
