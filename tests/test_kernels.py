"""Jump-kernel construction: normalization, sup values, compensator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from oracles import (
    diagonal_map, random_field, reference_compensator, reference_l2_diff,
    reference_l2_mass, reference_l4_mass, reference_moment_half,
    reference_qv_matrix, reference_v2_mass,
)
from snse.basis import get_basis
from snse.errors import InadmissibleKernelError
from snse.generators import generator_gap, jump_qv_matrix
from snse.hypotheses import (brownian_l2_mass, jump_l2_diff, jump_l2_mass,
                             jump_l4_mass, jump_v2_mass)
from snse.kernels import (
    HKernel, ThetaKernel, _node_rule, _saturating_series, build_h,
    build_jump_kernel, build_theta,
    compensator_drift, constant_field, eval_sigma_eps, gain_moment,
    h_norm_check, make_kernel, row_dot, saturating,
    scaled_identity, sup_jump_size, zero_map,
)
from snse.measures import alpha_stable_measure, moment_mass, power_law_measure

NU1 = alpha_stable_measure(1.0)
GRID5 = (0.2, 0.1, 0.05, 0.02, 0.01)
GAIN_DIM = 6
BUILTIN_MAPS = (scaled_identity(0.7), saturating(0.5),
                diagonal_map(np.linspace(-1.0, 2.0, GAIN_DIM)),
                constant_field(0.5 * np.eye(GAIN_DIM)[1]), zero_map())


def _sup_h(h):
    """sup |h|, attained at the support's upper end by every built-in
    profile; checked against a grid over the support."""
    lo, hi = h.support
    sup = abs(float(h.fn(hi)))
    assert np.max(np.abs(h.fn(np.linspace(lo, hi, 1001)))) <= sup
    return sup


class TestThetaFamilies:
    def test_declared_sups_on_grid(self):
        z = np.linspace(-50.0, 50.0, 100_001)
        # closed-form sup |theta - 1| and sup |theta| of each family
        sups = {"one": lambda e: (0.0, 1.0),
                "cosine": lambda e: (e, 1.0 + e),
                "gaussian_dip": lambda e: (e / math.sqrt(2.0 * math.pi), 1.0)}
        for family, sup in sups.items():
            for eps in (0.2, 0.05):
                th = build_theta(family, eps)
                sup_dev, sup_abs = sup(eps)
                dev = np.max(np.abs(th.fn(z) - 1.0))
                assert dev <= sup_dev + 1e-12
                assert np.max(np.abs(th.fn(z))) <= sup_abs + 1e-12
                assert sup_dev <= eps  # uniform closeness to 1

    def test_cosine_attains_eps(self):
        th = build_theta("cosine", 0.1)
        assert float(th.fn(0.0)) == pytest.approx(1.1)

    def test_gaussian_dip_value(self):
        th = build_theta("gaussian_dip", 0.2)
        assert float(th.fn(0.0)) == pytest.approx(1.0 - 0.2 / math.sqrt(2 * math.pi))

    def test_epsilon_range_enforced(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                build_theta("one", bad)


class TestHFamilies:
    def test_annulus_frozen_sup(self):
        h = build_h("annulus", 0.01, NU1)
        assert h.scale**2 == pytest.approx(198.0, rel=1e-12)
        assert _sup_h(h) == pytest.approx(198.0**-0.5, rel=1e-12)
        assert _sup_h(h) == pytest.approx(0.07106690545187014, rel=1e-9)

    def test_inner_linear_frozen_sup(self):
        h = build_h("inner_linear", 0.1, NU1)
        assert h.scale**2 == pytest.approx(0.2, rel=1e-12)
        assert _sup_h(h) == pytest.approx(0.1 / math.sqrt(0.2), rel=1e-12)
        assert _sup_h(h) == pytest.approx(0.22360679774997896, rel=1e-9)

    def test_normalization_independent_quadrature(self):
        # direct scipy route, no shared code with the builders
        for family, eps in (("annulus", 0.2), ("annulus", 0.01),
                            ("outer_linear", 0.1), ("inner_linear", 0.05)):
            h = build_h(family, eps, NU1)
            lo, hi = h.support
            val = 2.0 * quad(lambda r: float(h.fn(r)) ** 2 * r**-2,
                             max(lo, 1e-300), hi, epsrel=1e-12)[0]
            assert val == pytest.approx(1.0, abs=1e-8)
            assert h_norm_check(h, NU1) == pytest.approx(1.0, abs=1e-8)

    def test_sup_decreasing_for_decaying_families(self):
        grid = (0.2, 0.1, 0.05, 0.01)
        for alpha in (0.5, 1.0, 1.5):
            nu = alpha_stable_measure(alpha)
            for family in ("annulus", "inner_linear"):
                sups = [_sup_h(build_h(family, e, nu)) for e in grid]
                assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_outer_linear_grows_for_stable_measures(self):
        # the documented failure mode: sup |h| increases as eps shrinks
        for alpha in (0.5, 1.0, 1.5):
            nu = alpha_stable_measure(alpha)
            sups = [_sup_h(build_h("outer_linear", e, nu))
                    for e in (0.2, 0.1, 0.05)]
            assert sups[0] < sups[1] < sups[2]
            for e, s in zip((0.2, 0.1, 0.05), sups):
                closed = math.sqrt((2.0 - alpha) / (2.0 * (e**alpha - e**2)))
                assert s == pytest.approx(closed, rel=1e-12)

    def test_outer_linear_decays_for_tail_measure(self):
        nu = power_law_measure(-0.5, 1.0, math.inf)  # |z|^(beta-1), beta = 0.5
        sups = [_sup_h(build_h("outer_linear", e, nu))
                for e in (0.2, 0.1, 0.05)]
        assert sups[0] > sups[1] > sups[2]

    def test_empty_overlap_rejected(self):
        tail = power_law_measure(-0.5, 1.0, math.inf)
        with pytest.raises(InadmissibleKernelError):
            build_h("annulus", 0.1, tail)

    def test_off_support_is_zero(self):
        h = build_h("annulus", 0.1, NU1)
        assert float(h.fn(0.05)) == 0.0
        assert float(h.fn(1.5)) == 0.0
        assert float(h.fn(-0.5)) == pytest.approx(1.0 / h.scale)


class TestFieldMaps:
    def test_zoo_shapes_and_lipschitz(self, basis2, rng):
        u = rng.standard_normal((3, basis2.dim))
        for fm, lipschitz in ((scaled_identity(0.5), 0.5), (saturating(), 1.0),
                              (zero_map(), 0.0),
                              (diagonal_map(np.linspace(1, 2, basis2.dim)), 2.0),
                              (constant_field(np.eye(basis2.dim)[0]), 0.0)):
            out = fm.fn(u)
            assert out.shape == u.shape
            # empirical Lipschitz ratio never exceeds the map's constant
            v = u + 0.1 * rng.standard_normal(u.shape)
            num = np.linalg.norm(fm.fn(u) - fm.fn(v), axis=-1)
            den = np.linalg.norm(u - v, axis=-1)
            assert np.all(num <= lipschitz * den + 1e-12)

    def test_saturating_bounded(self, basis2, rng):
        fm = saturating()
        u = 100.0 * rng.standard_normal((5, basis2.dim))
        assert np.all(np.linalg.norm(fm.fn(u), axis=-1) < 1.0)

    def test_ball_sup_matches_samples(self, basis2, rng):
        for fm in (scaled_identity(2.0), saturating(0.7),
                   constant_field(0.5 * np.eye(basis2.dim)[1])):
            for radius in (0.5, 3.0):
                best = 0.0
                for _ in range(200):
                    d = rng.standard_normal(basis2.dim)
                    d *= radius / np.linalg.norm(d)
                    best = max(best, float(np.linalg.norm(fm.fn(d))))
                assert best <= fm.ball_sup(radius) + 1e-9
                assert best >= 0.95 * fm.ball_sup(radius) - 1e-9


    @settings(max_examples=300, deadline=None)
    @given(fm=st.sampled_from(BUILTIN_MAPS),
           t=st.floats(1e-3, 3.0), negative=st.booleans(),
           direction=arrays(np.float64, GAIN_DIM, elements=st.floats(-1.0, 1.0)),
           size=st.floats(0.0, 1e6 / math.sqrt(GAIN_DIM)))
    def test_gain_factors_the_map(self, fm, t, negative, direction, size):
        # fn(t u) = gain(t, |u|_H) fn(u) for both signs of t, u = 0 included
        t = -t if negative else t
        u = size * direction
        np.testing.assert_allclose(
            fm.fn(t * u), fm.gain(t, np.linalg.norm(u)) * fm.fn(u),
            rtol=1e-14, atol=1e-300)

    def test_saturating_gain_is_the_closed_form(self, rng):
        # the quotient is built in place; its bits are those of the formula
        gain = saturating(0.5).gain
        t = np.concatenate([[0.0, -0.0, -1.3, 1.0],
                            rng.uniform(-2.0, 2.0, 236)])
        r = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 127)])
        for tt, rr in ((t, r[:, None]), (t, r[:1]), (t, r[5:6]),
                       (t[t <= 0.0], r[:1]), (t[t <= 0.0], r[:, None])):
            closed = tt * (1.0 + rr) / (1.0 + abs(tt) * rr)
            value = gain(tt, rr)
            assert value.shape == closed.shape
            assert np.array_equal(value, closed)


def _assert_matches_oracle(value, ref):
    # relative to the largest reference entry, tolerance fixed beforehand
    value, ref = np.asarray(value), np.asarray(ref)
    scale = np.max(np.abs(ref))
    if scale == 0.0:
        assert np.array_equal(value, ref)
    else:
        assert np.max(np.abs(value - ref)) <= 1e-13 * scale


class TestGainMoments:
    """The gain-moment nu-integrals against sigma evaluated at every node."""

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("theta", ["cosine", "gaussian_dip"])
    @pytest.mark.parametrize("family", ["annulus", "inner_linear",
                                        "outer_linear"])
    @pytest.mark.parametrize("map_name", ["identity", "saturating",
                                          "diagonal", "constant"])
    def test_matches_node_walk(self, basis2, map_name, family, theta, alpha):
        dim = basis2.dim
        sigma = {"identity": scaled_identity(0.7), "saturating": saturating(0.5),
                 "diagonal": diagonal_map(np.linspace(-1.0, 2.0, dim)),
                 "constant": constant_field(0.5 * np.eye(dim)[3])}[map_name]
        kern = build_jump_kernel(sigma, family, theta, 0.05,
                                 alpha_stable_measure(alpha))
        self._check(kern, basis2, odd=family != "annulus",
                    exact=map_name != "saturating")

    @pytest.mark.parametrize("eps", [0.1, 0.02])
    @pytest.mark.parametrize("theta", ["one", "cosine", "gaussian_dip"])
    @pytest.mark.parametrize("family", ["annulus", "inner_linear",
                                        "outer_linear"])
    def test_half_table_is_the_two_sign_sum(self, family, theta, eps):
        # the two-sign sum in sign order, (0 + S+) + S-, with every value at
        # +z and -z taken from the kernel's callables
        kern = build_jump_kernel(saturating(0.5), family, theta, eps, NU1)
        rng = np.random.default_rng(17)
        rows = (rng.standard_normal((9, GAIN_DIM))
                * np.geomspace(0.05, 20.0, 9)[:, None])
        r = np.linalg.norm(rows, axis=-1, keepdims=True)
        z, rule = _node_rule(kern.h, kern.measure)
        (wp, hp, gp), (wm, hm, gm) = (
            (rule * NU1.density(x), kern.h.fn(x),
             kern.sigma.gain(kern.theta.fn(x), r)) for x in (z, -z))
        odd = family != "annulus"
        t = kern.table
        for k in (1, 2, 3, 4):
            plus = row_dot(gp**k, wp * hp**k)
            value = gain_moment(kern, rows, k)
            # numpy's vectorized pow need not be exactly odd or even in its
            # base beyond the square, so from k = 3 the mirror's power is
            # the +z power times parity^k, and the sum with numpy's powers
            # at -z is checked to the last bits only
            hmk = hm**k if k <= 2 else (-1.0 if odd else 1.0) ** k * hp**k
            if theta == "one":
                assert np.array_equal(value,
                                      (0.0 + plus) + row_dot(gm**k, wm * hmk))
            else:
                # the map's closed-form half, added in sign order, and
                # within round-off of the node-gain sum
                half = kern.sigma.moment(t.theta, t.w * t.h**k, k)(rows)
                assert np.array_equal(
                    value, (0.0 + half) + (-1.0 if odd else 1.0) ** k * half)
                ref, scale = reference_moment_half(kern, rows, k)
                assert np.all(np.abs(half - ref) <= 1e-14 * scale)
            two_sign = (0.0 + plus) + row_dot(gm**k, wm * hm**k)
            assert np.all(np.abs(value - two_sign) <= 1e-14 * np.abs(plus))
            if odd and k % 2:
                assert np.all(value == 0.0) and not np.signbit(value).any()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("family", ["annulus", "inner_linear",
                                        "outer_linear"])
    @pytest.mark.parametrize("theta", ["cosine", "gaussian_dip"])
    def test_closed_form_moments(self, theta, family, alpha):
        # every map's moment against the node-gain sum for k = 1..4 and |u|
        # over fourteen decades: exact where the gain is constant in |u|,
        # within 1e-14 of sum_q |a_q gain_q^k| for saturating. The negated
        # theta makes saturating's |theta| differ from theta.
        nu = alpha_stable_measure(alpha)
        h = build_h(family, 0.05, nu)
        base = build_theta(theta, 0.05)
        negated = ThetaKernel("negated", 0.05, lambda z: -base.fn(z))
        rng = np.random.default_rng(41)
        d = rng.standard_normal((57, GAIN_DIM))
        rows = (d / np.linalg.norm(d, axis=1, keepdims=True)
                * np.geomspace(1e-8, 1e6, 57)[:, None])
        bad = np.full((3, GAIN_DIM), 0.5)
        bad[0], bad[1, 2], bad[2, 4] = np.inf, -np.inf, np.nan
        for sigma in BUILTIN_MAPS:
            closed = sigma.name.startswith("saturating")
            for th in (base, negated):
                kern = make_kernel(sigma, th, h, nu)
                t = kern.table
                for k in (1, 2, 3, 4):
                    a = t.w * t.h**k
                    moment = sigma.moment(t.theta, a, k)
                    half = moment(rows)
                    ref, scale = reference_moment_half(kern, rows, k)
                    if closed:
                        assert np.all(np.abs(half - ref) <= 1e-14 * scale)
                    else:
                        assert np.array_equal(half, ref)
                    # rows of non-finite norm: NaN through saturating's
                    # gain, finite where the gain is constant, as the sum
                    with np.errstate(invalid="ignore"):
                        off = moment(bad)
                        ref = reference_moment_half(kern, bad, k)[0]
                    assert np.array_equal(off, ref, equal_nan=True)
                    if closed:
                        assert np.all(np.isnan(off))
                    else:
                        assert np.all(np.isfinite(off))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("family", ["annulus", "inner_linear",
                                        "outer_linear"])
    @pytest.mark.parametrize("theta", ["cosine", "gaussian_dip"])
    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.7, 0.9, 0.99])
    def test_series_at_wide_epsilon(self, eps, theta, family, alpha):
        # saturating's series where theta strays furthest from 1, up to
        # ratio q ~ 0.4: within 1e-14 of sum_q |a_q gain_q^k|. A series in
        # rho = r / (1 + r), centred at |theta| = 1, alternates for
        # theta > 1 and misses this bound.
        nu = alpha_stable_measure(alpha)
        h = build_h(family, eps, nu)
        base = build_theta(theta, eps)
        negated = ThetaKernel("negated", eps, lambda z: -base.fn(z))
        rng = np.random.default_rng(43)
        d = rng.standard_normal((57, GAIN_DIM))
        rows = (d / np.linalg.norm(d, axis=1, keepdims=True)
                * np.geomspace(1e-8, 1e6, 57)[:, None])
        sigma = saturating(0.5)
        for th in (base, negated):
            kern = make_kernel(sigma, th, h, nu)
            t = kern.table
            for k in (1, 2, 3, 4):
                half = sigma.moment(t.theta, t.w * t.h**k, k)(rows)
                ref, scale = reference_moment_half(kern, rows, k)
                assert np.all(np.abs(half - ref) <= 1e-14 * scale)

    @pytest.mark.parametrize("grid, most", [(GRID5, 41),
                                            ((0.3, 0.5, 0.7, 0.9, 0.99), 59)])
    def test_series_terms_meet_the_tail_bound(self, grid, most):
        # J is the least count whose tail bound C(J + k - 1, k - 1) q^J /
        # (1 - q)^k is at most 2^-60, with q = 1 - min |theta| / max |theta|
        # over the nodes that enter the sum
        def bound(j, q, k):
            return math.comb(j + k - 1, k - 1) * q**j / (1.0 - q)**k

        longest = 0
        for alpha in (0.5, 1.0, 1.5):
            nu = alpha_stable_measure(alpha)
            for family in ("annulus", "inner_linear", "outer_linear"):
                for theta in ("cosine", "gaussian_dip"):
                    for eps in grid:
                        t = build_jump_kernel(saturating(0.5), family, theta,
                                              eps, nu).table
                        mag = np.abs(t.theta)
                        q = 1.0 - mag.min() / mag.max()
                        for k in (1, 2, 3, 4):
                            m, c = _saturating_series(t.theta,
                                                      t.w * t.h**k, k)
                            assert m == mag.max()
                            n = len(c)
                            assert bound(n, q, k) <= 2.0**-60
                            assert bound(n - 1, q, k) > 2.0**-60
                            longest = max(longest, n)
        assert longest <= most

    def test_series_one_row_and_non_finite_rows(self):
        # a (dim,) row has the bits of the same row in a stack, for every
        # k, and a row of non-finite norm gives NaN alone as in a stack
        kern = build_jump_kernel(saturating(0.5), "outer_linear", "cosine",
                                 0.2, NU1)
        t = kern.table
        rng = np.random.default_rng(47)
        rows = (rng.standard_normal((9, GAIN_DIM))
                * np.geomspace(1e-3, 1e3, 9)[:, None])
        rows[2, 1], rows[5, 3], rows[7, 0] = np.inf, -np.inf, np.nan
        for k in (1, 2, 3, 4):
            half = kern.sigma.moment(t.theta, t.w * t.h**k, k)
            with np.errstate(invalid="ignore"):
                stack = half(rows)
                alone = [half(x) for x in rows]
            assert all(np.shape(x) == () for x in alone)
            assert np.array_equal(stack, alone, equal_nan=True)
            assert np.isnan(stack[[2, 5, 7]]).all()
            assert np.isfinite(np.delete(stack, [2, 5, 7])).all()

    def test_series_longer_than_the_table_sums_the_nodes(self):
        # |theta| from 0.0125 to 1.01 on the table: the series would need
        # more terms than there are nodes, so the moment sums the nodes'
        # gains, within round-off of the oracle
        h = build_h("annulus", 0.05, NU1)
        steep = ThetaKernel("steep", 0.05,
                            lambda z: 0.01 + np.asarray(z, float) ** 2)
        kern = make_kernel(saturating(0.5), steep, h, NU1)
        t = kern.table
        rows = np.geomspace(1e-8, 1e6, 29)[:, None] * np.eye(GAIN_DIM)[0]
        for k in (1, 2, 3, 4):
            assert _saturating_series(t.theta, t.w * t.h**k, k)[1] is None
            half = kern.sigma.moment(t.theta, t.w * t.h**k, k)(rows)
            ref, scale = reference_moment_half(kern, rows, k)
            assert np.all(np.abs(half - ref) <= 1e-14 * scale)

    @pytest.mark.parametrize("theta", ["one", "cosine", "gaussian_dip"])
    @pytest.mark.parametrize("family", ["annulus", "inner_linear",
                                        "outer_linear"])
    @pytest.mark.parametrize("sigma", [scaled_identity(0.7), saturating(0.5)],
                             ids=["identity", "saturating"])
    def test_l2_diff_near_pairs(self, basis2, sigma, family, theta):
        # the three-scalar form keeps the accuracy of the node-by-node
        # difference as v -> u: error within 1e-14 of |diff| * |sigma(u)|
        kern = build_jump_kernel(sigma, family, theta, 0.05, NU1)
        rng = np.random.default_rng(23)
        rows = (rng.standard_normal((6, basis2.dim))
                * np.geomspace(0.05, 20.0, 6)[:, None] / np.sqrt(basis2.dim))
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            for u in rows:
                v = u + delta * rng.standard_normal(basis2.dim)
                ref = reference_l2_diff(kern, u, v)
                assert ref > 0.0
                err = abs(float(jump_l2_diff(kern, u, v)) - ref)
                assert err <= 1e-14 * math.sqrt(ref * jump_l2_mass(kern, u))

    @staticmethod
    def _check(kern, basis, odd, exact):
        rng = np.random.default_rng(31)
        rows = (rng.standard_normal((128, basis.dim))
                * np.geomspace(0.05, 20.0, 128)[:, None] / np.sqrt(basis.dim))
        u, v = rows[5], rows[90]
        t = kern.table
        for x in (u, rows[:1], rows[:7], rows):
            # k = 1 is the map's own moment, added in sign order; where the
            # gain is constant in |u| it has the bits of a sum over a full,
            # contiguous array of gains, and saturating's closed form is
            # within round-off of that sum
            half = kern.sigma.moment(t.theta, t.w * t.h, 1)(x)
            assert np.array_equal(gain_moment(kern, x, 1),
                                  0.0 + half + t.parity * half)
            if exact:
                r = np.linalg.norm(x, axis=-1, keepdims=True)
                g = np.broadcast_to(kern.sigma.gain(t.theta, r),
                                    r.shape[:-1] + t.theta.shape).copy()
                assert np.array_equal(half, row_dot(g, t.w * t.h))
            else:
                ref, scale = reference_moment_half(kern, x, 1)
                assert np.all(np.abs(half - ref) <= 1e-14 * scale)
            drift = compensator_drift(kern, x)
            if odd:
                # odd profile, even theta: the two signs cancel exactly
                assert np.array_equal(drift, np.zeros_like(x))
            else:
                _assert_matches_oracle(drift, reference_compensator(kern, x))
        eigs = basis.eigenvalues
        for value, ref in (
                (jump_l2_mass(kern, u), reference_l2_mass(kern, u)),
                (jump_l4_mass(kern, u), reference_l4_mass(kern, u)),
                (jump_l2_diff(kern, u, v), reference_l2_diff(kern, u, v)),
                (jump_v2_mass(kern, u, eigs),
                 reference_v2_mass(kern, u, eigs)),
                (jump_qv_matrix(kern, u), reference_qv_matrix(kern, u))):
            _assert_matches_oracle(value, ref)


class TestRowStability:
    """Row-wise helpers give every row the bits of its one-row call."""

    @pytest.mark.parametrize("n_rows", [1, 7, 128])
    def test_row_dot_matches_one_row_products(self, n_rows):
        rng = np.random.default_rng(n_rows)
        a = rng.standard_normal((n_rows, 37)) * np.geomspace(1e-3, 1e3, 37)
        vec = rng.standard_normal(37)
        rows = rng.standard_normal((n_rows, 37))
        assert np.array_equal(row_dot(a, vec),
                              np.array([x @ vec for x in a]))
        assert np.array_equal(row_dot(a, rows),
                              np.array([x @ y for x, y in zip(a, rows)]))
        one = row_dot(a[0], vec)
        assert one.shape == () and one == a[0] @ vec

    @pytest.mark.parametrize("theta", ["one", "cosine", "gaussian_dip"])
    @pytest.mark.parametrize("family", ["annulus", "inner_linear",
                                        "outer_linear"])
    @pytest.mark.parametrize("sigma", [scaled_identity(0.7), saturating(0.5)],
                             ids=["identity", "saturating"])
    def test_stack_equals_row_calls(self, basis2, sigma, family, theta):
        kern = build_jump_kernel(sigma, family, theta, 0.05, NU1)
        eigs = basis2.eigenvalues
        rng = np.random.default_rng(7)
        rows = (rng.standard_normal((40, basis2.dim))
                * np.geomspace(0.05, 20.0, 40)[:, None])
        for fn in (lambda x: jump_l2_mass(kern, x),
                   lambda x: jump_l4_mass(kern, x),
                   lambda x: jump_v2_mass(kern, x, eigs),
                   lambda x: brownian_l2_mass(kern, x),
                   lambda x: jump_qv_matrix(kern, x),
                   lambda x: generator_gap(kern, x)):
            assert np.array_equal(fn(rows), np.stack([fn(x) for x in rows]))
        n_pairs = 43
        rows = (rng.standard_normal((n_pairs, basis2.dim))
                * np.geomspace(0.05, 20.0, n_pairs)[:, None])
        near = rows + 1e-3 * rng.standard_normal(rows.shape)
        assert np.array_equal(jump_l2_diff(kern, rows, near),
                              np.stack([jump_l2_diff(kern, u, v)
                                        for u, v in zip(rows, near)]))

    def test_compensator_independent_of_batch_size(self, basis2):
        kern = build_jump_kernel(saturating(0.5), "annulus", "cosine", 0.05,
                                 NU1)
        rng = np.random.default_rng(9)
        rows = (rng.standard_normal((128, basis2.dim))
                * np.geomspace(0.05, 20.0, 128)[:, None])
        assert np.array_equal(compensator_drift(kern, rows),
                              np.stack([compensator_drift(kern, x)
                                        for x in rows]))


class TestChannels:
    def test_auto_cutoff_closed_form(self):
        # power density: discarded share (delta/eps)^(2-alpha) = budget
        h = build_h("inner_linear", 0.1, NU1)
        kern = make_kernel(scaled_identity(), build_theta("one", 0.1), h, NU1)
        assert kern.cutoff_delta == pytest.approx(0.1 * 1e-4, rel=1e-9)
        discarded = moment_mass(NU1, 0.0, kern.cutoff_delta, k=2) / h.scale**2
        assert discarded <= 1e-4 * 1.0001
        assert kern.sample_range[0] == pytest.approx(1e-5, rel=1e-9)

    def test_activity_value(self):
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", 0.1, NU1)
        assert kern.activity == pytest.approx(18.0, rel=1e-12)

    def test_compensator_annulus_identity(self, basis2):
        # int h dnu = sqrt(mass); with identity sigma the drift is sqrt(198) u
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", 0.01, NU1)
        u = np.zeros(basis2.dim)
        u[0] = 1.0
        drift = compensator_drift(kern, u)
        assert drift[0] == pytest.approx(math.sqrt(198.0), rel=1e-9)
        assert np.allclose(drift[1:], 0.0)
        assert kern.h_integral == pytest.approx(14.071247279470288, rel=1e-9)

    def test_h_integral_closed_form(self):
        # flat annulus profile: the integral of h against nu by direct
        # quadrature; odd profiles integrate to exactly zero
        for alpha in (0.5, 1.0, 1.5):
            nu = alpha_stable_measure(alpha)
            for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
                kern = build_jump_kernel(scaled_identity(), "annulus", "one",
                                         eps, nu)
                ref = 2.0 * quad(lambda r: float(kern.h.fn(r)) * r**nu.power,
                                 eps, 1.0, epsabs=0.0, epsrel=1e-13,
                                 limit=200)[0]
                assert kern.h_integral == pytest.approx(ref, rel=1e-12)
                for family in ("inner_linear", "outer_linear"):
                    odd = build_jump_kernel(scaled_identity(), family, "one",
                                            eps, nu)
                    assert odd.h_integral == 0.0

    def test_node_table_must_hold_h2_mass(self):
        # the table starts at 1e-14 eps, which drops a (1e-14)^(2 - alpha)
        # share of inner_linear's h^2 mass: 1.6e-3 at alpha 1.8
        with pytest.raises(InadmissibleKernelError, match="h\\^2 mass"):
            build_jump_kernel(scaled_identity(), "inner_linear", "one", 0.1,
                              alpha_stable_measure(1.8))
        kern = build_jump_kernel(scaled_identity(), "inner_linear", "one",
                                 0.1, alpha_stable_measure(1.5))
        h = kern.h
        assert abs(h_norm_check(h, alpha_stable_measure(1.5)) - 1.0) <= 1e-4

    def test_node_table_holds_the_plus_half(self):
        for family, parity in (("annulus", 1.0), ("inner_linear", -1.0),
                               ("outer_linear", -1.0)):
            t = build_jump_kernel(scaled_identity(), family, "cosine", 0.1,
                                  NU1).table
            assert t.parity == parity
            for arr in (t.z, t.w, t.h, t.theta):
                assert arr.shape == (240,) and not arr.flags.writeable
            assert np.all(t.z > 0.0)

    def test_asymmetric_theta_refused(self):
        # the one-sign sums need theta(-z) == theta(z) at every node
        eps = 0.1
        odd = ThetaKernel("sine", eps, lambda z: 1.0 + eps * np.sin(z))
        h = build_h("annulus", eps, NU1)
        with pytest.raises(InadmissibleKernelError, match="not symmetric"):
            make_kernel(scaled_identity(), odd, h, NU1)

    def test_theta_epsilon_must_match_h(self):
        # the kernel takes its epsilon from h, so theta must be built at it
        h = build_h("annulus", 0.1, NU1)
        with pytest.raises(ValueError, match="epsilon"):
            make_kernel(scaled_identity(), build_theta("cosine", 0.2), h, NU1)
        kern = make_kernel(scaled_identity(), build_theta("cosine", 0.1), h,
                           NU1)
        assert kern.epsilon == 0.1
        assert kern.channels[0] is kern

    def test_measure_edge_inside_h_support_splits_a_panel(self):
        # the measure's support starts at 0.001, inside inner_linear's
        # support (0, 0.1): a panel edge there keeps the density smooth on
        # every panel, so the table holds the h^2 mass to rounding
        nu = power_law_measure(-1.5, 0.001, 10.0)
        kern = build_jump_kernel(scaled_identity(), "inner_linear", "one", 0.1,
                                 nu)
        assert kern.table.z.shape == (250,)
        assert abs(h_norm_check(kern.h, nu) - 1.0) <= 1e-11

    def test_compensator_zero_for_odd_profiles(self, basis2, rng):
        u = random_field(basis2, rng)
        for family in ("outer_linear", "inner_linear"):
            for theta in ("one", "cosine"):
                kern = build_jump_kernel(scaled_identity(), family, theta, 0.1, NU1)
                drift = compensator_drift(kern, u)
                assert np.max(np.abs(drift)) < 1e-14

    def test_compensator_quad_path_vs_reference(self, basis2):
        # cosine theta forces the node-quadrature path; check one coefficient
        # against direct adaptive quadrature of the full composition
        kern = build_jump_kernel(scaled_identity(0.7), "annulus", "cosine", 0.2, NU1)
        u = np.zeros(basis2.dim)
        u[2] = 1.3
        drift = compensator_drift(kern, u)

        def integrand(r):
            # even in z, so fold equals twice the positive side
            return 2.0 * 0.7 * (1.0 + 0.2 * np.cos(r)) * 1.3 * float(kern.h.fn(r)) * r**-2

        ref = quad(integrand, 0.2, 1.0, epsrel=1e-12)[0]
        assert drift[2] == pytest.approx(ref, rel=1e-8)
        assert np.max(np.abs(np.delete(drift, 2))) < 1e-12

    def test_node_table_is_the_only_kernel_evaluation(self, basis2, rng,
                                                      monkeypatch):
        # once the kernel is built, the nu-integrals read the frozen table
        # and never call h, theta or the density again
        kern = build_jump_kernel(saturating(0.5), "annulus", "cosine", 0.05,
                                 alpha_stable_measure(1.0))
        u = random_field(basis2, rng)
        rows = np.stack([random_field(basis2, rng) for _ in range(3)])

        def values():
            return (compensator_drift(kern, u), compensator_drift(kern, rows),
                    jump_l2_mass(kern, u), jump_qv_matrix(kern, u))

        before = values()

        def refuse(*args):
            raise AssertionError("kernel callable evaluated")

        monkeypatch.setattr(HKernel, "fn", refuse)
        # theta is shared by every kernel of its family key: patch it
        # through its frozen instance dict, which monkeypatch restores
        monkeypatch.setitem(vars(kern.theta), "fn", refuse)
        monkeypatch.setitem(vars(kern.measure), "density", refuse)
        for a, b in zip(before, values()):
            assert np.array_equal(a, b)

    def test_eval_sigma_eps(self, basis2, rng):
        kern = build_jump_kernel(saturating(), "annulus", "cosine", 0.2, NU1)
        u = random_field(basis2, rng)
        out = eval_sigma_eps(kern, u, 0.5)
        tval = 1.0 + 0.2 * math.cos(0.5)
        expect = kern.sigma.fn(tval * u) * float(kern.h.fn(0.5))
        assert np.allclose(out, expect)
        assert np.all(eval_sigma_eps(kern, u, 5.0) == 0.0)
        with pytest.raises(ValueError):
            eval_sigma_eps(kern, u, 0.0)

    def test_eval_sigma_eps_rows(self, basis2, rng):
        # one mark per row, each row equal to its one-mark value; the last
        # mark lies off the h support
        kern = build_jump_kernel(saturating(), "annulus", "cosine", 0.2, NU1)
        rows = np.stack([random_field(basis2, rng) for _ in range(4)])
        marks = np.array([0.5, -0.3, 0.9, 5.0])
        out = eval_sigma_eps(kern, rows, marks)
        assert out.shape == rows.shape
        for r, z in zip(range(4), marks):
            assert np.array_equal(out[r], eval_sigma_eps(kern, rows[r], z))
        assert np.all(out[3] == 0.0)
        with pytest.raises(ValueError):
            eval_sigma_eps(kern, rows, np.array([0.5, 0.0, 0.9, 0.4]))

    def test_sup_jump_size_joint_grid_close_to_closed_form(self):
        # with theta == one the joint sup factorizes exactly
        for family, eps in (("annulus", 0.1), ("inner_linear", 0.05)):
            kern = build_jump_kernel(saturating(), family, "one", eps, NU1)
            joint = sup_jump_size(kern, radius=2.0)
            closed = _sup_h(kern.h) * kern.sigma.ball_sup(2.0)
            assert joint == pytest.approx(closed, rel=1e-6)

    def test_sup_jump_size_reads_the_shared_grid(self, monkeypatch):
        # the kernels of one family key under two maps share |h| and |theta|
        # on the sup grid, read-only; a call evaluates no kernel callable
        # and has the bits of the grid evaluated afresh
        kernels = [build_jump_kernel(m, "inner_linear", "cosine", 0.1, NU1)
                   for m in (scaled_identity(0.5), saturating(0.5))]
        a, b = (kern.table for kern in kernels)
        assert a.sup_h is b.sup_h and a.sup_theta is b.sup_theta
        for arr in (a.sup_h, a.sup_theta):
            assert arr.shape == (4097,) and not arr.flags.writeable
        fresh = []
        for kern in kernels:
            lo, hi = kern.h.support
            z = np.linspace(max(lo, 1e-12 * hi), hi, 4097)
            hv, tv = np.abs(kern.h.fn(z)), np.abs(kern.theta.fn(z))
            fresh.append(float((hv * kern.sigma.ball_sup(tv * 1.0)).max()))

        def refuse(*args):
            raise AssertionError("kernel callable evaluated")

        monkeypatch.setattr(HKernel, "fn", refuse)
        monkeypatch.setitem(vars(kernels[0].theta), "fn", refuse)
        assert [sup_jump_size(kern, 1.0) for kern in kernels] == fresh
