"""Poisson-random-measure sampling and stream reproducibility."""

import numpy as np
import pytest
from scipy import stats

from snse.kernels import build_jump_kernel, scaled_identity
from snse.measures import (
    alpha_stable_measure, power_magnitude_cdf, power_magnitude_ppf,
)
from snse.sampling import derive_stream, sample_prm, stream_key

NU1 = alpha_stable_measure(1.0)


def _kernel(eps=0.1, family="annulus", measure=NU1):
    return build_jump_kernel(scaled_identity(), family, "one", eps, measure)


class TestStreams:
    def test_keys_injective(self):
        seen = set()
        for arm in ("brownian", "jump"):
            for eps_i in (0, 1, 5):
                for path in (0, 1, 999, 2**20):
                    seen.add(stream_key(42, arm, eps_i, path))
        assert len(seen) == 2 * 3 * 4

    def test_same_key_same_draws(self):
        a = derive_stream(7, "jump", 2, 13).standard_normal(8)
        b = derive_stream(7, "jump", 2, 13).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_stream(7, "jump", 2, 13).standard_normal(8)
        b = derive_stream(7, "jump", 2, 14).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            stream_key(0, "jump", 1 << 16, 0)
        with pytest.raises(ValueError):
            stream_key(0, "jump", 0, 1 << 40)


class TestEventSampling:
    def test_reproducible_event_list(self):
        kern = _kernel()
        ev1 = sample_prm(kern, 1.0, derive_stream(3, "jump", 1, 0))
        ev2 = sample_prm(kern, 1.0, derive_stream(3, "jump", 1, 0))
        assert np.array_equal(ev1.times, ev2.times)
        assert np.array_equal(ev1.marks, ev2.marks)
        assert np.array_equal(ev1.channels, ev2.channels)

    def test_times_sorted_within_horizon(self):
        events = sample_prm(_kernel(), 2.5, derive_stream(5, "jump", 1, 7))
        times = list(events.times)
        assert times == sorted(times)
        assert all(0.0 <= t <= 2.5 for t in times)

    def test_count_mean_matches_activity(self):
        # activity of the annulus family under the alpha=1 measure, eps=0.1
        kern = _kernel(eps=0.1)
        assert kern.channels[0].activity == pytest.approx(18.0)
        counts = [len(sample_prm(kern, 1.0, derive_stream(11, "jump", 0, p)))
                  for p in range(3000)]
        mean = np.mean(counts)
        band = 4.0 * np.sqrt(18.0 / 3000)
        assert abs(mean - 18.0) < band

    def test_marks_inside_sampled_support(self):
        # activity here is ~2e5 per unit time, so keep the horizon tiny
        kern = build_jump_kernel(scaled_identity(), "inner_linear", "one", 0.1, NU1)
        lo, hi = kern.channels[0].sample_range
        events = sample_prm(kern, 0.02, derive_stream(2, "jump", 0, 0))
        marks = events.marks
        assert np.all((np.abs(marks) >= lo) & (np.abs(marks) <= hi))

    def test_mark_magnitude_law(self):
        # inverse-CDF route against the closed-form magnitude CDF
        kern = _kernel(eps=0.05)
        rng = derive_stream(17, "jump", 0, 0)
        marks = []
        for p in range(400):
            marks += list(sample_prm(kern, 1.0, derive_stream(17, "jump", 0, p)).marks)
        mags = np.abs(np.array(marks))
        res = stats.kstest(mags, lambda x: power_magnitude_cdf(-2.0, 0.05, 1.0, x))
        assert res.pvalue > 0.01

    def test_sign_symmetry(self):
        kern = _kernel(eps=0.05)
        marks = []
        for p in range(200):
            marks += list(sample_prm(kern, 1.0, derive_stream(19, "jump", 0, p)).marks)
        frac_neg = np.mean(np.array(marks) < 0)
        assert abs(frac_neg - 0.5) < 4.0 / np.sqrt(len(marks))

    def test_draw_order_replayed_by_hand(self):
        # per channel: count, sorted times, magnitudes, signs; then a stable
        # sort of all channels' atoms by (time, channel)
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", 0.05,
                                 NU1, channels=3)
        atoms = sample_prm(kern, 1.5, derive_stream(29, "jump", 0, 4))
        rng = derive_stream(29, "jump", 0, 4)
        drawn = []
        for c, ch in enumerate(kern.channels):
            count = rng.poisson(ch.activity * 1.5)
            times = np.sort(rng.random(count)) * 1.5
            mags = power_magnitude_ppf(ch.measure.power, *ch.sample_range,
                                       rng.random(count))
            signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
            drawn += [(t, c, s * m) for t, m, s in zip(times, mags, signs)]
        drawn.sort(key=lambda a: (a[0], a[1]))
        assert len(atoms) == len(drawn) > 0
        assert np.array_equal(atoms.times, [a[0] for a in drawn])
        assert np.array_equal(atoms.channels, [a[1] for a in drawn])
        assert np.array_equal(atoms.marks, [a[2] for a in drawn])
