"""Poisson-random-measure sampling and stream reproducibility."""

import numpy as np
import pytest
from scipy import stats

from snse.kernels import build_jump_kernel, scaled_identity
from oracles import power_magnitude_cdf
from snse.measures import alpha_stable_measure, power_magnitude_ppf
from snse.sampling import (ARM_CODES, PathStreams, derive_stream,
                           sample_prm, sample_prm_paths, stream_key)

NU1 = alpha_stable_measure(1.0)


def _kernel(eps=0.1, family="annulus", measure=NU1):
    return build_jump_kernel(scaled_identity(), family, "one", eps, measure)


class TestStreams:
    def test_keys_injective(self):
        # every field at its range ends: the fields fill disjoint bits, so
        # no two runs of an experiment share a stream
        seen = set()
        for arm in sorted(ARM_CODES):
            for eps_i in (0, 1, 2**16 - 1):
                for path in (0, 1, 2**40 - 1):
                    for seed in (0, 2**64 - 1):
                        seen.add(stream_key(seed, arm, eps_i, path))
        assert len(seen) == 3 * 3 * 3 * 2

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
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                stream_key(seed, "jump", 0, 0)


class TestPathStreams:
    """One re-keyed generator draws what a fresh generator per path draws."""

    PATHS = (0, 1, 2**40 - 1)

    @staticmethod
    def _draws(rng):
        return (rng.standard_normal((7, 3)), rng.poisson(18.0, size=5),
                rng.random(3 * 11))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("arm", sorted(ARM_CODES))
    def test_matches_derive_stream(self, arm, seed):
        for p, g in zip(self.PATHS, PathStreams(seed, arm, 3, self.PATHS)):
            ref = self._draws(derive_stream(seed, arm, 3, p))
            for got, want in zip(self._draws(g), ref):
                assert np.array_equal(got, want)

    def test_partly_used_stream_leaves_no_trace(self):
        # each path leaves half a 64-bit word buffered and its Philox block
        # partly used; the next path starts clean all the same
        for p, g in enumerate(PathStreams(5, "jump", 1, range(4))):
            ref = derive_stream(5, "jump", 1, p)
            for got, want in zip(self._draws(g), self._draws(ref)):
                assert np.array_equal(got, want)
            g.integers(0, 7, size=p + 1, dtype=np.uint32)

    def test_one_generator(self):
        streams = PathStreams(1, "brownian", 0, range(10, 13))
        assert len(streams) == 3
        assert all(g is streams.generator for g in streams)


class TestChunkSampler:
    """sample_prm_paths against one sample_prm call per path, stacked."""

    @staticmethod
    def _check(kern, horizon, n_paths, seed=23):
        def streams():
            return [derive_stream(seed, "jump", 0, p) for p in range(n_paths)]
        atoms, counts = sample_prm_paths(kern, horizon, streams())
        one = [sample_prm(kern, horizon, g) for g in streams()]
        assert np.array_equal(counts, [len(a) for a in one])
        for name in ("times", "marks"):
            want = np.concatenate([getattr(a, name) for a in one])
            got = getattr(atoms, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name
        return counts

    def test_one_channel_annulus(self):
        counts = self._check(_kernel(eps=0.05), 1.0, 40)
        assert counts.min() > 0

    def test_inner_linear_cutoff(self):
        kern = build_jump_kernel(scaled_identity(), "inner_linear", "cosine",
                                 0.1, NU1)
        assert kern.cutoff_delta > 0.0
        counts = self._check(kern, 2e-3, 12)
        assert counts.min() > 0

    def test_paths_without_atoms(self):
        # activity 2 (1/0.5 - 1) = 2 per unit time: over 0.2, most paths
        # draw nothing
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", 0.5,
                                 NU1)
        counts = self._check(kern, 0.2, 40)
        assert (counts == 0).any() and (counts > 0).any()
        atoms, counts = sample_prm_paths(kern, 0.2, [])
        assert len(atoms) == 0 and counts.size == 0

    @pytest.mark.parametrize("eps, horizon, n_paths", [
        (0.05, 1.0, 40),    # about 38 atoms per path
        (0.5, 0.2, 40),     # most paths without atoms
        (0.9, 0.01, 5),     # no atom on any path
        (0.05, 1.0, 1),     # a single path
    ])
    def test_time_sort_matches_lexsort(self, eps, horizon, n_paths):
        # the padded per-path sort gives the times of the former
        # lexsort over (path, time), bit for bit
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", eps,
                                 NU1)
        streams = [derive_stream(31, "jump", 0, p) for p in range(n_paths)]
        atoms, counts = sample_prm_paths(kern, horizon, streams)
        ut, path = [np.empty(0)], [np.empty(0, dtype=int)]
        for p in range(n_paths):
            g = derive_stream(31, "jump", 0, p)
            count = int(g.poisson(kern.activity * horizon))
            ut.append(g.random(3 * count)[:count])
            path.append(np.full(count, p))
        ut, path = np.concatenate(ut), np.concatenate(path)
        assert np.array_equal(atoms.times,
                              ut[np.lexsort((ut, path))] * horizon)
        if eps == 0.9:
            assert counts.sum() == 0
        if eps == 0.5:
            assert (counts == 0).any() and (counts > 1).any()


class TestEventSampling:
    def test_reproducible_event_list(self):
        kern = _kernel()
        ev1 = sample_prm(kern, 1.0, derive_stream(3, "jump", 1, 0))
        ev2 = sample_prm(kern, 1.0, derive_stream(3, "jump", 1, 0))
        assert np.array_equal(ev1.times, ev2.times)
        assert np.array_equal(ev1.marks, ev2.marks)

    def test_times_sorted_within_horizon(self):
        events = sample_prm(_kernel(), 2.5, derive_stream(5, "jump", 1, 7))
        times = list(events.times)
        assert times == sorted(times)
        assert all(0.0 <= t <= 2.5 for t in times)

    def test_count_mean_matches_activity(self):
        # activity of the annulus family under the alpha=1 measure, eps=0.1
        kern = _kernel(eps=0.1)
        assert kern.activity == pytest.approx(18.0)
        counts = [len(sample_prm(kern, 1.0, derive_stream(11, "jump", 0, p)))
                  for p in range(3000)]
        mean = np.mean(counts)
        band = 4.0 * np.sqrt(18.0 / 3000)
        assert abs(mean - 18.0) < band

    def test_marks_inside_sampled_support(self):
        # activity here is ~2e5 per unit time, so keep the horizon tiny
        kern = build_jump_kernel(scaled_identity(), "inner_linear", "one", 0.1, NU1)
        lo, hi = kern.sample_range
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
        # count, sorted times, magnitudes, signs
        kern = build_jump_kernel(scaled_identity(), "annulus", "one", 0.05,
                                 NU1)
        atoms = sample_prm(kern, 1.5, derive_stream(29, "jump", 0, 4))
        rng = derive_stream(29, "jump", 0, 4)
        count = rng.poisson(kern.activity * 1.5)
        times = np.sort(rng.random(count)) * 1.5
        mags = power_magnitude_ppf(kern.measure.power, *kern.sample_range,
                                   rng.random(count))
        signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        assert len(atoms) == count > 0
        assert np.array_equal(atoms.times, times)
        assert np.array_equal(atoms.marks, signs * mags)
