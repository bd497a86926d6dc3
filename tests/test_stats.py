import numpy as np
import pytest
from scipy import stats as sps

from snse.stats import compare_laws, ks_statistic, ks_threshold, summarize


class TestSummarize:
    def test_known_values(self):
        mean, var, se = summarize([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        assert var == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert se == pytest.approx(np.sqrt(5.0 / 12.0), rel=1e-15)

    def test_single_sample(self):
        assert summarize([7.0]) == (7.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestKs:
    def test_matches_scipy_on_random_pairs(self, rng):
        for _ in range(20):
            a = rng.normal(size=rng.integers(5, 400))
            b = rng.normal(loc=rng.normal(), size=rng.integers(5, 400))
            ref = sps.ks_2samp(a, b, method="asymp").statistic
            assert ks_statistic(a, b) == pytest.approx(ref, abs=1e-12)

    def test_handles_ties(self):
        a = [0.0, 0.0, 1.0, 1.0]
        b = [0.0, 1.0, 1.0, 1.0]
        ref = sps.ks_2samp(a, b, method="asymp").statistic
        assert ks_statistic(a, b) == pytest.approx(ref, abs=1e-15)

    def test_identical_samples_give_zero(self, rng):
        a = rng.normal(size=500)
        assert ks_statistic(a, a) == 0.0

    def test_threshold_constant(self):
        # c(0.01) = sqrt(-ln(0.005)/2) = 1.6276...
        n = m = 10**4
        thr = ks_threshold(n, m)
        c = thr / np.sqrt((n + m) / (n * m))
        assert c == pytest.approx(1.62762361, abs=1e-7)


class TestCompareLaws:
    def test_identical_samples(self, rng):
        a = rng.normal(size=2000)
        cmpv = compare_laws(a, a.copy())
        assert cmpv.mean_gap == 0.0
        assert cmpv.ks_stat == 0.0
        assert cmpv.ks_pass

    def test_shifted_samples_fail(self, rng):
        a = rng.normal(size=2000)
        cmpv = compare_laws(a, a + 10.0)
        assert cmpv.mean_gap == pytest.approx(10.0, abs=1e-12)
        assert cmpv.ks_stat == pytest.approx(1.0)
        assert not cmpv.ks_pass

    def test_joint_se(self):
        a = [0.0, 2.0]
        b = [1.0, 1.0, 1.0]
        _, _, se_a = summarize(a)
        cmpv = compare_laws(a, b)
        assert cmpv.joint_se == pytest.approx(se_a, rel=1e-15)

    def test_degenerate_samples(self):
        cmpv = compare_laws([3.0] * 50, [3.0] * 50)
        assert cmpv.mean_gap == 0.0
        assert cmpv.joint_se == 0.0
        assert cmpv.ks_pass

    def test_rounding_noise_passes_ks(self):
        # deterministic dynamics reached through different step splits can
        # disagree by a few ulps; that must not read as a law discrepancy
        a = np.zeros(200)
        b = np.full(200, 1e-15)
        cmpv = compare_laws(a, b)
        assert cmpv.ks_stat == 1.0
        assert cmpv.ks_pass

    def test_level_calibration_under_null(self):
        # at the 1 percent level at least 95 of 100 null pairs should pass
        passes = 0
        for rep in range(100):
            g = np.random.default_rng(5000 + rep)
            a = g.standard_normal(10**4)
            b = g.standard_normal(10**4)
            passes += compare_laws(a, b).ks_pass
        assert passes >= 95
