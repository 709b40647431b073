import tracemalloc

import numpy as np
import pytest

from homsys import DomainError, GridCDF, from_samples, ks, limit_cdf, limit_density, rescale


def cubic_grid(m=4096, lo=-1.5, hi=1.5) -> GridCDF:
    x = np.linspace(lo, hi, m + 1)
    return GridCDF(lo, hi, limit_cdf("cubic", x))


class TestLimitLaws:
    def test_cubic_values(self):
        assert limit_cdf("cubic", 0.0) == 0.5
        assert limit_cdf("cubic", 1.0) == 1.0
        assert limit_cdf("cubic", -1.0) == 0.0
        assert limit_cdf("cubic", 5.0) == 1.0
        assert limit_cdf("cubic", 0.5) == pytest.approx(0.84375, abs=1e-15)

    def test_linear_half_values(self):
        assert limit_cdf("linear_half", 0.5) == pytest.approx(0.25, abs=1e-15)
        assert limit_cdf("linear_half", -0.2) == 0.0
        assert limit_cdf("linear_half", 2.0) == 1.0

    def test_densities(self):
        assert limit_density("cubic", 0.0) == 0.75
        assert limit_density("cubic", 2.0) == 0.0
        assert limit_density("linear_half", 0.5) == 1.0

    def test_unknown_law(self):
        with pytest.raises(DomainError):
            limit_cdf("gaussian", 0.0)


class TestKS:
    def test_self_distance_zero(self):
        g = cubic_grid()
        assert ks(g, "cubic") < 1e-12

    def test_point_mass_vs_cubic(self):
        d = from_samples([0.0], m=64, pad=1.0)
        assert ks(d, "cubic") == pytest.approx(0.5, abs=1e-12)

    def test_dkw_direct_samples(self):
        # inverse-transform 1e6 cubic samples; DKW: P(D > 0.002) <= 2 exp(-8)
        rng = np.random.default_rng(20240809)
        y = np.linspace(-1, 1, 200_001)
        samples = np.interp(rng.random(1_000_000), limit_cdf("cubic", y), y)
        assert ks(samples, "cubic") < 0.002

    def test_two_sample_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=1000), rng.normal(size=1200)
        assert ks(a, b) == ks(b, a)

    @pytest.mark.parametrize("n", [2, 3, 32768, 32769, 100_000])
    def test_a_sorted_sample_gives_the_bits_of_a_shuffled_one(self, n):
        # only a nondecreasing sample skips the sort: one far-out-of-place value in any block is found
        rng = np.random.default_rng(n)
        s = np.sort(rng.normal(scale=0.4, size=n))
        for ref in ("cubic", cubic_grid()):
            expected = ks(rng.permutation(s), ref)
            assert ks(s, ref) == expected
            for i in {0, n // 2, min(32767, n - 2), min(32768, n - 2), n - 2}:
                moved = s.copy()
                moved[[i, -1]] = moved[[-1, i]]
                assert ks(moved, ref) == expected

    @pytest.mark.parametrize("kind", ["one", "random", "ties", "block_edge", "blocks"])
    def test_one_rank_buffer_gives_the_bits_of_two(self, kind):
        # the whole-array formula, written out; ks runs in blocks of 32768 points
        rng = np.random.default_rng(7)
        s = {"one": np.array([0.1]), "random": rng.normal(scale=0.4, size=1000),
             "ties": rng.integers(-3, 4, size=500) * 0.25, "block_edge": rng.normal(scale=0.4, size=32769),
             "blocks": rng.normal(scale=0.4, size=250_001)}[kind]
        s = np.sort(s)
        n = s.size
        for ref in ("cubic", "linear_half", cubic_grid()):
            cdf = limit_cdf(ref, s) if isinstance(ref, str) else ref(s)
            upper = np.arange(1, n + 1) / n - cdf
            lower = cdf - np.arange(0, n) / n
            assert ks(s, ref) == float(max(upper.max(), lower.max(), 0.0))

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            ks(np.array([]), "cubic")
        with pytest.raises(DomainError):
            ks(cubic_grid(), np.array([]))
        for a, b in ((np.array([]), np.ones(3)), (np.ones(3), np.array([]))):
            with pytest.raises(DomainError, match="empty sample"):
                ks(a, b)

    def test_a_sample_against_a_law_or_a_grid_allocates_block_sized_temporaries(self):
        # a whole-array evaluation peaked at 3 x 8N; blocks of 32768 points leave about six
        # block-sized temporaries (cubic's clip and products), 0.49 x 8N at this N
        n = 400_000
        s = np.sort(np.random.default_rng(3).normal(scale=0.4, size=n))
        peaks = []
        tracemalloc.start()
        try:
            for ref in ("cubic", "linear_half", cubic_grid()):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                ks(s, ref)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 0.6 * 8 * n, [p / (8 * n) for p in peaks]


class TestGridCDF:
    def test_monotone_enforced(self):
        with pytest.raises(DomainError):
            GridCDF(0.0, 1.0, np.array([0.0, 0.6, 0.4, 1.0]))

    def test_end_values_enforced(self):
        with pytest.raises(DomainError):
            GridCDF(0.0, 1.0, np.array([0.0, 0.5, 0.9]))
        with pytest.raises(DomainError):
            GridCDF(0.0, 1.0, np.array([0.1, 0.5, 1.0]))  # does not start at 0

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan), (1.0, 1.0)])
    def test_finite_bounds_enforced(self, lo, hi):
        with pytest.raises(DomainError):
            GridCDF(lo, hi, np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("cdf", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan, 1.0], [np.nan, 1.0]])
    def test_nan_values_rejected(self, cdf):
        with pytest.raises(DomainError):
            GridCDF(0.0, 1.0, np.array(cdf))

    def test_from_samples_step(self):
        d = from_samples([0.0], m=16, pad=0.5)
        assert d(-0.25) == 0.0
        assert d(0.25) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 1000, 40_000])
    def test_from_samples_of_a_sorted_sample_equals_a_shuffled_one(self, n):
        rng = np.random.default_rng(n)
        s = np.sort(rng.normal(size=n))
        expected = from_samples(rng.permutation(s), m=256, pad=0.05)
        for sample in (s, list(s)):
            got = from_samples(sample, m=256, pad=0.05)
            assert (got.lo, got.hi) == (expected.lo, expected.hi)
            assert np.array_equal(got.cdf, expected.cdf)

    def test_quantile_symmetry(self):
        g = cubic_grid()
        assert g.quantile(0.5) == pytest.approx(0.0, abs=g.h)
        assert g.quantile(0.0) == g.lo

    def test_quantile_rescale_identity(self):
        g = cubic_grid()
        r = rescale(g, 2.0)
        for q in (0.1, 0.5, 0.9):
            assert r.quantile(q) == pytest.approx(g.quantile(q) / 2.0, abs=g.h)

    def test_rescale_requires_positive(self):
        with pytest.raises(DomainError):
            rescale(cubic_grid(), -1.0)

    def test_rescale_sorts_a_sample_into_a_new_array(self):
        x = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(rescale(x, 2.0), [-0.5, 0.25, 1.0])
        assert np.array_equal(x, [0.5, -1.0, 2.0])
        with pytest.raises(DomainError):
            rescale(x, 0.0)

    def test_rescale_preserves_ks(self):
        g = cubic_grid()
        other = from_samples(np.linspace(-1, 1, 1001), m=512, pad=0.1)
        base = ks(g, other)
        h_bound = 2.0 * (g.h + other.h)
        assert abs(ks(rescale(g, 3.0), rescale(other, 3.0)) - base) <= h_bound
