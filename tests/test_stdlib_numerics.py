"""The Zipfian key chooser and the latency summaries run on the standard
library and reproduce what the numpy formulas they replaced computed,
bit for bit: the CDF and draws of :class:`ZipfGenerator`, the
percentiles of :class:`Summary` and the ranks :func:`cdf_points` picks.

The literal pins run everywhere; the comparisons against numpy run only
where numpy is installed."""

import bisect
import random

import pytest

from repro.obs.report import Summary, cdf_points
from repro.workloads.zipf import ZipfGenerator

SIZES = [1, 2, 3, 10, 97, 1000, 4096, 100_000]
THETAS = [0.8, 0.9, 0.99, 1.2]


class TestPins:
    """Values the numpy implementation produced, kept as literals."""

    def test_zipf_first_draws(self):
        gen = ZipfGenerator(1000, seed=7)
        assert [gen.next() for _ in range(32)] == [
            233, 396, 356, 897, 855, 999, 897, 692, 897, 403, 897, 897, 800,
            2, 897, 429, 875, 144, 436, 879, 247, 897, 838, 752, 396, 897,
            471, 545, 396, 11, 639, 771]

    def test_summary_row(self):
        samples = [12.043, 16.409, 51.596, 12.534, 14.179, 17.705, 4.083,
                   14.345, 19.879, 31.498, 1.977, 7.231, 1.901]
        summary = Summary(samples)
        assert summary.row() == {
            "count": 13, "mean": 15.798461538461538, "p50": 14.179,
            "p90": 29.17420000000001, "p95": 39.53719999999997,
            "p99": 49.184239999999974, "max": 51.596}
        assert summary.min == 1.901


class TestAgainstNumpy:
    @pytest.fixture
    def np(self):
        return pytest.importorskip("numpy")

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_zipf_cdf_and_draws(self, np, n, theta):
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        gen = ZipfGenerator(n, theta, seed=n)
        assert gen._cdf == cdf.tolist()

        rng = random.Random(n)
        permutation = list(range(n))
        random.Random(n ^ 0x5bd1e995).shuffle(permutation)
        expected = [permutation[min(int(np.searchsorted(cdf, rng.random())),
                                    n - 1)] for _ in range(1000)]
        assert [gen.next() for _ in range(1000)] == expected

    def test_zipf_bisect_matches_searchsorted(self, np):
        gen = ZipfGenerator(5000, 0.99, seed=1)
        cdf = np.asarray(gen._cdf)
        rng = random.Random(2)
        points = [rng.random() for _ in range(2000)] + gen._cdf[:50]
        for u in points:
            assert bisect.bisect_left(gen._cdf, u) == int(
                np.searchsorted(cdf, u))

    @pytest.mark.parametrize("seed", range(8))
    def test_summary_percentiles(self, np, seed):
        rng = random.Random(seed)
        for _ in range(250):
            scale = rng.choice([1e-3, 1.0, 1e3])
            samples = [rng.expovariate(0.1) * scale
                       for _ in range(rng.randint(1, 300))]
            summary = Summary(samples)
            array = np.asarray(samples, dtype=float)
            for q in (50, 90, 95, 99):
                assert getattr(summary, f"p{q}") == float(
                    np.percentile(array, q))
            assert summary.min == float(array.min())
            assert summary.max == float(array.max())
            assert summary.mean == pytest.approx(float(array.mean()),
                                                 rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_cdf_points(self, np, seed):
        rng = random.Random(seed)
        for _ in range(250):
            samples = [rng.random() for _ in range(rng.randint(1, 2000))]
            points = rng.randint(1, 400)
            array = np.sort(np.asarray(samples, dtype=float))
            n = len(array)
            indices = np.unique(
                np.linspace(0, n - 1, min(points, n)).astype(int))
            expected = [(float(array[i]), float((i + 1) / n))
                        for i in indices]
            assert cdf_points(samples, points) == expected
