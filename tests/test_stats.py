import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nssfp.errors import InsufficientDataError, UsageError, ValidationError
from nssfp.stats import (ErrorModel, PairwiseDistanceSample, UniquenessModel,
                         error_bound, fit_lognormal, normal_quantile, read_fit_report,
                         smoothed_histogram, uniqueness_radius, write_fit_report)

# Frozen oracle values, computed once at 50-digit precision from the
# complementary error function: z solves Phi(z) = eps.
QUANTILE_ORACLE = {
    0.5: 0.0,
    1e-3: -3.0902323061678135,
    1e-9: -5.9978070150076869,
    1e-18: -8.7572903487823151,
    1e-20: -9.2623400897984076,
}
PHI_AT_MINUS_ONE = 0.15865525393145705


def test_normal_quantile_against_frozen_oracle():
    for eps, z in QUANTILE_ORACLE.items():
        got = normal_quantile(eps)
        if eps == 0.5:
            assert got == 0.0
        else:
            assert got == pytest.approx(z, rel=1e-12)


def test_normal_quantile_inverts_cdf():
    for eps in (0.5, 1e-3, 1e-9, 1e-18):
        z = normal_quantile(eps)
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        assert cdf == pytest.approx(eps, rel=1e-9)


def test_normal_quantile_near_minus_one():
    assert normal_quantile(PHI_AT_MINUS_ONE) == pytest.approx(-1.0, rel=1e-10)


def test_normal_quantile_domain():
    for bad in (0.0, -1e-3, 0.6, 1.0):
        with pytest.raises(UsageError):
            normal_quantile(bad)


def test_fit_lognormal_two_point():
    # 15 copies each of e and e^3: log mean 2, population log std 1
    log_mu, log_sigma = fit_lognormal([math.e] * 15 + [math.e ** 3] * 15)
    assert log_mu == pytest.approx(2.0)
    assert log_sigma == pytest.approx(1.0)  # population convention


def test_fit_lognormal_recovers_parameters(rng):
    samples = rng.lognormal(mean=2.0, sigma=0.5, size=100_000)
    log_mu, log_sigma = fit_lognormal(samples)
    assert log_mu == pytest.approx(2.0, rel=0.02)
    assert log_sigma == pytest.approx(0.5, rel=0.02)


def test_fit_lognormal_errors():
    with pytest.raises(InsufficientDataError):
        fit_lognormal([1.0] * 29)
    with pytest.raises(ValidationError):
        fit_lognormal([1.0] * 29 + [0.0])


def test_uniqueness_radius_closed_form(rng):
    samples = rng.lognormal(mean=11.0, sigma=0.2, size=50_000)
    model = uniqueness_radius(PairwiseDistanceSample(1000, samples), eps=1e-18)
    expected = math.exp(model.log_mu + model.log_sigma * normal_quantile(1e-18))
    assert model.radius == expected
    # roughly where the synthetic parameters put it
    assert model.radius == pytest.approx(math.exp(11.0 + 0.2 * -8.7572903487823151), rel=0.05)


def test_uniqueness_radius_median_at_half():
    samples = np.exp(np.linspace(1.0, 3.0, 200))
    model = uniqueness_radius(PairwiseDistanceSample(10, samples), eps=0.5)
    assert model.radius == pytest.approx(math.exp(model.log_mu))


def test_degenerate_fit_rejected():
    equal = np.full(100, math.e)
    with pytest.raises(ValidationError):
        uniqueness_radius(PairwiseDistanceSample(10, equal), eps=1e-6)


def test_uniqueness_radius_refuses_eps_before_the_fit():
    # 5 distances are too few to fit; the eps error comes first
    with pytest.raises(UsageError, match=r"eps must be in \(0, 0.5\], got 0"):
        uniqueness_radius(PairwiseDistanceSample(10, np.arange(1.0, 6.0)), eps=0)


def test_distance_sample_validation():
    with pytest.raises(ValidationError):
        PairwiseDistanceSample(10, np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        PairwiseDistanceSample(10, np.array([]))


def test_error_bound_examples(rng):
    uniq = UniquenessModel(length=10, log_mu=10.0, log_sigma=0.5,
                           epsilon=1e-6, radius=5000.0)
    model = error_bound(np.full(40, 7.0), uniq)
    assert model.mean == 7.0 and model.std == 0.0 and model.bound == 7.0
    assert model.tau == pytest.approx(4993.0)
    assert model.matchable

    draws = rng.normal(100, 5, size=10_000)
    model = error_bound(draws, uniq)
    assert model.bound == pytest.approx(150.0, rel=0.02)

    with pytest.raises(InsufficientDataError):
        error_bound(np.ones(5), uniq)


def test_error_bound_flags_non_matchable():
    uniq = UniquenessModel(length=10, log_mu=2.0, log_sigma=0.5,
                           epsilon=1e-6, radius=5.0)
    model = error_bound(np.full(50, 7.0), uniq)
    assert model.tau < 0 and not model.matchable


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 10**6), eps=st.floats(1e-300, 0.5), log_mu=_finite,
       log_sigma=st.floats(0.0, 1e300, exclude_min=True), radius=_finite,
       errors=st.none() | st.tuples(_finite, _finite, _finite, _finite),
       header=st.lists(st.text(st.characters(blacklist_categories=("Cs", "Cc"))),
                       max_size=3))
def test_fit_report_roundtrip(tmp_path, n, eps, log_mu, log_sigma, radius, errors, header):
    uniq = UniquenessModel(length=n, log_mu=log_mu, log_sigma=log_sigma, epsilon=eps,
                           radius=radius)
    err = None
    if errors is not None:
        mean, std, bound, tau = errors
        err = ErrorModel(length=n, mean=mean, std=std, bound=bound, tau=tau)
    path = tmp_path / "fit.csv"
    write_fit_report(path, uniq, err, header_lines=header)
    assert read_fit_report(path) == (uniq, err)


def test_uniqueness_stability_on_halves(rng):
    samples = rng.lognormal(mean=11.5, sigma=0.1, size=20_000)
    idx = rng.permutation(samples.size)
    half1 = samples[idx[: samples.size // 2]]
    half2 = samples[idx[samples.size // 2:]]
    u1 = uniqueness_radius(PairwiseDistanceSample(100, half1), eps=1e-6).radius
    u2 = uniqueness_radius(PairwiseDistanceSample(100, half2), eps=1e-6).radius
    assert abs(u1 - u2) / max(u1, u2) < 0.05


def test_smoothed_histogram_degenerate_and_flat(rng):
    hist = smoothed_histogram(np.full(100, 3.0), buckets=21, window=11)
    assert len(hist) == 21
    occupied = [i for i, (_, d) in enumerate(hist) if d > 0]
    # smoothing spreads the single occupied bucket across the window
    assert len(occupied) == 11

    flat = smoothed_histogram(rng.uniform(0, 1, 200_000), buckets=50, window=11)
    densities = np.array([d for _, d in flat])
    inner = densities[5:-5]  # edges are truncated averages
    assert inner.std() / inner.mean() < 0.05


def test_smoothed_histogram_lognormal_peak(rng):
    samples = rng.lognormal(mean=11.5, sigma=0.1, size=10_000)
    hist = smoothed_histogram(samples, buckets=80, window=11)
    centers = np.array([c for c, _ in hist])
    densities = np.array([d for _, d in hist])
    peak = centers[int(np.argmax(densities))]
    assert peak == pytest.approx(math.exp(11.5), rel=0.05)


def _smoothed_histogram_loop(samples, buckets, window):
    """The smoothed densities one bucket at a time: the oracle of the
    sliding-window mean in ``smoothed_histogram``."""
    samples = np.asarray(samples, dtype=np.float64)
    lo, hi = float(samples.min()), float(samples.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(samples, bins=buckets, range=(lo, hi))
    density = counts / (samples.size * (edges[1] - edges[0]))
    half = window // 2
    smoothed = np.empty(buckets)
    for i in range(buckets):
        a, b = max(0, i - half), min(buckets, i + half + 1)
        smoothed[i] = density[a:b].mean()
    return smoothed


def _assert_histogram_is_the_loop(samples, buckets, window):
    try:
        want = _smoothed_histogram_loop(samples, buckets, window)
    except ValueError:  # numpy cannot make distinct bucket edges over the range
        with pytest.raises(UsageError, match="too narrow"):
            smoothed_histogram(samples, buckets, window)
        return
    got = np.array([d for _, d in smoothed_histogram(samples, buckets, window)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=150, deadline=None)
@example(samples=[1000000.0, 999999.9999999999], half=0, extra=1)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
       st.integers(0, 20), st.integers(0, 300))
def test_smoothed_histogram_equals_the_bucket_loop(samples, half, extra):
    _assert_histogram_is_the_loop(samples, 2 * half + 1 + extra, 2 * half + 1)


@pytest.mark.parametrize("buckets, window", [(4097, 4097), (7000, 4097), (5000, 1025),
                                             (6999, 129)])
def test_smoothed_histogram_equals_the_bucket_loop_at_wide_windows(rng, buckets, window):
    _assert_histogram_is_the_loop(rng.lognormal(0.0, 1.0, 3000), buckets, window)


def test_smoothed_histogram_errors():
    with pytest.raises(UsageError):
        smoothed_histogram([1.0, 2.0], buckets=5, window=11)
    with pytest.raises(UsageError):
        smoothed_histogram([1.0, 2.0], buckets=20, window=10)
    with pytest.raises(UsageError):
        smoothed_histogram([], buckets=20, window=11)
    with pytest.raises(UsageError, match="too narrow"):
        smoothed_histogram([1e6, np.nextafter(1e6, 0.0)], buckets=2, window=1)
    with pytest.raises(UsageError, match="finite"):
        smoothed_histogram([1.0, math.inf], buckets=20, window=11)
    with pytest.raises(UsageError, match="finite"):
        smoothed_histogram([1.0, math.nan], buckets=20, window=11)
