"""Distribution fits behind the matching threshold.

Pairwise fingerprint distances get a log-normal fit whose extreme lower
quantile is the uniqueness radius U(N); measurement errors get a normal
fit whose mean + 10 sigma is the error bound d(N); the matching threshold
is tau_N = U(N) - d(N).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (InsufficientDataError, ParseError, UsageError, ValidationError,
                     parse_field, read_records, write_records)

DEFAULT_EPSILON = 1e-18
ERROR_BOUND_SIGMAS = 10.0
MIN_FIT_SAMPLES = 30
# at this many buckets a histogram takes 0.3 s on a 2-vCPU Xeon and its (center,
# density) pairs about 110 MB; report --distances writes them all
MAX_HISTOGRAM_BUCKETS = 10**6


@dataclass(frozen=True)
class PairwiseDistanceSample:
    """Distances between variable fingerprints and all non-similar peers."""

    length: int
    distances: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        object.__setattr__(self, "distances", d)
        if d.size == 0:
            raise ValidationError("empty distance sample")
        if np.any(d <= 0):
            raise ValidationError("distances must be positive; exclude similar pairs upstream")

    @classmethod
    def from_records(cls, length: int, records) -> "PairwiseDistanceSample":
        """The sample of the distances d in ``(id_i, id_j, d)`` records."""
        return cls(length, np.array([d for _, _, d in records]))


@dataclass(frozen=True)
class UniquenessModel:
    """Log-normal fit of pairwise distances and the derived radius U(N)."""

    length: int
    log_mu: float
    log_sigma: float
    epsilon: float
    radius: float

    def __post_init__(self):
        if self.log_sigma <= 0:
            raise ValidationError(
                "degenerate distance fit (log_sigma == 0); upstream pipeline is broken")


@dataclass(frozen=True)
class ErrorModel:
    """Normal fit of measurement errors, the bound d(N), and tau_N; only a
    positive tau can match."""

    length: int
    mean: float
    std: float
    bound: float
    tau: float

    @property
    def matchable(self) -> bool:
        return self.tau > 0


def smoothed_histogram(samples, buckets: int, window: int = 11) -> np.ndarray:
    """Equal-width histogram densities averaged over a centered bucket window:
    one row ``(bucket center, smoothed density)`` per bucket.

    The window must be odd so the average is centered; at the edges it is
    truncated to the available buckets. There are at most
    ``MAX_HISTOGRAM_BUCKETS`` buckets, and the samples must be finite and
    span a range wide enough for distinct bucket edges.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise UsageError("no samples to histogram")
    if window < 1 or window % 2 == 0:
        raise UsageError(f"window must be odd and positive, got {window}")
    if buckets < window:
        raise UsageError(f"need at least window={window} buckets, got {buckets}")
    if buckets > MAX_HISTOGRAM_BUCKETS:
        raise UsageError(f"buckets must be at most {MAX_HISTOGRAM_BUCKETS}, got {buckets}")
    lo, hi = float(samples.min()), float(samples.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("samples to histogram must be finite")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    try:
        counts, edges = np.histogram(samples, bins=buckets, range=(lo, hi))
    except ValueError as err:  # adjacent bucket edges round to the same float
        raise UsageError(f"samples span [{lo!r}, {hi!r}], too narrow a range "
                         f"for {buckets} distinct buckets") from err
    width = edges[1] - edges[0]
    density = counts / (samples.size * width)
    half = window // 2
    centers = (edges[:-1] + edges[1:]) / 2.0
    smoothed = np.empty(buckets)
    smoothed[half:buckets - half] = sliding_window_view(density, window).mean(axis=1)
    for i in (*range(half), *range(buckets - half, buckets)):  # the truncated edges
        smoothed[i] = density[max(0, i - half):i + half + 1].mean()
    return np.column_stack((centers, smoothed))


def fit_lognormal(samples) -> tuple[float, float]:
    """Maximum-likelihood log-normal fit: mean and population std of the logs."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_SAMPLES} samples for a log-normal fit, got {samples.size}")
    if np.any(samples <= 0):
        raise ValidationError("log-normal fit requires strictly positive samples")
    logs = np.log(samples)
    return float(logs.mean()), float(logs.std())


# Rational tail approximation for the initial guess (classic Hastings form),
# then Newton on Phi(z) - eps with Phi evaluated through erfc. The ratio
# (Phi - eps) / phi stays well-conditioned arbitrarily deep into the tail.
_C = (2.515517, 0.802853, 0.010328)
_D = (1.432788, 0.189269, 0.001308)
_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _phi_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT2PI


def normal_quantile(eps: float) -> float:
    """z such that the standard normal CDF at z equals eps, for eps in (0, 0.5].

    Accurate to better than 1e-10 relative down to eps = 1e-20, far past
    where table-based approximations give up.
    """
    if not 0.0 < eps <= 0.5:
        raise UsageError(f"eps must be in (0, 0.5], got {eps}")
    if eps == 0.5:
        return 0.0
    t = math.sqrt(-2.0 * math.log(eps))
    num = _C[0] + t * (_C[1] + t * _C[2])
    den = 1.0 + t * (_D[0] + t * (_D[1] + t * _D[2]))
    z = -(t - num / den)
    for _ in range(40):
        step = (_phi_cdf(z) - eps) / _phi_pdf(z)
        z -= step
        if abs(step) <= 1e-14 * abs(z):
            break
    return z


def uniqueness_radius(sample: PairwiseDistanceSample,
                      eps: float = DEFAULT_EPSILON) -> UniquenessModel:
    """Fit the distances and place U(N) at the eps-quantile of the fit.

    With eps at its default of 1e-18, the probability that a non-similar
    fingerprint falls inside the radius is negligible.
    """
    if not 0.0 < eps <= 0.5:
        raise UsageError(f"eps must be in (0, 0.5], got {eps}")
    log_mu, log_sigma = fit_lognormal(sample.distances)
    radius = math.exp(log_mu + log_sigma * normal_quantile(eps))
    return UniquenessModel(length=sample.length, log_mu=log_mu, log_sigma=log_sigma,
                           epsilon=eps, radius=radius)


def error_bound(errors, uniqueness: UniquenessModel) -> ErrorModel:
    """Normal fit of measurement errors; d(N) = mean + 10 std, tau = U - d.

    A non-positive tau flags the channel/corpus combination as
    non-matchable instead of raising: the caller decides what to do.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_SAMPLES} error samples, got {errors.size}")
    if np.any(errors < 0):
        raise ValidationError("errors are norms and must be non-negative")
    mean = float(errors.mean())
    std = float(errors.std())
    bound = mean + ERROR_BOUND_SIGMAS * std
    tau = uniqueness.radius - bound
    return ErrorModel(length=uniqueness.length, mean=mean, std=std, bound=bound, tau=tau)


FIT_HEADER = "#fit v2"
_FIT_COLUMNS = "N,epsilon,log_mu,log_sigma,U,mean,std,d,tau"


def write_fit_report(path, uniq: UniquenessModel, err: ErrorModel | None, header_lines=()):
    """Both models in one CSV record; mean, std, d and tau are nan if ``err`` is None."""
    e = (err.mean, err.std, err.bound, err.tau) if err else (math.nan,) * 4
    values = (uniq.epsilon, uniq.log_mu, uniq.log_sigma, uniq.radius) + e
    write_records(path, (_FIT_COLUMNS, f"{uniq.length},{','.join(map(repr, values))}"),
                  FIT_HEADER, header_lines)


def read_fit_report(path) -> tuple[UniquenessModel, ErrorModel | None]:
    """The models :func:`write_fit_report` stored; None if an error column is nan."""
    names = _FIT_COLUMNS.split(",")
    records = read_records(path, names, ",", FIT_HEADER)
    next(records)
    record, record_line = None, 0
    for lineno, fields in records:
        if fields == names:
            continue
        if record is not None:
            raise ParseError("expected one fit record", path=str(path), line=lineno)
        record = [parse_field(int if name == "N" else float, text, name, path, lineno)
                  for name, text in zip(names, fields)]
        record_line = lineno
    if record is None:
        raise ParseError("no fit record", path=str(path), line=1)
    n, eps, log_mu, log_sigma, radius, mean, std, bound, tau = record
    try:
        uniq = UniquenessModel(length=n, log_mu=log_mu, log_sigma=log_sigma, epsilon=eps,
                               radius=radius)
    except ValidationError as exc:
        raise ParseError(str(exc), path=str(path), line=record_line) from None
    if any(math.isnan(v) for v in (mean, std, bound, tau)):
        return uniq, None
    return uniq, ErrorModel(length=n, mean=mean, std=std, bound=bound, tau=tau)
