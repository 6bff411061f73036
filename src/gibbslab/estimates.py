"""Monte Carlo estimate containers and error propagation helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, PrecisionError, ValidationError


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo value with standard error and sample count; value and
    stderr are floats, or arrays of one shape for a batch of estimates."""

    value: float
    stderr: float
    n: int
    method: str = "mc"

    def __post_init__(self):
        if np.less(self.stderr, 0).any():
            raise ValidationError("stderr must be nonnegative")

    def agrees_with(self, other: "Estimate", n_sigma: float = 4.0, atol: float = 0.0) -> bool:
        tol = n_sigma * math.hypot(self.stderr, other.stderr) + atol
        return abs(self.value - other.value) <= tol

    def __str__(self):
        return f"{self.value:.6g} +- {self.stderr:.2g} (n={self.n}, {self.method})"


@dataclass(frozen=True)
class MCParams:
    """Monte Carlo knobs shared by the stochastic operations."""

    n_samples: int = 10_000
    dt: float = 0.01
    bandwidth_scale: float = 1.0
    ess_threshold: float = 200.0
    burn_in: int = 100
    thin: int = 2

    def __post_init__(self):
        if self.n_samples < 2 or self.dt <= 0:
            raise ValidationError("MC params need n_samples >= 2 and dt > 0")
        if self.thin < 1 or self.burn_in < 0:
            raise ValidationError("MC params need thin >= 1 and burn_in >= 0")
        if self.bandwidth_scale <= 0 or self.ess_threshold < 0:
            raise ValidationError("MC params need bandwidth_scale > 0 and ess_threshold >= 0")

    def with_samples(self, n: int) -> "MCParams":
        return replace(self, n_samples=n)


def _finite_samples(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise NumericalError("Monte Carlo samples are not all finite")
    return samples


def mean_estimate(samples: np.ndarray, method: str = "mc") -> Estimate:
    """Mean and stderr over the last axis: floats for one row of samples,
    arrays of the leading shape for more."""
    samples = _finite_samples(samples)
    n = samples.shape[-1]
    value = np.mean(samples, axis=-1)
    stderr = np.std(samples, axis=-1, ddof=1) / math.sqrt(n) if n > 1 else value * 0.0
    if samples.ndim == 1:
        value, stderr = float(value), float(stderr)
    return Estimate(value, stderr, n, method)


def weighted_mean_estimate(
    samples: np.ndarray,
    log_weights: np.ndarray,
    ess_threshold: float,
    method: str = "mc",
) -> Estimate:
    """Self-normalized importance-sampling estimate with an ESS guard."""
    samples = _finite_samples(samples)
    logw = np.asarray(log_weights, dtype=float)
    w = np.exp(logw - np.max(logw))
    wsum = w.sum()
    ess = wsum * wsum / np.sum(w * w)
    if ess < ess_threshold:
        raise PrecisionError(
            f"effective sample size {ess:.1f} below threshold {ess_threshold}"
        )
    mu = float(np.sum(w * samples) / wsum)
    se = float(math.sqrt(np.sum((w * (samples - mu)) ** 2)) / wsum)
    return Estimate(value=mu, stderr=se, n=samples.size, method=method)


def ratio_estimate(num: Estimate, den: Estimate, method: str = "ratio") -> Estimate:
    if den.value == 0:
        raise PrecisionError("ratio estimate with zero denominator")
    value = num.value / den.value
    if num.value == 0:
        # the limit of the delta-method error below as num.value -> 0
        return Estimate(value, num.stderr / abs(den.value), min(num.n, den.n), method)
    rel = math.hypot(num.stderr / num.value, den.stderr / den.value)
    return Estimate(value, abs(value) * rel, min(num.n, den.n), method)
