import math

import numpy as np
import pytest

from gibbslab.errors import NumericalError, PrecisionError, ValidationError
from gibbslab.estimates import (
    Estimate,
    MCParams,
    mean_estimate,
    ratio_estimate,
    weighted_mean_estimate,
)


def test_estimate_rejects_negative_stderr():
    with pytest.raises(ValidationError):
        Estimate(1.0, -0.1, 10)


def test_agrees_with_combined_error():
    a = Estimate(1.0, 0.1, 10)
    b = Estimate(1.5, 0.1, 10)
    # |diff| = 0.5, 4 * hypot(0.1, 0.1) ~ 0.566
    assert a.agrees_with(b)
    assert not a.agrees_with(b, n_sigma=3.0)
    assert a.agrees_with(b, n_sigma=3.0, atol=0.2)


def test_mcparams_validation():
    with pytest.raises(ValidationError):
        MCParams(n_samples=1)
    with pytest.raises(ValidationError):
        MCParams(dt=0.0)
    assert MCParams().with_samples(5).n_samples == 5


def test_mcparams_rejects_bad_chain_lengths():
    with pytest.raises(ValidationError):
        MCParams(thin=0)
    with pytest.raises(ValidationError):
        MCParams(burn_in=-1)
    assert MCParams(burn_in=0, thin=1).burn_in == 0


def test_mean_estimate_matches_numpy():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    est = mean_estimate(xs)
    assert est.value == pytest.approx(2.5)
    assert est.stderr == pytest.approx(np.std(xs, ddof=1) / 2.0)
    assert est.n == 4


def test_weighted_mean_uniform_weights():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    est = weighted_mean_estimate(xs, np.zeros(4), ess_threshold=2.0)
    assert est.value == pytest.approx(2.5)


def test_weighted_mean_ess_guard():
    xs = np.arange(100.0)
    logw = np.zeros(100)
    logw[0] = 50.0  # one dominant weight: ESS ~ 1
    with pytest.raises(PrecisionError):
        weighted_mean_estimate(xs, logw, ess_threshold=10.0)


def test_ratio_estimate():
    r = ratio_estimate(Estimate(2.0, 0.2, 10), Estimate(4.0, 0.4, 10))
    assert r.value == pytest.approx(0.5)
    assert r.stderr == pytest.approx(0.5 * math.hypot(0.1, 0.1))
    with pytest.raises(PrecisionError):
        ratio_estimate(Estimate(1.0, 0.1, 10), Estimate(0.0, 0.1, 10))


def test_ratio_estimate_is_continuous_at_a_zero_numerator():
    den = Estimate(10.0, 1.0, 10)
    at_zero = ratio_estimate(Estimate(0.0, 0.1, 10), den)
    near_zero = ratio_estimate(Estimate(1e-9, 0.1, 10), den)
    assert at_zero.value == 0.0
    assert at_zero.stderr == pytest.approx(0.01)
    assert near_zero.stderr == pytest.approx(at_zero.stderr, rel=1e-12)


def test_ratio_estimate_with_a_negative_denominator():
    den = Estimate(-10.0, 1.0, 10)
    assert ratio_estimate(Estimate(0.0, 0.1, 10), den).stderr == pytest.approx(0.01)
    r = ratio_estimate(Estimate(2.0, 0.2, 10), den)
    assert r.value == pytest.approx(-0.2)
    assert r.stderr == pytest.approx(0.2 * math.hypot(0.1, 0.1))
    assert ratio_estimate(Estimate(-1e-9, 0.1, 10), den).stderr == pytest.approx(0.01, rel=1e-12)


def test_mean_estimate_rejects_non_finite_samples():
    # numpy used to return nan +- nan here, warning from its own module
    with pytest.raises(NumericalError):
        mean_estimate(np.array([np.inf, -np.inf, 1.0]))
    with pytest.raises(NumericalError):
        mean_estimate(np.array([0.5, np.nan]))


def test_weighted_mean_estimate_rejects_non_finite_samples():
    with pytest.raises(NumericalError):
        weighted_mean_estimate(np.array([np.nan, 1.0, 2.0]), np.zeros(3), ess_threshold=1.0)
    with pytest.raises(NumericalError):
        weighted_mean_estimate(np.array([1.0, np.inf]), np.zeros(2), ess_threshold=1.0)
