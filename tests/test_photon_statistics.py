"""Count-distribution checks against independent numerical oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from shelveread.photon_statistics import (
    CountPMF,
    DetectionModel,
    ErrorRates,
    ZERO_ERRORS,
    bright_pdf,
    count_support_max,
    dark_pdf,
    decay_mixture_pmf,
    observed_pdf_down,
    observed_pdf_up,
    poisson_pmf,
)
from shelveread.photon_statistics import _readout_pmfs


def _decay_mixture(n, mean_bright, mean_dark):
    """The decay mixture on counts ``n``: a shelved qubit that surely decays (f = 1)."""
    return _readout_pmfs(n, mean_bright, mean_dark, 0.0, 0.0, 1.0)[1]


def poisson_reference(n: int, mean: float) -> float:
    # plain-math evaluation, independent of the vectorized log-space path
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def test_poisson_pmf_matches_reference():
    for mean in (0.0, 1e-9, 0.3, 1.0, 4.7, 20.9475, 150.0):
        n = np.arange(0, 60)
        expected = np.array([poisson_reference(int(k), mean) for k in n])
        got = poisson_pmf(n, mean)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-300)


def test_poisson_pmf_negative_and_scalar():
    assert poisson_pmf(-1, 3.0) == 0.0
    assert poisson_pmf(np.array([-2, 0, 1]), 0.0).tolist() == [0.0, 1.0, 0.0]
    assert isinstance(poisson_pmf(3, 2.0), float)
    # counts index a log-factorial table: integer-valued floats pass, others fail
    assert poisson_pmf(np.array([0.0, 2.0]), 2.0).tolist() == poisson_pmf([0, 2], 2.0).tolist()
    with pytest.raises(ValueError):
        poisson_pmf(np.array([1.0, 2.5]), 2.0)


def test_decay_mixture_quadrature_oracle():
    """Decay mixture vs direct quadrature of the flat-in-mean Poisson average, <= 1e-10."""
    means = (0.05, 0.4990, 1.0, 5.0, 20.9475, 60.0)
    for mean_bright in means:
        for mean_dark in (m for m in means if m < mean_bright):
            gap = mean_bright - mean_dark
            g = _decay_mixture(np.arange(40), mean_bright, mean_dark)
            for n in (0, 1, 10, 20, 39):
                integral, abserr = quad(
                    lambda mu: poisson_reference(n, mu), mean_dark, mean_bright,
                    epsabs=1e-14, epsrel=1e-13, limit=200,
                )
                assert abs(g[n] - integral / gap) <= 1e-10, (mean_bright, mean_dark, n)
                # the oracle itself must be trustworthy on the probability scale
                assert abserr / gap < 1e-12


def test_detection_model_validation():
    with pytest.raises(ValueError):
        DetectionModel(rate_bright=1e3, rate_dark=2e3, lifetime=0.4, t_det=1e-4)
    with pytest.raises(ValueError):
        DetectionModel(rate_bright=1e3, rate_dark=-1.0, lifetime=0.4, t_det=1e-4)
    with pytest.raises(ValueError):
        # an infinite mean has no Poisson table to sample from
        DetectionModel(rate_bright=np.inf, rate_dark=10.0, lifetime=0.4, t_det=1e-4)
    with pytest.raises(ValueError):
        DetectionModel(rate_bright=1e3, rate_dark=10.0, lifetime=0.0, t_det=1e-4)
    with pytest.raises(ValueError):
        # window longer than a tenth of the lifetime: first-order regime only
        DetectionModel(rate_bright=1e3, rate_dark=10.0, lifetime=1e-3, t_det=1e-4)
    model = DetectionModel(rate_bright=73.5e3, rate_dark=1.75e3, lifetime=0.39, t_det=285e-6)
    assert model.mean_bright == pytest.approx(20.9475, abs=1e-12)
    assert model.mean_dark == pytest.approx(0.49875, abs=1e-12)
    assert model.decay_fraction == pytest.approx(285e-6 / 0.39, rel=1e-15)


def test_error_rates_validation():
    with pytest.raises(ValueError):
        ErrorRates(eps_down_tot=-1e-4, eps_up_tot=0.0)
    with pytest.raises(ValueError):
        ErrorRates(eps_down_tot=0.0, eps_up_tot=0.5)
    assert ErrorRates(6e-4, 10e-4).mean == pytest.approx(8e-4, rel=1e-12)
    assert ZERO_ERRORS.mean == 0.0


def test_count_pmf_type():
    pmf = CountPMF(np.array([0.25, 0.5, 0.25]))
    assert pmf.support_max == 2
    assert pmf.cdf(1) == pytest.approx(0.75)
    assert pmf.tail(1) == pytest.approx(0.25)
    assert pmf.cdf(1) + pmf.tail(1) == pytest.approx(1.0, abs=1e-15)
    assert pmf.mean() == pytest.approx(1.0)
    # n below the support clips, as in cdf: every count exceeds it
    skewed = CountPMF(np.array([0.25, 0.25, 0.5]))
    for n in (-1, -2, -3, -10):
        assert skewed.tail(n) == 1.0 and skewed.cdf(n) == 0.0
    assert skewed.tail(2) == skewed.tail(5) == 0.0
    with pytest.raises(ValueError):
        CountPMF(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        CountPMF(np.array([[0.5], [0.5]]))


def test_bright_pdf_is_poisson(measured_model):
    pmf = bright_pdf(measured_model)
    n = np.arange(pmf.probs.size)
    assert np.allclose(pmf.probs, poisson_pmf(n, measured_model.mean_bright), rtol=1e-13)
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)
    assert pmf.mean() == pytest.approx(measured_model.mean_bright, rel=1e-9)


def _mixture_quadrature(n: int, model: DetectionModel) -> float:
    # decay instant uniform in the window: average the Poisson pmf over the
    # line of means between mean_dark (decay at 0) and mean_bright (decay at t)
    md, mb = model.mean_dark, model.mean_bright

    def integrand(u):
        return poisson_reference(n, md * u + mb * (1.0 - u))

    value, abserr = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abserr < 1e-11
    return value


def test_dark_pdf_against_quadrature(measured_model):
    """Gamma-difference closed form == direct quadrature to 1e-10."""
    pmf = dark_pdf(measured_model)
    f = measured_model.decay_fraction
    md = measured_model.mean_dark
    for n in (0, 1, 2, 5, 10, 21, 30, 45):
        expected = (1.0 - f) * poisson_reference(n, md) + f * _mixture_quadrature(
            n, measured_model
        )
        assert abs(pmf.probs[n] - expected) <= 1e-10


def test_dark_pdf_normalization_and_mean(measured_model):
    pmf = dark_pdf(measured_model)
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)
    f = measured_model.decay_fraction
    expected_mean = (1.0 - f) * measured_model.mean_dark + f * 0.5 * (
        measured_model.mean_bright + measured_model.mean_dark
    )
    assert pmf.mean() == pytest.approx(expected_mean, rel=1e-9)


def test_decay_mixture_pmf_normalization_and_mean(measured_model):
    g = decay_mixture_pmf(measured_model)
    assert g.size == count_support_max(measured_model.mean_bright) + 1
    assert g.sum() == pytest.approx(1.0, abs=1e-12)
    # a decay at a uniform instant averages the two means
    mid = 0.5 * (measured_model.mean_bright + measured_model.mean_dark)
    assert np.arange(g.size) @ g == pytest.approx(mid, rel=1e-12)


def test_dark_pdf_long_lifetime_limit():
    model = DetectionModel(rate_bright=73.5e3, rate_dark=1.75e3, lifetime=1e6, t_det=285e-6)
    pmf = dark_pdf(model)
    n = np.arange(pmf.probs.size)
    assert np.allclose(pmf.probs, poisson_pmf(n, model.mean_dark), atol=1e-9)


def test_decay_mixture_near_equal_means():
    n = np.arange(0, 40)
    mid = poisson_pmf(n, 10.0)
    tiny_gap = _decay_mixture(n, 10.0 + 5e-9, 10.0 - 5e-9)
    small_gap = _decay_mixture(n, 10.0 + 5e-4, 10.0 - 5e-4)
    assert np.allclose(tiny_gap, mid, atol=1e-12)
    assert np.allclose(small_gap, mid, atol=1e-6)  # continuity across the switch


@settings(max_examples=300, deadline=None)
@given(
    mean_bright=st.floats(1.0, 100.0),
    gap=st.floats(1.0, 100.0),
    dark_is_zero=st.booleans(),
)
@example(mean_bright=60.0, gap=1.0, dark_is_zero=False)  # lower tail lost to cancellation before
@example(mean_bright=21.0, gap=21.0, dark_is_zero=True)  # PMFs cross at count 0
def test_decay_mixture_matches_two_sided_oracle(mean_bright, gap, dark_is_zero):
    """Every bin above 1e-300 within 1e-12 relative, whichever tail it lies in."""
    mean_dark = 0.0 if dark_is_zero else max(mean_bright - gap, 0.0)
    n = np.arange(count_support_max(mean_bright) + 1)
    g = _decay_mixture(n, mean_bright, mean_dark)
    # the CDF difference from the upper regularized gamma (the Poisson CDF) where
    # the bright CDF is below 1/2, and from the lower one (its complement) above
    lower_tail = special.gammaincc(n + 1, mean_bright) < 0.5
    oracle = np.where(
        lower_tail,
        special.gammaincc(n + 1, mean_dark) - special.gammaincc(n + 1, mean_bright),
        special.gammainc(n + 1, mean_bright) - special.gammainc(n + 1, mean_dark),
    ) / (mean_bright - mean_dark)
    kept = oracle > 1e-300
    assert np.all(np.abs(g[kept] - oracle[kept]) <= 1e-12 * oracle[kept])


def test_observed_pdfs_mixture_identity(measured_model):
    errors = ErrorRates(6e-4, 10e-4)
    f = measured_model.decay_fraction
    n = np.arange(count_support_max(measured_model.mean_bright) + 1)
    pb = poisson_pmf(n, measured_model.mean_bright)
    pd = poisson_pmf(n, measured_model.mean_dark)
    g = _decay_mixture(n, measured_model.mean_bright, measured_model.mean_dark)

    # a shot that is effectively dark (shelved by mistake, or shelved as
    # intended) decays in-window with probability f; every other shot is bright
    dark = (1 - f) * pd + f * g
    down = observed_pdf_down(measured_model, errors)
    up = observed_pdf_up(measured_model, errors)
    assert np.allclose(down.probs, (1 - 6e-4) * pb + 6e-4 * dark, rtol=1e-12)
    assert np.allclose(up.probs, (1 - 10e-4) * dark + 10e-4 * pb, rtol=1e-12)
    assert down.total() == pytest.approx(1.0, abs=1e-12)
    assert up.total() == pytest.approx(1.0, abs=1e-12)


def test_observed_pdfs_zero_error_reduction(measured_model):
    assert np.array_equal(
        observed_pdf_down(measured_model, ZERO_ERRORS).probs, bright_pdf(measured_model).probs
    )
    assert np.array_equal(
        observed_pdf_up(measured_model, ZERO_ERRORS).probs, dark_pdf(measured_model).probs
    )


def test_observed_pdf_up_weight_validation(measured_model):
    # at the edge of the accepted region every mixture weight stays positive
    bad = ErrorRates(eps_down_tot=0.0, eps_up_tot=0.49999)
    model = DetectionModel(
        rate_bright=73.5e3, rate_dark=1.75e3, lifetime=3e-3, t_det=2.9e-4
    )
    # decay fraction ~0.097, eps_up ~0.5 -> weights (1 - eps)(1 - f) etc. > 0
    observed_pdf_up(model, bad)
    with pytest.raises(ValueError):
        # an impossible combination is rejected by the error-rate bound itself
        ErrorRates(eps_down_tot=0.0, eps_up_tot=0.95)


@settings(max_examples=300, deadline=None)
@given(
    mean_bright=st.floats(0.01, 200.0),
    # zero, well separated, and nearly equal means (dark/bright ratio)
    dark_share=st.one_of(
        st.just(0.0), st.floats(1e-3, 0.99), st.floats(1.0 - 1e-6, 1.0, exclude_max=True)
    ),
    eps_down=st.floats(0.0, 0.5, exclude_max=True),
    eps_up=st.floats(0.0, 0.5, exclude_max=True),
    f=st.floats(0.0, 0.1, exclude_max=True),
)
def test_readout_model_normalized_with_exact_gradient(
    mean_bright, dark_share, eps_down, eps_up, f
):
    """Over the constructors' region: unit mass and gradient == finite differences.

    One batch also holds this draw: each of its rows equals its single-set call.
    """
    theta = np.array([mean_bright, dark_share * mean_bright, eps_down, eps_up])
    n = np.arange(count_support_max(mean_bright) + 1)
    p_down, p_up, grad_down, grad_up = _readout_pmfs(n, *theta, f, grad=True)
    assert abs(p_down.sum() - 1.0) < 1e-12
    assert abs(p_up.sum() - 1.0) < 1e-12

    # at a zero dark mean its derivative is the right derivative: a one-sided difference
    for k in range(4):
        step = (1e-4 * theta[k] or 1e-7) if k < 2 else 1e-6
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        if theta[k] > 0.0 or k > 1:
            minus[k] -= step
        up, down = _readout_pmfs(n, *plus, f), _readout_pmfs(n, *minus, f)
        for state, grad in ((0, grad_down), (1, grad_up)):
            difference = (up[state] - down[state]) / (plus[k] - minus[k])
            assert np.abs(difference - grad[k]).max() <= 1e-5 * np.abs(grad).max()

    # the draw, a gap below one count, a zero dark mean and two ordinary rows
    batch = np.array([
        [*theta, f], [0.7, 0.2, 0.1, 0.3, 0.05], [30.0, 0.0, 0.2, 0.0, 0.01],
        [5.0, 1.0, 0.0, 0.4, 0.09], [150.0, 3.0, 0.3, 0.1, 0.0],
    ])
    n = np.arange(count_support_max(batch[:, 0].max()) + 1)
    rows = _readout_pmfs(n, *batch.T, grad=True)
    for i, params in enumerate(batch):
        for batched, single in zip(rows, _readout_pmfs(n, *params, grad=True)):
            assert batched.shape[1:] == single.shape
            assert np.array_equal(batched[i], single), i


def test_support_covers_sixteen_sigma(measured_model):
    support = count_support_max(measured_model.mean_bright)
    assert support >= measured_model.mean_bright + 16 * math.sqrt(measured_model.mean_bright) + 20
    for pmf in (bright_pdf, dark_pdf):
        assert pmf(measured_model).probs.size == support + 1


def test_support_rejects_out_of_range_means():
    # one line naming the mean, not a wrapped int64 cast, an empty support
    # or a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mean in (np.inf, np.nan, 1e20, np.array([5.0, np.inf])):
            with pytest.raises(ValueError, match="no count support within int64"):
                count_support_max(mean)
        for mean in (-1e-300, np.array([5.0, -1.0])):
            with pytest.raises(ValueError, match="must be non-negative, got -"):
                count_support_max(mean)
        with pytest.raises(ValueError, match="mean photon number inf"):
            count_support_max(np.array([5.0, np.inf]))
        assert count_support_max(np.array([0.0, 1e18])).tolist() == [20, 10**18 + 16 * 10**9 + 20]
        assert count_support_max(0.0) == 20 and type(count_support_max(0.0)) is int
