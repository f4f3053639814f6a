"""Histogram maximum-likelihood fitting of the four readout parameters."""

from __future__ import annotations

import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shelveread.mle_fit as mle_fit
from shelveread.mle_fit import (
    FitResult,
    ReadoutParams,
    fit,
    log_likelihood,
    log_likelihood_grad,
    read_fit_json,
    write_fit_json,
)
from shelveread.monte_carlo import CountHistogram
from shelveread.photon_statistics import (
    DetectionModel,
    ErrorRates,
    _readout_pmfs,
    count_support_max,
    observed_pdf_down,
    observed_pdf_up,
)

T_DET = 280e-6
LIFETIME = 0.390
TRUTH = ReadoutParams(
    mean_bright=73.5e3 * T_DET,
    mean_dark=1.75e3 * T_DET,
    eps_down_tot=6e-4,
    eps_up_tot=10e-4,
)


def _pmfs(eps_down=TRUTH.eps_down_tot, eps_up=TRUTH.eps_up_tot):
    model = DetectionModel(73.5e3, 1.75e3, LIFETIME, T_DET)
    errors = ErrorRates(eps_down, eps_up)
    return observed_pdf_down(model, errors).probs, observed_pdf_up(model, errors).probs


def _projected_score(result, h_down, h_up):
    """Per-shot score at the fit; the dark mean or an error rate pinned at a
    bound may point out of it."""
    grad = log_likelihood_grad(result.params, h_down, h_up, result.t_det, result.lifetime)
    grad /= h_down.total_shots + h_up.total_shots
    theta, rate = result.params.as_array(), np.arange(4) >= 2
    grad = np.where(theta == 0.0, np.maximum(grad, 0.0), grad)
    return np.where(rate & (theta == np.nextafter(0.5, 0.0)), np.minimum(grad, 0.0), grad)


def _sample_hist(pmf: np.ndarray, shots: int, rng) -> CountHistogram:
    pvals = np.append(pmf, max(0.0, 1.0 - pmf.sum()))
    bins = rng.multinomial(shots, pvals)[:-1]
    return CountHistogram(bins, int(bins.sum()))


@pytest.fixture(scope="module")
def sampled_pair():
    pmf_down, pmf_up = _pmfs()
    rng = np.random.default_rng(2024)
    return (
        _sample_hist(pmf_down, 100_000, rng),
        _sample_hist(pmf_up, 100_000, rng),
    )


def test_gradient_matches_finite_differences(sampled_pair):
    h_down, h_up = sampled_pair
    rng = np.random.default_rng(6)
    for _ in range(10):
        theta = np.array(
            [
                rng.uniform(18.0, 24.0),
                rng.uniform(0.3, 0.8),
                rng.uniform(1e-4, 5e-3),
                rng.uniform(1e-4, 5e-3),
            ]
        )
        params = ReadoutParams(*theta)
        grad = log_likelihood_grad(params, h_down, h_up, T_DET, LIFETIME)
        for k in range(4):
            step = 1e-5 * theta[k] if k < 2 else 3e-8
            up, dn = theta.copy(), theta.copy()
            up[k] += step
            dn[k] -= step
            fd = (
                log_likelihood(ReadoutParams(*up), h_down, h_up, T_DET, LIFETIME)
                - log_likelihood(ReadoutParams(*dn), h_down, h_up, T_DET, LIFETIME)
            ) / (2 * step)
            assert grad[k] == pytest.approx(fd, rel=5e-6, abs=1e-4)


def test_recovers_exact_histograms():
    # pseudo-data equal to the model expectation: the fit must sit on the truth
    pmf_down, pmf_up = _pmfs()
    shots = 1_000_000_000
    h_down = CountHistogram(
        np.rint(pmf_down * shots).astype(np.int64),
        int(np.rint(pmf_down * shots).sum()),
    )
    h_up = CountHistogram(
        np.rint(pmf_up * shots).astype(np.int64), int(np.rint(pmf_up * shots).sum())
    )
    result = fit(h_down, h_up, T_DET, LIFETIME)
    assert result.converged
    assert result.mean_bright == pytest.approx(TRUTH.mean_bright, rel=1e-6)
    assert result.mean_dark == pytest.approx(TRUTH.mean_dark, rel=1e-6)
    assert result.eps_down_tot == pytest.approx(TRUTH.eps_down_tot, rel=1e-4)
    assert result.eps_up_tot == pytest.approx(TRUTH.eps_up_tot, rel=1e-4)
    # stationarity: per-shot score vanishes at the maximum
    grad = log_likelihood_grad(result.params, h_down, h_up, T_DET, LIFETIME)
    total = h_down.total_shots + h_up.total_shots
    assert np.all(np.abs(grad) / total < 1e-6)


def test_fit_within_errors(sampled_pair):
    h_down, h_up = sampled_pair
    result = fit(h_down, h_up, T_DET, LIFETIME)
    assert result.converged
    truth = TRUTH.as_array()
    estimate = result.params.as_array()
    se = np.array([result.std_errors[k] for k in
                   ("mean_bright", "mean_dark", "eps_down_tot", "eps_up_tot")])
    assert np.all(se > 0)
    z = np.abs(estimate - truth) / se
    assert np.all(z < 4.0), f"z-scores {z}"


def test_fit_beats_truth_likelihood(sampled_pair):
    h_down, h_up = sampled_pair
    result = fit(h_down, h_up, T_DET, LIFETIME)
    ll_truth = log_likelihood(TRUTH, h_down, h_up, T_DET, LIFETIME)
    assert result.log_likelihood >= ll_truth


def test_errors_shrink_with_shots():
    pmf_down, pmf_up = _pmfs()
    rng = np.random.default_rng(17)
    ses = []
    for shots in (10_000, 100_000, 1_000_000):
        h_down = _sample_hist(pmf_down, shots, rng)
        h_up = _sample_hist(pmf_up, shots, rng)
        result = fit(h_down, h_up, T_DET, LIFETIME)
        assert result.converged
        ses.append([result.std_errors[k] for k in result.std_errors])
        z = np.abs(result.params.as_array() - TRUTH.as_array()) / np.array(ses[-1])
        assert np.all(z < 4.5)
    ses = np.array(ses)
    assert np.all(ses[1] < ses[0])
    assert np.all(ses[2] < ses[1])
    # root-N scaling, loosely
    ratio = ses[0] / ses[2]
    assert np.all(ratio > 3.0) and np.all(ratio < 30.0)


def test_reparameterized_window_is_invariant(sampled_pair):
    h_down, h_up = sampled_pair
    base = fit(h_down, h_up, T_DET, LIFETIME)
    doubled = fit(h_down, h_up, 2 * T_DET, 2 * LIFETIME)
    # only the decay fraction enters the likelihood, so the count-space
    # estimates agree exactly and the inferred rates halve
    assert doubled.params.as_array() == pytest.approx(base.params.as_array(), rel=1e-12)
    assert doubled.rate_bright == pytest.approx(base.rate_bright / 2, rel=1e-12)
    assert doubled.rate_dark == pytest.approx(base.rate_dark / 2, rel=1e-12)


def test_bootstrap_agrees_with_observed_information():
    pmf_down, pmf_up = _pmfs()
    rng = np.random.default_rng(23)
    h_down = _sample_hist(pmf_down, 20_000, rng)
    h_up = _sample_hist(pmf_up, 20_000, rng)
    result = fit(h_down, h_up, T_DET, LIFETIME, bootstrap=25, bootstrap_seed=3)
    boot = result.details["bootstrap"]["std_errors"]
    assert result.details["bootstrap"]["samples"] == 25
    for name, se in result.std_errors.items():
        assert boot[name] == pytest.approx(se, rel=2.0), name  # factor-3 band


def test_bootstrap_is_seeded(sampled_pair):
    h_down, h_up = sampled_pair
    a = fit(h_down, h_up, T_DET, LIFETIME, bootstrap=5, bootstrap_seed=9)
    b = fit(h_down, h_up, T_DET, LIFETIME, bootstrap=5, bootstrap_seed=9)
    assert a.details["bootstrap"] == b.details["bootstrap"]


@pytest.mark.parametrize("mode", ["joint", "independent"])
def test_bootstrap_counts_unconverged_resamples(sampled_pair, mode, monkeypatch):
    h_down, h_up = sampled_pair
    result = fit(h_down, h_up, T_DET, LIFETIME, mode=mode, bootstrap=4, bootstrap_seed=9)
    assert result.details["bootstrap"]["unconverged"] == 0
    # with no step allowed, every fit stops at the iteration limit
    monkeypatch.setattr(mle_fit, "_MAX_ITERATIONS", 0)
    result = fit(h_down, h_up, T_DET, LIFETIME, mode=mode, bootstrap=4, bootstrap_seed=9)
    assert not result.converged
    assert "iteration limit" in json.dumps(result.details["optimizer"])
    assert result.details["bootstrap"]["samples"] == 4
    assert result.details["bootstrap"]["unconverged"] == 4


def test_independent_mode(sampled_pair):
    h_down, h_up = sampled_pair
    result = fit(h_down, h_up, T_DET, LIFETIME, mode="independent")
    assert result.mode == "independent"
    assert result.converged
    per_state = result.details["per_state"]
    assert set(per_state) == {"down", "up"}
    for name, se in result.std_errors.items():
        assert se > 0, name
    z = np.abs(result.params.as_array() - TRUTH.as_array()) / np.array(
        [result.std_errors[k] for k in result.std_errors]
    )
    assert np.all(z < 4.5)
    # the bright mean comes from the bright-prepared data
    assert result.mean_bright == per_state["down"]["mean_bright"]
    assert result.mean_dark == per_state["up"]["mean_dark"]


def test_fit_accepts_explicit_init(sampled_pair):
    h_down, h_up = sampled_pair
    init = ReadoutParams(20.0, 0.5, 0.0, 0.0)  # zero error guesses are legal
    result = fit(h_down, h_up, T_DET, LIFETIME, init=init)
    assert result.converged
    assert result.eps_down_tot == pytest.approx(TRUTH.eps_down_tot, rel=0.5)


def test_zero_error_init_reaches_the_same_optimum(sampled_pair):
    h_down, h_up = sampled_pair
    base = fit(h_down, h_up, T_DET, LIFETIME)
    from_zero = fit(h_down, h_up, T_DET, LIFETIME, init=ReadoutParams(20.0, 0.5, 0.0, 0.0))
    assert from_zero.converged
    assert from_zero.details["optimizer"] == "score below tolerance"
    assert from_zero.log_likelihood >= base.log_likelihood - 1e-12 * abs(base.log_likelihood)
    se = np.array(list(base.std_errors.values()))
    assert np.all(np.abs(from_zero.params.as_array() - base.params.as_array()) < 1e-6 * se)


def test_zero_dark_mean_init_reaches_the_same_optimum(sampled_pair):
    # the loop starts with the dark mean and both error rates on their bounds
    h_down, h_up = sampled_pair
    base = fit(h_down, h_up, T_DET, LIFETIME)
    from_zero = fit(h_down, h_up, T_DET, LIFETIME, init=ReadoutParams(5.0, 0.0, 0.0, 0.0))
    assert from_zero.details["optimizer"] == "score below tolerance"
    assert from_zero.log_likelihood >= base.log_likelihood - 1e-12 * abs(base.log_likelihood)
    se = np.array(list(base.std_errors.values()))
    assert np.all(np.abs(from_zero.params.as_array() - base.params.as_array()) < 1e-6 * se)


@pytest.mark.parametrize("mode", ["joint", "independent"])
def test_fit_at_zero_error_rates(mode):
    # error-free preparation: the estimates sit on (or next to) the bound at 0
    pmf_down, pmf_up = _pmfs(0.0, 0.0)
    rng = np.random.default_rng(31)
    h_down = _sample_hist(pmf_down, 200_000, rng)
    h_up = _sample_hist(pmf_up, 200_000, rng)
    result = fit(h_down, h_up, T_DET, LIFETIME, mode=mode)
    assert result.converged
    reasons = result.details["optimizer"]
    assert set(reasons.values() if mode == "independent" else [reasons]) == {
        "score below tolerance"
    }
    se = np.array(list(result.std_errors.values()))
    assert np.all(se > 0), se
    truth = np.array([TRUTH.mean_bright, TRUTH.mean_dark, 0.0, 0.0])
    assert np.all(np.abs(result.params.as_array() - truth) / se < 4.5)
    if mode == "joint":
        assert np.all(np.abs(_projected_score(result, h_down, h_up)) < 1e-11)


@settings(max_examples=150, deadline=None)
@given(
    mean_bright=st.floats(3.0, 60.0),
    dark_share=st.floats(1e-3, 0.9),
    eps_down=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)),
    eps_up=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)),
    f=st.floats(1e-6, 0.1, exclude_max=True),
    log_shots=st.integers(3, 9),
)
# draws that failed before the loop ran in the natural parameters: a dark
# mean converging linearly, a zero-dark-mean optimum, and a dark mean
# starting at zero with 10^3 shots, whose log stepped far out of range
@example(21.0, 2**-8, 0.0, 0.0, 0.0625, 9)
@example(3.0, 1e-3, 0.484, 0.375, 0.0625, 3)
@example(3.0, 0.03125, 0.4375, 0.0, 0.0625, 3)
@example(3.0, 0.0625, 0.4375, 0.0, 0.0078125, 3)
@example(3.0, 0.0625, 0.46875, 0.0, 0.0625, 3)
# the free parameters change after a step of too small a predicted gain to
# show: eps_up leaves its bound at 0, or eps_down reaches 0.5 as eps_up
# leaves it; the predicted-gain rule must not stop there
@example(54.80714319787993, 0.50390625, 0.0, 0.0, 0.0390625, 9)
@example(3.0, 0.8125, 0.4999999999999999, 0.4999999999999999, 0.03125, 9)
def test_joint_fit_converges_over_the_validated_region(
    mean_bright, dark_share, eps_down, eps_up, f, log_shots
):
    """Exact-expectation histograms: converged, and the projected score meets the stop rule."""
    n = np.arange(count_support_max(mean_bright) + 1)
    pmfs = _readout_pmfs(n, mean_bright, dark_share * mean_bright, eps_down, eps_up, f)[:2]
    bins = [np.rint(p * 10.0**log_shots).astype(np.int64) for p in pmfs]
    h_down, h_up = (CountHistogram(b, int(b.sum())) for b in bins)
    result = fit(h_down, h_up, f, 1.0)  # t_det/lifetime = f exactly
    assert result.converged, result.details
    assert np.all(np.abs(_projected_score(result, h_down, h_up)) < 1e-11)


def _assert_rows_run_alone(h, f, theta0, mode):
    """One batched ``_maximize`` run against a one-row run per row: the same
    steps and stop reasons, and estimates, log-likelihoods and information
    within 1e-12 relative.  Returns the batch's steps and reasons, (runs, B)."""
    theta, ll, converged, iterations, reasons, info = mle_fit._maximize(h, f, theta0, mode)
    for i in range(len(h)):
        alone = mle_fit._maximize(h[i : i + 1], f, theta0[i : i + 1], mode)
        assert alone[3][:, 0].tolist() == iterations[:, i].tolist(), i
        assert alone[4][:, 0].tolist() == reasons[:, i].tolist(), i
        assert alone[2][:, 0].tolist() == converged[:, i].tolist(), i
        np.testing.assert_allclose(theta[:, i], alone[0][:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(ll[:, i], alone[1][:, 0], rtol=1e-12, atol=0)
        for run in range(len(info)):
            scale = np.abs(alone[5][run, 0]).max()
            assert np.abs(info[run, i] - alone[5][run, 0]).max() <= 1e-12 * scale, i
    return iterations, reasons


@settings(max_examples=20, deadline=None)
@given(
    mean_bright=st.floats(3.0, 60.0),
    dark_share=st.floats(1e-3, 0.9),
    eps_down=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)),
    eps_up=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)),
    f=st.floats(1e-6, 0.1, exclude_max=True),
    log_shots=st.integers(3, 9),
    mode=st.sampled_from(["joint", "independent"]),
)
@example(21.0, 2**-8, 0.0, 0.0, 0.0625, 9, "independent")
@example(3.0, 0.8125, 0.4999999999999999, 0.4999999999999999, 0.03125, 9, "joint")
def test_batched_rows_run_as_alone(mean_bright, dark_share, eps_down, eps_up, f, log_shots, mode):
    """The region test's draws, in both modes: every row of one batched loop
    runs as it would alone: the exact histograms from the truth and from the
    initial guess, and two multinomial resamples from the point estimate;
    then again with the step limit one below the most steps any row took, or
    at 20."""
    n = np.arange(count_support_max(mean_bright) + 1)
    pmfs = _readout_pmfs(n, mean_bright, dark_share * mean_bright, eps_down, eps_up, f)
    exact = np.array([np.rint(p * 10.0**log_shots) for p in pmfs])
    rng = np.random.default_rng(log_shots)
    resamples = [np.array([rng.multinomial(int(b.sum()), b / b.sum()) for b in exact], float) for _ in "ab"]
    truth = np.array([mean_bright, dark_share * mean_bright, eps_down, eps_up])
    guess = mle_fit._initial_guess(*exact, f)
    # the resamples start from the point estimate, as the bootstrap's do
    estimate = mle_fit._maximize(exact[None], f, guess[None], mode)[0][:, 0]
    estimate = np.where(mle_fit._FROM_DOWN, estimate[0], estimate[-1])
    h = np.array([exact, exact, *resamples])
    theta0 = np.array([truth, guess, estimate, estimate])
    iterations, _ = _assert_rows_run_alone(h, f, theta0, mode)
    # rows that stop at different steps; then the rows that took the most
    # steps (or more than 20) stop at a limit just below, the others as before
    limit = min(iterations.max() - 1, 20)
    if limit < 0:
        return
    with patch.object(mle_fit, "_MAX_ITERATIONS", limit):
        limited, reasons = _assert_rows_run_alone(h, f, theta0, mode)
    at_limit = iterations > limit
    assert np.all(reasons[at_limit] == "iteration limit")
    assert np.all(limited[at_limit] == limit)
    assert np.array_equal(limited[~at_limit], iterations[~at_limit])


def test_batched_rows_stop_on_their_own():
    # Exact histograms at 10^6 shots: from the truth, the initial guess and a
    # far start the rows need different numbers of steps, and with the limit
    # just below the far row's steps that row alone stops at it.
    mean_bright, dark_share, eps_down, eps_up, f = 20.0, 0.05, 1e-3, 2e-3, 1e-3
    n = np.arange(count_support_max(mean_bright) + 1)
    pmfs = _readout_pmfs(n, mean_bright, dark_share * mean_bright, eps_down, eps_up, f)
    exact = np.array([np.rint(p * 1e6) for p in pmfs])
    truth = np.array([mean_bright, dark_share * mean_bright, eps_down, eps_up])
    theta0 = np.array([truth, mle_fit._initial_guess(*exact, f), [40.0, 5.0, 0.3, 0.3]])
    h = np.array([exact] * 3)
    for mode in ("joint", "independent"):
        iterations, reasons = _assert_rows_run_alone(h, f, theta0, mode)
        assert len(set(iterations.ravel().tolist())) > 1, iterations
        assert set(reasons.ravel()) <= set(mle_fit._CONVERGED)
        most = iterations.max()
        assert (iterations == most).sum() == 1, iterations
        with patch.object(mle_fit, "_MAX_ITERATIONS", most - 1):
            limited, limited_reasons = _assert_rows_run_alone(h, f, theta0, mode)
        assert (limited_reasons == "iteration limit").sum() == 1
        assert set(limited_reasons[iterations < most]) <= set(mle_fit._CONVERGED)


def test_independent_fit_stops_on_an_unidentified_dark_mean():
    # Exact-expectation histograms at 10^9 shots with eps_down = 0: the
    # bright-only fit does not identify the dark mean, and its accepted
    # steps only walk within the rounding of the log-likelihood, so the
    # score rule alone ran into the iteration limit.  The predicted-gain
    # rule stops it; the up fit and the joint fit still stop on the score.
    mean_bright, dark_share, eps_up, f = 43.56373970187404, 0.784960155454172, 0.46307212722895513, 0.004473857345564882
    n = np.arange(count_support_max(mean_bright) + 1)
    pmfs = _readout_pmfs(n, mean_bright, dark_share * mean_bright, 0.0, eps_up, f)[:2]
    bins = [np.rint(p * 1e9).astype(np.int64) for p in pmfs]
    h_down, h_up = (CountHistogram(b, int(b.sum())) for b in bins)
    result = fit(h_down, h_up, f, 1.0, mode="independent")
    assert result.converged
    assert result.details["optimizer"] == {"down": "predicted gain below rounding", "up": "score below tolerance"}
    assert result.n_iterations < 50
    joint = fit(h_down, h_up, f, 1.0)
    assert joint.details["optimizer"] == "score below tolerance"
    # the reported bright mean and eps_down, from the bright-only fit,
    # agree with the joint fit
    for name in ("mean_bright", "eps_down_tot"):
        assert abs(getattr(result, name) - getattr(joint, name)) < joint.std_errors[name], name


def test_validation():
    pmf_down, pmf_up = _pmfs()
    rng = np.random.default_rng(1)
    good_down = _sample_hist(pmf_down, 1000, rng)
    good_up = _sample_hist(pmf_up, 1000, rng)
    tiny = CountHistogram(np.array([30, 20]), 50)
    with pytest.raises(ValueError):
        fit(tiny, good_up, T_DET, LIFETIME)
    degenerate = CountHistogram(np.array([0, 500]), 500)
    with pytest.raises(ValueError):
        fit(good_down, degenerate, T_DET, LIFETIME)
    with pytest.raises(ValueError):
        fit(good_down, good_up, 0.05, 0.4)  # decay fraction too large
    # every entry point checks the window as DetectionModel does
    for t_det, lifetime in ((0.0, LIFETIME), (-T_DET, LIFETIME), (T_DET, 0.0), (T_DET, -1.0)):
        for call in (fit, lambda *args: log_likelihood(TRUTH, *args),
                     lambda *args: log_likelihood_grad(TRUTH, *args)):
            with pytest.raises(ValueError, match="must be positive"):
                call(good_down, good_up, t_det, lifetime)
    with pytest.raises(ValueError):
        fit(good_down, good_up, T_DET, LIFETIME, mode="pooled")
    with pytest.raises(ValueError):
        fit(good_down, good_up, T_DET, LIFETIME, bootstrap=-1)
    with pytest.raises(ValueError, match="bootstrap"):
        fit(good_down, good_up, T_DET, LIFETIME, bootstrap=1)  # no spread from one resample
    for bootstrap in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="bootstrap"):
            fit(good_down, good_up, T_DET, LIFETIME, bootstrap=bootstrap)
    with pytest.raises(ValueError):
        ReadoutParams(0.5, 20.0, 0.0, 0.0)  # means out of order
    with pytest.raises(ValueError):
        ReadoutParams(20.0, 0.5, 0.6, 0.0)  # eps >= 0.5
    for mean_bright in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            ReadoutParams(mean_bright, 0.5, 0.0, 0.0)
    # a finite mean whose count support does not fit in int64
    with pytest.raises(ValueError, match="no count support"):
        log_likelihood(ReadoutParams(1e20, 1.0, 0.0, 0.0), good_down, good_up, T_DET, LIFETIME)


def test_impossible_bin_reports_neg_inf():
    bins = np.zeros(401, dtype=np.int64)
    bins[20] = 99
    bins[400] = 1  # probability underflows to exactly zero at n=400
    h_down = CountHistogram(bins, 100)
    h_up = CountHistogram(np.array([60, 40]), 100)
    ll = log_likelihood(TRUTH, h_down, h_up, T_DET, LIFETIME)
    assert ll == -np.inf


def test_json_round_trip(tmp_path, sampled_pair):
    h_down, h_up = sampled_pair
    result = fit(h_down, h_up, T_DET, LIFETIME)
    path = tmp_path / "fit.json"
    write_fit_json(result, path, metadata={"tool": "test"})
    back = read_fit_json(path)
    assert back.params == result.params
    assert back.std_errors == result.std_errors
    assert back.log_likelihood == result.log_likelihood
    assert back.converged == result.converged
    assert back.n_iterations == result.n_iterations
    assert back.t_det == result.t_det
    assert back.lifetime == result.lifetime
    assert back.mode == result.mode


def test_json_encodes_nan_std_errors(tmp_path):
    result = FitResult(
        params=ReadoutParams(20.0, 0.5, 1e-4, 1e-3),
        std_errors={
            "mean_bright": 0.01,
            "mean_dark": 0.001,
            "eps_down_tot": float("nan"),
            "eps_up_tot": 1e-4,
        },
        log_likelihood=-123.4,
        converged=False,
        n_iterations=7,
        t_det=T_DET,
        lifetime=LIFETIME,
    )
    path = tmp_path / "fit.json"
    write_fit_json(result, path)
    assert '"eps_down_tot": null' in path.read_text()
    back = read_fit_json(path)
    assert math.isnan(back.std_errors["eps_down_tot"])
    assert back.std_errors["eps_up_tot"] == 1e-4
    assert not back.converged


def test_read_fit_json_rejects_malformed_files(tmp_path):
    # each is a one-line ValueError that names the file
    path = tmp_path / "fit.json"
    full = {
        "mean_bright": 20.0, "mean_dark": 0.5, "eps_down_tot": 1e-4, "eps_up_tot": 1e-3,
        "std_errors": [], "log_likelihood": -1.0, "converged": True, "n_iterations": 3,
        "t_det_s": T_DET, "lifetime_s": LIFETIME,
    }
    for payload in ({"mean_bright": 1}, [1, 2], full, dict(full, std_errors={"mean_bright": "x"})):
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValueError) as info:
            read_fit_json(path)
        assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value), payload
