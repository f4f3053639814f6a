"""Threshold and arrival-time classification, grid optimization."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from shelveread.discrimination import (
    ErrorReport,
    OptimizationGrid,
    State,
    classify,
    classify_time_resolved,
    classify_traces,
    mean_error,
    optimize,
    read_error_surface_csv,
    write_error_surface_csv,
)
import shelveread.discrimination as dc
from shelveread.discrimination import (
    _log_no_decay,
    _log_ratio_bound,
    _log_ratio_dark_bright,
    _trace_slices,
)
from shelveread.monte_carlo import PhotonTrace, Prepared, SimConfig, TraceBatch, simulate_traces
from shelveread.photon_statistics import (
    DetectionModel,
    ErrorRates,
    bright_pdf,
    count_support_max,
    dark_pdf,
)


def test_classify_threshold_boundary():
    assert classify(5, 5) is State.DARK  # bright strictly above threshold
    assert classify(6, 5) is State.BRIGHT
    assert classify(0, 5) is State.DARK
    assert classify(6, np.int64(5)) is State.BRIGHT
    for n_th in (-1, True, 4.5, 5.0):
        with pytest.raises(ValueError, match="n_th must be a non-negative integer"):
            classify(3, n_th)
    with pytest.raises(ValueError, match="count must be non-negative"):
        classify(-1, 5)


def test_mean_error_brute_force(measured_model):
    pb = bright_pdf(measured_model).probs
    pd = dark_pdf(measured_model).probs
    # 65 and up: past the bright peak, where the pmf sums to just above 1
    for n_th in (0, 3, 6, 12, 64, 65, 200):
        report = mean_error(measured_model, n_th)
        eps_bright = math.fsum(pb[: n_th + 1])  # bright read as dark
        eps_dark = math.fsum(pd[n_th + 1 :])  # dark read as bright
        assert report.eps_bright == pytest.approx(eps_bright, rel=1e-12)
        assert report.eps_dark == pytest.approx(eps_dark, rel=1e-12)
        assert report.eps_mean == 0.5 * (report.eps_bright + report.eps_dark)


def test_mean_error_takes_integer_thresholds(measured_model):
    for n_th in (-1, True, 6.0, 5.5):
        with pytest.raises(ValueError, match="n_th must be a non-negative integer"):
            mean_error(measured_model, n_th)
    assert mean_error(measured_model, np.int64(6)) == mean_error(measured_model, 6)


def test_mean_error_frozen_values(measured_model):
    report = mean_error(measured_model, 6)
    assert report.eps_mean == pytest.approx(3.139442200097263e-4, abs=1e-15)
    assert report.eps_bright == pytest.approx(1.2846043265736648e-4, abs=1e-15)
    assert report.eps_dark == pytest.approx(4.994280073620861e-4, abs=1e-15)


def test_error_report_mean_invariant():
    # the means are computed from the stored errors, never stored beside them
    report = ErrorReport(eps_bright=0.1, eps_dark=0.3, eps_prep=0.25)
    assert report.eps_mean == 0.5 * (0.1 + 0.3)
    assert report.eps_total_mean == report.eps_mean + 0.25
    for name in ("eps_bright", "eps_dark", "eps_prep"):
        values = dict(eps_bright=0.1, eps_dark=0.3, eps_prep=0.0)
        for bad in (-1e-300, 1.0000000000000002, math.nan):
            with pytest.raises(ValueError, match=f"{name} must lie in"):
                ErrorReport(**{**values, name: bad})


def test_total_error(measured_model):
    errors = ErrorRates(6e-4, 10e-4)
    report = mean_error(measured_model, 6, errors)
    assert report.eps_total_mean == pytest.approx(
        report.eps_mean + 8e-4, rel=1e-12
    )
    assert report.eps_total_mean == pytest.approx(1.113944220009726e-3, abs=1e-15)


def test_optimize_paper_grid():
    result = optimize(rate_bright=73.5e3, rate_dark=1.75e3, lifetime=0.390)
    assert result.t_det == pytest.approx(280e-6, abs=1e-12)
    assert result.n_th == 5
    assert result.eps_mean == pytest.approx(2.8988112800945473e-4, abs=1e-15)
    # default grid bounds: 50..600 us step 5, thresholds 0..30
    assert result.grid.t_values.size == 111
    assert result.grid.n_values.size == 31
    assert result.surface.shape == (111, 31)
    assert result.surface.max() <= 0.5


def test_optimize_surface_matches_mean_error():
    # the 100 / 285 / 300 us supports end at counts 71 / 115 / 118; the
    # thresholds straddle each top, and 200 lies past all three
    n_values = np.array([*range(0, 9), 30, 70, 71, 72, 114, 115, 116, 117, 118, 119, 200])
    grid = OptimizationGrid(t_values=np.array([100e-6, 285e-6, 300e-6]), n_values=n_values)
    result = optimize(rate_bright=73.5e3, rate_dark=1.75e3, lifetime=0.390, grid=grid)
    for i, t in enumerate(grid.t_values):
        model = DetectionModel(73.5e3, 1.75e3, 0.390, t)
        for j, n_th in enumerate(grid.n_values):
            assert result.surface[i, j] == mean_error(model, int(n_th)).eps_mean
    # past the bright peak every count reads dark: exactly 1/2, never above
    assert result.surface.max() == 0.5
    window = OptimizationGrid(t_values=np.array([285e-6]), n_values=np.arange(0, 201))
    surface = optimize(73.5e3, 1.75e3, 0.390, grid=window).surface
    assert surface.max() == 0.5


@settings(max_examples=20, deadline=None)
@given(
    mean_bright=st.floats(3.0, 200.0),
    dark_share=st.floats(0.05, 0.95),
    decay_fraction=st.floats(1e-6, 0.099),
    t_det=st.floats(1e-5, 1e-3),
)
# means 100 and 40: the dark pmf's mass above 0 sums to 1 + 1.8e-15, so an
# uncapped tail sum made eps_dark at n_th = 0 exceed 1
@example(mean_bright=100.0, dark_share=0.4, decay_fraction=0.01, t_det=1e-4)
def test_threshold_errors_over_the_region(mean_bright, dark_share, decay_fraction, t_det):
    rate_bright = mean_bright / t_det
    model = DetectionModel(rate_bright, dark_share * rate_bright, t_det / decay_fraction, t_det)
    n_values = np.arange(int(count_support_max(mean_bright)) + 2)
    reports = [mean_error(model, int(n_th)) for n_th in n_values]
    for report in reports:
        assert 0.0 <= report.eps_bright <= 1.0 and 0.0 <= report.eps_dark <= 1.0
    grid = OptimizationGrid(np.array([t_det]), n_values)
    surface = optimize(model.rate_bright, model.rate_dark, model.lifetime, grid=grid).surface[0]
    expected = np.array([report.eps_mean for report in reports])
    np.testing.assert_array_equal(surface.view(np.uint64), expected.view(np.uint64))


def test_optimize_picks_first_flat_minimum():
    result = optimize(rate_bright=73.5e3, rate_dark=1.75e3, lifetime=0.390)
    flat = int(np.argmin(result.surface))
    i, j = np.unravel_index(flat, result.surface.shape)
    assert result.t_det == result.grid.t_values[i]
    assert result.n_th == result.grid.n_values[j]
    # row-major argmin == first minimum scanning windows outward
    mins = np.flatnonzero(result.surface.ravel() == result.surface.min())
    assert flat == mins[0]


def test_optimize_zero_dark_rate():
    result = optimize(rate_bright=73.5e3, rate_dark=0.0, lifetime=0.390)
    assert np.isfinite(result.eps_mean)
    assert 0.0 < result.eps_mean < 2.898811280094431e-4  # easier than with dark counts present


def test_optimization_grid_validation():
    with pytest.raises(ValueError):
        OptimizationGrid(t_values=np.array([2e-4, 1e-4]), n_values=np.arange(3))
    with pytest.raises(ValueError):
        OptimizationGrid(t_values=np.array([1e-4, 2e-4]), n_values=np.array([3, 3]))
    # thresholds are not rounded: a non-integer or negative one is refused
    for n_values in ([4.5, 5.7], [4.0, 5.0], [True, 2], np.array([False, True]), [-1, 2], [], [[1, 2]]):
        with pytest.raises(ValueError, match="n_values must be a non-empty 1-D array of integer"):
            OptimizationGrid(t_values=np.array([1e-4]), n_values=n_values)
    grid = OptimizationGrid(t_values=[1e-4], n_values=[np.uint8(2), 7])
    assert grid.n_values.dtype == np.int64 and grid.n_values.tolist() == [2, 7]


# ---------------------------------------------------------------------------
# Time-resolved classification


def _log_ratio_oracle(times: np.ndarray, model: DetectionModel) -> float:
    """Decay-marginalized likelihood ratio by quadrature, segment by segment.

    A decay between the k-th and the (k+1)-th arrival weighs the record by
    rr^k e^(a T).  Each segment is integrated by adaptive quadrature, except
    where the exponent changes by at most 1e-6 across it (|a| width <= 1e-6):
    there the midpoint rule, whose relative error (a width)^2/24 is below
    1e-13, replaces a quadrature whose nodes may not resolve a segment a
    few ulps wide.
    """
    t_det, tau = model.t_det, model.lifetime
    rr = model.rate_dark / model.rate_bright
    a = model.rate_bright - model.rate_dark - 1.0 / tau
    n = times.size

    no_decay = math.exp(-t_det / tau) * rr**n * math.exp(
        (model.rate_bright - model.rate_dark) * t_det
    )

    total = 0.0
    edges = np.concatenate([[0.0], times, [t_det]])
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi <= lo:
            continue
        if abs(a) * (hi - lo) <= 1e-6:
            piece = (hi - lo) * math.exp(a * (0.5 * lo + 0.5 * hi))
        else:
            piece, _ = quad(lambda T: math.exp(a * T), lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
        total += rr**k * piece
    ratio = no_decay + total / tau
    # zero only with no dark rate and a photon at t = 0: certainly bright
    return math.log(ratio) if ratio > 0.0 else -math.inf


def test_log_ratio_matches_quadrature(optimum_model):
    models = [
        optimum_model,  # a > 0
        DetectionModel(73.5e3, 0.0, 0.390, 280e-6),  # rate_dark = 0: 0**0 = 1
        DetectionModel(10.0, 1.0, 0.05, 1e-3),  # a < 0
        DetectionModel(21.0, 1.0, 0.05, 1e-3),  # a = 21 - 1 - 1/0.05 = 0.0 exactly
    ]
    for model in models:
        rng = np.random.default_rng(7)
        traces = [np.array([])]
        for n in (1, 2, 3, 5, 8):
            traces.append(np.sort(rng.uniform(0, model.t_det, n)))
        for times in traces:
            flat = times.astype(float)
            offsets = np.array([0, flat.size])
            got = _log_ratio_dark_bright(flat, offsets, model)[0]
            expected = _log_ratio_oracle(flat, model)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    t_det=st.floats(1e-5, 1e-3),
    mean_bright=st.floats(0.1, 60.0),
    rr=st.one_of(st.just(0.0), st.floats(1e-3, 0.9)),
    decay_fraction=st.floats(1e-4, 0.099),
    # window fractions below 1e-9 would make subnormal times, whose few
    # mantissa bits no float evaluation (the quadrature included) resolves
    positions=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), max_size=40),
)
# two photons one ulp apart: adaptive quadrature over that segment warns
# "Extremely bad integrand behavior"
@example(
    t_det=0.00040705749762821685,
    mean_bright=1.0,
    rr=0.5,
    decay_fraction=0.0625,
    positions=[1.0000000000000003e-09, 1e-09],
)
def test_log_ratio_matches_quadrature_property(t_det, mean_bright, rr, decay_fraction, positions):
    rate_bright = mean_bright / t_det
    model = DetectionModel(rate_bright, rr * rate_bright, t_det / decay_fraction, t_det)
    times = np.sort(np.array(positions, dtype=float)) * t_det
    got = _log_ratio_dark_bright(times, np.array([0, times.size]), model)[0]
    assert got == pytest.approx(_log_ratio_oracle(times, model), rel=1e-9, abs=1e-9)


def test_log_ratio_batch_equals_single_traces(optimum_model):
    # the segmented sum must not leak between neighbouring traces, empty or not
    rng = np.random.default_rng(11)
    traces = [np.sort(rng.uniform(0, optimum_model.t_det, n)) for n in (0, 3, 0, 0, 7, 1, 0)]
    flat = np.concatenate(traces)
    offsets = np.concatenate([[0], np.cumsum([t.size for t in traces])])
    batch = _log_ratio_dark_bright(flat, offsets, optimum_model)
    for i, times in enumerate(traces):
        single = _log_ratio_dark_bright(times, np.array([0, times.size]), optimum_model)[0]
        assert batch[i] == pytest.approx(single, rel=1e-14, abs=1e-14)


def test_time_resolved_empty_and_busy_traces(optimum_model):
    assert classify_time_resolved(np.array([]), optimum_model) is State.DARK
    busy = np.linspace(0.0, optimum_model.t_det, 22)[1:-1]
    assert classify_time_resolved(busy, optimum_model) is State.BRIGHT


def test_time_resolved_degrades_to_threshold(optimum_model):
    """Evenly spread arrivals: one dark->bright flip near the count threshold."""
    decisions = []
    for n in range(0, 21):
        times = np.linspace(0.0, optimum_model.t_det, n + 2)[1:-1]
        decisions.append(classify_time_resolved(times, optimum_model) is State.BRIGHT)
    flips = [i for i in range(1, len(decisions)) if decisions[i] != decisions[i - 1]]
    assert len(flips) == 1
    assert not decisions[0] and decisions[-1]
    assert 3 <= flips[0] <= 9  # near the optimal threshold of 5


def test_time_resolved_uses_arrival_times(optimum_model):
    # same count (6, above threshold 5), opposite verdicts: photons bunched
    # at the end look like a shelved ion that decayed late in the window,
    # photons bunched at the start can only be a sparse bright record
    early = np.linspace(0.0, 0.05, 6) * optimum_model.t_det
    late = optimum_model.t_det * (1.0 - np.linspace(0.05, 0.0, 6))
    assert classify_time_resolved(early, optimum_model) is State.BRIGHT
    assert classify_time_resolved(late, optimum_model) is State.DARK
    assert classify(6, 5) is State.BRIGHT  # counts alone cannot tell


def test_time_resolved_validation(optimum_model):
    with pytest.raises(ValueError):
        classify_time_resolved(np.array([-1e-6]), optimum_model)
    with pytest.raises(ValueError):
        classify_time_resolved(np.array([optimum_model.t_det + 1e-9]), optimum_model)
    with pytest.raises(ValueError):
        classify_time_resolved(np.array([2e-4, 1e-4]), optimum_model)
    with pytest.raises(ValueError):
        classify_time_resolved(np.array([1e-4, np.nan, 2e-4]), optimum_model)
    with pytest.raises(ValueError):
        classify_time_resolved(np.array([np.nan]), optimum_model)


def test_classify_traces_rejects_nan_time(optimum_model):
    batch = TraceBatch(np.array([1e-4, np.nan, 2e-4]), np.array([0, 1, 3]), optimum_model.t_det)
    with pytest.raises(ValueError, match="within"):
        classify_traces(batch, optimum_model)


@pytest.mark.parametrize(
    "offsets",
    [[0, 5, 2], [1, 2], [0, 1], [0, 2, 3, 3, 4], [], [[0, 2]]],
    ids=["decreasing", "not_at_0", "short_end", "long_end", "empty", "2d"],
)
def test_classify_traces_rejects_bad_offsets(optimum_model, offsets):
    # a duck-typed batch skips TraceBatch's own checks
    batch = SimpleNamespace(timestamps=np.array([1e-5, 2e-5]), offsets=offsets, t_det=optimum_model.t_det)
    with pytest.raises(ValueError, match="offsets"):
        classify_traces(batch, optimum_model)


def test_classifiers_refuse_another_window(measured_model, measured_errors):
    model_200us = DetectionModel(73.5e3, 1.75e3, 0.390, 200e-6)
    batch = simulate_traces(Prepared.DOWN, SimConfig(model_200us, measured_errors, shots=20_000, seed=1))
    with pytest.raises(ValueError, match="window"):
        classify_traces(batch, measured_model)
    with pytest.raises(ValueError, match="window"):
        classify_time_resolved(batch.trace(0), measured_model)
    # a bare array takes the model's window, as a trace of that window does
    times = batch.trace(0).timestamps
    same_window = PhotonTrace(times, measured_model.t_det)
    assert classify_time_resolved(times, measured_model) is classify_time_resolved(same_window, measured_model)
    assert classify_traces(batch, model_200us).mean() > 0.99


def test_classify_traces_rejects_unsorted_trace(optimum_model):
    # empty traces around the unsorted one put trace boundaries at both ends
    unsorted = TraceBatch(np.array([2e-4, 1e-4]), np.array([0, 0, 2, 2]), optimum_model.t_det)
    with pytest.raises(ValueError):
        classify_traces(unsorted, optimum_model)
    # times may drop from the last photon of one trace to the next trace
    drop = TraceBatch(
        np.array([1e-4, 2e-4, 5e-5, 2.5e-4]), np.array([0, 0, 2, 2, 4]), optimum_model.t_det
    )
    bright = classify_traces(drop, optimum_model)
    for i in range(len(drop)):
        single = classify_time_resolved(drop.trace(i), optimum_model)
        assert bright[i] == (single is State.BRIGHT)


def test_classify_traces_matches_single(optimum_model, big_ensembles):
    batch = big_ensembles["up"]
    bright_mask = classify_traces(batch, optimum_model)
    assert bright_mask.shape == (len(batch),)
    for i in (0, 1, 1234, 299_999):
        single = classify_time_resolved(batch.trace(i), optimum_model)
        assert bright_mask[i] == (single is State.BRIGHT)


def _exact_path_ratios(monkeypatch, batch, model):
    """``classify_traces`` on ``batch``, and ``(trace, log ratio)`` for each trace of its exact sum.

    A trace is found by its photons; traces with equal photons have equal
    ratios, so which of them is named does not matter.
    """
    ends = batch.offsets
    index = {batch.timestamps[lo:hi].tobytes(): i for i, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]))}
    exact = []

    def spy(times, offsets, model):
        ratios = _log_ratio_dark_bright(times, offsets, model)
        exact.extend((index[times[lo:hi].tobytes()], r) for lo, hi, r in zip(offsets[:-1], offsets[1:], ratios))
        return ratios

    monkeypatch.setattr(dc, "_log_ratio_dark_bright", spy)
    bright = classify_traces(batch, model)
    monkeypatch.setattr(dc, "_log_ratio_dark_bright", _log_ratio_dark_bright)
    return bright, exact


def _assert_bits_equal(exact, whole):
    got = np.array([r for _, r in exact])
    np.testing.assert_array_equal(got.view(np.uint64), whole[[i for i, _ in exact]].view(np.uint64))


def test_classify_traces_slices_match_whole_batch(optimum_model, monkeypatch):
    # Slices of 8 traces plus photons over 17 traces: a slice ending in an
    # empty trace before one of 8 empty traces (no photons at all), a
    # 12-photon trace alone, then two more slices.  The 12 photons crowd the
    # last tenth of the window, as after a late decay, so neither the count
    # nor the bound decides that trace.
    counts = [3, 2, 0, *[0] * 8, 12, 1, 0, 4, 2, 1]
    rng = np.random.default_rng(3)
    traces = [np.sort(rng.uniform(0.0, optimum_model.t_det, n)) for n in counts]
    traces[11] = np.sort(rng.uniform(0.9, 1.0, 12)) * optimum_model.t_det
    batch = TraceBatch(np.concatenate(traces), np.concatenate([[0], np.cumsum(counts)]), optimum_model.t_det)
    whole = _log_ratio_dark_bright(batch.timestamps, batch.offsets, optimum_model)
    slices = []

    def spy(offsets, budget):
        for lo, hi in _trace_slices(offsets, budget):
            slices.append(np.diff(offsets[lo : hi + 1]).tolist())
            yield lo, hi

    monkeypatch.setattr(dc, "_SLICE", 8)
    monkeypatch.setattr(dc, "_trace_slices", spy)
    bright, exact = _exact_path_ratios(monkeypatch, batch, optimum_model)
    np.testing.assert_array_equal(bright, whole < 0.0)
    assert slices == [[3, 2, 0], [0] * 8, [12], [1, 0, 4], [2, 1]]
    assert [i for i, _ in exact] == [11]
    _assert_bits_equal(exact, whole)

    # simulated batches, with slices of a few dozen traces; one UP trace
    # reaches the exact sum
    monkeypatch.setattr(dc, "_SLICE", 257)
    monkeypatch.setattr(dc, "_trace_slices", _trace_slices)
    reached = 0
    for prepared, seed in ((Prepared.DOWN, 1), (Prepared.UP, 2)):
        config = SimConfig(optimum_model, ErrorRates(0.05, 0.05), shots=3001, seed=seed)
        batch = simulate_traces(prepared, config)
        whole = _log_ratio_dark_bright(batch.timestamps, batch.offsets, optimum_model)
        bright, exact = _exact_path_ratios(monkeypatch, batch, optimum_model)
        np.testing.assert_array_equal(bright, whole < 0.0)
        _assert_bits_equal(exact, whole)
        reached += len(exact)
    assert reached > 0


def test_classify_traces_exact_sum_is_rare(measured_model, measured_errors, monkeypatch):
    # At the paper's point the count and the bound decide all but a few
    # bright traces; a bound that stopped deciding would send every trace
    # to the exact sum and still give the same calls.
    config = SimConfig(measured_model, measured_errors, shots=3001, seed=5)
    batch = simulate_traces(Prepared.DOWN, config)
    bright, exact = _exact_path_ratios(monkeypatch, batch, measured_model)
    assert len(exact) <= 0.01 * len(batch)
    whole = _log_ratio_dark_bright(batch.timestamps, batch.offsets, measured_model)
    np.testing.assert_array_equal(bright, whole < 0.0)


def test_classify_traces_at_the_decision_boundary(optimum_model):
    # The family of test_time_resolved_uses_arrival_times: six photons over
    # 5 % of the window from a start s, bright at s = 0 and dark at s = 0.9 T.
    # Bisect s until the exact ratio is within 1e-12 of 0.
    spread = np.linspace(0.0, 0.05, 6) * optimum_model.t_det

    def ratio(start):
        return _log_ratio_dark_bright(start + spread, np.array([0, 6]), optimum_model)[0]

    lo, hi = 0.0, 0.9 * optimum_model.t_det
    assert ratio(lo) < 0.0 < ratio(hi)
    for _ in range(200):
        start = 0.5 * (lo + hi)
        if abs(ratio(start)) <= 1e-12:
            break
        lo, hi = (start, hi) if ratio(start) < 0.0 else (lo, start)
    assert abs(ratio(start)) <= 1e-12
    for shift in (start, np.nextafter(start, 0.0), np.nextafter(start, 1.0)):
        bright = classify_time_resolved(shift + spread, optimum_model) is State.BRIGHT
        assert bright == (ratio(shift) < 0.0)


_POSITION = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    t_det=st.floats(1e-5, 1e-3),
    mean_bright=st.floats(0.1, 60.0),
    rr=st.one_of(st.just(0.0), st.floats(1e-3, 0.9)),
    decay_fraction=st.floats(1e-4, 0.099),
    zero_a=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    traces=st.lists(st.lists(_POSITION, max_size=12), max_size=8),
)
# a > 0 at the optimum's means, a < 0 (mean gap 0.05 < f = 0.09, where
# even a trace with no photons is open), a = 0 with a dark rate and with none
@example(t_det=280e-6, mean_bright=20.58, rr=0.0238, decay_fraction=7.2e-4, zero_a=False, seed=1,
         traces=[[0.0, 0.5, 1.0], [0.95, 0.96, 0.97, 0.98, 0.99, 1.0]])
@example(t_det=1e-3, mean_bright=0.1, rr=0.5, decay_fraction=0.09, zero_a=False, seed=2, traces=[[], []])
@example(t_det=1e-4, mean_bright=1.0, rr=0.5, decay_fraction=0.05, zero_a=True, seed=3, traces=[[0.2, 0.9]])
@example(t_det=1e-4, mean_bright=1.0, rr=0.0, decay_fraction=0.05, zero_a=True, seed=4, traces=[[0.0], [0.3]])
def test_classify_traces_decides_as_the_exact_ratio(t_det, mean_bright, rr, decay_fraction, zero_a, seed, traces):
    if zero_a:
        # a = rate_bright - rate_dark - 1/lifetime is 0 exactly: a gap of
        # 2^k Hz, a lifetime of 2^-k s and a dark rate in steps of 2^(k-6) Hz
        gap = 2.0 ** math.floor(math.log2(decay_fraction / t_det))
        rate_dark = gap * round(64 * rr / (1.0 - rr)) / 64
        model = DetectionModel(rate_dark + gap, rate_dark, 1.0 / gap, t_det)
        assert model.rate_bright - model.rate_dark - 1.0 / model.lifetime == 0.0
    else:
        rate_bright = mean_bright / t_det
        model = DetectionModel(rate_bright, rr * rate_bright, t_det / decay_fraction, t_det)
    batches = [
        simulate_traces(prepared, SimConfig(model, ErrorRates(0.05, 0.05), shots=200, seed=seed))
        for prepared in Prepared
    ]
    times = [np.sort(np.array(p, dtype=float)) * t_det for p in traces]
    offsets = np.cumsum([0, *(t.size for t in times)])
    batches.append(TraceBatch(np.concatenate([np.empty(0), *times]), offsets, t_det))
    for batch in batches:
        whole = _log_ratio_dark_bright(batch.timestamps, batch.offsets, model)
        lens = np.diff(batch.offsets)
        bound = _log_ratio_bound(batch.timestamps, batch.offsets[:-1], lens, _log_no_decay(lens, model), model)
        assert np.all(bound >= whole)
        np.testing.assert_array_equal(classify_traces(batch, model), whole < 0.0)


def test_surface_csv_round_trip(tmp_path):
    grid = OptimizationGrid(
        t_values=np.array([100e-6, 150e-6]), n_values=np.arange(0, 4)
    )
    result = optimize(rate_bright=73.5e3, rate_dark=1.75e3, lifetime=0.390, grid=grid)
    path = tmp_path / "surface.csv"
    write_error_surface_csv(result, path, metadata={"tool": "test", "seed": 0})
    text = path.read_text()
    assert text.startswith("# tool: test\n# seed: 0\n")
    t_values, n_values, surface = read_error_surface_csv(path)
    np.testing.assert_allclose(t_values, grid.t_values, rtol=1e-12)
    np.testing.assert_array_equal(n_values, grid.n_values)
    np.testing.assert_allclose(surface, result.surface, rtol=1e-12)
    # (0, 90) and (90, 0) are missing and the other two points doubled
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("t_det_us,n_th,eps\n0,0,0.1\n0,0,0.2\n90,90,0.3\n90,90,0.4\n")
    with pytest.raises(ValueError, match="rectangular"):
        read_error_surface_csv(doubled)
