"""Counter-keyed shot simulation: determinism, statistics, file interchange."""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import shelveread.monte_carlo as mc
from shelveread.monte_carlo import (
    CountHistogram,
    DecayTimeLaw,
    PhotonTrace,
    Prepared,
    SimConfig,
    TraceBatch,
    read_histogram_csv,
    read_traces,
    simulate_counts,
    simulate_histogram,
    simulate_shot,
    simulate_traces,
    write_histogram_csv,
    write_traces,
)
from shelveread.monte_carlo import _inverse_table, _poisson_quantile
from shelveread.photon_statistics import (
    ZERO_ERRORS,
    DetectionModel,
    ErrorRates,
    count_support_max,
    dark_pdf,
    observed_pdf_down,
    observed_pdf_up,
    poisson_pmf,
)


def _config(model, **kw):
    return SimConfig(model=model, **kw)


# ---------------------------------------------------------------------------
# Determinism and parallel reproducibility


def test_counts_independent_of_threads_and_chunking(measured_model, monkeypatch):
    config = _config(measured_model, shots=5000, seed=101)
    reference = simulate_counts(Prepared.UP, config, threads=1)
    monkeypatch.setattr(mc, "_COUNT_CHUNK", 257)
    for threads in (1, 3, 8):
        again = simulate_counts(Prepared.UP, config, threads=threads)
        np.testing.assert_array_equal(again, reference)


def test_traces_independent_of_threads_and_chunking(monkeypatch):
    # Count chunks of 257 shots and placement tasks of one event group: the
    # batch spans two full groups and a partial one, and runs of dark shots
    # cross the count chunks' boundaries.  Both states under both decay laws.
    model = DetectionModel(73.5e3, 1.75e3, 285e-6 / 0.072, 285e-6)
    shots = 2 * mc._EVENT_GROUP + 300
    for prepared, law in itertools.product(Prepared, DecayTimeLaw):
        config = SimConfig(model, ErrorRates(0.3, 0.3), shots=shots, seed=5, decay_time_law=law)
        with monkeypatch.context() as patch:
            reference = simulate_traces(prepared, config, threads=1)
            patch.setattr(mc, "_COUNT_CHUNK", 257)
            patch.setattr(mc, "_PLACE_CHUNK", mc._EVENT_GROUP)
            for threads in (1, 2, 4):
                again = simulate_traces(prepared, config, threads=threads)
                np.testing.assert_array_equal(again.timestamps, reference.timestamps)
                np.testing.assert_array_equal(again.offsets, reference.offsets)


_PAPER_POINT = (DetectionModel(73.5e3, 1.75e3, 0.390, 285e-6), ErrorRates(6e-4, 1e-3))
_HIGH_DECAY_POINT = (DetectionModel(73.5e3, 1.75e3, 285e-6 / 0.072, 285e-6), ErrorRates(0.3, 0.3))


@pytest.mark.parametrize("point", [_PAPER_POINT, _HIGH_DECAY_POINT], ids=["paper", "high_decay"])
@pytest.mark.parametrize("chunk", [None, 257])
def test_histogram_equals_histogram_of_counts(point, chunk, monkeypatch):
    # Per-chunk bins, added, are the histogram of the per-shot counts: the
    # same values, length and total.  In chunks of 257, 1 and 256 shots are
    # one partial chunk, 257 one full chunk, and 1000 three full chunks and a
    # partial one.
    model, errors = point
    if chunk is not None:
        monkeypatch.setattr(mc, "_COUNT_CHUNK", chunk)
    for prepared, law, shots in itertools.product(Prepared, DecayTimeLaw, (1, 256, 257, 1000)):
        config = SimConfig(model, errors, shots=shots, seed=17, decay_time_law=law)
        reference = CountHistogram.from_counts(simulate_counts(prepared, config, threads=1))
        for threads in (1, 2, 4):
            hist = simulate_histogram(prepared, config, threads=threads)
            np.testing.assert_array_equal(hist.counts_per_bin, reference.counts_per_bin)
            assert hist.counts_per_bin.dtype == np.int64
            assert hist.total_shots == reference.total_shots == shots


def test_histogram_memory_is_bounded_by_chunks(measured_model):
    # The bounds were fixed before the first measurement.  The per-shot int64
    # counts of 2e6 shots alone are 15.3 MiB; two threads' chunks hold far
    # less.  At the high-decay point about 5 % of UP shots walk their own
    # CDF, in one in-place buffer per step: one thread peaked at 2.78 MiB
    # when each step built row-major pmf temporaries, and at 2.13 MiB since.
    model, errors = _HIGH_DECAY_POINT
    cases = [
        (Prepared.DOWN, _config(measured_model, shots=2_000_000, seed=3), 2, 10 * 2**20),
        (Prepared.UP, SimConfig(model, errors, shots=2_000_000, seed=3), 1, 2.5 * 2**20),
    ]
    for prepared, config, threads, bound in cases:
        simulate_histogram(prepared, config, threads=threads)  # warm the pmf caches
        tracemalloc.start()
        try:
            hist = simulate_histogram(prepared, config, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.total_shots == config.shots
        assert peak < bound, (prepared, peak)


@pytest.mark.parametrize(
    "shots,threads,chunk,cpus,expected",
    [
        (10, 1, 4, 8, 1),
        (10, 8, 4, 8, 3),  # ceil(10 / 4) chunks
        (100, 8, 4, 2, 2),  # CPU count
        (100, 3, 4, 8, 3),  # requested threads
        (8, 10**9, 1, 4, 4),  # a huge request is capped, not honored
        (1, 4, 1 << 20, 4, 1),
    ],
)
def test_shard_bounds(monkeypatch, shots, threads, chunk, cpus, expected):
    # _run_sharded cuts 0..shots-1 into chunks, in order, and runs
    # them on at most `expected` threads.  Even with a broken cap no case can
    # start more than 8 threads: a pool starts at most one thread per chunk.
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    seen = []

    def work(lo, hi):
        seen.append(threading.get_ident())
        time.sleep(0.002)  # keep the task busy, so an uncapped pool adds threads
        return lo, hi

    chunks = mc._run_sharded(work, shots, chunk, threads)
    assert len(chunks) == len(seen) == -(-shots // chunk)
    assert chunks[0][0] == 0 and chunks[-1][1] == shots
    assert all(0 < hi - lo <= chunk for lo, hi in chunks)
    assert all(hi == lo2 for (_, hi), (lo2, _) in zip(chunks[:-1], chunks[1:]))
    assert len(set(seen)) <= expected
    if expected == 1:
        assert set(seen) == {threading.get_ident()}  # one worker runs inline
    with pytest.raises(ValueError):
        mc._run_sharded(work, shots, chunk, 0)


def test_trace_counts_match_count_mode(optimum_model, measured_errors, big_ensembles):
    config = _config(
        optimum_model, errors=measured_errors, shots=big_ensembles["shots"], seed=42
    )
    counts = simulate_counts(Prepared.DOWN, config, threads=2)
    np.testing.assert_array_equal(counts, big_ensembles["down"].counts)


def test_simulate_shot_regenerates_batch_traces(measured_model, reference_shots):
    # Both states at the measured point without errors and at the high-decay
    # point, where flipped bright shots have many photons and dark ones
    # decay in the window: each such shot regenerates alone.  The batch
    # spans two full event groups and a partial one, so the first and last
    # shots of a group and the last shot of the batch are checked too.
    group = mc._EVENT_GROUP
    points = [(measured_model, ZERO_ERRORS), _HIGH_DECAY_POINT]
    for (model, errors), prepared in itertools.product(points, Prepared):
        config = SimConfig(model, errors, shots=2 * group + 300, seed=77)
        batch = simulate_traces(prepared, config)
        t_switch, _, n = reference_shots(prepared, config, 0, config.shots)
        decayed = np.flatnonzero((t_switch > 0.0) & (t_switch < model.t_det))
        wide = np.flatnonzero((t_switch == 0.0) & (n > 8))
        if errors is not ZERO_ERRORS:
            assert decayed.size and wide.size
        edges = {0, 1, group - 1, group, 2 * group - 1, 2 * group, config.shots - 1}
        for i in edges | {*decayed[:3].tolist(), *wide[:3].tolist()}:
            single = simulate_shot(prepared, config, i)
            np.testing.assert_array_equal(single.timestamps, batch.trace(i).timestamps)
            assert single.t_det == batch.t_det


def test_different_seeds_differ(measured_model):
    a = simulate_counts(Prepared.DOWN, _config(measured_model, shots=2000, seed=1))
    b = simulate_counts(Prepared.DOWN, _config(measured_model, shots=2000, seed=2))
    assert np.any(a != b)


# ---------------------------------------------------------------------------
# Statistics against the closed-form distributions


def test_bright_mean_and_variance(measured_model):
    counts = simulate_counts(Prepared.DOWN, _config(measured_model, shots=200_000, seed=8))
    mean = measured_model.mean_bright
    se = math.sqrt(mean / counts.size)
    assert abs(counts.mean() - mean) < 5 * se
    assert abs(counts.var() - mean) < 0.1 * mean  # Poisson: variance == mean


def test_histogram_matches_observed_pdf_down(optimum_model, measured_errors, big_ensembles):
    counts = big_ensembles["down"].counts
    pmf = observed_pdf_down(optimum_model, measured_errors).probs
    _chi_square_goodness(counts, pmf)


def test_histogram_matches_observed_pdf_up(optimum_model, measured_errors, big_ensembles):
    counts = big_ensembles["up"].counts
    pmf = observed_pdf_up(optimum_model, measured_errors).probs
    _chi_square_goodness(counts, pmf)


def _chi_square_goodness(counts, pmf):
    n = counts.size
    observed = np.bincount(counts, minlength=pmf.size).astype(float)
    expected = pmf * n
    # pool bins until every pooled bin expects >= 10 shots
    obs_pool, exp_pool, o_acc, e_acc = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 10.0:
            obs_pool.append(o_acc)
            exp_pool.append(e_acc)
            o_acc = e_acc = 0.0
    obs_pool[-1] += o_acc
    exp_pool[-1] += e_acc
    chi2 = float(np.sum((np.array(obs_pool) - exp_pool) ** 2 / exp_pool))
    dof = len(obs_pool) - 1
    p_value = stats.chi2.sf(chi2, dof)
    assert p_value > 0.01, f"chi2={chi2:.1f} dof={dof} p={p_value:.2e}"


def _total_variation(hist, pmf):
    size = max(pmf.size, hist.counts_per_bin.size)
    empirical = np.zeros(size)
    empirical[: hist.counts_per_bin.size] = hist.frequencies
    analytic = np.zeros(size)
    analytic[: pmf.size] = pmf
    return 0.5 * np.abs(empirical - analytic).sum()


def test_dark_total_variation(measured_model):
    config = _config(measured_model, shots=1_000_000, seed=31)
    hist = simulate_histogram(Prepared.UP, config, threads=4)
    assert _total_variation(hist, dark_pdf(measured_model).probs) < 8e-3


@pytest.mark.parametrize(
    "prepared, pdf, seed",
    [(Prepared.DOWN, observed_pdf_down, 42), (Prepared.UP, observed_pdf_up, 43)],
)
def test_high_decay_total_variation(prepared, pdf, seed):
    # Large errors and decay fraction: effectively dark shots of either
    # prepared state decay in-window, so both closed forms must carry that.
    model = DetectionModel(
        rate_bright=73.5e3, rate_dark=1.75e3, lifetime=285e-6 / 0.072, t_det=285e-6
    )
    errors = ErrorRates(0.3, 0.3)
    config = _config(model, errors=errors, shots=1_000_000, seed=seed)
    hist = simulate_histogram(prepared, config, threads=4)
    assert _total_variation(hist, pdf(model, errors).probs) < 5e-3


def test_decay_time_laws_have_distinct_means():
    # a short lifetime makes the window a sizable fraction of it, separating
    # the first-order uniform treatment from the exact exponential law
    model = DetectionModel(
        rate_bright=73.5e3, rate_dark=1.75e3, lifetime=285e-6 / 0.09, t_det=285e-6
    )
    f = model.decay_fraction
    mb, md = model.mean_bright, model.mean_dark
    mean_uniform = (1.0 - f) * md + f * 0.5 * (mb + md)
    decay_integral = 1.0 - math.exp(-f) * (1.0 + f)  # int_0^f x e^-x dx
    mean_exponential = (
        math.exp(-f) * md
        + mb * (1.0 - math.exp(-f))
        - (mb - md) / f * decay_integral
    )
    assert abs(mean_uniform - mean_exponential) > 0.02

    shots = 2_000_000
    for law, own, other in (
        (DecayTimeLaw.UNIFORM_FIRST_ORDER, mean_uniform, mean_exponential),
        (DecayTimeLaw.EXPONENTIAL, mean_exponential, mean_uniform),
    ):
        config = _config(model, shots=shots, seed=55, decay_time_law=law)
        counts = simulate_counts(Prepared.UP, config, threads=4)
        se = counts.std() / math.sqrt(shots)
        assert abs(counts.mean() - own) < 4 * se
        assert abs(counts.mean() - other) > 6 * se


def test_preparation_flips_change_down_statistics(measured_model):
    clean = _config(measured_model, shots=100_000, seed=9)
    flipped = _config(
        measured_model, errors=ErrorRates(0.3, 0.0), shots=100_000, seed=9
    )
    mean_clean = simulate_counts(Prepared.DOWN, clean).mean()
    mean_flipped = simulate_counts(Prepared.DOWN, flipped).mean()
    expected_drop = 0.3 * (measured_model.mean_bright - measured_model.mean_dark)
    assert abs((mean_clean - mean_flipped) - expected_drop) < 0.5


def test_traces_without_background_raise_no_float_errors(reference_shots, reference_times):
    # With rate_dark = 0 an undecayed dark shot has mean 0, and the dark map
    # divides by zero: lanes past a shot's count must never reach the map
    # (an inf there would give inf * 0), and the map's one division by
    # rate_dark is guarded.  Every other floating-point error raises here.
    model = DetectionModel(73.5e3, 0.0, 285e-6 / 0.072, 285e-6)
    for prepared, law in itertools.product(Prepared, DecayTimeLaw):
        config = SimConfig(model, ErrorRates(0.3, 0.3), shots=3000, seed=8, decay_time_law=law)
        with np.errstate(all="raise", under="ignore"):
            batch = simulate_traces(prepared, config)
        t_switch, mu, n = reference_shots(prepared, config, 0, config.shots)
        assert np.any((t_switch > 0.0) & (t_switch < model.t_det) & (n > 1))
        expected = reference_times(config, t_switch, mu, n)
        np.testing.assert_array_equal(batch.timestamps.view(np.uint64), expected.view(np.uint64))


def test_trace_times_lie_in_window_and_sorted(measured_model):
    batch = simulate_traces(Prepared.DOWN, _config(measured_model, shots=300, seed=3))
    assert batch.timestamps.min() >= 0.0
    assert batch.timestamps.max() <= measured_model.t_det
    for trace in batch:
        assert isinstance(trace, PhotonTrace)
        assert np.all(np.diff(trace.timestamps) >= 0.0)


# Fixed before the first run, with the seeds below: each KS test fails at
# this level, so the eight tests raise a false alarm less than 1 % of runs.
_KS_ALPHA = 1e-3


@pytest.mark.parametrize(
    "law,rate_dark,seed",
    [
        (DecayTimeLaw.UNIFORM_FIRST_ORDER, 1.75e3, 2024),
        (DecayTimeLaw.EXPONENTIAL, 1.75e3, 2025),
        (DecayTimeLaw.UNIFORM_FIRST_ORDER, 0.0, 2026),
    ],
    ids=["uniform", "exponential", "no_background"],
)
def test_arrival_times_follow_the_cumulative_rate(law, rate_dark, seed, reference_shots):
    # UP shots at t_det/tau = 0.072 and eps = 0.3 hold all three classes of
    # rate-switch instant T: flipped bright shots (T = 0), undecayed dark
    # ones (T = t_det) and in-window decays.  Given its shot's T, a photon's
    # time t has CDF L_T(t) / L_T(t_det), where L_T(t) = rate_dark * min(t,
    # T) + rate_bright * max(t - T, 0); mapped through it, each class's times
    # must be uniform (Kolmogorov-Smirnov at _KS_ALPHA).
    model = DetectionModel(73.5e3, rate_dark, 285e-6 / 0.072, 285e-6)
    config = SimConfig(model, ErrorRates(0.3, 0.3), shots=20_000, seed=seed, decay_time_law=law)
    batch = simulate_traces(Prepared.UP, config)
    t_switch, _, n = reference_shots(Prepared.UP, config, 0, config.shots)
    np.testing.assert_array_equal(batch.counts, n)
    t, t_photon = batch.timestamps, np.repeat(t_switch, n)

    def cumulative(x):
        return rate_dark * np.minimum(x, t_photon) + model.rate_bright * np.maximum(x - t_photon, 0.0)

    v = cumulative(t) / cumulative(model.t_det)
    classes = {
        "bright": t_photon == 0.0,
        "dark": t_photon == model.t_det,
        "decayed": (t_photon > 0.0) & (t_photon < model.t_det),
    }
    if rate_dark == 0.0:
        assert not classes.pop("dark").any()  # an undecayed shot without background sees nothing
    for name, members in classes.items():
        assert members.sum() > 1000, name
        p_value = stats.kstest(v[members], "uniform").pvalue
        assert p_value > _KS_ALPHA, f"{name}: p = {p_value:.2e}"


@pytest.mark.parametrize(
    "tau,eps,law,seed",
    [
        (0.390, 1e-3, DecayTimeLaw.UNIFORM_FIRST_ORDER, 2031),
        (0.390, 1e-3, DecayTimeLaw.EXPONENTIAL, 2032),
        (285e-6 / 0.099, float(np.nextafter(0.5, 0.0)), DecayTimeLaw.UNIFORM_FIRST_ORDER, 2033),
        (285e-6 / 0.099, float(np.nextafter(0.5, 0.0)), DecayTimeLaw.EXPONENTIAL, 2034),
    ],
    ids=["paper-uniform", "paper-exponential", "corner-uniform", "corner-exponential"],
)
def test_state_draws_follow_their_laws(tau, eps, law, seed):
    # 10^6 UP shots, classified from the 32-bit halves of their state words.
    # The flip fraction estimates eps and the decay fraction of the dark
    # shots f (uniform law) or 1 - exp(-f) (exponential law), each within
    # its binomial SE; the decay instants over t_det are uniform, or follow
    # the exponential truncated to the window (Kolmogorov-Smirnov).  The 12
    # checks of the four cases share the level _KS_ALPHA (Bonferroni).
    model = DetectionModel(73.5e3, 1.75e3, tau, 285e-6)
    config = SimConfig(model, ErrorRates(eps, eps), shots=10**6, seed=seed, decay_time_law=law)
    window = mc._window_profile(Prepared.UP, config, 0, config.shots)
    alpha = _KS_ALPHA / 12
    z = stats.norm.isf(alpha / 2)
    f = model.decay_fraction
    p_decay = f if law is DecayTimeLaw.UNIFORM_FIRST_ORDER else -math.expm1(-f)
    n_dark = int(window.dark.sum())
    for p, hits, trials in ((eps, window.flipped.size, config.shots), (p_decay, window.decayed.size, n_dark)):
        assert abs(hits / trials - p) < z * math.sqrt(p * (1.0 - p) / trials), (p, hits, trials)
    x = window.t_decay / model.t_det
    assert np.all((x >= 0.0) & (x < 1.0))
    if law is DecayTimeLaw.UNIFORM_FIRST_ORDER:
        p_value = stats.kstest(x, "uniform").pvalue
    else:
        p_value = stats.kstest(x, lambda v: np.expm1(-f * v) / np.expm1(-f)).pvalue
    assert p_value > alpha, f"p = {p_value:.2e}"


def test_up_traces_rear_loaded(optimum_model):
    # decayed shelved shots fluoresce only after the decay, so the mean
    # arrival time of dark-prepared records sits late in the window
    config = _config(optimum_model, shots=50_000, seed=21)
    batch = simulate_traces(Prepared.UP, config)
    decayed_like = batch.counts >= 6  # essentially all are in-window decays
    assert decayed_like.sum() > 10
    late = [batch.trace(i).timestamps.mean() for i in np.flatnonzero(decayed_like)]
    assert np.mean(late) > 0.55 * optimum_model.t_det


# ---------------------------------------------------------------------------
# Poisson quantile internals


def test_poisson_quantile_paths_agree():
    # The row walk against each mean's guide table and against
    # searchsorted on one full-width cumsum, clipped at the support: rows at
    # mean 0 (a point mass at 0), rows at means 40 and 60 whose draws span
    # three or more blocks, and u = 1 - 2**-53 on rows whose support ends
    # before their CDF passes it (mean 0.4625's CDF ends at 1 - 2**-53).  The
    # walk raises no float error, and an empty input draws nothing.
    rng = np.random.default_rng(0)
    deep = np.full(10, 40.0), np.full(10, 60.0)
    means = np.concatenate([np.repeat(np.linspace(0.5, 21.0, 33), 10), np.zeros(10), *deep])
    u = np.concatenate([rng.random(means.size - 20), rng.uniform(0.5, 1.0, 20)])
    means = np.append(means, [0.4625, 0.0, 21.0, 60.0])
    u = np.append(u, np.full(4, 1.0 - 2.0**-53))
    with np.errstate(all="raise"):
        rows = _poisson_quantile(u, means)  # no table: a walk per row
        empty = _poisson_quantile(np.empty(0), np.empty(0))
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert rows[means >= 40.0].min() >= 2 * mc._ROW_BLOCK
    top = count_support_max(means)
    assert rows[-4] == top[-4] + 1  # the clip
    full = np.cumsum(poisson_pmf(np.arange(top.max() + 2 * mc._ROW_BLOCK), means[:, None]), axis=1)
    searched = [np.searchsorted(cdf, ui, side="right") for cdf, ui in zip(full, u)]
    np.testing.assert_array_equal(rows, np.minimum(searched, top + 1))
    for mean in np.unique(means):
        sel = means == mean
        np.testing.assert_array_equal(mc._table_quantile(_inverse_table(mean), u[sel]), rows[sel])


def test_poisson_quantile_mixed_multiplicity():
    # A window of shots in the prepared state's class, flipped shots and
    # in-window decays in shuffled order: drawn from the two tables and the
    # row walk by index, each shot gets the count it gets alone
    rng = np.random.default_rng(1)
    own, other = 0.49875, 20.9475
    means = np.concatenate([np.full(1000, own), np.full(30, other), np.linspace(0.6, 20.9, 40)])
    means = means[rng.permutation(means.size)]
    u = rng.random(means.size)
    decayed = np.flatnonzero((means != own) & (means != other))
    window = mc._Window(
        u_count=u,
        dark=means == own,
        flipped=np.flatnonzero(means != own),
        decayed=decayed,
        t_decay=np.zeros(decayed.size),
        mu_decay=means[decayed],
    )
    mixed = mc._shot_counts(window, (_inverse_table(own), _inverse_table(other)))
    singles = np.array(
        [_poisson_quantile(np.array([ui]), np.array([mi]))[0] for ui, mi in zip(u, means)]
    )
    np.testing.assert_array_equal(mixed, singles)


def _cdf(mean: float) -> np.ndarray:
    return np.cumsum(poisson_pmf(np.arange(count_support_max(mean) + 1), mean))


def test_poisson_quantile_extremes():
    mean = 20.9475
    cdf = _cdf(mean)
    # u = 0 lies below the first CDF value; a u equal to a CDF value counts
    # that value; the largest uniform the stream emits is 1 - 2**-53
    u = np.array([0.0, 1e-12, cdf[20], 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53])
    q = mc._table_quantile(_inverse_table(mean), u)
    assert q[0] == 0
    assert q[2] == 21
    assert np.all(np.diff(q) >= 0)
    assert q[-1] < 200
    np.testing.assert_array_equal(q, np.searchsorted(cdf, u, side="right"))
    np.testing.assert_array_equal(_poisson_quantile(u, np.full(u.size, mean)), q)


def _probes(values: np.ndarray, grid) -> np.ndarray:
    """``values``, their float neighbours, the stream's 2**-53 grid points on
    either side of them, 0, 1 - 2**-53 and ``grid * 2**-53``, all in [0, 1)."""
    below = np.floor(values * 2.0**53) * 2.0**-53
    u = np.concatenate(
        [
            values,
            np.nextafter(values, 0.0),
            np.nextafter(values, 1.0),
            below,
            below + 2.0**-53,
            [0.0, 1.0 - 2.0**-53],
            np.asarray(grid, dtype=float) * 2.0**-53,
        ]
    )
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


_MEANS = st.floats(min_value=0.0, max_value=2500.0)
_GRID = st.lists(st.integers(min_value=0, max_value=2**53 - 1), max_size=30)


@settings(max_examples=100, deadline=None)
@given(mean=_MEANS, grid=_GRID)
@example(mean=0.0, grid=[])
@example(mean=20.9475, grid=[])
@example(mean=2500.0, grid=[])
@example(mean=0.4625, grid=[])  # CDF ends at 1 - 2**-53: u = 1 - 2**-53 walks to the +inf sentinel
def test_guide_lookup_matches_binary_search(mean, grid):
    # every CDF value, every bucket edge j/K and their neighbours
    table = _inverse_table(mean)
    buckets = table.guide.size - 1
    cdf = _cdf(mean)
    u = _probes(np.concatenate([cdf, np.arange(buckets) / buckets]), grid)
    np.testing.assert_array_equal(mc._table_quantile(table, u), np.searchsorted(cdf, u, "right"))


@settings(max_examples=100, deadline=None)
@given(means=st.lists(_MEANS, min_size=1, max_size=3), grid=_GRID)
@example(means=[0.0, 20.9475], grid=[])
@example(means=[2500.0, 0.49875], grid=[2**52, 2**53 - 1])
@example(means=[0.4625], grid=[])  # support ends at a block edge with the CDF at 1 - 2**-53
def test_row_walk_matches_full_width_count(means, grid):
    # Probes: the CDF values at the columns where a few fixed levels and the
    # grid's uniforms land, and at the block edges around them, where the
    # walk carries its running sum.  Every row is checked against a table as
    # wide as the largest mean's support.
    block = mc._ROW_BLOCK
    levels = np.concatenate([[1e-9, 0.01, 0.5, 0.99, 1.0 - 1e-9], np.asarray(grid) * 2.0**-53])
    width = int(count_support_max(max(means))) + 1
    u_rows, mean_rows, expected = [], [], []
    for mean in means:
        cdf = _cdf(mean)
        cols = np.searchsorted(cdf, levels)
        edges = cols // block * block
        cols = np.clip(np.concatenate([cols, edges - 1, edges, edges + block - 1]), 0, cdf.size - 1)
        u = _probes(cdf[cols], grid)
        full = np.cumsum(poisson_pmf(np.arange(width)[None, :], np.array([[mean]])), axis=1)
        count = (full <= u[:, None]).sum(axis=1)
        u_rows.append(u)
        mean_rows.append(np.full(u.size, mean))
        expected.append(np.minimum(count, count_support_max(mean) + 1))
    walked = mc._poisson_quantile(np.concatenate(u_rows), np.concatenate(mean_rows))
    np.testing.assert_array_equal(walked, np.concatenate(expected))


_POSITIVE = st.floats(min_value=5e-324, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(
    rate_bright=_POSITIVE,
    dark_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    t_det=_POSITIVE,
    decay_fraction=st.floats(0.0, 0.1, exclude_min=True, exclude_max=True),
)
@example(rate_bright=73.5e3, dark_share=0.0, t_det=285e-6, decay_fraction=0.072)
@example(rate_bright=1e300, dark_share=0.5, t_det=1e300, decay_fraction=1e-3)  # means overflow to inf
@example(rate_bright=5e-324, dark_share=0.0, t_det=5e-324, decay_fraction=0.05)
def test_window_mean_is_exact_at_the_window_ends(rate_bright, dark_share, t_det, decay_fraction):
    # Over the region DetectionModel accepts, rate_dark = 0 included, the
    # window mean at T = 0 and T = t_det is the model's mean, float for
    # float, as a Python float and as an array element.
    try:
        model = DetectionModel(rate_bright, dark_share * rate_bright, t_det / decay_fraction, t_det)
    except ValueError:
        assume(False)
    with np.errstate(over="ignore"):  # a finite rate times t_det may overflow to inf
        ends = mc._window_mean(model, np.array([0.0, model.t_det]))
    assert mc._window_mean(model, 0.0) == model.mean_bright
    assert mc._window_mean(model, model.t_det) == model.mean_dark
    assert ends.tolist() == [model.mean_bright, model.mean_dark]


@settings(max_examples=300, deadline=None)
@given(
    rate_bright=_POSITIVE,
    dark_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    t_det=_POSITIVE,
    decay_fraction=st.floats(0.0, 0.1, exclude_min=True, exclude_max=True),
    switch=st.one_of(st.floats(0.0, 1.0), st.just("subnormal")),
    grid=_GRID,
)
@example(rate_bright=73.5e3, dark_share=0.0, t_det=285e-6, decay_fraction=0.072, switch=0.4, grid=[])
@example(rate_bright=73.5e3, dark_share=0.02, t_det=285e-6, decay_fraction=0.072, switch=0.0, grid=[])
@example(rate_bright=73.5e3, dark_share=0.02, t_det=285e-6, decay_fraction=0.072, switch="subnormal", grid=[])
@example(rate_bright=73.5e3, dark_share=0.02, t_det=285e-6, decay_fraction=0.072, switch=1.0, grid=[])
@example(rate_bright=1.0, dark_share=0.5, t_det=1e-300, decay_fraction=0.05, switch=0.3, grid=[])
# the largest uniform maps past t_det before the clamp
@example(rate_bright=1545.551, dark_share=0.3149, t_det=0.000346392, decay_fraction=0.05, switch=0.3389, grid=[])
def test_event_times_are_monotone_and_in_window(rate_bright, dark_share, t_det, decay_fraction, switch, grid):
    # Over the region DetectionModel accepts with a finite mean, rate_dark =
    # 0 included, and any rate-switch instant T in [0, t_det] (switch is T /
    # t_det, or T is the smallest subnormal): sorted uniforms of the
    # stream's 2**-53 grid map to non-decreasing times in [0, t_det], so
    # mapping after the sort keeps every trace sorted.  The probes include
    # the uniforms on either side of the switch, u = rate_dark * T / mu, and
    # the largest uniform.  A bright shot's map, u * t_det, too.
    try:
        model = DetectionModel(rate_bright, dark_share * rate_bright, t_det / decay_fraction, t_det)
    except ValueError:
        assume(False)
    assume(math.isfinite(model.mean_bright))
    t_switch = 5e-324 if switch == "subnormal" else switch * model.t_det
    mu = mc._window_mean(model, t_switch)
    u = _probes(np.array([model.rate_dark * t_switch / mu if mu > 0.0 else 0.0]), grid)
    for times in (mc._event_times(u, np.full(u.size, t_switch), model), u * model.t_det):
        assert np.all(times[1:] >= times[:-1])
        assert times[0] >= 0.0 and times[-1] <= model.t_det


@pytest.mark.parametrize("law", list(DecayTimeLaw))
@pytest.mark.parametrize("rate_dark", [1.75e3, 0.0])
def test_undecayed_shots_have_a_model_mean(law, rate_dark, reference_shots, monkeypatch):
    # Every shot but an in-window decay has one of the two model means and
    # is drawn from that mean's table: only the decays reach the row walk.
    model = DetectionModel(
        rate_bright=73.5e3, rate_dark=rate_dark, lifetime=285e-6 / 0.072, t_det=285e-6
    )
    config = _config(model, errors=ErrorRates(0.3, 0.3), shots=20_000, seed=4, decay_time_law=law)
    quantile, walked = mc._poisson_quantile, []

    def spy(u, mean):
        walked.append(mean)
        return quantile(u, mean)

    monkeypatch.setattr(mc, "_poisson_quantile", spy)
    for prepared in Prepared:
        t_switch, mu, n = reference_shots(prepared, config, 0, config.shots)
        bright, dark = t_switch == 0.0, t_switch == model.t_det
        decayed = ~(bright | dark)
        assert bright.any() and dark.any() and decayed.any()
        assert np.all(mu[bright] == model.mean_bright)
        assert np.all(mu[dark] == model.mean_dark)
        walked.clear()
        np.testing.assert_array_equal(simulate_counts(prepared, config), n)
        np.testing.assert_array_equal(np.concatenate(walked), mu[decayed])


# ---------------------------------------------------------------------------
# Validation and containers


def test_sim_config_validation(measured_model):
    with pytest.raises(ValueError):
        SimConfig(model=measured_model, shots=0)
    with pytest.raises(ValueError):
        SimConfig(model=measured_model, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(model=measured_model, seed=2**64)
    SimConfig(model=measured_model, seed=2**64 - 1)  # max key is valid
    with pytest.raises(ValueError):
        simulate_counts(Prepared.DOWN, SimConfig(model=measured_model), threads=0)
    with pytest.raises(ValueError):
        simulate_traces(Prepared.DOWN, SimConfig(model=measured_model, shots=10), threads=0)
    # threads follow the same integer rule as shots and seed
    small = SimConfig(model=measured_model, shots=10)
    for bad in (1.5, True, False, 2.0, "2"):
        with pytest.raises(ValueError, match="threads must be"):
            simulate_traces(Prepared.DOWN, small, threads=bad)
        with pytest.raises(ValueError, match="threads must be"):
            simulate_counts(Prepared.DOWN, small, threads=bad)
    for good in (np.int64(2), np.uint8(1)):
        batch = simulate_traces(Prepared.DOWN, small, threads=good)
        np.testing.assert_array_equal(batch.timestamps, simulate_traces(Prepared.DOWN, small).timestamps)
    with pytest.raises(ValueError):
        simulate_shot(Prepared.DOWN, SimConfig(model=measured_model, shots=10), 10)
    # only integers: a float or bool would run another stream or fail in numpy
    for bad in (1.5, 5.0, True, False, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="shots must be"):
            SimConfig(model=measured_model, shots=bad)
        with pytest.raises(ValueError, match="seed must be"):
            SimConfig(model=measured_model, seed=bad)
    for good in (3, np.int64(3), np.uint64(3), np.int32(3)):
        assert SimConfig(model=measured_model, shots=good, seed=good).seed == 3
    SimConfig(model=measured_model, seed=np.uint64(2**64 - 1))
    config = SimConfig(model=measured_model, shots=np.int64(7), seed=np.uint64(5))
    expected = simulate_counts(Prepared.DOWN, SimConfig(model=measured_model, shots=7, seed=5))
    np.testing.assert_array_equal(simulate_counts(Prepared.DOWN, config), expected)
    assert simulate_histogram(Prepared.DOWN, config).total_shots == 7


def test_single_shot_batch(measured_model):
    config = _config(measured_model, shots=1, seed=2)
    batch = simulate_traces(Prepared.DOWN, config)
    assert len(batch) == 1
    assert batch.trace(0).count == batch.counts[0]


def test_trace_index_out_of_range(measured_model):
    # 5 DOWN shots at the measured point (seed 1): the last one has photons,
    # which a wrapped index -1 would have hidden behind an empty trace
    config = _config(measured_model, shots=5, seed=1)
    batch = simulate_traces(Prepared.DOWN, config)
    assert batch.counts[-1] > 0
    for i in (-1, -5, 5, 6):
        with pytest.raises(ValueError, match=r"shot_index must lie in \[0, 5\)"):
            batch.trace(i)
    # numpy integers index both
    assert batch.trace(np.int64(4)).count == batch.counts[-1]
    assert simulate_shot(Prepared.DOWN, config, np.int64(4)).count == batch.counts[-1]


def test_histogram_container():
    hist = CountHistogram.from_counts(np.array([0, 0, 2, 5]), min_length=8)
    assert hist.total_shots == 4
    np.testing.assert_array_equal(hist.counts_per_bin, [2, 0, 1, 0, 0, 1, 0, 0])
    assert hist.frequencies.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CountHistogram(np.array([1, 2]), total_shots=4)
    with pytest.raises(ValueError):
        CountHistogram(np.array([-1, 5]), total_shots=4)
    # bins and the shot count are integers: no silent truncation
    with pytest.raises(ValueError, match="counts_per_bin"):
        CountHistogram([1.9, 1.2], 2)
    for total in (10.0, True):
        with pytest.raises(ValueError, match="total_shots must be a positive integer"):
            CountHistogram([5, 5], total)


def test_trace_batch_validation(measured_model):
    with pytest.raises(ValueError):
        TraceBatch(np.array([1e-5]), np.array([1, 1]), measured_model.t_det)
    with pytest.raises(ValueError):
        TraceBatch(np.array([1e-5]), np.array([0, 2]), measured_model.t_det)
    with pytest.raises(ValueError):
        PhotonTrace(np.array([2e-4, 1e-4]), measured_model.t_det)
    with pytest.raises(ValueError):
        PhotonTrace(np.array([1e-5]), 5e-6)
    with pytest.raises(ValueError, match="within"):
        PhotonTrace(np.array([1e-4, np.nan, 2e-4]), measured_model.t_det)
    with pytest.raises(ValueError, match="within"):
        PhotonTrace(np.array([np.nan]), measured_model.t_det)


# ---------------------------------------------------------------------------
# File interchange


def test_histogram_csv_round_trip(tmp_path, measured_model):
    hist = simulate_histogram(Prepared.DOWN, _config(measured_model, shots=5000, seed=4))
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path, metadata={"seed": 4})
    assert path.read_text().startswith("# seed: 4\n")
    back = read_histogram_csv(path)
    np.testing.assert_array_equal(back.counts_per_bin, hist.counts_per_bin)
    assert back.total_shots == hist.total_shots


def test_traces_npz_round_trip(tmp_path, measured_model):
    simulated = simulate_traces(Prepared.DOWN, _config(measured_model, shots=400, seed=12))
    # three trailing photonless shots: the shot count comes from offsets alone
    offsets = np.concatenate([simulated.offsets, np.repeat(simulated.offsets[-1], 3)])
    batch = TraceBatch(simulated.timestamps, offsets, measured_model.t_det)
    path = tmp_path / "traces.npz"
    write_traces(batch, path, metadata={"prepared": "down"})
    back = read_traces(path)
    assert back.n_shots == 403 and back.counts[-3:].tolist() == [0, 0, 0]
    np.testing.assert_array_equal(back.offsets, batch.offsets)
    np.testing.assert_array_equal(back.timestamps, batch.timestamps)
    assert back.timestamps.dtype == np.float64 and back.offsets.dtype == np.int64
    assert back.t_det == measured_model.t_det
    with np.load(path, allow_pickle=False) as archive:
        assert json.loads(str(archive["metadata"])) == {"prepared": "down"}
    # equal inputs give equal bytes
    write_traces(batch, tmp_path / "again.npz", metadata={"prepared": "down"})
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()


def test_read_traces_rejects_bad_archives(tmp_path):
    entries = {
        "timestamps": np.array([1e-5, 2e-5]),
        "offsets": np.array([0, 2]),
        "t_det": np.float64(1e-4),
        "metadata": np.str_("{}"),
    }
    for key in entries:
        path = tmp_path / f"no_{key}.npz"
        np.savez(path, **{k: v for k, v in entries.items() if k != key})
        with pytest.raises(ValueError, match=f"missing entries {key}$"):
            read_traces(path)
    pickled = tmp_path / "pickled.npz"
    np.savez(pickled, **dict(entries, metadata=np.array([{"a": 1}], dtype=object)))
    with pytest.raises(ValueError, match="allow_pickle=False") as info:
        read_traces(pickled)
    assert "\n" not in str(info.value)
    bad_offsets = tmp_path / "offsets.npz"
    np.savez(bad_offsets, **dict(entries, offsets=np.array([0, 3])))
    with pytest.raises(ValueError, match="offsets"):
        read_traces(bad_offsets)
    single = tmp_path / "single.npy"
    np.save(single, entries["timestamps"])
    with pytest.raises(ValueError, match="not an .npz"):
        read_traces(single)
    # times outside the window, NaN, or backwards within a shot
    outside = tmp_path / "outside.npz"
    write_traces(TraceBatch([5.0, 2.0], [0, 2], 1e-4), outside)
    with pytest.raises(ValueError, match=r"within \[0, t_det\]"):
        read_traces(outside)
    for name, times, match in (
        ("nan", [1e-5, np.nan], "within"),
        ("backwards", [2e-5, 1e-5], "sorted"),
    ):
        path = tmp_path / f"{name}.npz"
        np.savez(path, **dict(entries, timestamps=np.array(times)))
        with pytest.raises(ValueError, match=match) as info:
            read_traces(path)
        assert str(info.value).startswith(str(path)), info.value
    # a time may drop from the end of one shot to the start of the next
    two_shots = tmp_path / "two_shots.npz"
    np.savez(two_shots, **dict(entries, timestamps=np.array([2e-5, 1e-5]), offsets=[0, 1, 2]))
    assert read_traces(two_shots).n_shots == 2


def test_csv_header_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_histogram_csv(bad)
    with pytest.raises(ValueError):
        read_traces(bad)
    # a repeated bin is refused, not summed
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("n,count,frequency\n0,50,0.5\n3,25,0.25\n3,25,0.25\n")
    with pytest.raises(ValueError, match="distinct") as info:
        read_histogram_csv(repeated)
    assert str(info.value).startswith(str(repeated)) and "\n" not in str(info.value)
