"""Counter-keyed shot simulation: determinism, statistics, file interchange."""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    DetectionModel,
    ErrorRates,
    _sampling_support_max,
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


def test_traces_independent_of_threads_and_chunking(measured_model, monkeypatch):
    config = _config(measured_model, shots=3000, seed=5)
    reference = simulate_traces(Prepared.DOWN, config, threads=1)
    monkeypatch.setattr(mc, "_TRACE_CHUNK", 129)
    for threads in (1, 4):
        again = simulate_traces(Prepared.DOWN, config, threads=threads)
        np.testing.assert_array_equal(again.timestamps, reference.timestamps)
        np.testing.assert_array_equal(again.offsets, reference.offsets)


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
    # _run_sharded cuts 0..shots into chunks, in order, and runs them on at
    # most `expected` threads.  Even with a broken cap no case can start
    # more than 8 threads: a pool starts at most one thread per chunk.
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


def test_simulate_shot_regenerates_batch_traces(measured_model):
    config = _config(measured_model, shots=1500, seed=77)
    batch = simulate_traces(Prepared.UP, config)
    for i in (0, 1, 499, 1499):
        single = simulate_shot(Prepared.UP, config, i)
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


def test_trace_times_lie_in_window_and_sorted(measured_model):
    batch = simulate_traces(Prepared.DOWN, _config(measured_model, shots=300, seed=3))
    assert batch.timestamps.min() >= 0.0
    assert batch.timestamps.max() <= measured_model.t_det
    for trace in batch:
        assert isinstance(trace, PhotonTrace)
        assert np.all(np.diff(trace.timestamps) >= 0.0)


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
    rng = np.random.default_rng(0)
    means = np.repeat(np.linspace(0.5, 21.0, 33), 10)
    u = rng.random(means.size)
    rows = _poisson_quantile(u, means)  # no shared mean: a walk per row
    tabled = _poisson_quantile(u, means, shared=[_inverse_table(m) for m in np.unique(means)])
    np.testing.assert_array_equal(rows, tabled)


def test_poisson_quantile_mixed_multiplicity():
    rng = np.random.default_rng(1)
    means = np.concatenate([np.full(1000, 0.49875), np.linspace(0.6, 20.9, 40)])
    perm = rng.permutation(means.size)
    means = means[perm]
    u = rng.random(means.size)
    # 20.9475 is a shared mean that no shot has; it selects no shot
    mixed = _poisson_quantile(u, means, shared=(_inverse_table(20.9475), _inverse_table(0.49875)))
    singles = np.array(
        [_poisson_quantile(np.array([ui]), np.array([mi]))[0] for ui, mi in zip(u, means)]
    )
    np.testing.assert_array_equal(mixed, singles)


def _cdf(mean: float) -> np.ndarray:
    return np.cumsum(poisson_pmf(np.arange(_sampling_support_max(mean) + 1), mean))


def test_poisson_quantile_extremes():
    mean = 20.9475
    cdf = _cdf(mean)
    # u = 0 lies below the first CDF value; a u equal to a CDF value counts
    # that value; the largest uniform the stream emits is 1 - 2**-53
    u = np.array([0.0, 1e-12, cdf[20], 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53])
    q = _poisson_quantile(u, np.full(u.size, mean), shared=(_inverse_table(mean),))
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
    width = int(_sampling_support_max(max(means))) + 1
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
        expected.append(np.minimum(count, _sampling_support_max(mean) + 1))
    walked = mc._row_quantile(np.concatenate(u_rows), np.concatenate(mean_rows))
    np.testing.assert_array_equal(walked, np.concatenate(expected))


@pytest.mark.parametrize("law", list(DecayTimeLaw))
@pytest.mark.parametrize("rate_dark", [1.75e3, 0.0])
def test_undecayed_shots_have_a_model_mean(law, rate_dark):
    # the samplers table only the two model means, so an undecayed shot with
    # any other mean would silently take the slower per-row path
    model = DetectionModel(
        rate_bright=73.5e3, rate_dark=rate_dark, lifetime=285e-6 / 0.072, t_det=285e-6
    )
    config = _config(model, errors=ErrorRates(0.3, 0.3), shots=20_000, seed=4, decay_time_law=law)
    for prepared in Prepared:
        t_switch, mu, _ = mc._window_profile(prepared, config, 0, config.shots)
        bright, dark = t_switch == 0.0, t_switch == model.t_det
        assert bright.any() and dark.any() and not np.all(bright | dark)
        assert np.all(mu[bright] == model.mean_bright)
        assert np.all(mu[dark] == model.mean_dark)


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
    with pytest.raises(ValueError):
        simulate_shot(Prepared.DOWN, SimConfig(model=measured_model, shots=10), 10)


def test_single_shot_batch(measured_model):
    config = _config(measured_model, shots=1, seed=2)
    batch = simulate_traces(Prepared.DOWN, config)
    assert len(batch) == 1
    assert batch.trace(0).count == batch.counts[0]


def test_histogram_container():
    hist = CountHistogram.from_counts(np.array([0, 0, 2, 5]), min_length=8)
    assert hist.total_shots == 4
    np.testing.assert_array_equal(hist.counts_per_bin, [2, 0, 1, 0, 0, 1, 0, 0])
    assert hist.frequencies.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CountHistogram(np.array([1, 2]), total_shots=4)
    with pytest.raises(ValueError):
        CountHistogram(np.array([-1, 5]), total_shots=4)


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
