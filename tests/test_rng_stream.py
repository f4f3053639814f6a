"""Shot-keyed stream layout against per-shot numpy Philox generators."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shelveread import RNG_STREAM
from shelveread.monte_carlo import (
    DecayTimeLaw,
    Prepared,
    SimConfig,
    _SKIP_GAP,
    _block_rows,
    _event_blocks,
    _poisson_quantile,
    _traces,
    _threshold,
    _uniforms,
    _unit,
    simulate_counts,
    simulate_histogram,
    simulate_shot,
    simulate_traces,
)
from shelveread.photon_statistics import DetectionModel, ErrorRates


def _oracle_block(seed: int, shot: int, block: int) -> np.ndarray:
    # One generator per shot and block.  numpy's Philox emits counter c + 1
    # at its first step, so shot i's block b is built at (i, b, 0, 0).
    bits = np.random.Philox(
        counter=np.array([shot, block, 0, 0], dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64),
    )
    words = bits.random_raw(4)
    return np.array([int(w) >> 11 for w in words], dtype=np.float64) * 2.0**-53


@pytest.mark.parametrize(
    "seed,lo,n",
    [(0, 0, 3), (42, 0, 1), (42, 1000, 5), (2**64 - 1, 2**40 + 7, 4)],
)
def test_state_uniforms_match_per_shot_generators(seed, lo, n):
    got = _uniforms(seed, 0, lo, n)
    assert got.shape == (n, 4)
    for i in range(n):
        np.testing.assert_array_equal(got[i], _oracle_block(seed, lo + i, 0))


def _event_uniforms(seed: int, lo: int, n_events: np.ndarray) -> np.ndarray:
    # every shot's rows of its blocks, cut to its count and read shot-major
    buf, runs = _event_blocks(seed, lo, n_events)
    shots = np.flatnonzero(n_events)
    blocks = (int(n_events.max(initial=0)) + 3) // 4
    rows = _block_rows(buf, runs, shots, blocks)
    return rows[np.arange(4 * blocks) < n_events[shots, None]]


def _oracle_events(seed: int, lo: int, n_events) -> np.ndarray:
    expected = [np.empty(0)]
    for i, n in enumerate(n_events):
        blocks = [_oracle_block(seed, lo + i, b) for b in range(1, (n + 3) // 4 + 1)]
        expected.append(np.concatenate(blocks)[:n] if blocks else np.empty(0))
    return np.concatenate(expected)


_G = _SKIP_GAP


def test_event_blocks_match_per_shot_generators():
    cases = {
        "mixed": (9, 500, [0, 9, 3, 0, 13, 4]),
        # photonless and short shots inside the runs of the long shots' blocks
        "short_in_runs": (9, 500, [14, 0, 1, 3, 0, 2, 17, 5, 0, 0, 6]),
        # one shot needs 11 blocks, its neighbours one or none
        "wide": (2**64 - 1, 2**40, [0, 2, 41, 0, 1]),
        "photonless": (7, 0, [0, 0, 0]),
        # needed shots G + 1 apart and more: block 2 skips the gaps by advance
        "advance": (3, 10, [5] + [1] * (_G + 1) + [9] + [0] * (3 * _G) + [6, 1, 7]),
        # a gap of exactly G shots is drawn through, one of G + 1 is skipped
        "gap_g": (3, 0, [8] + [2] * _G + [8] + [2] * (_G + 1) + [8]),
        # runs of every block end at the last shot of the slice
        "run_at_end": (4, 2**33, [0] * (_G + 5) + [1, 40, 0, 40]),
        # the only multi-block shot is the first, then the last
        "first_only": (5, 77, [13] + [1, 0, 2] * _G),
        "last_only": (5, 77, [0, 3, 1] * _G + [13]),
        # every block jumps across a photonless stretch at a huge counter
        "max_key": (2**64 - 1, 2**40, [40] + [0] * (2 * _G) + [40]),
    }
    for name, (seed, lo, n_events) in cases.items():
        n_events = np.array(n_events)
        np.testing.assert_array_equal(
            _event_uniforms(seed, lo, n_events), _oracle_events(seed, lo, n_events), err_msg=name
        )


def test_event_blocks_skip_only_long_gaps():
    # block 2 of [8, 2 x G, 8, 2 x (G + 1), 8] is drawn through the first
    # gap and skips the second: two runs, 1 + G + 1 and 1 shots
    n_events = np.array([8] + [2] * _G + [8] + [2] * (_G + 1) + [8])
    _, runs = _event_blocks(3, 0, n_events)
    first, shift = runs[1]
    assert first.tolist() == [0, 2 * _G + 3]
    assert (first + shift).tolist() == [n_events.size, n_events.size + _G + 2]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    lo=st.integers(0, 2**48),
    runs=st.lists(
        st.tuples(st.sampled_from([0, 1, 4, 5, 40]), st.integers(1, 3 * _SKIP_GAP)),
        min_size=1,
        max_size=6,
    ),
)
def test_event_uniforms_property(seed, lo, runs):
    # stretches of equal counts, some longer than the skip gap
    n_events = np.repeat([n for n, _ in runs], [k for _, k in runs])
    np.testing.assert_array_equal(
        _event_uniforms(seed, lo, n_events), _oracle_events(seed, lo, n_events)
    )


def test_simulated_shot_follows_layout(measured_model):
    # a clean DOWN shot is bright over the whole window: its count is the
    # quantile of block 0 lane 3, and its photons sit at u * t_det for the
    # event uniforms of blocks 1.. in order
    seed, shot = 17, 321
    config = SimConfig(model=measured_model, shots=1000, seed=seed)
    mu = measured_model.rate_bright * measured_model.t_det
    u_count = _oracle_block(seed, shot, 0)[3]
    n = int(_poisson_quantile(np.array([u_count]), np.array([mu]))[0])
    assert n > 4
    u_ev = np.concatenate([_oracle_block(seed, shot, b) for b in range(1, (n + 3) // 4 + 1)])
    trace = simulate_shot(Prepared.DOWN, config, shot)
    assert trace.count == n
    np.testing.assert_allclose(
        trace.timestamps, np.sort(u_ev[:n]) * measured_model.t_det, rtol=1e-12, atol=0
    )


def test_trace_times_match_lexsort_reference(reference_shots, reference_times, monkeypatch):
    # UP shots at a large decay fraction and preparation error: the range
    # holds photonless shots, shots that decay inside the window, and
    # flipped (bright) shots with many photons spread over several blocks.
    # It starts off a count-chunk boundary and spans several chunks of 257
    # shots and many placement slices.
    monkeypatch.setattr("shelveread.monte_carlo._COUNT_CHUNK", 257)
    monkeypatch.setattr("shelveread.monte_carlo._TRACE_SLICE", 101)
    model = DetectionModel(73.5e3, 1.75e3, 280e-6 / 0.072, 280e-6)
    config = SimConfig(model=model, errors=ErrorRates(0.3, 0.3), shots=10_000, seed=5)
    lo, hi = 3000, 5000
    assert lo % 257
    t_switch, mu, n = reference_shots(Prepared.UP, config, lo, hi)
    assert np.any(n == 0) and np.any(n > 4)
    assert np.any((t_switch > 0.0) & (t_switch < model.t_det))
    reference = reference_times(config, lo, t_switch, mu, n)
    for threads in (1, 2):
        batch = _traces(Prepared.UP, config, lo, hi - lo, threads)
        np.testing.assert_array_equal(batch.counts, n)
        np.testing.assert_array_equal(batch.timestamps.view(np.uint64), reference.view(np.uint64))


def test_uniform_range_and_resolution():
    u = _uniforms(3, 0, 0, 10_000).reshape(-1)
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # top 53 bits only: values are multiples of 2**-53, and the lowest of
    # those bits is used
    scaled = u * 2.0**53
    np.testing.assert_array_equal(scaled, np.round(scaled))
    assert np.any(scaled % 2 == 1)


def test_uniformity_coarse():
    u = _uniforms(12345, 9, 0, 25_000).reshape(-1)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.mean(u < 0.25) - 0.25) < 0.005


def _exact_threshold(p: float) -> int:
    return math.ceil(Fraction(p) * 2**53) << 11


_PROBABILITIES = st.one_of(
    st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
    st.integers(min_value=0, max_value=2**52 - 1).map(lambda k: k * 2.0**-53),
)


@settings(max_examples=200, deadline=None)
@given(p=_PROBABILITIES, random_words=st.lists(st.integers(0, 2**64 - 1), max_size=20))
@example(p=0.0, random_words=[0, 2**64 - 1])
@example(p=2.0**-53, random_words=[])
@example(p=5e-324, random_words=[])
@example(p=0.1, random_words=[])
@example(p=float(np.nextafter(0.5, 0.0)), random_words=[2**63, 2**64 - 1])
def test_threshold_matches_float_compare(p, random_words):
    # p, its float neighbours in [0, 0.5), and the words on either side of
    # each bound c * 2**11, c = ceil(p * 2**53), and at the top of its step
    for q in {p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, 0.5))}:
        if not 0.0 <= q < 0.5:
            continue
        bound = _exact_threshold(q)
        assert int(_threshold(q)) == bound
        words = [bound - 1, bound, bound + 2**11 - 1, *random_words]
        words = np.array([w for w in words if 0 <= w < 2**64], dtype=np.uint64)
        expected = [float(int(w) >> 11) * 2.0**-53 < q for w in words]
        np.testing.assert_array_equal(words < _threshold(q), expected)
        np.testing.assert_array_equal(_unit(words) < q, expected)


_BELOW_HALF = float(np.nextafter(0.5, 0.0))


@pytest.mark.parametrize("law", list(DecayTimeLaw))
@pytest.mark.parametrize(
    "rate_dark,eps",
    [(1.75e3, 0.3), (0.0, 0.3), (1.75e3, 0.0), (1.75e3, _BELOW_HALF)],
    ids=["high_decay", "no_background", "no_errors", "eps_below_half"],
)
def test_samplers_match_float_layout(law, rate_dark, eps, reference_shots, reference_times):
    # The raw-word classification, the per-state tables and the class-built
    # T and mean against the float layout they replace.  Neither shot count
    # is a multiple of either chunk, and each spans more than one chunk.
    model = DetectionModel(73.5e3, rate_dark, 285e-6 / 0.072, 285e-6)
    errors = ErrorRates(eps, eps)
    for prepared, seed in ((Prepared.DOWN, 3), (Prepared.UP, 4)):
        config = SimConfig(model, errors, shots=73_731, seed=seed, decay_time_law=law)
        t_switch, mu, n = reference_shots(prepared, config, 0, config.shots)
        np.testing.assert_array_equal(simulate_counts(prepared, config, threads=2), n)
        shots = 8_197
        batch = simulate_traces(prepared, replace(config, shots=shots), threads=2)
        np.testing.assert_array_equal(batch.counts, n[:shots])
        times = reference_times(config, 0, t_switch[:shots], mu[:shots], n[:shots])
        np.testing.assert_array_equal(batch.timestamps.view(np.uint64), times.view(np.uint64))


# ---------------------------------------------------------------------------
# Pinned output of the stream named by RNG_STREAM.  A failing digest means a
# shot's values changed, so RNG_STREAM must change with it.

_PAPER = (DetectionModel(73.5e3, 1.75e3, 0.390, 285e-6), ErrorRates(6e-4, 1e-3))
_HIGH_DECAY = (DetectionModel(73.5e3, 1.75e3, 285e-6 / 0.072, 285e-6), ErrorRates(0.3, 0.3))
_UNIFORM, _EXPONENTIAL = DecayTimeLaw.UNIFORM_FIRST_ORDER, DecayTimeLaw.EXPONENTIAL


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "point,law,prepared,seed,digest",
    [
        (_PAPER, _UNIFORM, Prepared.DOWN, 11,
         "2796db4536ce85d8a50b0341cc9125aca848dbf99428e6aa317ee52298109a10"),
        (_PAPER, _UNIFORM, Prepared.UP, 12,
         "cca84668e3d89fbeeaea9677131f7327e8c19f55a4fd75a826a8744bcff77b77"),
        (_HIGH_DECAY, _UNIFORM, Prepared.DOWN, 11,
         "6de2c4343360eb38f8d552da78fe5380e6fedaf7e6d5435cbea40f90fa7ce70f"),
        (_HIGH_DECAY, _UNIFORM, Prepared.UP, 12,
         "424ca6f3ead501fc8b9d5868348880ed1eda05e68efe17651ce640d13c46f709"),
        (_HIGH_DECAY, _EXPONENTIAL, Prepared.DOWN, 11,
         "40754037e0676ccecfad31f1336826f1842358f0fff21f60c2baaa3d5d9bb4af"),
        (_HIGH_DECAY, _EXPONENTIAL, Prepared.UP, 12,
         "ad220b1ebd5988d1c68e42a90a88c892a006c9f7bfb8542d97c713f7fee70b9c"),
    ],
)
def test_counts_match_pinned_stream(point, law, prepared, seed, digest):
    model, errors = point
    config = SimConfig(model, errors, shots=200_000, seed=seed, decay_time_law=law)
    assert RNG_STREAM == "philox4x64-10/shot-major/2"
    counts = simulate_counts(prepared, config, threads=2)
    assert _digest(counts) == digest
    # the histogram path bins the same draws chunk by chunk
    hist = simulate_histogram(prepared, config, threads=2)
    np.testing.assert_array_equal(hist.counts_per_bin, np.bincount(counts))


# Traces under the uniform law only: the exponential law's log1p may differ
# in its last bit between numpy builds, and arrival times carry every bit.
@pytest.mark.parametrize(
    "point,prepared,seed,digest",
    [
        (_PAPER, Prepared.DOWN, 11,
         "c8542de2cc07ce17664632ae7aea1b22376879746c77a22e8d338ed2e625c5a6"),
        (_PAPER, Prepared.UP, 12,
         "87695ed49d692b0fba5afa45b3d6ac73593883259e79128f3eb344f9f736adb8"),
        (_HIGH_DECAY, Prepared.DOWN, 11,
         "0c21167eb21290d7aeae82dbaeda9e55ba01331ad7889b3b90d5aa37c40f7c96"),
        (_HIGH_DECAY, Prepared.UP, 12,
         "3c0002929f50c3fde57ffe982c18a1bb4daf992775520150656df8f7aa773a56"),
    ],
)
def test_traces_match_pinned_stream(point, prepared, seed, digest):
    model, errors = point
    config = SimConfig(model, errors, shots=20_000, seed=seed)
    batch = simulate_traces(prepared, config, threads=2)
    assert RNG_STREAM == "philox4x64-10/shot-major/2"
    assert _digest(batch.timestamps, batch.offsets) == digest
