"""Counter-keyed stream layout against per-shot and per-group numpy Philox generators."""

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
    _EVENT_GROUP,
    DecayTimeLaw,
    Prepared,
    SimConfig,
    _event_times,
    _event_words,
    _place_events,
    _poisson_quantile,
    _threshold,
    _unit,
    _words,
    simulate_counts,
    simulate_histogram,
    simulate_shot,
    simulate_traces,
)
from shelveread.photon_statistics import DetectionModel, ErrorRates


def _oracle_state(seed: int, shot: int) -> np.ndarray:
    # One generator per shot.  numpy's Philox emits counter c + 1 at its
    # first step, so shot i's state draws are built at (i, 0, 0, 0).
    bits = np.random.Philox(
        counter=np.array([shot, 0, 0, 0], dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64),
    )
    words = bits.random_raw(4)
    return np.array([int(w) >> 11 for w in words], dtype=np.float64) * 2.0**-53


@pytest.mark.parametrize(
    "seed,lo,n",
    [(0, 0, 3), (42, 0, 1), (42, 1000, 5), (2**64 - 1, 2**40 + 7, 4)],
)
def test_state_uniforms_match_per_shot_generators(seed, lo, n):
    got = _unit(_words(seed, lo, n))
    assert got.shape == (n, 4)
    for i in range(n):
        np.testing.assert_array_equal(got[i], _oracle_state(seed, lo + i))


def _oracle_group(seed: int, group: int, n: int) -> list[int]:
    # One generator per event group, built at (0, 0, group, 1), drawn as Python ints.
    bits = np.random.Philox(
        counter=np.array([0, 0, group, 1], dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64),
    )
    return [int(w) for w in bits.random_raw(n)]


def _oracle_shot_uniforms(words: list[int]) -> np.ndarray:
    return np.array(sorted(w >> 11 for w in words), dtype=np.float64) * 2.0**-53


_G = _EVENT_GROUP


def test_event_groups_match_per_group_generators(reference_shots):
    # Shots 0..2G+99 of the high-decay point in both states: two full groups
    # and a partial one, with photonless, flipped bright and decayed shots.
    # Shot i of group g takes the next n_i words of g's stream, which the
    # oracle sorts as Python ints; a bright shot's photons lie at u * t_det,
    # any other's at the map of the same uniforms.
    model = DetectionModel(73.5e3, 1.75e3, 285e-6 / 0.072, 285e-6)
    config = SimConfig(model, ErrorRates(0.3, 0.3), shots=2 * _G + 100, seed=2**64 - 1)
    for prepared in Prepared:
        batch = simulate_traces(prepared, config, threads=2)
        t_switch, _, n = reference_shots(prepared, config, 0, config.shots)
        np.testing.assert_array_equal(batch.counts, n)
        assert np.any(n == 0) and np.any((t_switch > 0.0) & (t_switch < model.t_det) & (n > 1))
        for g, lo in enumerate(range(0, config.shots, _G)):
            hi = min(lo + _G, config.shots)
            words = _oracle_group(config.seed, g, int(n[lo:hi].sum()))
            first = 0
            for i in range(lo, hi):
                u = _oracle_shot_uniforms(words[first : first + n[i]])
                first += n[i]
                expected = u * model.t_det if t_switch[i] == 0.0 else _event_times(u, np.full(u.size, t_switch[i]), model)
                np.testing.assert_array_equal(batch.trace(i).timestamps, expected, err_msg=f"shot {i}")


def test_event_words_skip_ahead_matches_group_stream():
    # simulate_shot starts a shot's words at word `skip` of its group's
    # stream: whole blocks are skipped with advance, the rest of the block
    # is drawn and dropped.  Every offset into the first blocks, and some far
    # in, against the stream drawn from its start, at a small and the
    # largest key.
    for seed, group in ((9, 0), (2**64 - 1, 2**40 + 3)):
        stream = _oracle_group(seed, group, 4200)
        for skip in [*range(13), 4095, 4096, 4097]:
            for n in (0, 1, 3, 9):
                got = _event_words(seed, group, skip, n)
                assert got.dtype == np.uint64
                assert [int(w) for w in got] == stream[skip : skip + n], (seed, skip, n)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    group=st.integers(0, 2**40),
    runs=st.lists(
        st.tuples(st.sampled_from([0, 1, 4, 5, 40]), st.integers(1, _G), st.sampled_from([0.0, 0.4, 1.0])),
        min_size=1,
        max_size=6,
    ),
)
def test_event_uniforms_property(seed, group, runs):
    # Stretches of equal counts and rate-switch instants (T = 0, mid-window
    # or t_det), over up to three groups from group `group` on; the last
    # group may be partial.  Each shot's times against the per-group oracle.
    model = DetectionModel(73.5e3, 1.75e3, 285e-6 / 0.072, 285e-6)
    n = np.repeat([c for c, _, _ in runs], [k for _, k, _ in runs]).astype(np.int64)
    t_switch = np.repeat([f * model.t_det for _, _, f in runs], [k for _, k, _ in runs])
    out = np.empty(int(n.sum()))
    _place_events(seed, group * _G, n, t_switch, model, out)
    first = 0
    for g, lo in enumerate(range(0, n.size, _G)):
        hi = min(lo + _G, n.size)
        words = _oracle_group(seed, group + g, int(n[lo:hi].sum()))
        at = 0
        for i in range(lo, hi):
            u = _oracle_shot_uniforms(words[at : at + n[i]])
            at += n[i]
            expected = u * model.t_det if t_switch[i] == 0.0 else _event_times(u, np.full(u.size, t_switch[i]), model)
            np.testing.assert_array_equal(out[first : first + n[i]], expected)
            first += n[i]


def test_simulated_shot_follows_layout(measured_model):
    # a clean DOWN shot is bright over the whole window: its count is the
    # quantile of its state block's lane 3, and its photons sit at u * t_det
    # for its own words of its group's stream, sorted
    seed, shot = 17, _G + 321
    config = SimConfig(model=measured_model, shots=3 * _G, seed=seed)
    mu = measured_model.rate_bright * measured_model.t_det
    u_count = _oracle_state(seed, shot)[3]
    n = int(_poisson_quantile(np.array([u_count]), np.array([mu]))[0])
    assert n > 4
    skip = int(simulate_counts(Prepared.DOWN, config)[_G:shot].sum())
    words = _oracle_group(seed, 1, skip + n)[skip:]
    trace = simulate_shot(Prepared.DOWN, config, shot)
    assert trace.count == n
    np.testing.assert_array_equal(trace.timestamps, _oracle_shot_uniforms(words) * measured_model.t_det)


def test_trace_times_match_lexsort_reference(reference_shots, reference_times, monkeypatch):
    # UP shots at a large decay fraction and preparation error: the batch
    # holds photonless shots, shots that decay inside the window, and
    # flipped (bright) shots with many photons.  It spans four full event
    # groups and a partial one, in count chunks of 257 shots and placement
    # tasks of one group, at 1 and 2 threads.
    monkeypatch.setattr("shelveread.monte_carlo._COUNT_CHUNK", 257)
    monkeypatch.setattr("shelveread.monte_carlo._PLACE_CHUNK", _G)
    model = DetectionModel(73.5e3, 1.75e3, 280e-6 / 0.072, 280e-6)
    config = SimConfig(model=model, errors=ErrorRates(0.3, 0.3), shots=10_000, seed=5)
    assert config.shots % _G and config.shots % 257
    t_switch, mu, n = reference_shots(Prepared.UP, config, 0, config.shots)
    assert np.any(n == 0) and np.any(n > 4)
    assert np.any((t_switch > 0.0) & (t_switch < model.t_det))
    reference = reference_times(config, t_switch, mu, n)
    for threads in (1, 2):
        batch = simulate_traces(Prepared.UP, config, threads)
        np.testing.assert_array_equal(batch.counts, n)
        np.testing.assert_array_equal(batch.timestamps.view(np.uint64), reference.view(np.uint64))


def test_uniform_range_and_resolution():
    u = _unit(_words(3, 0, 10_000)).reshape(-1)
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # top 53 bits only: values are multiples of 2**-53, and the lowest of
    # those bits is used
    scaled = u * 2.0**53
    np.testing.assert_array_equal(scaled, np.round(scaled))
    assert np.any(scaled % 2 == 1)


def test_uniformity_coarse():
    u = _unit(_event_words(12345, 9, 0, 100_000))
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
        times = reference_times(config, t_switch[:shots], mu[:shots], n[:shots])
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
    assert RNG_STREAM == "philox4x64-10/shot-group/3"
    counts = simulate_counts(prepared, config, threads=2)
    assert _digest(counts) == digest
    # the histogram path bins the same draws chunk by chunk
    hist = simulate_histogram(prepared, config, threads=2)
    np.testing.assert_array_equal(hist.counts_per_bin, np.bincount(counts))


# Traces under the uniform law only: the exponential law's log1p may differ
# in its last bit between numpy builds, and arrival times carry every bit.
# Re-pinned with stream 3, which moved every arrival time and no count: each
# event group of _EVENT_GROUP shots now draws its photons from one stream at
# counter (0, 0, group, 1), sorted by integer key, where stream 2 drew
# blocks 1.. of each shot at (shot, block, 0, 0).
@pytest.mark.parametrize(
    "point,prepared,seed,digest",
    [
        (_PAPER, Prepared.DOWN, 11,
         "3618c432f14c8ed6ec3b220ef568f7f85a22c032c9182ee04e07e0c5ab60348d"),
        (_PAPER, Prepared.UP, 12,
         "3998188ec2712dda9aead467786fc1d02ffd8797a9085034f774c925a5af937a"),
        (_HIGH_DECAY, Prepared.DOWN, 11,
         "c3f5ec26168f74d3808fe2644d3cb7d8cc052a4cabe27e0cdd1a21d42bfdf421"),
        (_HIGH_DECAY, Prepared.UP, 12,
         "7ade5a296d8a350040447f52c9b94cf57b501bb13ff2e879c680a83178d2e0e3"),
    ],
)
def test_traces_match_pinned_stream(point, prepared, seed, digest):
    model, errors = point
    config = SimConfig(model, errors, shots=20_000, seed=seed)
    batch = simulate_traces(prepared, config, threads=2)
    assert RNG_STREAM == "philox4x64-10/shot-group/3"
    assert _digest(batch.timestamps, batch.offsets) == digest
