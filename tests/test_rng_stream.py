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
    _window_profile,
    _words,
    simulate_counts,
    simulate_histogram,
    simulate_shot,
    simulate_traces,
)
from shelveread.photon_statistics import DetectionModel, ErrorRates


def _oracle_state(seed: int, shot: int) -> np.ndarray:
    # One generator per shot.  numpy's Philox emits counter c + 1 at its
    # first step, so shot i's block is built at (i // 2, 0, 0, 0), and its
    # two state words are words 2 * (i % 2) and 2 * (i % 2) + 1 of it.
    bits = np.random.Philox(
        counter=np.array([shot // 2, 0, 0, 0], dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64),
    )
    words = [int(w) for w in bits.random_raw(4)]
    return np.array(words[2 * (shot % 2) : 2 * (shot % 2) + 2], dtype=np.uint64)


@pytest.mark.parametrize(
    "seed,lo,n",
    [(0, 0, 3), (42, 0, 1), (42, 1000, 5), (2**64 - 1, 2**40 + 7, 4), (42, 1001, 5), (7, 1, 1)],
)
def test_state_uniforms_match_per_shot_generators(seed, lo, n):
    # the raw state words from which every state uniform is formed, from
    # even and odd first shots
    got = _words(seed, lo, n)
    assert got.shape == (n, 2) and got.dtype == np.uint64
    for i in range(n):
        np.testing.assert_array_equal(got[i], _oracle_state(seed, lo + i))


def _unit(words: np.ndarray) -> np.ndarray:
    # numpy's Generator.random maps each Philox word to its top 53 bits times 2**-53
    return (words >> np.uint64(11)) * 2.0**-53


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
    # quantile of its lane 1, words 2 and 3 of its state block (the shot is
    # odd), and its photons sit at u * t_det
    # for its own words of its group's stream, sorted
    seed, shot = 17, _G + 321
    config = SimConfig(model=measured_model, shots=3 * _G, seed=seed)
    mu = measured_model.rate_bright * measured_model.t_det
    assert shot % 2
    u_count = (int(_oracle_state(seed, shot)[1]) >> 11) * 2.0**-53
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
    # the count uniforms of 10^4 shots, as the sampler forms them
    model = DetectionModel(73.5e3, 1.75e3, 0.390, 285e-6)
    u = _window_profile(Prepared.DOWN, SimConfig(model, shots=10_000, seed=3), 0, 10_000).u_count
    assert u.dtype == np.float64 and u.size == 10_000
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
    return math.ceil(Fraction(p) * 2**32)


_PROBABILITIES = st.one_of(
    st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
    st.integers(min_value=0, max_value=2**31 - 1).map(lambda k: k * 2.0**-32),
)


@settings(max_examples=200, deadline=None)
@given(p=_PROBABILITIES, random_halves=st.lists(st.integers(0, 2**32 - 1), max_size=20))
@example(p=0.0, random_halves=[0, 2**32 - 1])
@example(p=2.0**-32, random_halves=[])
@example(p=5e-324, random_halves=[])
@example(p=0.1, random_halves=[])
@example(p=float(np.nextafter(0.5, 0.0)), random_halves=[2**31, 2**32 - 1])
def test_threshold_matches_float_compare(p, random_halves):
    """The flip and decay draws compare 32-bit half-words against ceil(p * 2**32).

    So a probability resolves to 2**-32, about 2.3e-10 absolute.  A decay
    instant resolves to t_det / D, D = ceil(f * 2**32), under the uniform
    law and to lifetime * 2**-32 under the exponential law: both about 91
    ps at the paper's operating point (t_det 285 us, lifetime 0.39 s).
    Checked: p, its float neighbours in [0, 0.5), and the half-words on
    either side of each bound, where h * 2**-32 < p must decide; and the
    whole word with h in its high half, the flip compare, for any low half.
    """
    for q in {p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, 0.5))}:
        if not 0.0 <= q < 0.5:
            continue
        bound = _exact_threshold(q)
        assert _threshold(q) == bound <= 2**31
        halves = [bound - 1, bound, *random_halves]
        halves = np.array([h for h in halves if 0 <= h < 2**32], dtype=np.uint32)
        expected = [float(h) * 2.0**-32 < q for h in halves]
        np.testing.assert_array_equal(halves < _threshold(q), expected)
        for low in (0, 2**32 - 1):
            words = (halves.astype(np.uint64) << np.uint64(32)) | np.uint64(low)
            np.testing.assert_array_equal(words < np.uint64(_threshold(q) << 32), expected)


@settings(max_examples=200, deadline=None)
@given(
    bound=st.integers(1, _exact_threshold(0.1)),
    t_det=st.floats(min_value=2.0**-1022, max_value=1.0),
)
@example(bound=_exact_threshold(0.1), t_det=285e-6)
@example(bound=_exact_threshold(0.1), t_det=float(np.nextafter(1.0, 0.0)))
@example(bound=_exact_threshold(285e-6 / 0.390), t_det=285e-6)
@example(bound=2, t_det=2.0**-1022)
def test_uniform_decay_instant_stays_inside_the_window(bound, t_det):
    # The uniform law's decay instant d / D * t_det, d < D = _threshold(f),
    # is largest at d = D - 1, and every D a decay fraction f < 0.1 gives
    # keeps that below t_det for a normal t_det: a decayed shot never reads
    # as undecayed.
    assert (bound - 1) / bound * t_det < t_det
    low = np.array([0, bound - 1], dtype=np.uint32)
    times = low / bound * t_det
    assert times[0] == 0.0 and times[1] < t_det


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


@pytest.mark.parametrize("law", list(DecayTimeLaw))
def test_counts_from_odd_shots_match_float_layout(law, reference_shots, monkeypatch):
    # Count chunks of 257 shots: every other chunk starts at an odd shot,
    # whose state words are the second half of a block.  Both states at the
    # high-decay point, on 1 and 2 threads, against the float layout.
    monkeypatch.setattr("shelveread.monte_carlo._COUNT_CHUNK", 257)
    model = DetectionModel(73.5e3, 1.75e3, 285e-6 / 0.072, 285e-6)
    for prepared, seed in ((Prepared.DOWN, 5), (Prepared.UP, 6)):
        config = SimConfig(model, ErrorRates(0.3, 0.3), shots=5_000, seed=seed, decay_time_law=law)
        t_switch, _, n = reference_shots(prepared, config, 0, config.shots)
        assert np.any((t_switch > 0.0) & (t_switch < model.t_det))
        for threads in (1, 2):
            np.testing.assert_array_equal(simulate_counts(prepared, config, threads), n)
        np.testing.assert_array_equal(reference_shots(prepared, config, 257, 771)[2], n[257:771])


# ---------------------------------------------------------------------------
# Pinned output of the stream named by RNG_STREAM.  A failing digest means a
# shot's values changed, so RNG_STREAM must change with it.  Every digest
# was re-pinned with stream 4, which moved every shot's flip, decay and
# count draw: shot i's state words are now two words of the block at
# (i // 2 + 1, 0, 0, 0), its flip and decay the 32-bit halves of the first,
# where stream 3 drew four words at (i + 1, 0, 0, 0) and compared 53-bit
# uniforms.  The trace digests move with the counts and decay instants; the
# event streams themselves did not change.

_PINNED_STREAM = "philox4x64-10/shot-group/4"

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
         "f992970e24cd3f8f8629a6a4bc956ea51a2d6f88785d18febed32904aa02ec78"),
        (_PAPER, _UNIFORM, Prepared.UP, 12,
         "86866c603072bcf03f9d09c5515ef04692731d9ae0dafff5e597d034bb09f4e8"),
        (_HIGH_DECAY, _UNIFORM, Prepared.DOWN, 11,
         "22ae23f0ec80ff1b3cc674a95c53ccc14976c9ffe4e3cf22fa95e004a8a87424"),
        (_HIGH_DECAY, _UNIFORM, Prepared.UP, 12,
         "4eee123ec39016711d3f3dffae262cf06f4135001fc1e0560e930069977abaad"),
        (_HIGH_DECAY, _EXPONENTIAL, Prepared.DOWN, 11,
         "5bc2ae83f8d0d8c1bb9b5852bd41756f6c474279de7a64bdb8332c7dc17aa911"),
        (_HIGH_DECAY, _EXPONENTIAL, Prepared.UP, 12,
         "0a8ecb94a592e3b37a7ada3c419786b9a5a7be45a9b62a90cea5e3bcb9b9247b"),
    ],
)
def test_counts_match_pinned_stream(point, law, prepared, seed, digest):
    model, errors = point
    config = SimConfig(model, errors, shots=200_000, seed=seed, decay_time_law=law)
    assert RNG_STREAM == _PINNED_STREAM
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
         "8dab8544912939455460547dd54722111e52a05fcca160667c0d5b03ad970b11"),
        (_PAPER, Prepared.UP, 12,
         "4951c2ed111a14151c4208a37c4c7d12148b848b9b89e97ee107aaeaba62173c"),
        (_HIGH_DECAY, Prepared.DOWN, 11,
         "e999f5574f25d7ede13b3a292012a679b0d09a4e3e067630881341dba460cd61"),
        (_HIGH_DECAY, Prepared.UP, 12,
         "0e11be9b2d92c16da6d07b123c688a121d9c3794f4ee450ceb9cedf923202c7e"),
    ],
)
def test_traces_match_pinned_stream(point, prepared, seed, digest):
    model, errors = point
    config = SimConfig(model, errors, shots=20_000, seed=seed)
    batch = simulate_traces(prepared, config, threads=2)
    assert RNG_STREAM == _PINNED_STREAM
    assert _digest(batch.timestamps, batch.offsets) == digest
