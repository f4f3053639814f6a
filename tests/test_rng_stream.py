"""Shot-keyed stream layout against per-shot numpy Philox generators."""

from __future__ import annotations

import numpy as np
import pytest

from shelveread.monte_carlo import (
    Prepared,
    SimConfig,
    _event_times,
    _event_uniforms,
    _poisson_quantile,
    _shard_traces,
    _uniforms,
    _window_profile,
    simulate_shot,
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


def test_event_blocks_match_per_shot_generators():
    seed, lo = 9, 500
    n_events = np.array([0, 9, 3, 0, 13, 4])
    got = _event_uniforms(seed, lo, n_events)
    expected = []
    for i, n in enumerate(n_events):
        blocks = [_oracle_block(seed, lo + i, b) for b in range(1, (n + 3) // 4 + 1)]
        expected.append(np.concatenate(blocks)[:n] if blocks else np.empty(0))
    np.testing.assert_array_equal(got, np.concatenate(expected))


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


def test_trace_times_match_lexsort_reference():
    # UP shots at a large decay fraction and preparation error: the chunk
    # holds photonless shots, shots that decay inside the window, and
    # flipped (bright) shots with many photons spread over several blocks
    model = DetectionModel(73.5e3, 1.75e3, 280e-6 / 0.072, 280e-6)
    config = SimConfig(model=model, errors=ErrorRates(0.3, 0.3), shots=10_000, seed=5)
    lo, hi = 3000, 5000
    t_switch, mu, u_count = _window_profile(Prepared.UP, config, lo, hi)
    n = _poisson_quantile(u_count, mu)
    assert np.any(n == 0) and np.any(n > 4)
    assert np.any((t_switch > 0.0) & (t_switch < model.t_det))
    u_ev = _event_uniforms(config.seed, lo, n)
    t_ev = _event_times(u_ev, np.repeat(t_switch, n), np.repeat(mu, n), model)
    reference = t_ev[np.lexsort((t_ev, np.repeat(np.arange(n.size), n)))]
    times, counts = _shard_traces(Prepared.UP, config, lo, hi)
    np.testing.assert_array_equal(counts, n)
    np.testing.assert_array_equal(times.view(np.uint64), reference.view(np.uint64))


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
