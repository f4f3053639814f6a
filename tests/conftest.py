from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from shelveread import DetectionModel, ErrorRates, Prepared, SimConfig
import shelveread.monte_carlo as mc
from shelveread.monte_carlo import simulate_traces


@pytest.fixture(scope="session")
def measured_model() -> DetectionModel:
    """Measured operating point: 285 us window."""
    return DetectionModel(
        rate_bright=73.5e3, rate_dark=1.75e3, lifetime=0.390, t_det=285e-6
    )


@pytest.fixture(scope="session")
def optimum_model() -> DetectionModel:
    """Grid-optimal operating point: 280 us window, threshold 5."""
    return DetectionModel(
        rate_bright=73.5e3, rate_dark=1.75e3, lifetime=0.390, t_det=280e-6
    )


@pytest.fixture(scope="session")
def measured_errors() -> ErrorRates:
    return ErrorRates(eps_down_tot=6e-4, eps_up_tot=10e-4)


@pytest.fixture(scope="session")
def big_ensembles(optimum_model, measured_errors):
    """3e5 trace-mode shots per prepared state at the optimum (seeds 42/43).

    Shared by the classification, fitting, and acceptance tests; counts are
    the per-trace photon numbers, identical to count-mode output.
    """
    shots = 300_000
    down = simulate_traces(
        Prepared.DOWN,
        SimConfig(model=optimum_model, errors=measured_errors, shots=shots, seed=42),
        threads=4,
    )
    up = simulate_traces(
        Prepared.UP,
        SimConfig(model=optimum_model, errors=measured_errors, shots=shots, seed=43),
        threads=4,
    )
    return {"down": down, "up": up, "shots": shots}


def _philox(seed, counter):
    return np.random.Philox(
        counter=np.array(counter, dtype=np.uint64), key=np.array([seed, 0], dtype=np.uint64)
    )


def _reference_shots(prepared, config, lo, hi):
    """``(T, mu, counts)`` of shots ``lo..hi-1`` in the float layout.

    The block at counter (k + 1, 0, 0, 0) holds shots 2k and 2k + 1, two
    words each; the blocks are drawn whole from a generator at (lo // 2, 0,
    0, 0).  The high and low halves of a shot's first word, times 2**-32,
    are its flip and decay uniforms, compared as floats: a uniform-law decay
    lies at d / D * t_det, D = ceil(f * 2**32) computed exactly, an
    exponential one at -lifetime * log1p(-d * 2**-32).  The second word's
    top 53 bits are the count uniform, and every count is the table-free
    ``_poisson_quantile``.  The samplers must reproduce this bit for bit.
    """
    first = lo - lo % 2
    blocks = (hi - first + 1) // 2
    words = _philox(config.seed, [first // 2, 0, 0, 0]).random_raw((blocks, 4)).reshape(-1, 2)
    w_state, w_count = words[lo - first : hi - first].T
    high, low = w_state >> np.uint64(32), w_state & np.uint64(2**32 - 1)
    u_flip, u_decay, u_count = high * 2.0**-32, low * 2.0**-32, (w_count >> np.uint64(11)) * 2.0**-53
    model = config.model
    down = prepared is Prepared.DOWN
    eps = config.errors.eps_down_tot if down else config.errors.eps_up_tot
    flipped = u_flip < eps
    dark = flipped if down else ~flipped
    if config.decay_time_law is mc.DecayTimeLaw.UNIFORM_FIRST_ORDER:
        bound = math.ceil(Fraction(model.decay_fraction) * 2**32)
        t_switch = np.where(u_decay < model.decay_fraction, low / bound * model.t_det, model.t_det)
    else:
        t_switch = np.minimum(-model.lifetime * np.log1p(-u_decay), model.t_det)
    t_switch = np.where(dark, t_switch, 0.0)
    mu = model.rate_dark * t_switch + model.rate_bright * (model.t_det - t_switch)
    return t_switch, mu, mc._poisson_quantile(u_count, mu)


def _reference_times(config, t_switch, mu, n):
    """Arrival times of shots ``0..n.size-1`` with the given T, mean and count.

    Event group g's uniforms are ``Generator.random`` over the stream at
    counter (0, 0, g, 1), one per photon of its shots in shot order.  Each
    uniform is mapped to a time first: ``u * t_det`` for a bright shot (T =
    0); else its mass u * mu is inverted through the shot's cumulative
    rate, clamped at T before the switch and at t_det.  Only then are the
    times sorted per shot, by ``lexsort``.
    """
    model = config.model
    group = mc._EVENT_GROUP
    u = np.concatenate(
        [np.empty(0)]
        + [
            np.random.Generator(_philox(config.seed, [0, 0, g, 1])).random(int(n[lo : lo + group].sum()))
            for g, lo in enumerate(range(0, n.size, group))
        ]
    )
    t_switch, mass = np.repeat(t_switch, n), u * np.repeat(mu, n)
    mass_dark = model.rate_dark * t_switch
    with np.errstate(divide="ignore", invalid="ignore"):
        before = np.minimum(mass / model.rate_dark, t_switch)
    after = t_switch + (mass - mass_dark) / model.rate_bright
    dark = np.minimum(np.where(mass < mass_dark, before, after), model.t_det)
    t_ev = np.where(t_switch == 0.0, u * model.t_det, dark)
    return t_ev[np.lexsort((t_ev, np.repeat(np.arange(n.size), n)))]


@pytest.fixture(scope="session")
def reference_shots():
    return _reference_shots


@pytest.fixture(scope="session")
def reference_times():
    return _reference_times
