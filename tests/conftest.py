from __future__ import annotations

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


def _reference_shots(prepared, config, lo, hi):
    """``(T, mu, counts)`` of shots ``lo..hi-1`` in the float layout.

    Each shot's four block-0 uniforms (``_uniforms``) decide its flip, decay
    and decay instant as floats, and every count is the table-free
    ``_poisson_quantile``.  The samplers must reproduce this bit for bit.
    """
    u_flip, u_decay, u_pos, u_count = mc._uniforms(config.seed, 0, lo, hi - lo).T
    model = config.model
    down = prepared is Prepared.DOWN
    eps = config.errors.eps_down_tot if down else config.errors.eps_up_tot
    flipped = u_flip < eps
    dark = flipped if down else ~flipped
    if config.decay_time_law is mc.DecayTimeLaw.UNIFORM_FIRST_ORDER:
        t_switch = np.where(u_decay < model.decay_fraction, u_pos * model.t_det, model.t_det)
    else:
        t_switch = np.minimum(-model.lifetime * np.log1p(-u_decay), model.t_det)
    t_switch = np.where(dark, t_switch, 0.0)
    mu = model.rate_dark * t_switch + model.rate_bright * (model.t_det - t_switch)
    return t_switch, mu, mc._poisson_quantile(u_count, mu)


def _reference_times(config, lo, t_switch, mu, n):
    """Arrival times of shots ``lo..`` with the given T, mean and count.

    Each block's ``_uniforms`` over all the shots, side by side, give one
    row per shot holding its event uniforms in order; the rows cut to each
    shot's count, read row-major, are the events shot-major.  Each event's
    mass u * mu is inverted through the shot's cumulative rate, and the
    times are sorted per shot by ``lexsort``.
    """
    model = config.model
    blocks = [mc._uniforms(config.seed, b, lo, n.size) for b in range(1, (n.max(initial=0) + 3) // 4 + 1)]
    rows = np.hstack([np.empty((n.size, 0)), *blocks])
    t_switch, mass = np.repeat(t_switch, n), rows[np.arange(rows.shape[1]) < n[:, None]] * np.repeat(mu, n)
    mass_dark = model.rate_dark * t_switch
    with np.errstate(divide="ignore", invalid="ignore"):
        before = mass / model.rate_dark
    after = t_switch + (mass - mass_dark) / model.rate_bright
    t_ev = np.where(mass < mass_dark, before, after)
    return t_ev[np.lexsort((t_ev, np.repeat(np.arange(n.size), n)))]


@pytest.fixture(scope="session")
def reference_shots():
    return _reference_shots


@pytest.fixture(scope="session")
def reference_times():
    return _reference_times
