"""Photon-count statistics for electron-shelving readout.

During a detection window of length ``t_det`` a laser drives the cycling
transition of the bright (ground) state, which scatters photons at rate
``rate_bright``.  A qubit shelved in the metastable dark state produces only
background at ``rate_dark`` -- unless it decays back to the ground state at
some instant ``T`` inside the window, after which it fluoresces at the bright
rate for the remaining ``t_det - T``.  To first order in ``t_det/lifetime``
the decay instant is uniform over the window, which smears part of the dark
count distribution into a plateau between the dark and bright Poisson peaks.

This module provides the closed-form count distributions for both qubit
states, with and without state-preparation errors, on one truncated integer
support (``count_support_max``) that the sampler and the fit share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectionModel",
    "ErrorRates",
    "CountPMF",
    "ZERO_ERRORS",
    "poisson_pmf",
    "count_support_max",
    "decay_mixture_pmf",
    "bright_pdf",
    "dark_pdf",
    "observed_pdf_down",
    "observed_pdf_up",
]

# Fractional window/lifetime ratio above which the first-order treatment of
# metastable decay (single decay, uniform in the window) is no longer trusted.
MAX_DECAY_FRACTION = 0.1


def _decay_fraction(t_det: float, lifetime: float) -> float:
    """``t_det/lifetime``, checked: both positive and the ratio below ``MAX_DECAY_FRACTION``."""
    if not lifetime > 0.0:
        raise ValueError(f"lifetime must be positive, got {lifetime}")
    if not t_det > 0.0:
        raise ValueError(f"t_det must be positive, got {t_det}")
    f = t_det / lifetime
    if not f < MAX_DECAY_FRACTION:
        raise ValueError(
            f"t_det/lifetime = {f:.3g} >= {MAX_DECAY_FRACTION}; the first-order decay model only "
            "holds for windows much shorter than the dark-state lifetime"
        )
    return f


@dataclass(frozen=True)
class DetectionModel:
    """Rates and timing of one fluorescence detection window.

    Parameters
    ----------
    rate_bright : float
        Detected photon rate (counts/s) with the qubit in the bright state.
    rate_dark : float
        Background rate (counts/s) with the qubit shelved in the dark state.
    lifetime : float
        Lifetime (s) of the metastable dark state.
    t_det : float
        Detection window length (s).
    """

    rate_bright: float
    rate_dark: float
    lifetime: float
    t_det: float

    def __post_init__(self) -> None:
        if not (np.inf > self.rate_bright > self.rate_dark >= 0.0):
            raise ValueError(
                "require a finite rate_bright > rate_dark >= 0, got "
                f"rate_bright={self.rate_bright}, rate_dark={self.rate_dark}"
            )
        _decay_fraction(self.t_det, self.lifetime)

    @property
    def mean_bright(self) -> float:
        """Mean photon number for a bright-state window."""
        return self.rate_bright * self.t_det

    @property
    def mean_dark(self) -> float:
        """Mean photon number for a dark-state window absent any decay."""
        return self.rate_dark * self.t_det

    @property
    def decay_fraction(self) -> float:
        """First-order probability that the dark state decays in-window."""
        return self.t_det / self.lifetime


@dataclass(frozen=True)
class ErrorRates:
    """Combined preparation + shelving error probability per prepared state.

    ``eps_down_tot`` is the probability that a qubit meant to stay bright is
    found shelved; ``eps_up_tot`` the probability that the shelving sequence
    leaves a meant-to-be-dark qubit fluorescing.  Only these sums (not the
    preparation/shelving split) are identifiable from count histograms.
    Both must lie in [0, 0.5): beyond that the "prepared" label stops being
    meaningful.
    """

    eps_down_tot: float
    eps_up_tot: float

    def __post_init__(self) -> None:
        for name, value in (
            ("eps_down_tot", self.eps_down_tot),
            ("eps_up_tot", self.eps_up_tot),
        ):
            if not (0.0 <= value < 0.5):
                raise ValueError(f"{name} must lie in [0, 0.5), got {value}")

    @property
    def mean(self) -> float:
        return 0.5 * (self.eps_down_tot + self.eps_up_tot)


ZERO_ERRORS = ErrorRates(0.0, 0.0)


@dataclass(frozen=True)
class CountPMF:
    """Probability mass over photon counts ``n = 0 .. support_max``."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise ValueError("probs must be finite and non-negative")
        object.__setattr__(self, "probs", probs)

    @property
    def support_max(self) -> int:
        return self.probs.size - 1

    def cdf(self, n: int) -> float:
        """P(count <= n).  ``n`` past the support clips to the full sum."""
        if n < 0:
            return 0.0
        return float(self.probs[: n + 1].sum())

    def tail(self, n: int) -> float:
        """P(count > n) on the truncated support.  ``n`` below 0 clips to -1."""
        return float(self.probs[max(n, -1) + 1 :].sum())

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def total(self) -> float:
        return float(self.probs.sum())


@functools.lru_cache(maxsize=None)
def _log_factorial(size: int) -> np.ndarray:
    """log n! for n < size, a power of two; built once per size, read-only: threads share it."""
    table = np.array([math.lgamma(i + 1.0) for i in range(size)])
    table.flags.writeable = False
    return table


def _pmf_terms(k, mean, out: np.ndarray) -> np.ndarray:
    """The Poisson pmf ``exp(k*log(mean) - mean - log k!)`` of counts ``k >= 0``, in place in ``out``.

    ``poisson_pmf`` and the sampler's row walk both call it, so both get the
    same floats.  A mean of 0 gives NaN at k = 0: callers handle it.
    """
    np.multiply(k, np.log(mean), out=out)
    out -= mean
    out -= _log_factorial(1 << int(k.max(initial=0)).bit_length())[k]
    return np.exp(out, out=out)


def poisson_pmf(n, mean):
    """Poisson probability mass, evaluated in log space for large means.

    Parameters
    ----------
    n : int or array of int
        Count value(s); negative entries get probability 0.
    mean : float or array
        Poisson mean(s), broadcast against ``n``.  A mean of exactly 0 puts
        all mass on n = 0.
    """
    n = np.asarray(n)
    k = n.astype(np.int64)
    if (k != n).any():
        raise ValueError("Poisson counts must be integers")
    mean = np.asarray(mean, dtype=float)
    if (mean < 0.0).any():
        raise ValueError("Poisson mean must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _pmf_terms(np.maximum(k, 0), mean, np.empty(np.broadcast_shapes(k.shape, mean.shape)))
    out = np.where(k >= 0, out, 0.0)
    # mean == 0 makes n*log(mean) ill-defined; the limit is a point mass at 0.
    out = np.where(mean == 0.0, (k == 0).astype(float), out)
    if out.ndim == 0:
        return float(out)
    return out


def count_support_max(mean):
    """Largest count kept on the truncated support of a Poisson mean; elementwise.

    ``ceil(mean + 16*sqrt(mean)) + 20``: sixteen standard deviations past
    the mean plus a floor, beyond which the Poisson tail is below 1e-40 of
    the mass for any mean.  The closed form, the sampler and the fit all
    use this one support, so no quantile draw or decay-mixture tail sum may
    fall off it.  A negative or NaN mean, or one whose support does not fit
    in int64, raises.
    """
    mean = np.asarray(mean, dtype=float)
    if np.any(mean < 0.0):
        raise ValueError(f"mean photon number must be non-negative, got {np.min(mean)}")
    top = np.ceil(mean + 16.0 * np.sqrt(mean))
    # NaN fails too; the largest float below 2**63 is 1024 below it, room for the floor
    if not np.all(top < 2.0**63):
        raise ValueError(f"mean photon number {np.max(mean)} has no count support within int64")
    top = top.astype(np.int64) + 20
    return top if top.ndim else int(top)


def _support(model: DetectionModel) -> np.ndarray:
    return np.arange(count_support_max(model.mean_bright) + 1)


def decay_mixture_pmf(model: DetectionModel) -> np.ndarray:
    """Count PMF given an in-window decay at a uniform instant.

    A decay at time T yields Poisson counts with mean
    ``rate_dark*T + rate_bright*(t_det - T)``; averaging T uniformly over the
    window gives

        g(n) = [F(n, mean_dark) - F(n, mean_bright)] / (mean_bright - mean_dark)

    with F the Poisson CDF -- i.e. the flat-in-mean average of Poisson PMFs
    between the dark and bright means, summed from positive terms only.  When
    the two means lie less than one count apart that difference quotient
    cancels catastrophically, and the average is taken by Gauss-Legendre
    quadrature over the line of means instead.
    """
    # A shelved qubit that surely decays (f = 1) counts as the mixture itself.
    return _readout_pmfs(_support(model), model.mean_bright, model.mean_dark, 0.0, 0.0, 1.0)[1]


def bright_pdf(model: DetectionModel) -> CountPMF:
    """Count distribution for a bright-state (not shelved) window."""
    return CountPMF(poisson_pmf(_support(model), model.mean_bright))


def dark_pdf(model: DetectionModel) -> CountPMF:
    """Count distribution for a shelved qubit, including in-window decay.

    With probability ``t_det/lifetime`` the dark state decays inside the
    window (uniform instant, first order) and the counts follow the mixed
    distribution ``decay_mixture_pmf``; otherwise they are Poisson at the
    background mean.
    """
    return observed_pdf_up(model, ZERO_ERRORS)


def observed_pdf_down(model: DetectionModel, errors: ErrorRates) -> CountPMF:
    """Count distribution for a qubit prepared bright, with shelving errors.

    A fraction ``eps_down_tot`` is erroneously shelved and counts like a
    shelved qubit, in-window decay included (``dark_pdf``).
    """
    return CountPMF(_observed_pmfs(model, errors)[0])


def observed_pdf_up(model: DetectionModel, errors: ErrorRates) -> CountPMF:
    """Count distribution for a qubit prepared dark, with shelving errors.

    A fraction ``eps_up_tot`` is never shelved and fluoresces at the full
    bright rate; the rest counts like ``dark_pdf``.
    """
    return CountPMF(_observed_pmfs(model, errors)[1])


def _observed_pmfs(model: DetectionModel, errors: ErrorRates):
    return _readout_pmfs(
        _support(model), model.mean_bright, model.mean_dark,
        errors.eps_down_tot, errors.eps_up_tot, model.decay_fraction,
    )


# Eight-point Gauss-Legendre rule on [0, 1]: exact to rounding for the
# decay-mixture average whenever the two means are less than a count apart.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def _readout_pmfs(n, mean_bright, mean_dark, eps_down, eps_up, f, grad=False):
    """The observed-count model of both prepared states, and its gradient if ``grad``.

    A shot whose effective state is dark counts as
    ``dark = (1 - f)*Poisson(mean_dark) + f*g`` (``g`` the in-window decay
    mixture of ``decay_mixture_pmf``, ``f = t_det/lifetime``); every other
    shot counts as ``Poisson(mean_bright)``.  A fraction ``eps_down`` of
    bright-prepared shots and ``1 - eps_up`` of dark-prepared shots are
    effectively dark.  The Monte Carlo sampler draws from exactly this model.

    The means are scalars or (B,) arrays, one parameter set per row; the
    rest broadcast against them.  Returns ``(p_down, p_up)`` on the counts
    ``n = 0..N``, of shape (N + 1,) or (B, N + 1); with ``grad``, also
    ``(grad_down, grad_up)``, of shape (4, N + 1) or (B, 4, N + 1), taken
    with respect to (mean_bright, mean_dark, eps_down, eps_up).  At
    ``mean_dark == 0`` the dark-mean derivatives are the right derivatives.
    All rows pad to the support of the largest mean (or of N + 1), so on
    the same ``n`` a row gets the floats of its single-set call.
    """
    n, shape = np.asarray(n), np.shape(mean_bright)
    eps_down, eps_up, f = (np.reshape(x, (-1, 1)) for x in (eps_down, eps_up, f))
    mean_bright, mean_dark = means = np.reshape([mean_bright, mean_dark], (2, -1, 1))
    padded = np.arange(count_support_max(max(mean_bright.max(), n.size)) + 1)
    pb_padded, pd_padded = poisson_pmf(padded, means)
    pb, pd = pb_padded[:, : n.size], pd_padded[:, : n.size]
    gap, shelved = mean_bright - mean_dark, mean_dark > 0.0
    # g sums pd - pb from 0 up below the count where the PMFs cross, and
    # pb - pd from the padded end down above it: positive terms only, each
    # kept exact near the crossing as pd*expm1(x) or -pb*expm1(-x), x = log(pb/pd).
    # A zero dark mean has no crossing: every count lies above it.
    some_dark = np.where(shelved, mean_dark, 1.0)
    log_ratio = np.log1p(gap / some_dark)
    x = padded * log_ratio - gap
    excess = np.expm1(-np.abs(x)) * np.where(x < 0.0, pd_padded, -pb_padded)
    excess = np.where(shelved, excess, pb_padded - pd_padded)
    crossing = np.where(shelved, gap / log_ratio, 0.0)
    above = np.cumsum(excess[:, :0:-1], axis=1)[:, ::-1][:, : n.size]
    g = np.where(n < crossing, -np.cumsum(excess, axis=1)[:, : n.size], above) / gap
    dg_db, dg_dd = (pb - g) / gap, (g - pd) / gap
    quadrature = gap[:, 0] < 1.0
    if quadrature.any():
        # g = int_0^1 Poisson(mean_dark + u*gap) du, and its mean derivatives
        # are the same average of the Poisson slope weighted by u and 1 - u.
        # The CDF difference above would cancel catastrophically here
        # (derivative error ~1e-16/gap**2).
        mu = (mean_dark[quadrature] + gap[quadrature] * _GL_NODES)[..., None]
        p = poisson_pmf(n, mu)
        slope = p * (n / mu - 1.0)
        g[quadrature] = _GL_WEIGHTS @ p
        dg_db[quadrature] = (_GL_WEIGHTS * _GL_NODES) @ slope
        dg_dd[quadrature] = (_GL_WEIGHTS * (1.0 - _GL_NODES)) @ slope
    dark = (1.0 - f) * pd + f * g
    p_down = (1.0 - eps_down) * pb + eps_down * dark
    p_up = (1.0 - eps_up) * dark + eps_up * pb
    out = [p_down, p_up]
    if grad:
        # d Poisson(n, mu)/d mu = Poisson * (n/mu - 1); safe at small mu because
        # the Poisson factor carries mu^n.  At mu = 0 the right derivative is
        # Poisson(n - 1, 0) - Poisson(n, 0): the first term over 1, plus (n == 1).
        dpb = pb * (n / mean_bright - 1.0)
        dpd = pd * (n / some_dark - 1.0) + ((n == 1) & ~shelved)
        dark_b, dark_d = f * dg_db, (1.0 - f) * dpd + f * dg_dd  # d dark / d (mean_bright, mean_dark)
        zero = np.zeros_like(pb)
        out.append(np.stack([(1.0 - eps_down) * dpb + eps_down * dark_b, eps_down * dark_d, dark - pb, zero], 1))
        out.append(np.stack([(1.0 - eps_up) * dark_b + eps_up * dpb, (1.0 - eps_up) * dark_d, zero, pb - dark], 1))
    return tuple(a.reshape(shape + a.shape[1:]) for a in out)
