"""State discrimination for shelving readout: thresholds and arrival times.

Two classifiers are provided.  The simple one compares the photon count of a
window against an integer threshold ``n_th`` (counts above the threshold are
called bright).  Its readout error is the average of the two misclassification
probabilities, which ``mean_error`` and ``optimize`` take from one rule, and
can be minimized over the (window length, threshold) grid.

The time-resolved classifier uses the full list of photon arrival times.  It
compares the likelihood of the record under (a) fluorescence at the bright
rate for the whole window against (b) a shelved qubit that may decay at an
unknown instant T, marginalized over T with the exponential decay law (the
count model instead takes T uniform in the window, to first order in
``t_det/lifetime``).  Between consecutive arrivals the likelihood ratio is a
pure exponential in T, and the segment integrals telescope into one
closed-form sum with one term per photon, so the marginalization needs no
quadrature.  A count or a bound from the first photons decides most traces;
the rest of a batch is one segmented sum over their photons.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._files import _is_int, read_grid_csv, write_grid_csv
from .monte_carlo import TraceBatch, _validate_trace_times
from .photon_statistics import (
    ZERO_ERRORS, DetectionModel, ErrorRates, _observed_pmfs, _readout_pmfs, count_support_max,
)

__all__ = [
    "State",
    "ErrorReport",
    "OptimizationGrid",
    "OptimizationResult",
    "classify",
    "mean_error",
    "optimize",
    "classify_time_resolved",
    "classify_traces",
    "write_error_surface_csv",
    "read_error_surface_csv",
]


class State(Enum):
    """Outcome of one readout: fluorescing or shelved."""

    BRIGHT = "bright"
    DARK = "dark"


@dataclass(frozen=True)
class ErrorReport:
    """Misclassification probabilities of a count threshold.

    ``eps_bright`` is the probability a bright qubit is read as dark,
    ``eps_dark`` the reverse; ``eps_mean`` is their average.  ``eps_prep``
    is the mean state-preparation/shelving error, which ``eps_total_mean``
    adds on top.
    """

    eps_bright: float
    eps_dark: float
    eps_prep: float

    def __post_init__(self) -> None:
        for name in ("eps_bright", "eps_dark", "eps_prep"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def eps_mean(self) -> float:
        return 0.5 * (self.eps_bright + self.eps_dark)

    @property
    def eps_total_mean(self) -> float:
        return self.eps_mean + self.eps_prep


@dataclass(frozen=True)
class OptimizationGrid:
    """Strictly increasing (window, threshold) axes for the error surface."""

    t_values: np.ndarray
    n_values: np.ndarray

    def __post_init__(self) -> None:
        t_values = np.asarray(self.t_values, dtype=float)
        n_values = np.asarray(self.n_values)
        if t_values.ndim != 1 or t_values.size == 0 or np.any(t_values <= 0.0):
            raise ValueError("t_values must be a non-empty 1-D array of positive times")
        if np.any(np.diff(t_values) <= 0.0):
            raise ValueError("t_values must be strictly increasing")
        # the given values, not the array: numpy casts [True, 2] to integers
        integers = n_values.ndim == 1 and all(_is_int(n) and n >= 0 for n in self.n_values)
        if n_values.size == 0 or not integers:
            raise ValueError("n_values must be a non-empty 1-D array of integer thresholds >= 0")
        if np.any(np.diff(n_values) <= 0):
            raise ValueError("n_values must be strictly increasing")
        object.__setattr__(self, "t_values", t_values)
        object.__setattr__(self, "n_values", n_values.astype(np.int64))

    @classmethod
    def default(cls) -> OptimizationGrid:
        """Window 50-600 us in 5 us steps, thresholds 0-30."""
        return cls(np.arange(50, 601, 5) * 1e-6, np.arange(0, 31))


def _threshold(n_th) -> int:
    if not _is_int(n_th) or n_th < 0:
        raise ValueError(f"n_th must be a non-negative integer, got {n_th!r}")
    return int(n_th)


def classify(count: int, n_th: int) -> State:
    """Threshold classification: counts above ``n_th`` are bright."""
    n_th = _threshold(n_th)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return State.BRIGHT if count > n_th else State.DARK


def _threshold_errors(pmfs, n_th) -> tuple[np.ndarray, np.ndarray]:
    """Bright and dark errors at thresholds ``n_th`` from one or a row per window of readout pmfs.

    The bright error P(n <= n_th) is a forward cumsum of the bright pmf; the
    dark error P(n > n_th) is the dark pmf's tail summed down from the last
    count (positive terms, no 1 - CDF cancellation), and 0 past it.
    """
    p_bright, p_dark = pmfs[:2]
    # a threshold at or past the top of the support reads every count as dark
    n = np.minimum(n_th, p_bright.shape[-1] - 1).astype(np.int64)
    tail = np.cumsum(p_dark[..., ::-1], axis=-1)[..., ::-1]
    tail = np.concatenate([tail, np.zeros_like(tail[..., :1])], axis=-1)
    eps_b, eps_d = np.cumsum(p_bright, axis=-1)[..., n], tail[..., n + 1]
    # a pmf sums to 1 + O(1e-15) on its support, so a sum over most of it can round above 1
    return np.minimum(eps_b, 1.0), np.minimum(eps_d, 1.0)


def mean_error(model: DetectionModel, n_th: int, errors: ErrorRates | None = None) -> ErrorReport:
    """Average readout error of threshold ``n_th`` under ``model``.

    Uses the ideal-preparation count distributions; if ``errors`` is given,
    ``eps_total_mean`` additionally includes the mean preparation error
    (preparation mistakes flip the qubit before the window, so they add to
    the detection error to first order).
    """
    n_th = _threshold(n_th)
    eps_b, eps_d = _threshold_errors(_observed_pmfs(model, ZERO_ERRORS), [n_th])
    return ErrorReport(float(eps_b[0]), float(eps_d[0]), 0.0 if errors is None else errors.mean)


@dataclass(frozen=True)
class OptimizationResult:
    """Grid minimum of the mean readout error.

    ``surface[i, j]`` is the mean error at window ``grid.t_values[i]`` and
    threshold ``grid.n_values[j]``, as ``mean_error`` gives it; (``t_det``,
    ``n_th``) is the grid argmin with ties broken toward the smallest
    window, then the smallest threshold.
    """

    t_det: float
    n_th: int
    eps_mean: float
    grid: OptimizationGrid
    surface: np.ndarray


def optimize(
    rate_bright: float, rate_dark: float, lifetime: float, grid: OptimizationGrid | None = None
) -> OptimizationResult:
    """Minimize the mean threshold-readout error over a (t_det, n_th) grid.

    Longer windows separate the bright and dark count peaks but expose the
    shelved state to more decay, so the error surface has an interior
    minimum.  The scan is exhaustive; the full surface is returned alongside
    the optimum.
    """
    grid = OptimizationGrid.default() if grid is None else grid
    t_values, n_values = grid.t_values, grid.n_values
    # the longest window checks every window: the rates do not depend on it, the decay fraction grows with it
    DetectionModel(rate_bright, rate_dark, lifetime, float(t_values[-1]))
    mean_bright = rate_bright * t_values
    n = np.arange(count_support_max(mean_bright[-1]) + 1)
    pmfs = _readout_pmfs(n, mean_bright, rate_dark * t_values, 0.0, 0.0, t_values / lifetime)
    # each window keeps its own support, so its dark tail sums down from its own top
    eps_b, eps_d = _threshold_errors(np.where(n <= count_support_max(mean_bright)[:, None], pmfs, 0.0), n_values)
    surface = 0.5 * (eps_b + eps_d)

    # Row-major argmin: first minimum in t-then-n order implements the
    # smallest-t, then smallest-n tie break.
    flat = int(np.argmin(surface))
    i, j = divmod(flat, n_values.size)
    return OptimizationResult(float(t_values[i]), int(n_values[j]), float(surface[i, j]), grid, surface)


# ---------------------------------------------------------------------------
# Time-resolved classification

# Traces plus photons per slice of ``classify_traces``, and photons per trace
# in its bound.  3e5 optimum-point DOWN / UP traces (2-core Xeon) took 52 / 9,
# 42 / 7, 33 / 6, 30 / 6 and 31 / 6 ms at 2**14 to 2**18; and 135 / 6, 27 / 6,
# 29 / 7 and 34 / 7 ms at 2, 3, 4 and 8 photons, which left 299816 / 448,
# 14 / 53, 12 / 50 and 12 / 50 traces to the exact sum.
_SLICE = 1 << 16
_FIRST = 4


def _log_no_decay(lens: np.ndarray, model: DetectionModel) -> np.ndarray:
    """log[L(shelved, no decay) / L(bright)] = -f + n log rr + (rate_bright - rate_dark) T, n = ``lens``."""
    with np.errstate(divide="ignore", invalid="ignore"):  # rr^0 = 1 even when rr = 0
        n_log_rr = np.where(lens > 0, lens * np.log(model.rate_dark / model.rate_bright), 0.0)
    return -model.decay_fraction + n_log_rr + (model.rate_bright - model.rate_dark) * model.t_det


def _log_ratio_dark_bright(
    flat_times: np.ndarray, offsets: np.ndarray, model: DetectionModel
) -> np.ndarray:
    """log[L(dark, decay marginalized) / L(bright)] for each trace.

    ``flat_times`` holds the arrival times of all traces concatenated;
    ``offsets[i]:offsets[i+1]`` slices trace ``i``.  Within a trace the
    times must be sorted.

    A decay at instant s, after k(s) of the n photons, weighs the record by
    rr^k(s) e^(a s) / lifetime relative to all-bright, with
    rr = rate_dark/rate_bright and a = rate_bright - rate_dark - 1/lifetime.
    Over the window [0, T] the segment integrals telescope to

        [rr^n expm1(a T) + (1 - rr) sum_j rr^(j-1) expm1(a t_j)] / a,

    every term of which has the sign of a, so nothing cancels.  The sum is
    one weight per photon, added up per trace by ``np.add.reduceat``.  For
    a > 0 the factor e^(a T) is taken out so nothing overflows; at a = 0
    each expm1(a t)/a is its limit t.
    """
    lens = np.diff(offsets)
    t_det = model.t_det
    rr = model.rate_dark / model.rate_bright
    a = model.rate_bright - model.rate_dark - 1.0 / model.lifetime

    def expm1_over_a(t):
        # expm1(a t)/a, divided by e^(a T) when a > 0
        if a > 0.0:
            return np.exp(a * (t - t_det)) * -np.expm1(-a * t) / a
        if a < 0.0:
            return np.expm1(a * t) / a
        return t

    # rr^j by table; np.power gives 0^0 = 1 for a zero dark rate
    rr_pow = np.power(rr, np.arange(lens.max(initial=0) + 1))
    integral = rr_pow[lens] * expm1_over_a(t_det)
    if flat_times.size:
        rank = np.arange(flat_times.size) - np.repeat(offsets[:-1], lens)
        weights = rr_pow[rank] * expm1_over_a(flat_times)
        nonempty = lens > 0
        integral[nonempty] += (1.0 - rr) * np.add.reduceat(weights, offsets[:-1][nonempty])

    with np.errstate(divide="ignore"):
        log_in_window = max(a, 0.0) * t_det - np.log(model.lifetime) + np.log(integral)
    return np.logaddexp(_log_no_decay(lens, model), log_in_window)


def classify_time_resolved(trace, model: DetectionModel) -> State:
    """Maximum-likelihood state call from the photon arrival times.

    ``trace`` is a ``PhotonTrace``, whose window must be the model's, or a
    bare array of sorted arrival times in seconds, which takes the model's
    window.  The decision is that of ``classify_traces`` on a batch of this
    one trace.
    """
    times = np.asarray(getattr(trace, "timestamps", trace), dtype=float)
    batch = TraceBatch(times, [0, times.size], getattr(trace, "t_det", model.t_det))
    return State.BRIGHT if classify_traces(batch, model)[0] else State.DARK


def _trace_slices(offsets: np.ndarray, budget: int):
    """Cut traces into slices of whole traces, each at most ``budget`` traces plus photons.

    ``offsets`` are the traces' offsets into their concatenated photons.  A
    trace longer than the budget is a slice alone.  Yields ``(lo, hi)``, the
    trace range of each slice, in order.
    """
    lo, traces = 0, offsets.size - 1
    while lo < traces:
        # no slice holds more than `budget` traces or `budget` photons
        top = min(lo + budget, int(np.searchsorted(offsets, offsets[lo] + budget, side="right")) - 1)
        ends = offsets[lo : top + 1]
        work = ends - ends[0] + np.arange(ends.size)
        hi = lo + max(1, int(np.searchsorted(work, budget, side="right")) - 1)
        yield lo, hi
        lo = hi


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # infinite bounds: see classify_traces
def _log_ratio_bound(times, starts, lens, log_no_decay, model: DetectionModel) -> np.ndarray:
    """The bound of ``classify_traces`` on traces ``times[starts[i]:][:lens[i]]``, margin included."""
    t_det, rr = model.t_det, model.rate_dark / model.rate_bright
    a = model.rate_bright - model.rate_dark - 1.0 / model.lifetime
    # row j: photon j of each trace, or T past its end, where with rr^K E(T) it sums to the k = n bound
    ranks = np.arange(_FIRST)
    t = times.take(np.add.outer(ranks, starts), mode="clip") if times.size else np.empty((_FIRST, lens.size))
    np.copyto(t, t_det, where=ranks[:, None] >= lens)
    e_bar, e_end, scale = t, t_det, model.lifetime  # a <= 0: E(t) = expm1(a t)/a <= t
    if a > 0.0:  # E(t) = expm1(a t)/a <= e^(a t)/a
        e_bar, e_end, scale = np.exp(np.multiply(t, a, out=t), out=t), np.exp(a * t_det), a * model.lifetime
    ratio = np.exp(log_no_decay) + (np.dot((1.0 - rr) * np.power(rr, ranks), e_bar) + rr**_FIRST * e_end) / scale
    bound = np.log(ratio)
    terms = 16.0 + abs(a) * t_det + abs(np.log(model.lifetime)) + abs(np.log(scale))
    return np.fmax(bound + 2.0**-40 * (np.abs(bound) + lens + terms), bound)


def classify_traces(batch, model: DetectionModel) -> np.ndarray:
    """Maximum-likelihood state calls for a ``TraceBatch`` recorded in the model's window.

    Returns a boolean array, True where the trace is called bright.  A trace
    is called dark when the decay-marginalized shelved likelihood is at
    least the bright likelihood.  Preparation errors mix the same two
    likelihoods into both hypotheses with weights (1-eps) and eps, so they
    cancel from the equal-prior ratio and never change the decision.

    The log ratio is logaddexp(L0, log(I/lifetime)) (``_log_no_decay``,
    ``_log_ratio_dark_bright``).  A trace is dark if L0 >= 0, as a float
    logaddexp is at least its larger argument; bright if ``_log_ratio_bound``
    < 0; else its exact ratio decides.  As E >= 0 increases and is at most
    B(t) = e^(a t)/a if a > 0, else t, I <= J = (1 - rr) sum_(j<=k) rr^(j-1)
    B(t_j) + rr^k B(T) for k = min(n, _FIRST).  The bound is log(e^L0 +
    J/lifetime) + 2^-40 (|bound| + n + 16 + |a| T + |log lifetime| + |log s|),
    s = a lifetime if a > 0, else lifetime.  With u = 2^-53, each term of I
    or J is within (3 + 2|a| T + |log s|) u, a sum of m terms within m u
    more; a log, offset or logaddexp adds u (its magnitudes + 3), weighted in
    logaddexp by e^(argument - result), and as x + u|x| increases the float
    ratio's magnitudes count as the bound's.  So the two differ by < 8u times
    the bracket, 2^-10 of the margin, unless a term is subnormal; an overflow
    (a T > 709) makes the bound inf, and a zero sum -inf.

    The rules run on slices of whole traces, at most ``_SLICE`` traces plus
    photons each (``_trace_slices``), so temporaries are bounded by the slice,
    and an exact ratio, its own segment of the sum, is the whole batch's.
    """
    if batch.t_det != model.t_det:
        raise ValueError(f"traces of a {batch.t_det} s window given a model of a {model.t_det} s window")
    flat, offsets = _validate_trace_times(batch.timestamps, batch.offsets, model.t_det)
    bright = np.zeros(offsets.size - 1, dtype=bool)
    for lo, hi in _trace_slices(offsets, _SLICE):
        ends = offsets[lo : hi + 1] - offsets[lo]
        times, lens = flat[offsets[lo] : offsets[hi]], np.diff(ends)
        log_no_decay = _log_no_decay(lens, model)
        open_ = np.flatnonzero(log_no_decay < 0.0)
        bound = _log_ratio_bound(times, ends[open_], lens[open_], log_no_decay[open_], model)
        bright[lo + open_] = bound < 0.0
        rest = open_[~(bound < 0.0)]
        if rest.size:
            sub = np.concatenate([[0], np.cumsum(lens[rest])])
            photons = np.repeat(ends[rest] - sub[:-1], lens[rest]) + np.arange(sub[-1])
            bright[lo + rest] = _log_ratio_dark_bright(times[photons], sub, model) < 0.0
    return bright


# ---------------------------------------------------------------------------
# Error-surface CSV

_SURFACE_HEADER = ("t_det_us", "n_th", "eps")


def write_error_surface_csv(result: OptimizationResult, path, metadata: dict | None = None) -> None:
    """Write the surface as ``t_det_us,n_th,eps`` rows, window-major; times in microseconds."""
    t_us, n_values = result.grid.t_values * 1e6, result.grid.n_values
    write_grid_csv(path, _SURFACE_HEADER, t_us, n_values, result.surface, metadata)


def read_error_surface_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a surface written by ``write_error_surface_csv``.

    Returns ``(t_values, n_values, surface)`` with times back in seconds.
    The rows must hold each point of a rectangular grid once.
    """
    t_us, n_th, surface = read_grid_csv(path, _SURFACE_HEADER)
    n_values = n_th.astype(np.int64)
    if np.any(n_values != n_th):
        raise ValueError(f"{path}: n_th values must be integers")
    return t_us * 1e-6, n_values, surface
