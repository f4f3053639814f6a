"""Monte Carlo shelving-readout shots with reproducible counter-keyed streams.

All randomness comes from numpy's Philox4x64-10 keyed by the seed.  Each
Philox block of the state stream holds the two state words of two shots,
shot i's at counter (i // 2 + 1, 0, 0, 0); the photon arrival times of each
fixed group of ``_EVENT_GROUP`` shots come from one stream of the group's
own (see ``_philox``).  So ``simulate_shot(i)`` reproduces row ``i`` of a
batch bit for bit, batches may be sharded across threads without changing
any outcome, and no generator state is carried between shots or groups.

A shot is simulated as: (1) flip the prepared state with the corresponding
preparation error probability, (2) if the effective state is dark, draw the
in-window decay instant under the configured law, (3) draw the total photon
count from a Poisson at the window's integrated rate, and, in trace mode,
(4) place the photons by inverting the cumulative rate profile and sorting
them per shot.  With the decay instant uniform in the window, the simulated
counts marginalize to the closed-form count distributions
``photon_statistics.observed_pdf_down``/``observed_pdf_up``, which both come
from the one readout model in ``photon_statistics._readout_pmfs``, to within
the 2**-32 resolution of the flip and decay draws.

Each chunk of shots is classified from the raw words of its state stream,
not from uniforms (``_window_profile``): the two 32-bit halves of a shot's
first word are its flip and decay draws, integer compares against
``ceil(p * 2**32)`` (``_threshold``), and the top 53 bits of its second
word are the count uniform, the one float every shot needs.

The count is the exact inverse CDF, the number of Poisson CDF values <= the
shot's uniform.  Every shot of a chunk is drawn in one pass from a guide
table (Chen & Asau 1974) of its prepared state's mean; the flipped shots are
then redrawn from the other state's table, and the in-window decays, the
only shots with a mean of their own, walk their CDFs together, one block of
counts by shots per step.  The tables are built once per ``simulate_*`` call.
All paths read the same CDF floats, so no draw depends on the path, the
chunking or the thread count.

Count mode draws ``_COUNT_CHUNK`` chunks, each one task of the thread pool.
``simulate_counts`` writes each chunk's counts into one per-shot array;
``simulate_histogram`` keeps none, but bins each chunk in its task and adds
the bins, so its memory is bounded by the chunk size times the threads.

Trace mode makes two passes.  The first draws every shot's count in
``_COUNT_CHUNK`` chunks, as count mode does, and stores beside it the
shot's rate-switch instant T: 0 if bright, t_det if dark and undecayed,
else the decay instant.  The counts fix the output's offsets.  The second
places the photons of each run of ``_PLACE_CHUNK`` shots, whole groups, one
run a task.  Each group draws exactly its photon count as raw words, in
shot order, and sorts the integer keys ``(shot in group << 53) | (w >>
11)`` once; the run then reads each photon's uniform back from the low 53
bits and maps it through its shot's cumulative rate (``_place_events``,
``_event_times``).  The map is monotone in float arithmetic, so the times
come out sorted per shot, shot-major, and land in the run's part of the
output directly.  ``simulate_shot`` runs the count pass on its shot's
group alone, advances the group's stream to the shot's first event and
sorts only the shot's own words.

Histograms are exchanged as ``n,count,frequency`` CSV in the one artifact
format of ``_files`` (``write_histogram_csv``/``read_histogram_csv``).
Trace batches are one lossless ``.npz`` archive (``write_traces``/
``read_traces``) holding the float64 arrival times, the int64 per-shot
offsets, ``t_det`` and a JSON metadata string, which round-trips bit for
bit, photonless shots included.
"""

from __future__ import annotations

import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import RNG_STREAM
from ._files import _is_int, read_csv, write_csv
from .photon_statistics import (
    ZERO_ERRORS,
    DetectionModel,
    ErrorRates,
    _pmf_terms,
    count_support_max,
    poisson_pmf,
)

__all__ = [
    "Prepared",
    "DecayTimeLaw",
    "SimConfig",
    "PhotonTrace",
    "TraceBatch",
    "CountHistogram",
    "simulate_shot",
    "simulate_counts",
    "simulate_histogram",
    "simulate_traces",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_traces",
    "read_traces",
]

# Shots per vectorized pass of the count draws (``simulate_counts``,
# ``simulate_histogram`` and the first pass of ``simulate_traces``); each
# chunk is one task of the thread pool.  It was chosen by timing 2 x 3e6
# paper-point shots on 2 threads (2-core Xeon, two rounds of medians of 9):
# 0.222 / 0.235 s at 2**15 (per-chunk Philox setup and numpy call
# overhead), 0.202 / 0.194 s at 2**16 and 0.196 / 0.200 s at 2**17, which
# doubles the chunk's arrays for no measurable gain.
_COUNT_CHUNK = 1 << 16
# Shots per event group: each group of shots, fixed by absolute shot index,
# draws its photons' arrival times from one stream (``_philox``).  It is part
# of the stream layout, so changing it changes every trace.
_EVENT_GROUP = 1 << 11
# Shots per task of trace placement, whole event groups.  A task draws and
# sorts group by group, then maps all its photons in one pass, so fewer,
# larger tasks make fewer numpy calls for the threads to contend for.
# Timed on 3e5 DOWN and 3e5 UP optimum-point trace shots on 2 threads
# (2-core Xeon, settings alternated in one process, medians of 9): DOWN /
# UP 141 / 64 ms at 1 group a task, 138 / 52 at 2, 125 / 43 at 4, 125 / 37
# at 8, 146 / 33 at 16 and 148 / 33 at 32.  An 8-group DOWN task holds
# ~340k photons and ~6 MiB of temporaries.
_PLACE_CHUNK = 8 * _EVENT_GROUP
# Counts per live row per step of the row walk.  One UP state's 151k decays
# (t_det/tau 0.072, eps 0.3; 2-core Xeon) walk in 43, 34, 32, 33, 36, 44 ms at
# 4, 8, 12, 16, 24, 32, peaking at 430, 585, 712, 777, 903, 1134 KiB a chunk.
_ROW_BLOCK = 16


class Prepared(Enum):
    """Intended qubit state for a shot: DOWN fluoresces, UP is shelved."""

    DOWN = "down"
    UP = "up"


class DecayTimeLaw(Enum):
    """Distribution of the dark-state decay instant within the window.

    UNIFORM_FIRST_ORDER draws a decay with probability ``t_det/lifetime`` at
    an instant uniform over the window -- the same first-order treatment as
    the closed-form count distributions, so simulated counts match them to
    within 2**-32.  EXPONENTIAL draws the physical exponential decay time and
    truncates it to the window.
    """

    UNIFORM_FIRST_ORDER = "uniform_first_order"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation needs: physics, errors, size, and seed."""

    model: DetectionModel
    errors: ErrorRates = ZERO_ERRORS
    shots: int = 1
    seed: int = 0
    decay_time_law: DecayTimeLaw = DecayTimeLaw.UNIFORM_FIRST_ORDER

    def __post_init__(self) -> None:
        if not _is_int(self.shots) or self.shots < 1:
            raise ValueError(f"shots must be a positive integer, got {self.shots!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _shot_index(i, shots: int) -> int:
    """``i`` as an int, checked to lie in [0, ``shots``)."""
    i = operator.index(i)
    if not 0 <= i < shots:
        raise ValueError(f"shot_index must lie in [0, {shots}), got {i}")
    return i


@dataclass(frozen=True)
class PhotonTrace:
    """Sorted photon arrival times (seconds) of one detection window."""

    timestamps: np.ndarray
    t_det: float

    def __post_init__(self) -> None:
        offsets = [0, np.size(self.timestamps)]
        times, _ = _validate_trace_times(self.timestamps, offsets, self.t_det)
        object.__setattr__(self, "timestamps", times)

    @property
    def count(self) -> int:
        return self.timestamps.size


def _check_offsets(offsets, n_events: int) -> np.ndarray:
    """``offsets`` as int64, checked to slice ``n_events`` concatenated events."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0:
        raise ValueError("offsets must be 1-D and start at 0")
    if np.any(np.diff(offsets) < 0) or offsets[-1] != n_events:
        raise ValueError("offsets must be non-decreasing and end at len(timestamps)")
    return offsets


def _validate_trace_times(times, offsets, t_det: float) -> tuple[np.ndarray, np.ndarray]:
    """Check concatenated traces: 1-D, valid offsets, inside the window, sorted per trace.

    Returns ``(times, offsets)`` as float and int64 arrays.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("arrival times must be a 1-D array")
    offsets = _check_offsets(offsets, times.size)
    # min/max propagate NaN, so a NaN time fails this test too
    if times.size and not (times.min() >= 0.0 and times.max() <= t_det):
        raise ValueError("arrival times must lie within [0, t_det]")
    # A boolean comparison, not a float diff: a batch holds millions of
    # events.  Times may drop from the end of one trace to the next.
    backwards = times[1:] < times[:-1]
    starts = offsets[1:-1]
    backwards[starts[(starts > 0) & (starts < times.size)] - 1] = False
    if np.any(backwards):
        raise ValueError("arrival times must be sorted")
    return times, offsets


@dataclass(frozen=True)
class TraceBatch:
    """Arrival times of many shots, concatenated shot-major.

    ``timestamps[offsets[i]:offsets[i+1]]`` are the (sorted) times of shot
    ``i``.  Iterating yields ``PhotonTrace`` views in shot order.
    """

    timestamps: np.ndarray
    offsets: np.ndarray
    t_det: float

    def __post_init__(self) -> None:
        times = np.asarray(self.timestamps, dtype=float)
        offsets = _check_offsets(self.offsets, times.size)
        object.__setattr__(self, "timestamps", times)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_shots(self) -> int:
        return self.offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def trace(self, i: int) -> PhotonTrace:
        i = _shot_index(i, self.n_shots)
        return PhotonTrace(
            self.timestamps[self.offsets[i] : self.offsets[i + 1]], self.t_det
        )

    def __len__(self) -> int:
        return self.n_shots

    def __iter__(self):
        return (self.trace(i) for i in range(self.n_shots))


@dataclass(frozen=True)
class CountHistogram:
    """Photon-count histogram: ``counts_per_bin[n]`` shots saw ``n`` photons."""

    counts_per_bin: np.ndarray
    total_shots: int

    def __post_init__(self) -> None:
        bins = np.asarray(self.counts_per_bin)
        if bins.dtype.kind not in "iu" or bins.ndim != 1 or bins.size == 0 or np.any(bins < 0):
            raise ValueError("counts_per_bin must be a 1-D array of counts >= 0")
        bins = bins.astype(np.int64)
        if not _is_int(self.total_shots) or self.total_shots < 1:
            raise ValueError(f"total_shots must be a positive integer, got {self.total_shots!r}")
        if int(bins.sum()) != self.total_shots:
            raise ValueError("counts_per_bin must sum to total_shots")
        object.__setattr__(self, "counts_per_bin", bins)

    @classmethod
    def from_counts(cls, counts: np.ndarray, min_length: int = 1) -> CountHistogram:
        counts = np.asarray(counts)
        return cls(np.bincount(counts, minlength=min_length), int(counts.size))

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts_per_bin / self.total_shots


# ---------------------------------------------------------------------------
# Counter-keyed randomness

# numpy's Philox4x64-10 keyed by (seed, 0).  numpy increments the 256-bit
# counter before each block, so a generator built at counter c emits block
# c + 1 (word 0 carrying) first.  The block at counter (k + 1, 0, 0, 0)
# holds the state words of shots 2k (words 0 and 1) and 2k + 1 (words 2 and
# 3): a shot's first word is its flip and decay draw, split in 32-bit
# halves, its second the count uniform.  So one generator built at
# (lo // 2, 0, 0, 0) walks the state words of shots lo, lo + 1, ... once it
# drops the two words of shot lo - 1 when lo is odd.  The arrival times of
# event group g (shots g * G to (g + 1) * G - 1, G = ``_EVENT_GROUP``) are
# the words of the stream built at (0, 0, g, 1), one word per photon in
# shot order; word 3 keeps every event stream apart from the state words.
# ``RNG_STREAM`` names this layout in every CLI artifact; change it whenever
# any shot's values change.

def _philox(seed: int, counter: tuple) -> np.random.Philox:
    """The generator built at the four-word ``counter``; its first block is at ``counter`` + 1."""
    return np.random.Philox(
        counter=np.array(counter, dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64),
    )


def _words(seed: int, lo: int, n: int) -> np.ndarray:
    """The state words of shots ``lo..lo+n-1`` as an ``(n, 2)`` array of raw uint64 words."""
    bits = _philox(seed, (lo >> 1, 0, 0, 0))
    bits.random_raw(2 * (lo & 1))
    return bits.random_raw(2 * n).reshape(n, 2)


def _event_words(seed: int, group: int, skip: int, n: int) -> np.ndarray:
    """Words ``skip..skip+n-1`` of event group ``group``'s stream.

    The generator skips the whole blocks before word ``skip`` with
    ``advance`` and draws and drops the rest of its block.
    """
    bits = _philox(seed, (0, 0, group, 1))
    bits.advance(skip >> 2)
    bits.random_raw(skip & 3)
    return bits.random_raw(n)


def _threshold(p: float) -> int:
    """Half-word bound of a draw below ``p``: ``h < _threshold(p)`` iff ``h * 2**-32 < p``.

    For 0 <= p < 0.5, ``p * 2**32`` is exact, so the bound ``ceil(p *
    2**32)`` is exact and at most 2**31: a probability resolves to 2**-32.
    """
    return math.ceil(p * 2.0**32)


class _Window(NamedTuple):
    """Shots ``lo..hi-1`` of one prepared state, classified by ``_window_profile``."""

    u_count: np.ndarray  # every shot's count uniform
    dark: np.ndarray  # mask of the shots whose effective state is dark
    flipped: np.ndarray  # indices of the shots whose effective state is not the prepared one
    decayed: np.ndarray  # indices of the in-window decays
    t_decay: np.ndarray  # their decay instants
    mu_decay: np.ndarray  # their window means


def _window_profile(prepared: Prepared, config: SimConfig, lo: int, hi: int) -> _Window:
    """Classify shots ``lo..hi-1`` from the raw words of their state stream.

    Every window is modeled as dark rate on [0, T) and bright rate on
    [T, t_det]: an effectively bright shot has T = 0 and mean exactly
    ``model.mean_bright``, an undecayed dark shot T = t_det and mean exactly
    ``model.mean_dark``; only in-window decays have a T and a mean of their
    own.  A shot's two words are its lanes.  Lane 0's high half flips the
    prepared state, as the compare ``w < _threshold(eps) << 32`` of the
    whole word; its low half d, for dark shots, is the decay draw: under the
    uniform law a decay iff ``d < D = _threshold(f)``, at ``d / D * t_det``,
    and under the exponential law at ``-lifetime * log1p(-d * 2**-32)``,
    kept if inside the window.  Lane 1 is the count uniform, the only lane
    that becomes a float for every shot.
    """
    w_state, w_count = _words(config.seed, lo, hi - lo).T
    model = config.model
    eps = (
        config.errors.eps_down_tot
        if prepared is Prepared.DOWN
        else config.errors.eps_up_tot
    )
    flip = w_state < np.uint64(_threshold(eps) << 32)
    dark = flip if prepared is Prepared.DOWN else ~flip
    # The spent bits are shifted out in place, which saves a chunk-sized
    # temporary per lane: lane 0 keeps d * 2**32, lane 1 its top 53 bits.
    w_state <<= np.uint64(32)
    w_count >>= np.uint64(11)
    if config.decay_time_law is DecayTimeLaw.UNIFORM_FIRST_ORDER:
        bound = _threshold(model.decay_fraction)
        decayed = np.flatnonzero(dark & (w_state < np.uint64(bound << 32)))
        t_decay = (w_state[decayed] >> np.uint64(32)) / bound * model.t_det
    else:
        decayed = np.flatnonzero(dark)
        # d * 2**32 * 2**-64 is d * 2**-32 exactly
        t_decay = -model.lifetime * np.log1p(w_state[decayed] * -(2.0**-64))
        inside = t_decay < model.t_det
        decayed, t_decay = decayed[inside], t_decay[inside]
    u_count = w_count * 2.0**-53
    return _Window(u_count, dark, np.flatnonzero(flip), decayed, t_decay, _window_mean(model, t_decay))


def _window_mean(model: DetectionModel, t_switch):
    """Mean photon number of a window at dark rate before ``t_switch`` and bright rate after.

    Exactly ``mean_bright`` at T = 0 and ``mean_dark`` at T = t_det: the other term is an exact 0.
    """
    return model.rate_dark * t_switch + model.rate_bright * (model.t_det - t_switch)


class _InverseTable(NamedTuple):
    """One model mean's Poisson CDF and its guide table."""

    cdf: np.ndarray  # CDF on 0..count_support_max(mean), then +inf
    guide: np.ndarray  # guide[j]: count of CDF values <= j/K, j = 0..K


def _inverse_table(mean: float) -> _InverseTable:
    """Guide table of K buckets, K a power of two >= 4x the CDF length.

    The CDF is the cumsum the row path computes, so both give the same
    draws.  A bucket holds at most one CDF value wherever the pmf exceeds
    1/K, so only shots in the tails (at most a few in 1e3) need more than
    one step from their bucket's entry.
    """
    cdf = np.cumsum(poisson_pmf(np.arange(count_support_max(mean) + 1), mean))
    buckets = 1 << (4 * cdf.size - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
    return _InverseTable(np.append(cdf, np.inf), guide)


def _state_tables(prepared: Prepared, model: DetectionModel) -> tuple[_InverseTable, _InverseTable]:
    """Tables of the prepared state's model mean and of the other state's, in that order."""
    bright, dark = _inverse_table(model.mean_bright), _inverse_table(model.mean_dark)
    return (bright, dark) if prepared is Prepared.DOWN else (dark, bright)


def _table_quantile(table: _InverseTable, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, 'right')`` through the guide table."""
    buckets = table.guide.size - 1
    # u*K is exact: K is a power of two.  The bucket's guide entry counts the
    # CDF values <= j/K <= u, so the walk only moves up, and the +inf
    # sentinel stops it at the end of the table.
    drawn = table.guide[(u * buckets).astype(np.intp)]
    drawn += table.cdf[drawn] <= u
    far = np.flatnonzero(table.cdf[drawn] <= u)
    drawn[far] = np.searchsorted(table.cdf, u[far], side="right")
    return drawn


def _poisson_quantile(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Exact inverse-CDF Poisson draw over 1-D ``(u, mean)``: the count of each row's CDF values <= u.

    Each step fills one ``(_ROW_BLOCK, live)`` buffer in place with the next
    counts' pmf, adds each row's carried CDF value to its first count and
    cumsums down the counts, so a row's CDF values are the floats of one
    full-width cumsum, which the guide tables compare too.  A row stops once
    its CDF passes u or its support ends; the draw is clipped at
    ``count_support_max(mean) + 1``.
    """
    top = count_support_max(mean)
    drawn = np.zeros(u.shape, dtype=np.int64)
    live = np.flatnonzero(mean > 0.0)  # a mean of 0 is a point mass: it draws 0
    carry = np.zeros(live.size)
    lo = 0
    while live.size:
        cdf = _pmf_terms(np.arange(lo, lo + _ROW_BLOCK)[:, None], mean[live], np.empty((_ROW_BLOCK, live.size)))
        cdf[0] += carry
        np.cumsum(cdf, axis=0, out=cdf)
        below = cdf <= u[live]
        drawn[live] += np.count_nonzero(below, axis=0)
        lo += _ROW_BLOCK
        more = below[-1] & (top[live] >= lo)
        carry = cdf[-1, more]
        live = live[more]
    return np.minimum(drawn, top + 1)


def _shot_counts(window: _Window, tables: tuple[_InverseTable, _InverseTable]) -> np.ndarray:
    """Counts of a window's shots, ``tables`` as ``_state_tables`` orders them.

    Every shot is drawn from the prepared state's table in one pass; the
    flipped shots are then redrawn from the other state's table and the
    in-window decays by the row walk, each by index.
    """
    own, other = tables
    u, flipped, decayed = window.u_count, window.flipped, window.decayed
    n = _table_quantile(own, u)
    n[flipped] = _table_quantile(other, u[flipped])
    n[decayed] = _poisson_quantile(u[decayed], window.mu_decay)
    return n


def _event_times(u: np.ndarray, t_switch: np.ndarray, model: DetectionModel):
    """Map event uniforms through their shots' cumulative rate.

    ``t_switch`` holds each uniform's rate-switch instant T; mu is the
    shot's ``_window_mean``.  A mass u * mu below the dark mass
    ``rate_dark * T`` falls before the switch, at ``min(mass / rate_dark,
    T)``; any other at ``T + (mass - rate_dark * T) / rate_bright``; and no
    time passes t_det.

    The map is non-decreasing in u in float arithmetic, so sorted uniforms
    map to sorted times.  Each branch is a chain of correctly rounded
    operations, each monotone in its one varying operand, and so are the
    clamps.  The first branch ends at or below T; the second starts at or
    above it, because there ``mass - rate_dark * T`` rounds to a value >= 0.
    With rate_dark = 0 no mass falls before the switch, so nothing is
    divided by it.
    """
    mass = u * _window_mean(model, t_switch)
    mass_dark = model.rate_dark * t_switch
    before = mass < mass_dark
    times = mass - mass_dark
    times /= model.rate_bright
    times += t_switch
    np.divide(mass, model.rate_dark, out=times, where=before)
    np.minimum(times, t_switch, out=times, where=before)
    np.minimum(times, model.t_det, out=times)
    return times


def _place_events(
    seed: int, lo: int, n: np.ndarray, t_switch: np.ndarray, model: DetectionModel, out: np.ndarray, skip: int = 0
) -> None:
    """Write the sorted arrival times of shots ``lo..`` into ``out``, shot-major.

    ``n`` and ``t_switch`` hold the shots' counts and rate-switch instants
    T.  The shots are whole event groups, or one shot whose first word is
    word ``skip`` of its group's stream.  Each group's key ``(shot in group
    << 53) | (w >> 11)`` is exact, so one integer sort orders its photons by
    shot and, within a shot, by uniform, which is read back from the low 53
    bits.  A bright shot's photons (T = 0) land at ``u * t_det``, within
    [0, t_det]; the others' are gathered and mapped through ``_event_times``.
    Both maps are monotone, so every shot stays sorted.
    """
    key = np.repeat((np.arange(n.size, dtype=np.uint64) % _EVENT_GROUP) << np.uint64(53), n)
    ends = np.cumsum(n)
    first = 0
    for i in range(0, n.size, _EVENT_GROUP):
        end = int(ends[min(i + _EVENT_GROUP, n.size) - 1])
        group = key[first:end]
        group |= _event_words(seed, (lo + i) // _EVENT_GROUP, skip, end - first) >> np.uint64(11)
        group.sort()
        first = end
    key &= np.uint64((1 << 53) - 1)
    np.multiply(key, 2.0**-53, out=out)
    # the photons of the shots with T > 0, as indices into out
    dark = np.flatnonzero(t_switch)
    k = n[dark]
    at = np.repeat(ends[dark] - np.cumsum(k), k) + np.arange(k.sum())
    times = _event_times(out[at], np.repeat(t_switch[dark], k), model)
    out *= model.t_det
    out[at] = times


def _run_sharded(work, shots: int, chunk: int, threads: int) -> list:
    """``work(lo, hi)`` over shots ``0..shots-1`` in chunks of ``chunk`` shots, in shot order.

    Chunks go to min(threads, CPUs, number of chunks) threads, each thread
    taking the next chunk when it finishes one.
    """
    if not _is_int(threads) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    bounds = [(lo, min(lo + chunk, shots)) for lo in range(0, shots, chunk)]
    workers = min(threads, os.cpu_count() or 1, len(bounds))
    if workers == 1:
        return [work(*task) for task in bounds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: work(*task), bounds))


def simulate_counts(prepared: Prepared, config: SimConfig, threads: int = 1) -> np.ndarray:
    """Photon counts of shots ``0..shots-1``, independent of ``threads``."""
    out = np.empty(config.shots, dtype=np.int64)
    tables = _state_tables(prepared, config.model)

    def count(lo: int, hi: int) -> None:
        out[lo:hi] = _shot_counts(_window_profile(prepared, config, lo, hi), tables)

    _run_sharded(count, config.shots, _COUNT_CHUNK, threads)
    return out


def simulate_histogram(prepared: Prepared, config: SimConfig, threads: int = 1) -> CountHistogram:
    """Histogram of simulated photon counts for one prepared state.

    Equal to ``CountHistogram.from_counts(simulate_counts(...))``, length
    included, but no per-shot array is built: each ``_COUNT_CHUNK`` chunk
    is binned in the thread that draws it, and the chunks' bins are added.
    Memory is bounded by the chunk size times the threads, not by the shots.
    """
    tables = _state_tables(prepared, config.model)

    def count(lo: int, hi: int) -> np.ndarray:
        return np.bincount(_shot_counts(_window_profile(prepared, config, lo, hi), tables))

    parts = _run_sharded(count, config.shots, _COUNT_CHUNK, threads)
    bins = np.zeros(max(part.size for part in parts), dtype=np.int64)
    for part in parts:
        bins[: part.size] += part
    return CountHistogram(bins, config.shots)


def _counts_and_switch(prepared: Prepared, config: SimConfig, tables, lo: int, hi: int):
    """Counts and rate-switch instants T of shots ``lo..hi-1``, ``tables`` as ``_state_tables`` orders them.

    T is 0 for a bright shot, t_det for an undecayed dark one, and the decay
    instant for an in-window decay.
    """
    window = _window_profile(prepared, config, lo, hi)
    t_switch = np.where(window.dark, config.model.t_det, 0.0)
    t_switch[window.decayed] = window.t_decay
    return _shot_counts(window, tables), t_switch


def simulate_traces(prepared: Prepared, config: SimConfig, threads: int = 1) -> TraceBatch:
    """Time-stamped photon records for every shot, as a ``TraceBatch``.

    The total count of each shot is drawn exactly as in count mode (same
    reserved uniform), so trace counts agree shot-by-shot with
    ``simulate_counts``.  Pass 1 stores each shot's count and rate-switch
    instant T; pass 2 places the photons of each ``_PLACE_CHUNK`` run of
    event groups, one run a task, into its part of the output.
    """
    model = config.model
    tables = _state_tables(prepared, model)
    offsets = np.zeros(config.shots + 1, dtype=np.int64)
    t_switch = np.empty(config.shots)

    def count(lo: int, hi: int) -> None:
        offsets[lo + 1 : hi + 1], t_switch[lo:hi] = _counts_and_switch(prepared, config, tables, lo, hi)

    _run_sharded(count, config.shots, _COUNT_CHUNK, threads)
    np.cumsum(offsets, out=offsets)
    times = np.empty(int(offsets[-1]))

    def place(lo: int, hi: int) -> None:
        first, end = offsets[lo], offsets[hi]
        _place_events(config.seed, lo, np.diff(offsets[lo : hi + 1]), t_switch[lo:hi], model, times[first:end])

    _run_sharded(place, config.shots, _PLACE_CHUNK, threads)
    return TraceBatch(times, offsets, model.t_det)


def simulate_shot(prepared: Prepared, config: SimConfig, shot_index: int) -> PhotonTrace:
    """Regenerate the full photon record of one shot of a batch.

    Bit-identical to ``simulate_traces(...).trace(shot_index)`` for the same
    configuration.  The count pass runs on the shot's event group up to the
    shot, whose earlier photons fix where its words start in the group's
    stream; only the shot's own words are drawn and sorted.
    """
    i = _shot_index(shot_index, config.shots)
    lo = i - i % _EVENT_GROUP
    n, t_switch = _counts_and_switch(prepared, config, _state_tables(prepared, config.model), lo, i + 1)
    times = np.empty(n[-1])
    _place_events(config.seed, i, n[-1:], t_switch[-1:], config.model, times, skip=int(n[:-1].sum()))
    return PhotonTrace(times, config.model.t_det)


# ---------------------------------------------------------------------------
# File interchange

_HISTOGRAM_HEADER = ("n", "count", "frequency")


def write_histogram_csv(hist: CountHistogram, path, metadata: dict | None = None) -> None:
    """Write ``n,count,frequency`` rows, one per bin including empty bins."""
    rows = ((n, c, c / hist.total_shots) for n, c in enumerate(hist.counts_per_bin.tolist()))
    write_csv(path, _HISTOGRAM_HEADER, rows, metadata)


def read_histogram_csv(path) -> CountHistogram:
    """Read a histogram written by ``write_histogram_csv``."""
    rows = read_csv(
        path, _HISTOGRAM_HEADER, lambda row: (int(row[0]), int(row[1]), float(row[2]), ",".join(row))
    )
    if not rows:
        raise ValueError(f"{path}: empty histogram file")
    n_values = [n for n, _, _, _ in rows]
    if min(n_values) < 0 or len(set(n_values)) < len(rows):
        raise ValueError(f"{path}: bins n must be distinct non-negative counts")
    try:
        bins = np.zeros(max(n_values) + 1, dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # a bin too large to allocate
        raise ValueError(f"{path}: {exc}") from None
    bins[n_values] = [c for _, c, _, _ in rows]
    total = int(bins.sum())
    for _, c, f, line in rows:
        # written as "not <=" so that a NaN frequency fails too
        if total and not abs(f - c / total) <= 1e-9:
            raise ValueError(f"{path}: frequency column inconsistent in row {line!r}")
    try:
        return CountHistogram(bins, total)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_TRACE_KEYS = ("timestamps", "offsets", "t_det", "metadata")


def write_traces(batch: TraceBatch, path, metadata: dict | None = None) -> None:
    """Write ``batch`` losslessly as one ``.npz`` archive.

    Entries: ``timestamps`` (float64 seconds, shot-major), ``offsets``
    (int64, ``n_shots + 1``), ``t_det`` and ``metadata`` (a JSON string).
    Zip entries carry a fixed date, so equal inputs give equal bytes.
    """
    with Path(path).open("wb") as fh:
        np.savez(
            fh,
            timestamps=batch.timestamps,
            offsets=batch.offsets,
            t_det=np.float64(batch.t_det),
            metadata=np.str_(json.dumps(metadata or {})),
        )


def read_traces(path) -> TraceBatch:
    """Read and check traces written by ``write_traces``; never loads pickled data."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with archive:
            missing = [key for key in _TRACE_KEYS if key not in archive.files]
            if missing:
                raise ValueError(f"missing entries {', '.join(missing)}")
            # every entry is loaded, so a pickled one is refused
            times, offsets, t_det, _ = (archive[key] for key in _TRACE_KEYS)
            t_det = float(t_det.item())
        times, offsets = _validate_trace_times(times, offsets, t_det)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return TraceBatch(times, offsets, t_det)
