"""Monte Carlo shelving-readout shots with reproducible per-shot streams.

Each shot draws its randomness from numpy's Philox4x64-10 keyed by the seed,
at counters (shot index, block, 0, 0), so ``simulate_shot(i)`` reproduces
row ``i`` of a batch bit for bit, batches may be sharded across threads
without changing any outcome, and no generator state is carried between
shots.

A shot is simulated as: (1) flip the prepared state with the corresponding
preparation error probability, (2) if the effective state is dark, draw the
in-window decay instant under the configured law, (3) draw the total photon
count from a Poisson at the window's integrated rate, and, in trace mode,
(4) place the photons by inverting the cumulative rate profile and sorting
them per shot.  With the decay instant uniform in the window, the simulated
counts marginalize exactly to the closed-form count distributions
``photon_statistics.observed_pdf_down``/``observed_pdf_up``, which both come
from the one readout model in ``photon_statistics._readout_pmfs``.

Each chunk of shots is classified from the raw 64-bit words of its block 0,
not from their uniforms: the flip draw, and under the uniform law the decay
draw, is the integer compare ``w < ceil(p * 2**53) * 2**11``, which holds
exactly when the word's uniform ``(w >> 11) * 2**-53`` is below p.  Only
the count uniform becomes a float for every shot; the decay position does
so for decayed shots alone, and the exponential law's decay uniform for
dark shots alone.

The count is the exact inverse CDF, the number of Poisson CDF values <= the
shot's uniform.  Every shot of a chunk is drawn in one pass from a guide
table (Chen & Asau 1974) of its prepared state's mean; the flipped shots are
then redrawn from the other state's table, and the in-window decays, the
only shots with a mean of their own, walk their own CDF in short blocks
until it passes u.  The two tables are built once per ``simulate_*`` call.
All paths read the same CDF floats, so no draw depends on the path, the
chunking or the thread count.

Count mode draws ``_COUNT_CHUNK`` chunks, each one task of the thread pool.
``simulate_counts`` writes each chunk's counts into one per-shot array;
``simulate_histogram`` keeps none, but bins each chunk in its task and adds
the bins, so its memory is bounded by the chunk size times the threads.

Trace mode (``_traces``, over every shot for ``simulate_traces`` and one
for ``simulate_shot``) makes two passes.  The first draws every shot's
count in ``_COUNT_CHUNK`` chunks, as count mode does, and stores beside it
the shot's rate-switch instant T: 0 if bright, t_det if dark and
undecayed, else the decay instant.  The counts fix the output's offsets.
The second cuts the shots into slices of whole shots, each at most
``_TRACE_SLICE`` shots plus photons and at least four a thread
(``_trace_slices``, the cut the classifier uses too), and writes each
slice's sorted arrival times, placed from its slice of T, into its part
of the output.  A slice draws only the event blocks its shots need: one
Philox generator walks the blocks, draws through gaps of at most
``_SKIP_GAP`` shots and skips longer ones with ``advance``, into one
compact buffer (``_event_blocks``).  The shots are then grouped by width,
and each group's rows of uniforms are gathered, mapped to times, padded
with +inf, sorted and read back (``_arrival_times``).

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
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import RNG_STREAM
from ._files import read_csv, write_csv
from .photon_statistics import (
    ZERO_ERRORS,
    DetectionModel,
    ErrorRates,
    _sampling_support_max,
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
# Shots plus photons per slice of trace placement (``_trace_slices``); each
# slice is one task of the thread pool.  Timed on 3e5 DOWN and 3e5 UP
# optimum-point trace shots on 2 threads (2-core Xeon, settings alternated
# in one process, medians of 11 calls, two rounds): DOWN 442 / 552 ms at
# 2**15, 294 / 367 at 2**16, 214 / 289 at 2**17 and 250 / 260 at 2**18; UP
# 61 / 83, 54 / 71, 58 / 72 and 59 / 72 ms.  Small slices pay per-slice and
# per-block Python work, which the two threads contend for.  A 2**17 DOWN
# slice (~6k shots) peaks at 3.2 MiB (tracemalloc).  With 2**17 slices
# alone, the CLI's traced ``simulate`` process (2 x 2e4 shots, 2 threads,
# perfbench's config) peaked at 47.0 to 51.3 MiB RSS: each thread's
# allocator arena kept a slice's worth.  ``simulate_traces`` therefore also
# cuts at least four slices a thread, which brings it to 45.4 to 48.6 MiB
# (median 47.0), against 47.1 to 49.3 MiB (median 48.6) for the earlier
# 2**12-shot trace chunks (12 processes each).
_TRACE_SLICE = 1 << 17
# An event block's generator skips a gap of more than this many unneeded
# shots with ``advance`` (~4 us, plus ~2 us for the next draw call) rather
# than drawing through it (~0.05 us a shot).  With 2**17 slices, DOWN / UP
# took 257-285 / 52-59 ms at 32, 237-239 / 46-64 ms at 128 and 228-234 /
# 49-64 ms at 512 (same timing, two rounds).
_SKIP_GAP = 128
# CDF columns a decayed shot's row tabulates per step of its walk.
_ROW_BLOCK = 16


class Prepared(Enum):
    """Intended qubit state for a shot: DOWN fluoresces, UP is shelved."""

    DOWN = "down"
    UP = "up"


class DecayTimeLaw(Enum):
    """Distribution of the dark-state decay instant within the window.

    UNIFORM_FIRST_ORDER draws a decay with probability ``t_det/lifetime`` at
    an instant uniform over the window -- the same first-order treatment as
    the closed-form count distributions, so simulated counts match them
    exactly.  EXPONENTIAL draws the physical exponential decay time and
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


def _is_int(value) -> bool:
    """True for Python and numpy integers; bool is an Integral, but no count or seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        bins = np.asarray(self.counts_per_bin, dtype=np.int64)
        if bins.ndim != 1 or bins.size == 0 or np.any(bins < 0):
            raise ValueError("counts_per_bin must be a 1-D array of counts >= 0")
        if int(bins.sum()) != self.total_shots:
            raise ValueError("counts_per_bin must sum to total_shots")
        if self.total_shots < 1:
            raise ValueError("histogram must contain at least one shot")
        object.__setattr__(self, "counts_per_bin", bins)

    @classmethod
    def from_counts(cls, counts: np.ndarray, min_length: int = 1) -> CountHistogram:
        counts = np.asarray(counts)
        return cls(np.bincount(counts, minlength=min_length), int(counts.size))

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts_per_bin / self.total_shots


# ---------------------------------------------------------------------------
# Per-shot randomness

# numpy's Philox4x64-10 keyed by (seed, 0).  A generator built at counter
# (shot, block, 0, 0) emits 256-bit block ``block`` of shot ``shot`` at its
# first step (numpy increments the counter before each block, so shot i is
# Philox counter i + 1).  Block 0 supplies the four state draws (flip,
# decay, decay position, total count); blocks 1.. supply arrival-time
# placement, four photons per block.  Shot index is counter word 0, so one
# generator walks a block for consecutive shots.  ``RNG_STREAM`` names this
# layout in every CLI artifact; change it whenever any shot's values change.

def _philox(seed: int, block: int, lo: int) -> np.random.Philox:
    """The generator whose first 256-bit block is block ``block`` of shot ``lo``."""
    return np.random.Philox(
        counter=np.array([lo, block, 0, 0], dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64),
    )


def _words(seed: int, block: int, lo: int, n: int) -> np.ndarray:
    """Block ``block`` of shots ``lo..lo+n-1`` as an ``(n, 4)`` array of raw uint64 words."""
    return _philox(seed, block, lo).random_raw(4 * n).reshape(n, 4)


def _unit(words: np.ndarray) -> np.ndarray:
    """The uniform of each raw word on [0, 1): its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _uniforms(seed: int, block: int, lo: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Block ``block`` of shots ``lo..lo+n-1`` as an ``(n, 4)`` array on [0, 1), in ``out`` if given.

    numpy's ``Generator.random`` maps each Philox word w to
    ``(w >> 11) * 2**-53``, which is ``_unit(w)``, so these are the uniforms
    of ``_words`` drawn without a separate conversion pass.
    """
    return np.random.Generator(_philox(seed, block, lo)).random((n, 4), out=out)


def _threshold(p: float) -> np.uint64:
    """Raw-word bound of a draw below ``p``: ``w < _threshold(p)`` iff ``_unit(w) < p``.

    For 0 <= p < 1, ``p * 2**53`` is exact, so ``(w >> 11) * 2**-53 < p``
    iff ``w >> 11 < ceil(p * 2**53)`` iff ``w < ceil(p * 2**53) * 2**11``,
    which is at most 2**64 - 2**11.
    """
    return np.uint64(math.ceil(p * 2.0**53) << 11)


def _event_blocks(seed: int, lo: int, n: np.ndarray) -> tuple[np.ndarray, list]:
    """Draw the event blocks that shots ``lo..`` need into one compact ``(rows, 4)`` buffer.

    Block b + 1 is needed by the shots with more than 4b events, ``n``.  Its
    needed shots are cut into runs wherever more than ``_SKIP_GAP`` unneeded
    shots lie between two of them; a shorter gap is drawn through.  The runs
    of every block are drawn one after the other into the buffer by one
    generator, advanced from the end of one run to the start of the next
    (the block index is counter word 1, so a jump to the next block is an
    advance by 2**64 plus the shot difference).  Returns the buffer and,
    per block, the first shot of each run and the shift from a shot of the
    run to its buffer row.
    """
    runs = []
    rows = 0
    need = np.flatnonzero(n)
    while need.size:
        cut = np.flatnonzero(np.diff(need) > _SKIP_GAP + 1)
        first = np.append(need[0], need[cut + 1])
        size = np.append(need[cut], need[-1]) + 1 - first
        at = np.cumsum(size) - size + rows
        rows += int(size.sum())
        runs.append((first, at, size))
        need = need[n[need] > 4 * len(runs)]
    buf = np.empty((rows, 4))
    bits = _philox(seed, 1, lo)
    draw = np.random.Generator(bits).random
    # counter (shot, block) of the next block to draw, as shot + block * 2**64
    counter = lo + (1 << 64)
    for block, (first, at, size) in enumerate(runs, start=1):
        for shot, row, k in zip(first.tolist(), at.tolist(), size.tolist()):
            target = lo + shot + (block << 64)
            if target != counter:
                bits.advance(target - counter)
            draw(out=buf[row : row + k])
            counter = target + k
    return buf, [(first, at - first) for first, at, _ in runs]


def _block_rows(buf: np.ndarray, runs: list, shots: np.ndarray, blocks: int) -> np.ndarray:
    """Event blocks 1..``blocks`` of ``shots`` from ``_event_blocks``, as ``(shots, 4 * blocks)`` rows.

    ``shots`` are sorted slice-relative indices.  A lane of a block that a
    shot does not need holds some drawn uniform of the buffer.
    """
    index = np.empty((shots.size, blocks), dtype=np.intp)
    for b, (first, shift) in enumerate(runs[:blocks]):
        np.add(shots, shift[np.searchsorted(first, shots, side="right") - 1], out=index[:, b])
    return buf.take(index, axis=0, mode="clip").reshape(shots.size, 4 * blocks)


class _Window(NamedTuple):
    """Shots ``lo..hi-1`` of one prepared state, classified by ``_window_profile``."""

    u_count: np.ndarray  # every shot's count uniform
    dark: np.ndarray  # mask of the shots whose effective state is dark
    flipped: np.ndarray  # indices of the shots whose effective state is not the prepared one
    decayed: np.ndarray  # indices of the in-window decays
    t_decay: np.ndarray  # their decay instants
    mu_decay: np.ndarray  # their window means


def _window_profile(prepared: Prepared, config: SimConfig, lo: int, hi: int) -> _Window:
    """Classify shots ``lo..hi-1`` from the raw words of their block 0.

    Every window is modeled as dark rate on [0, T) and bright rate on
    [T, t_det]: an effectively bright shot has T = 0 and mean exactly
    ``model.mean_bright``, an undecayed dark shot T = t_det and mean exactly
    ``model.mean_dark``; only in-window decays have a T and a mean of their
    own.  Lane 0 flips the prepared state and, under the uniform law, lane 1
    decides a dark shot's decay: both are integer compares on the raw words
    (``_threshold``).  Only the lanes a shot uses become floats: lane 3, the
    count uniform, for every shot, lane 2 (the decay position) for decayed
    shots, and lane 1 for dark shots under the exponential law.
    """
    w_flip, w_decay, w_pos, w_count = _words(config.seed, 0, lo, hi - lo).T
    model = config.model
    eps = (
        config.errors.eps_down_tot
        if prepared is Prepared.DOWN
        else config.errors.eps_up_tot
    )
    flip = w_flip < _threshold(eps)
    dark = flip if prepared is Prepared.DOWN else ~flip
    if config.decay_time_law is DecayTimeLaw.UNIFORM_FIRST_ORDER:
        decayed = np.flatnonzero(dark & (w_decay < _threshold(model.decay_fraction)))
        t_decay = _unit(w_pos[decayed]) * model.t_det
    else:
        decayed = np.flatnonzero(dark)
        t_decay = -model.lifetime * np.log1p(-_unit(w_decay[decayed]))
        inside = t_decay < model.t_det
        decayed, t_decay = decayed[inside], t_decay[inside]
    return _Window(_unit(w_count), dark, np.flatnonzero(flip), decayed, t_decay, _window_mean(model, t_decay))


def _window_mean(model: DetectionModel, t_switch):
    """Mean photon number of a window at dark rate before ``t_switch`` and bright rate after.

    Exactly ``mean_bright`` at T = 0 and ``mean_dark`` at T = t_det: the other term is an exact 0.
    """
    return model.rate_dark * t_switch + model.rate_bright * (model.t_det - t_switch)


class _InverseTable(NamedTuple):
    """One model mean's Poisson CDF and its guide table."""

    cdf: np.ndarray  # CDF on 0.._sampling_support_max(mean), then +inf
    guide: np.ndarray  # guide[j]: count of CDF values <= j/K, j = 0..K


def _inverse_table(mean: float) -> _InverseTable:
    """Guide table of K buckets, K a power of two >= 4x the CDF length.

    The CDF is the cumsum the row path computes, so both give the same
    draws.  A bucket holds at most one CDF value wherever the pmf exceeds
    1/K, so only shots in the tails (at most a few in 1e3) need more than
    one step from their bucket's entry.
    """
    cdf = np.cumsum(poisson_pmf(np.arange(_sampling_support_max(mean) + 1), mean))
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

    Columns are tabulated ``_ROW_BLOCK`` at a time.  Each block starts from
    the previous block's last CDF value, added to its first element, so the
    values are the same floats as one full-width cumsum, which the samplers'
    guide tables compare too.  A row stops once its CDF passes u or its
    support ends; the draw is clipped at ``_sampling_support_max(mean) + 1``.
    """
    top = _sampling_support_max(mean)
    drawn = np.zeros(u.shape, dtype=np.int64)
    live = np.arange(u.size)
    carry = np.zeros(u.shape)
    lo = 0
    while live.size:
        pmf = poisson_pmf(np.arange(lo, lo + _ROW_BLOCK), mean[live, None])
        pmf[:, 0] += carry
        cdf = np.cumsum(pmf, axis=1)
        below = cdf <= u[live, None]
        drawn[live] += below.sum(axis=1)
        lo += _ROW_BLOCK
        more = below[:, -1] & (top[live] >= lo)
        carry = cdf[more, -1]
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
    """Map event-stream uniforms through the window's cumulative rate.

    ``u`` holds one row of uniforms per shot and ``t_switch`` one row of the
    shot's rate-switch instant T; mu is the shot's ``_window_mean``.  A mass
    u * mu below the dark mass ``rate_dark * T`` falls before the switch, at
    ``mass / rate_dark``; any other at ``T + (mass - rate_dark * T) /
    rate_bright``.  At T = 0 this is ``u * mean_bright / rate_bright``.
    """
    mass = u * _window_mean(model, t_switch)
    mass_dark = model.rate_dark * t_switch
    before = mass < mass_dark
    times = mass - mass_dark
    times /= model.rate_bright
    times += t_switch
    with np.errstate(divide="ignore", invalid="ignore"):
        mass /= model.rate_dark
    np.copyto(times, mass, where=before)
    return times


def _run_tasks(work, bounds: list, threads: int) -> list:
    """``work(lo, hi)`` for each ``(lo, hi)`` of ``bounds``, results in order.

    Tasks go to min(threads, CPUs, number of tasks) threads, each thread
    taking the next task when it finishes one.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    workers = min(threads, os.cpu_count() or 1, len(bounds))
    if workers == 1:
        return [work(*task) for task in bounds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: work(*task), bounds))


def _run_sharded(work, first: int, shots: int, chunk: int, threads: int) -> list:
    """``work(lo, hi)`` over shots ``first..first+shots-1`` in chunks of ``chunk`` shots, in shot order."""
    end = first + shots
    return _run_tasks(work, [(lo, min(lo + chunk, end)) for lo in range(first, end, chunk)], threads)


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


def simulate_counts(prepared: Prepared, config: SimConfig, threads: int = 1) -> np.ndarray:
    """Photon counts of shots ``0..shots-1``, independent of ``threads``."""
    out = np.empty(config.shots, dtype=np.int64)
    tables = _state_tables(prepared, config.model)

    def count(lo: int, hi: int) -> None:
        out[lo:hi] = _shot_counts(_window_profile(prepared, config, lo, hi), tables)

    _run_sharded(count, 0, config.shots, _COUNT_CHUNK, threads)
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

    parts = _run_sharded(count, 0, config.shots, _COUNT_CHUNK, threads)
    bins = np.zeros(max(part.size for part in parts), dtype=np.int64)
    for part in parts:
        bins[: part.size] += part
    return CountHistogram(bins, config.shots)


def _sorted_rows(rows: np.ndarray, n: np.ndarray, t_switch, bright: bool, model: DetectionModel):
    """Map rows of event uniforms to arrival times and sort each row, in place if bright.

    Row i holds the uniforms of a shot with ``n[i]`` photons and rate-switch
    instant ``t_switch[i]``.  Bright rows (T = 0) map as ``u * mean_bright /
    rate_bright``, the floats ``_event_times`` gives at T = 0; others go
    through ``_event_times``.  Only then are the lanes past a shot's count
    set to +inf, so the map never sees them, and every row is sorted.
    Returns the rows and the mask of their photons.
    """
    if bright:
        rows *= model.mean_bright
        rows /= model.rate_bright
    else:
        rows = _event_times(rows, t_switch[:, None], model)
    keep = np.arange(rows.shape[1]) < n[:, None]
    np.copyto(rows, np.inf, where=~keep)
    rows.sort(axis=1)
    return rows, keep


def _arrival_times(config: SimConfig, lo: int, n: np.ndarray, t_switch: np.ndarray, out: np.ndarray) -> None:
    """Write the sorted arrival times of shots ``lo..`` into ``out``, shot-major.

    ``n`` and ``t_switch`` are the shots' counts and rate-switch instants
    T.  The shots with photons are grouped by T = 0 or not and by the bit
    length of their number of event blocks, so a slice of mostly one-block
    dark rows is not padded to the width of its few bright ones.  Each
    group gathers one matrix of rows (``_block_rows``), and the event buffer
    is freed before the rows are sorted (``_sorted_rows``).  The group with
    the most photons is read back through one mask of the slice's photons;
    the others are scattered to their places first, which they take out of
    that mask.
    """
    if not out.size:
        return
    buf, runs = _event_blocks(config.seed, lo, n)
    shots = np.flatnonzero(n)
    key = np.frexp((n[shots] + 3) >> 2)[1] * 2 + (t_switch[shots] == 0.0)
    photons = np.bincount(key, weights=n[shots])
    # ascending photon count, so the last group is read back through the mask
    groups = [(shots[key == k], k & 1) for k in np.argsort(photons, kind="stable").tolist() if photons[k]]
    # every group's rows are gathered before any is sorted, so the buffer goes first
    uniforms = [_block_rows(buf, runs, of, (int(n[of].max()) + 3) >> 2) for of, _ in groups]
    del buf, runs
    starts = np.cumsum(n) - n
    free = np.ones(out.size, dtype=bool) if len(groups) > 1 else None
    for i, (of, bright) in enumerate(groups, start=1):
        times, keep = _sorted_rows(uniforms.pop(0), n[of], t_switch[of], bright, config.model)
        if i < len(groups):
            place = (starts[of, None] + np.arange(keep.shape[1]))[keep]
            out[place] = times[keep]
            free[place] = False
        elif free is None:
            np.compress(keep.ravel(), times.ravel(), out=out)
        else:
            out[free] = times[keep]


def _traces(prepared: Prepared, config: SimConfig, first: int, shots: int, threads: int) -> TraceBatch:
    """Traces of shots ``first..first+shots-1`` as a ``TraceBatch``, in trace mode's two passes.

    Pass 1 stores each shot's count and rate-switch instant T; pass 2 places
    each slice's photons from its slice of T.
    """
    model = config.model
    tables = _state_tables(prepared, model)
    offsets = np.zeros(shots + 1, dtype=np.int64)
    t_switch = np.empty(shots)

    def count(lo: int, hi: int) -> None:
        window = _window_profile(prepared, config, lo, hi)
        lo, hi = lo - first, hi - first
        offsets[lo + 1 : hi + 1] = _shot_counts(window, tables)
        t_switch[lo:hi] = np.where(window.dark, model.t_det, 0.0)
        t_switch[lo + window.decayed] = window.t_decay

    _run_sharded(count, first, shots, _COUNT_CHUNK, threads)
    np.cumsum(offsets, out=offsets)
    times = np.empty(int(offsets[-1]))

    def place(lo: int, hi: int) -> None:
        n = np.diff(offsets[lo : hi + 1])
        _arrival_times(config, first + lo, n, t_switch[lo:hi], times[offsets[lo] : offsets[hi]])

    # at least four slices a thread, so a small batch still spreads over the
    # threads, in slices that hold less memory
    spread = 4 * min(threads, os.cpu_count() or 1)
    budget = min(_TRACE_SLICE, -(-(shots + int(offsets[-1])) // spread))
    _run_tasks(place, list(_trace_slices(offsets, budget)), threads)
    return TraceBatch(times, offsets, model.t_det)


def simulate_traces(prepared: Prepared, config: SimConfig, threads: int = 1) -> TraceBatch:
    """Time-stamped photon records for every shot, as a ``TraceBatch``.

    The total count of each shot is drawn exactly as in count mode (same
    reserved uniform), so trace counts agree shot-by-shot with
    ``simulate_counts``; the count is then distributed over the window by
    inverse-CDF placement of each photon (``_traces``).
    """
    return _traces(prepared, config, 0, config.shots, threads)


def simulate_shot(prepared: Prepared, config: SimConfig, shot_index: int) -> PhotonTrace:
    """Regenerate the full photon record of one shot of a batch.

    Bit-identical to ``simulate_traces(...).trace(shot_index)`` for the same
    configuration: both run ``_traces``, this one on that shot alone, and
    the per-shot counter keying makes every shot a function of (seed, index).
    """
    shot_index = _shot_index(shot_index, config.shots)
    return _traces(prepared, config, shot_index, 1, 1).trace(0)


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
