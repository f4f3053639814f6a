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

Histograms are exchanged as ``n,count,frequency`` CSV in the one artifact
format of ``_files`` (``write_histogram_csv``/``read_histogram_csv``).
Trace batches are one lossless ``.npz`` archive (``write_traces``/
``read_traces``) holding the float64 arrival times, the int64 per-shot
offsets, ``t_det`` and a JSON metadata string, which round-trips bit for
bit, photonless shots included.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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

# Shots per vectorized pass; each chunk is one task of the thread pool.  A
# trace chunk is kept small: at ~20 events per bright shot its per-event
# arrays are ~1.4 MB, so peak memory is set by the output, not by how the
# threads' chunks happen to overlap in time.  The count chunk was chosen by
# timing 2 x 3e6 paper-point shots on 2 threads: 0.36 s at 2**16, against
# 0.67 s at the trace size 2**13 (per-chunk Philox setup and tables) and
# 0.45 s at 2**20 (the chunk's arrays fall out of cache).
_COUNT_CHUNK = 1 << 16
_TRACE_CHUNK = 1 << 13


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
        if self.shots < 1 or int(self.shots) != self.shots:
            raise ValueError(f"shots must be a positive integer, got {self.shots}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


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

def _uniforms(seed: int, block: int, lo: int, n: int) -> np.ndarray:
    """Block ``block`` of shots ``lo..lo+n-1`` as an ``(n, 4)`` array on [0, 1)."""
    bits = np.random.Philox(
        counter=np.array([lo, block, 0, 0], dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64),
    )
    words = bits.random_raw(4 * n).reshape(n, 4)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _event_uniforms(seed: int, lo: int, n_events: np.ndarray) -> np.ndarray:
    """First ``n_events[i]`` event uniforms of shot ``lo + i``, flattened shot-major."""
    starts = np.cumsum(n_events) - n_events
    u = np.empty(int(n_events.sum()))
    for block in range(1, (int(n_events.max(initial=0)) + 3) // 4 + 1):
        first = 4 * (block - 1)
        need = np.flatnonzero(n_events > first)
        span = _uniforms(seed, block, lo + int(need[0]), int(need[-1] - need[0]) + 1)
        lanes = np.arange(4) < np.minimum(n_events[need] - first, 4)[:, None]
        dest = (starts[need] + first)[:, None] + np.arange(4)
        u[dest[lanes]] = span[need - need[0]][lanes]
    return u


def _window_profile(prepared: Prepared, config: SimConfig, lo: int, hi: int):
    """Rate-switch instant T and window mean for shots ``lo..hi-1``.

    Every window is modeled as dark rate on [0, T) and bright rate on
    [T, t_det]: an effectively bright shot has T = 0 and mean exactly
    ``model.mean_bright``, an undecayed dark shot T = t_det and mean exactly
    ``model.mean_dark``; only in-window decays have a mean of their own.
    Returns ``(T, mu, u_count)`` where ``u_count`` is the reserved uniform
    for the total-count draw.
    """
    u_flip, u_decay, u_pos, u_count = _uniforms(config.seed, 0, lo, hi - lo).T
    model = config.model
    t_det = model.t_det
    eps = (
        config.errors.eps_down_tot
        if prepared is Prepared.DOWN
        else config.errors.eps_up_tot
    )
    flipped = u_flip < eps
    effective_dark = flipped if prepared is Prepared.DOWN else ~flipped
    if config.decay_time_law is DecayTimeLaw.UNIFORM_FIRST_ORDER:
        decayed = u_decay < model.decay_fraction
        t_switch = np.where(decayed, u_pos * t_det, t_det)
    else:
        t_switch = np.minimum(-model.lifetime * np.log1p(-u_decay), t_det)
    t_switch = np.where(effective_dark, t_switch, 0.0)
    mu = model.rate_dark * t_switch + model.rate_bright * (t_det - t_switch)
    return t_switch, mu, u_count


def _poisson_quantile(u: np.ndarray, mean: np.ndarray, shared=()) -> np.ndarray:
    """Exact inverse-CDF Poisson draw, elementwise over (u, mean).

    The quantile is the count of CDF values <= u.  Shots whose mean is one
    of ``shared`` (the samplers pass the model's bright and dark means, which
    every undecayed shot has) use that mean's one table with a binary
    search; every other shot (an in-window decay) gets a per-row table.  Both
    paths compare the same floating-point CDF values, so the result does not
    depend on which path ran.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    out = np.empty(u.shape, dtype=np.int64)
    rows = np.ones(u.shape, dtype=bool)
    for m in shared:
        sel = mean == m
        cdf = np.cumsum(poisson_pmf(np.arange(_sampling_support_max(m) + 1), m))
        out[sel] = np.searchsorted(cdf, u[sel], side="right")
        rows &= ~sel
    idx = np.flatnonzero(rows)
    if idx.size == 0:
        return out
    u_rows, mean_rows = u[idx], mean[idx]
    # Row tables are batched to ~4M elements, bounding memory at large means.
    width = _sampling_support_max(mean_rows.max()) + 1
    chunk = max(1, 4_000_000 // width)
    grid = np.arange(width)
    for lo in range(0, idx.size, chunk):
        m = mean_rows[lo : lo + chunk]
        cdf = np.cumsum(poisson_pmf(grid[None, :], m[:, None]), axis=1)
        drawn = (cdf <= u_rows[lo : lo + chunk, None]).sum(axis=1)
        out[idx[lo : lo + chunk]] = np.minimum(drawn, _sampling_support_max(m) + 1)
    return out


def _event_times(u: np.ndarray, t_switch: np.ndarray, mu: np.ndarray, model: DetectionModel):
    """Map event-stream uniforms through the window's cumulative rate."""
    mass = u * mu
    mass_dark = model.rate_dark * t_switch
    with np.errstate(divide="ignore", invalid="ignore"):
        before = mass / model.rate_dark
    after = t_switch + (mass - mass_dark) / model.rate_bright
    return np.where(mass < mass_dark, before, after)


def _run_sharded(work, shots: int, chunk: int, threads: int) -> list:
    """``work(lo, hi)`` over ``0..shots`` in chunks of ``chunk`` shots, in shot order.

    Chunks go to min(threads, CPUs, number of chunks) threads, each thread
    taking the next chunk when it finishes one.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    chunks = [(lo, min(lo + chunk, shots)) for lo in range(0, shots, chunk)]
    workers = min(threads, os.cpu_count() or 1, len(chunks))
    if workers == 1:
        return [work(*bounds) for bounds in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bounds: work(*bounds), chunks))


def simulate_counts(prepared: Prepared, config: SimConfig, threads: int = 1) -> np.ndarray:
    """Photon counts of shots ``0..shots-1``, independent of ``threads``."""
    out = np.empty(config.shots, dtype=np.int64)
    shared = (config.model.mean_bright, config.model.mean_dark)

    def count(lo: int, hi: int) -> None:
        _, mu, u_count = _window_profile(prepared, config, lo, hi)
        out[lo:hi] = _poisson_quantile(u_count, mu, shared)

    _run_sharded(count, config.shots, _COUNT_CHUNK, threads)
    return out


def simulate_histogram(prepared: Prepared, config: SimConfig, threads: int = 1) -> CountHistogram:
    """Histogram of simulated photon counts for one prepared state."""
    return CountHistogram.from_counts(simulate_counts(prepared, config, threads))


def _shard_traces(prepared: Prepared, config: SimConfig, lo: int, hi: int):
    """Arrival times (shot-major) and counts of shots ``lo..hi-1``, in one pass."""
    t_switch, mu, u_count = _window_profile(prepared, config, lo, hi)
    n = _poisson_quantile(u_count, mu, (config.model.mean_bright, config.model.mean_dark))
    u_ev = _event_uniforms(config.seed, lo, n)
    t_ev = _event_times(u_ev, np.repeat(t_switch, n), np.repeat(mu, n), config.model)
    # One row per shot with two or more photons, padded with +inf so
    # padding sorts last; the mask reads the sorted rows back shot-major.
    multi = n > 1
    multi_ev = np.repeat(multi, n)
    mask = np.arange(n.max(initial=0)) < n[multi, None]
    rows = np.full(mask.shape, np.inf)
    rows[mask] = t_ev[multi_ev]
    rows.sort(axis=1)
    t_ev[multi_ev] = rows[mask]
    return t_ev, n


def simulate_traces(prepared: Prepared, config: SimConfig, threads: int = 1) -> TraceBatch:
    """Time-stamped photon records for every shot, as a ``TraceBatch``.

    The total count of each shot is drawn exactly as in count mode (same
    reserved uniform), so trace counts agree shot-by-shot with
    ``simulate_counts``; the count is then distributed over the window by
    inverse-CDF placement of each photon.
    """
    parts = _run_sharded(
        lambda lo, hi: _shard_traces(prepared, config, lo, hi),
        config.shots,
        _TRACE_CHUNK,
        threads,
    )
    times = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return TraceBatch(times, offsets, config.model.t_det)


def simulate_shot(prepared: Prepared, config: SimConfig, shot_index: int) -> PhotonTrace:
    """Regenerate the full photon record of one shot of a batch.

    Bit-identical to ``simulate_traces(...).trace(shot_index)`` for the same
    configuration: the per-shot counter keying makes every shot a pure
    function of (seed, shot index).
    """
    if not 0 <= shot_index < config.shots:
        raise ValueError(f"shot_index must lie in [0, {config.shots}), got {shot_index}")
    times, _ = _shard_traces(prepared, config, shot_index, shot_index + 1)
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
    rows = [(int(n), int(c), float(f)) for n, c, f in read_csv(path, _HISTOGRAM_HEADER)]
    if not rows:
        raise ValueError(f"{path}: empty histogram file")
    n_values = [n for n, _, _ in rows]
    if min(n_values) < 0 or len(set(n_values)) < len(rows):
        raise ValueError(f"{path}: bins n must be distinct non-negative counts")
    bins = np.zeros(max(n_values) + 1, dtype=np.int64)
    bins[n_values] = [c for _, c, _ in rows]
    total = int(bins.sum())
    for n, c, f in rows:
        if total and abs(f - c / total) > 1e-9:
            raise ValueError(f"frequency column inconsistent at n={n}")
    return CountHistogram(bins, total)


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
