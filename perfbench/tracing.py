"""In-memory spans around the calls into each shelveread layer.

A ``Tracer`` replaces module-level function names with wrappers that record
one span per call: name, start, end, parent span and the thread that ran it,
plus counts taken from the call's arguments and result (blocks generated,
pmf elements, events, traces).  Spans stay in memory until the benchmark
writes them out at the end of the run.

Names are wrapped where the calling module looks them up, so a layer's
internal calls are seen too: ``shelveread.monte_carlo.philox4x64`` is the
name through which the sampler reaches ``_philox``, and ``shelveread.cli``
holds its own bindings of the library functions.  A name that no longer
exists is recorded in ``Tracer.missing`` instead of failing the run, and the
metrics fed by it are reported as absent.

Worker threads of a ``simulate_*`` call start with an empty span stack; their
spans attach to the enclosing ``simulate_*`` span, and their durations are
busy thread-seconds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "thread", "attrs")

    def __init__(self, span_id, name, parent, thread, attrs):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._enclosing = None
        self._patched = []

    @contextlib.contextmanager
    def span(self, name: str, cpu: bool = False, encloses_workers: bool = False, **attrs):
        """Record one span; ``cpu`` adds the process CPU seconds it covered."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._main:
            parent = self._enclosing
        else:
            parent = None
        sp = Span(next(self._ids), name, parent, thread, dict(attrs))
        owns_enclosing = encloses_workers and thread == self._main and self._enclosing is None
        if owns_enclosing:
            self._enclosing = sp.id
        cpu0 = time.process_time() if cpu else 0.0
        stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if cpu:
                sp.attrs["cpu_s"] = time.process_time() - cpu0
            if owns_enclosing:
                self._enclosing = None
            self.spans.append(sp)

    def wrap(self, module, attr: str, name: str, count=None, **span_kwargs) -> None:
        """Replace ``module.attr`` by a wrapper that records span ``name``.

        ``count(arguments, result)`` returns attributes for the span, where
        ``arguments`` maps parameter names to the values of the call.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name, **span_kwargs) as sp:
                result = original(*args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sp.attrs.update(count(bound.arguments, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Which names are wrapped


def _first(arguments: dict):
    return next(iter(arguments.values()))


def _philox_blocks(arguments, result):
    return {"blocks": int(result[0].size)}


def _pmf_elems(arguments, result):
    return {"elems": int(getattr(result, "size", 1))}


def _count_shots(arguments, result):
    return {"shots": int(result.size)}


def _trace_shots(arguments, result):
    return {"shots": int(result.n_shots), "events": int(result.timestamps.size)}


def _written_bytes(arguments, result):
    path = arguments.get("path")
    return {"bytes": os.path.getsize(path)} if path is not None else {}


def _classified(arguments, result):
    return {"traces": int(result.size), "photons": int(_first(arguments).timestamps.size)}


def _fit_info(arguments, result):
    return {
        "bootstrap": int(arguments.get("bootstrap", 0)),
        "iterations": int(result.n_iterations),
    }


def _surface_points(arguments, result):
    return {"points": int(result[2].size)}


# (module, attribute, span name, count function, span options)
_TARGETS = (
    ("shelveread.monte_carlo", "philox4x64", "_philox.philox4x64", _philox_blocks, {}),
    ("shelveread.monte_carlo", "poisson_pmf", "photon_statistics.poisson_pmf", _pmf_elems, {}),
    ("shelveread.monte_carlo", "simulate_histogram", "monte_carlo.simulate_histogram", None, {}),
    ("shelveread.monte_carlo", "simulate_counts", "monte_carlo.simulate_counts", _count_shots,
     {"cpu": True, "encloses_workers": True}),
    ("shelveread.monte_carlo", "simulate_traces", "monte_carlo.simulate_traces", _trace_shots,
     {"cpu": True, "encloses_workers": True}),
    ("shelveread.discrimination", "classify_traces", "discrimination.classify_traces", _classified, {}),
    ("shelveread.discrimination", "optimize", "discrimination.optimize", None, {}),
    ("shelveread.mle_fit", "fit", "mle_fit.fit", _fit_info, {}),
    ("shelveread.tomography", "bloch_error_surface", "tomography.bloch_error_surface", _surface_points, {}),
    ("shelveread.error_budget", "combine", "error_budget.combine", None, {}),
    ("shelveread.cli", "optimize", "discrimination.optimize", None, {}),
    ("shelveread.cli", "simulate_histogram", "monte_carlo.simulate_histogram", None, {}),
    ("shelveread.cli", "simulate_traces", "monte_carlo.simulate_traces", _trace_shots,
     {"cpu": True, "encloses_workers": True}),
    ("shelveread.cli", "write_traces_csv", "monte_carlo.write_traces_csv", _written_bytes, {}),
    ("shelveread.cli", "fit", "mle_fit.fit", _fit_info, {}),
    ("shelveread.cli", "bloch_error_surface", "tomography.bloch_error_surface", _surface_points, {}),
    ("shelveread.cli", "combine", "error_budget.combine", None, {}),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, name, count, options in _TARGETS:
        tracer.wrap(importlib.import_module(module_name), attr, name, count, **options)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced passes

PHILOX = "_philox.philox4x64"
PMF = "photon_statistics.poisson_pmf"
COUNTS = "monte_carlo.simulate_counts"
TRACES = "monte_carlo.simulate_traces"
WRITE = "monte_carlo.write_traces_csv"
CLASSIFY = "discrimination.classify_traces"
SURFACE = "tomography.bloch_error_surface"


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer figures; a metric whose spans are missing is left out."""
    groups: dict[str, list[Span]] = {}
    for sp in spans:
        groups.setdefault(sp.name, []).append(sp)

    def busy(name):
        return sum(sp.duration for sp in groups[name])

    def total(name, key):
        return sum(sp.attrs.get(key, 0) for sp in groups[name])

    out: dict[str, float] = {}

    def busy_per_pass(metric, name):
        if name in groups:
            out[metric] = busy(name) / passes

    def total_per_pass(metric, name, key):
        if name in groups:
            out[metric] = total(name, key) / passes

    def rate(metric, name, key, scale=1.0):
        if name in groups:
            out[metric] = scale * total(name, key) / busy(name)

    total_per_pass("philox.blocks", PHILOX, "blocks")
    busy_per_pass("philox.busy_s", PHILOX)
    rate("philox.blocks_per_s", PHILOX, "blocks")

    sims = groups.get(COUNTS, []) + groups.get(TRACES, [])
    if sims:
        children = sum(busy(name) for name in (PHILOX, PMF) if name in groups)
        out["monte_carlo.self_s"] = (sum(sp.attrs["cpu_s"] for sp in sims) - children) / passes
    busy_per_pass("monte_carlo.simulate_counts_s", COUNTS)
    busy_per_pass("monte_carlo.simulate_traces_s", TRACES)
    total_per_pass("monte_carlo.events", TRACES, "events")
    rate("monte_carlo.events_per_s", TRACES, "events")
    rate("monte_carlo.write_traces_mb_per_s", WRITE, "bytes", 1e-6)

    total_per_pass("photon_statistics.pmf_elems", PMF, "elems")
    if sims and PMF in groups:
        shots = sum(sp.attrs["shots"] for sp in sims)
        out["photon_statistics.pmf_elems_per_shot"] = total(PMF, "elems") / shots
    busy_per_pass("photon_statistics.busy_s", PMF)

    busy_per_pass("discrimination.classify_traces_s", CLASSIFY)
    if CLASSIFY in groups:
        out["discrimination.us_per_trace"] = 1e6 * busy(CLASSIFY) / total(CLASSIFY, "traces")
    rate("discrimination.photons_per_s", CLASSIFY, "photons")
    busy_per_pass("discrimination.optimize_s", "discrimination.optimize")

    fits = groups.get("mle_fit.fit", [])
    plain = [sp.duration for sp in fits if sp.attrs["bootstrap"] == 0]
    boot = [sp.duration for sp in fits if sp.attrs["bootstrap"] > 0]
    if plain:
        out["mle_fit.fit_s"] = statistics.median(plain)
    if boot:
        out["mle_fit.bootstrap_s"] = statistics.median(boot)
    if fits:
        out["mle_fit.iterations"] = statistics.median(sp.attrs["iterations"] for sp in fits)

    busy_per_pass("tomography.bloch_error_surface_s", SURFACE)
    rate("tomography.points_per_s", SURFACE, "points")
    busy_per_pass("error_budget.combine_s", "error_budget.combine")

    commands: dict[str, list[float]] = {}
    for sp in groups.get("cli.main", ()):
        commands.setdefault(sp.attrs["command"], []).append(sp.duration)
    for command, durations in commands.items():
        out[f"cli.{command}_s"] = statistics.median(durations)
    return out
