"""Command-line front end: one JSON config drives every subcommand.

Subcommands::

    shelveread optimize   error-vs-(window, threshold) surface and optimum
    shelveread simulate   photon-count histograms (and optionally traces)
    shelveread fit        maximum-likelihood fit of a histogram pair
    shelveread tomo       state or process tomography from projection records
    shelveread budget     multi-pulse error-budget combination

Every subcommand takes ``--config`` and ``--out``; ``simulate`` also takes
``--seed`` and ``--threads``, and ``fit`` also takes ``--seed``.

The JSON config (``--config``, default: the bundled example) is checked
against ``_SCHEMA``, the one table of its sections, keys, kinds and
defaults, before any artifact is written.  ``--seed`` overrides
``simulate.seed``.

Artifacts go into ``--out`` and embed one metadata block — the SHA-256 of
the config as given, ``--seed`` override folded in, the tool version and the
sampler's random-stream version — so every artifact records what produced
it.  CSV and JSON artifacts share one format, that of ``_files``: the block
is the leading ``# key: value`` lines of a CSV and the last key,
``"metadata"``, of a JSON file, and every line ends in ``\n``.  The
``traces_*.npz`` archives hold the block as their JSON ``metadata`` entry.
Commands are deterministic: the same config and seed reproduce
byte-identical files.

Times are seconds inside the library; CSV columns and config keys carry
explicit units in their names (``_us``, ``_s``, ``_hz``).

Exit status: 0 on success, 2 on any configuration or validation error,
including a flag the subcommand does not take.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .photon_statistics import DetectionModel

# Only the stdlib, numpy and the provenance stamps load with this module;
# each ``cmd_*`` imports the submodules it runs, because loading them all
# would add ~60 ms to a ~0.24 s ``tomo`` or ``budget`` process.
from . import RNG_STREAM, __version__

__all__ = ["main"]

_SEED_MODULUS = 1 << 64


def _bundled(name: str):
    return resources.files("shelveread").joinpath("data", name)


def _finite(value) -> bool:
    """A JSON number, not a boolean; the bound refuses NaN, infinities and
    integers past the float range."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


class _Kind(NamedTuple):
    """The JSON values a config entry accepts, and what a command reads."""

    description: str
    accepts: Callable[[Any], bool]
    read_as: Callable[[Any], Any] = lambda value: value


def _integer_in(low: int, high: float = float("inf")) -> _Kind:
    return _Kind(
        f"an integer in [{low}, {high})",
        lambda v: isinstance(v, int) and not isinstance(v, bool) and low <= v < high,
    )


def _one_of(*names: str) -> _Kind:
    return _Kind("one of " + ", ".join(names), lambda v: isinstance(v, str) and v in names)


_NUMBER = _Kind("a finite number", _finite, float)
_POSITIVE = _Kind("a finite number > 0", lambda v: _finite(v) and v > 0, float)
_BOOLEAN = _Kind("true or false", lambda v: isinstance(v, bool))
_PATH = _Kind(
    "a non-empty path or null (the default file)",
    lambda v: v is None or isinstance(v, str) and v != "",
)
_REQUIRED = object()

# section -> key -> (kind, default); a key whose default is _REQUIRED must
# be given whenever its section is read.  Literal names, not the enums, keep
# this table free of submodule imports.
_SCHEMA = {
    "model": dict.fromkeys(
        ("rate_bright_hz", "rate_dark_hz", "lifetime_s", "t_det_s"), (_NUMBER, _REQUIRED)
    ),
    "errors": dict.fromkeys(("eps_down_tot", "eps_up_tot"), (_NUMBER, _REQUIRED)),
    "optimize": {
        **dict.fromkeys(("t_min_us", "t_max_us", "t_step_us"), (_POSITIVE, _REQUIRED)),
        "n_th_max": (_integer_in(0), _REQUIRED),
    },
    "simulate": {
        "shots": (_integer_in(1), _REQUIRED),
        "seed": (_integer_in(0, _SEED_MODULUS), _REQUIRED),
        "decay_time_law": (_one_of("uniform_first_order", "exponential"), _REQUIRED),
        "traces": (_BOOLEAN, False),
    },
    "fit": {
        "mode": (_one_of("joint", "independent"), "joint"),
        "bootstrap": (_integer_in(0), 0),
        "hist_down": (_PATH, None),
        "hist_up": (_PATH, None),
    },
    "tomo": {
        "mode": (_one_of("state", "process"), "state"),
        "null_orthogonal": (_BOOLEAN, True),
        "records": (_PATH, None),
        "theta_points": (_integer_in(1), 181),
        "phi_points": (_integer_in(1), 360),
    },
    "budget": {"entries": (_PATH, None)},
}


def _load_config(path: str | None, command: str, seed: int | None) -> tuple[str, dict]:
    """The SHA-256 of the config at ``path`` (default: the bundled one) as
    given, ``seed`` folded in, and the sections ``command`` reads, checked
    against ``_SCHEMA`` with defaults filled in.  Every present entry is
    checked."""
    source = _bundled("default_config.json") if path is None else Path(path)
    config = json.loads(source.read_text())
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for name, section in config.items():
        if name not in _SCHEMA:
            raise ValueError(f"unknown config section {name}; known: {', '.join(_SCHEMA)}")
        if not isinstance(section, dict):
            raise ValueError(f"config section {name} must be a JSON object")
        known = _SCHEMA[name]
        for key, value in section.items():
            if key not in known:
                raise ValueError(f"unknown config entry {name}.{key}; known: {', '.join(known)}")
            kind = known[key][0]
            if not kind.accepts(value):
                raise ValueError(
                    f"config entry {name}.{key} must be {kind.description}, got {value!r}"
                )
    sections = _COMMANDS[command][2]
    if seed is not None and "simulate" in sections:
        config["simulate"] = {**config.get("simulate", {}), "seed": seed}
    checked = {}
    for name in sections:
        given = config.get(name, {})
        checked[name] = {}
        for key, (kind, default) in _SCHEMA[name].items():
            if key in given:
                checked[name][key] = kind.read_as(given[key])
            elif default is _REQUIRED:
                raise ValueError(f"config is missing {name}.{key}")
            else:
                checked[name][key] = default
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), checked


def _model(config: dict) -> DetectionModel:
    from .photon_statistics import DetectionModel

    m = config["model"]
    return DetectionModel(m["rate_bright_hz"], m["rate_dark_hz"], m["lifetime_s"], m["t_det_s"])


# ---------------------------------------------------------------------------
# Subcommands


def cmd_optimize(config: dict, out: Path, metadata: dict) -> None:
    from ._files import write_json
    from .discrimination import OptimizationGrid, optimize, write_error_surface_csv

    scan, model = config["optimize"], _model(config)
    if scan["t_max_us"] < scan["t_min_us"]:
        raise ValueError("config entry optimize.t_max_us must not be below optimize.t_min_us")
    t_step = scan["t_step_us"]
    grid = OptimizationGrid(
        t_values=np.arange(scan["t_min_us"], scan["t_max_us"] + 0.5 * t_step, t_step) * 1e-6,
        n_values=np.arange(0, scan["n_th_max"] + 1),
    )
    result = optimize(model.rate_bright, model.rate_dark, model.lifetime, grid=grid)
    write_error_surface_csv(result, out / "error_surface.csv", metadata)
    optimum = {
        "t_det_s": result.t_det,
        "t_det_us": result.t_det * 1e6,
        "n_th": int(result.n_th),
        "eps_mean": result.eps_mean,
    }
    write_json(out / "optimum.json", optimum, metadata)
    print(
        f"optimum: t_det = {result.t_det * 1e6:.1f} us, n_th = {result.n_th}, "
        f"mean error = {result.eps_mean:.4e}"
    )
    print(f"wrote {out / 'error_surface.csv'} and {out / 'optimum.json'}")


def cmd_simulate(config: dict, out: Path, metadata: dict, threads: int) -> None:
    from .monte_carlo import (
        CountHistogram,
        DecayTimeLaw,
        Prepared,
        SimConfig,
        simulate_histogram,
        simulate_traces,
        write_histogram_csv,
        write_traces,
    )
    from .photon_statistics import ErrorRates

    model, errors, run = _model(config), ErrorRates(**config["errors"]), config["simulate"]
    law = DecayTimeLaw(run["decay_time_law"])
    # Distinct counter-RNG keys per prepared state keep the ensembles independent.
    for prepared, seed in (
        (Prepared.DOWN, run["seed"]),
        (Prepared.UP, (run["seed"] + 1) % _SEED_MODULUS),
    ):
        sim = SimConfig(model, errors, shots=run["shots"], seed=seed, decay_time_law=law)
        tag = prepared.value
        if run["traces"]:
            # Trace and count modes share the same per-shot random numbers, so
            # the histogram built from the traces is the count-mode histogram.
            batch = simulate_traces(prepared, sim, threads=threads)
            write_traces(batch, out / f"traces_{tag}.npz", metadata)
            hist = CountHistogram.from_counts(batch.counts)
        else:
            hist = simulate_histogram(prepared, sim, threads=threads)
        write_histogram_csv(hist, out / f"hist_{tag}.csv", metadata)
        mean = float(np.arange(hist.counts_per_bin.size) @ hist.counts_per_bin / hist.total_shots)
        print(f"{tag}: {hist.total_shots} shots, mean count {mean:.4f} -> hist_{tag}.csv")


def cmd_fit(config: dict, out: Path, metadata: dict, seed: int) -> None:
    from .mle_fit import fit, write_fit_json
    from .monte_carlo import read_histogram_csv

    model, options = _model(config), config["fit"]
    hist_down, hist_up = (
        read_histogram_csv(options[key] or out / f"{key}.csv") for key in ("hist_down", "hist_up")
    )
    result = fit(
        hist_down,
        hist_up,
        t_det=model.t_det,
        lifetime=model.lifetime,
        mode=options["mode"],
        bootstrap=options["bootstrap"],
        bootstrap_seed=seed,
    )
    write_fit_json(result, out / "fit.json", metadata=dict(metadata, seed=seed))
    print(f"converged: {result.converged} (log-likelihood {result.log_likelihood:.3f})")
    for name in ("mean_bright", "mean_dark", "eps_down_tot", "eps_up_tot"):
        print(
            f"  {name} = {getattr(result, name):.6g} "
            f"+/- {result.std_errors[name]:.2g}"
        )
    print(f"wrote {out / 'fit.json'}")


def cmd_tomo(config: dict, out: Path, metadata: dict) -> None:
    from ._files import write_json
    from .tomography import (
        PREPARED_LABELS,
        _average_fidelity_se,
        _pooled_tallies,
        _projections,
        average_fidelity,
        bloch_error_surface,
        chi_from_projections,
        null_orthogonal_projections,
        process_fidelity,
        read_records_csv,
        state_fidelities,
        trace_preservation_defect,
        write_chi_json,
        write_surface_csv,
    )

    options = config["tomo"]
    source = options["records"] or _bundled("tomography_records.csv")
    tallies = _pooled_tallies(read_records_csv(source))
    try:
        projections = _projections(tallies)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None

    six_states = set(PREPARED_LABELS) <= projections.keys()
    if options["mode"] == "state":
        fidelities = state_fidelities(projections)
        payload = {
            "projections": {
                label: [p.p_x, p.p_y, p.p_z] for label, p in projections.items()
            },
            "fidelities": fidelities,
        }
        if six_states:
            payload["average_fidelity"] = average_fidelity(fidelities)
            payload["average_fidelity_se"] = _average_fidelity_se(tallies)
            print(f"average state fidelity: {payload['average_fidelity']:.6f}")
        write_json(out / "state_fidelities.json", payload, metadata)
        print(f"wrote {out / 'state_fidelities.json'}")
        return

    if options["null_orthogonal"]:
        projections = null_orthogonal_projections(projections)
    chi = chi_from_projections(projections)
    write_chi_json(chi, out / "chi.json", metadata)
    process = {
        "process_fidelity": process_fidelity(chi),
        "average_state_fidelity": (2 * process_fidelity(chi) + 1) / 3,  # Nielsen 2002
        "average_state_fidelity_se": _average_fidelity_se(tallies) if six_states else None,
        "min_eigenvalue": chi.min_eigenvalue,
        "trace_preservation_defect": trace_preservation_defect(chi),
        "physical": chi.is_physical(),
    }
    write_json(out / "process.json", process, metadata)
    theta = np.linspace(0.0, 180.0, options["theta_points"])
    phi = np.linspace(0.0, 360.0, options["phi_points"], endpoint=False)
    surface = bloch_error_surface(chi, theta, phi)
    write_surface_csv(*surface, out / "sphere_error.csv", metadata)
    print(f"process fidelity: {process['process_fidelity']:.6f} (physical: {chi.is_physical()})")
    print(f"average state fidelity: {process['average_state_fidelity']:.6f}")
    print(f"wrote {out / 'chi.json'}, {out / 'process.json'}, {out / 'sphere_error.csv'}")


def cmd_budget(config: dict, out: Path, metadata: dict) -> None:
    from .error_budget import combine, read_budget_json, write_report_json

    budgets = read_budget_json(config["budget"]["entries"] or _bundled("shelving_budget.json"))
    reports = {name: combine(entries) for name, entries in budgets.items()}
    write_report_json(reports, out / "budget_report.json", metadata=metadata)
    for name, report in reports.items():
        print(
            f"{name}: initialization {report.initialization_total:.4e}, "
            f"shelving {report.shelving_total:.4e}, overall {report.overall:.4e}"
        )
    print(f"wrote {out / 'budget_report.json'}")


# ---------------------------------------------------------------------------
# Entry point


# subcommand -> (help, the flags it takes besides --config and --out,
#                the config sections it reads, in read order)
_COMMANDS = {
    "optimize": (
        "compute the error surface and the optimal window/threshold", (), ("optimize", "model")
    ),
    "simulate": (
        "generate photon-count histograms for both prepared states",
        ("seed", "threads"),
        ("model", "errors", "simulate"),
    ),
    "fit": ("maximum-likelihood fit of a histogram pair", ("seed",), ("model", "fit")),
    "tomo": ("state or process tomography from projection records", (), ("tomo",)),
    "budget": ("combine an error-budget configuration into totals", (), ("budget",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shelveread",
        description="Shelving-readout modeling: optimize, simulate, fit, tomo, budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="JSON config (default: bundled example)")
        cmd.add_argument("--out", default=".", help="output directory (default: current)")
        if "seed" in flags:
            cmd.add_argument("--seed", type=int, default=None, help="override the configured RNG seed")
        if "threads" in flags:
            cmd.add_argument("--threads", type=int, default=1, help="worker threads for simulation")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    try:
        if seed is not None and not 0 <= seed < _SEED_MODULUS:
            raise ValueError("--seed must be an unsigned 64-bit integer")
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        config_sha256, config = _load_config(args.config, args.command, seed)
        metadata = {
            "tool": "shelveread",
            "version": __version__,
            "command": args.command,
            "config_sha256": config_sha256,
            "rng_stream": RNG_STREAM,
        }
        if args.command == "optimize":
            cmd_optimize(config, out, metadata)
        elif args.command == "simulate":
            cmd_simulate(config, out, metadata, args.threads)
        elif args.command == "fit":
            cmd_fit(config, out, metadata, 0 if seed is None else seed)
        elif args.command == "tomo":
            cmd_tomo(config, out, metadata)
        else:
            cmd_budget(config, out, metadata)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
