"""Command-line front end: one JSON config drives every subcommand.

Subcommands::

    shelveread optimize   error-vs-(window, threshold) surface and optimum
    shelveread simulate   photon-count histograms (and optionally traces)
    shelveread fit        maximum-likelihood fit of a histogram pair
    shelveread tomo       state or process tomography from projection records
    shelveread budget     multi-pulse error-budget combination

Every subcommand takes ``--config`` and ``--out``; ``simulate`` also takes
``--seed`` and ``--threads``, and ``fit`` also takes ``--seed``.

Every command reads a single self-describing JSON config (``--config``,
defaulting to the bundled example configuration) and writes its artifacts
into ``--out``.  Outputs embed one metadata block — the SHA-256 of the
effective config, the tool version and the sampler's random-stream version
— so every artifact records what produced it.  CSV and JSON artifacts share
one format, that of ``_files``: the block is the leading ``# key: value``
lines of a CSV and the last key, ``"metadata"``, of a JSON file, and every
line ends in ``\n``.  The ``traces_*.npz`` archives hold the block as their
JSON ``metadata`` entry.  Commands are deterministic: the same config and
seed reproduce byte-identical files.

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
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .monte_carlo import Prepared, SimConfig
    from .photon_statistics import DetectionModel, ErrorRates

# Only the stdlib, numpy and the provenance stamps load with this module;
# each ``cmd_*`` imports the submodules it runs, so ``tomo`` and ``budget``
# never load scipy, and no subcommand loads ``scipy.optimize``.
from . import RNG_STREAM, __version__

__all__ = ["main"]

_SEED_MODULUS = 1 << 64


def _bundled(name: str):
    return resources.files("shelveread").joinpath("data", name)


def _load_config(path: str | None) -> dict:
    if path is None:
        text = _bundled("default_config.json").read_text()
    else:
        text = Path(path).read_text()
    config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for name, section in config.items():
        if not isinstance(section, dict):
            raise ValueError(f"config section {name} must be a JSON object")
    return config


def _require(config: dict, section: str, key: str):
    try:
        value = config[section][key]
    except (KeyError, TypeError):
        raise ValueError(f"config is missing {section}.{key}") from None
    if value is None:
        raise ValueError(f"config entry {section}.{key} must not be null")
    return value


def _integer(config: dict, section: str, key: str, low: int, high: float = float("inf")) -> int:
    """A JSON integer (not a boolean) in ``[low, high)``."""
    value = _require(config, section, key)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ValueError(
            f"config entry {section}.{key} must be an integer in [{low}, {high}), got {value!r}"
        )
    return value


def _number(config: dict, section: str, key: str) -> float:
    """A finite JSON number (not a boolean), as a float."""
    value = _require(config, section, key)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # the bound also refuses NaN, infinities and integers past the float range
    if not (number and abs(value) <= sys.float_info.max):
        raise ValueError(f"config entry {section}.{key} must be a finite number, got {value!r}")
    return float(value)


_PATH = (str, type(None))  # a path entry is a string, or null for the default
_TYPE_NAMES = {bool: "true or false", str: "a string", _PATH: "a string or null"}


def _typed(config: dict, section: str, key: str, kind, default):
    """``config[section][key]``, or ``default`` if absent; it must be a JSON ``kind``."""
    value = config.get(section, {}).get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f"config entry {section}.{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _model_from_config(config: dict) -> DetectionModel:
    from .photon_statistics import DetectionModel

    return DetectionModel(
        rate_bright=_number(config, "model", "rate_bright_hz"),
        rate_dark=_number(config, "model", "rate_dark_hz"),
        lifetime=_number(config, "model", "lifetime_s"),
        t_det=_number(config, "model", "t_det_s"),
    )


def _errors_from_config(config: dict) -> ErrorRates:
    from .photon_statistics import ErrorRates

    return ErrorRates(
        eps_down_tot=_number(config, "errors", "eps_down_tot"),
        eps_up_tot=_number(config, "errors", "eps_up_tot"),
    )


def _metadata(config: dict, command: str) -> dict:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "tool": "shelveread",
        "version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "rng_stream": RNG_STREAM,
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_optimize(config: dict, out: Path) -> None:
    from ._files import write_json
    from .discrimination import OptimizationGrid, optimize, write_error_surface_csv

    t_min = _number(config, "optimize", "t_min_us")
    t_max = _number(config, "optimize", "t_max_us")
    t_step = _number(config, "optimize", "t_step_us")
    if not t_step > 0.0:
        raise ValueError(f"optimize.t_step_us must be positive, got {t_step}")
    n_max = _integer(config, "optimize", "n_th_max", 0)
    grid = OptimizationGrid(
        t_values=np.arange(t_min, t_max + 0.5 * t_step, t_step) * 1e-6,
        n_values=np.arange(0, n_max + 1),
    )
    result = optimize(
        rate_bright=_number(config, "model", "rate_bright_hz"),
        rate_dark=_number(config, "model", "rate_dark_hz"),
        lifetime=_number(config, "model", "lifetime_s"),
        grid=grid,
    )
    metadata = _metadata(config, "optimize")
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


def _simulate_one(
    prepared: Prepared, sim: SimConfig, traces: bool, threads: int, out: Path, metadata: dict
) -> None:
    from .monte_carlo import (
        CountHistogram,
        simulate_histogram,
        simulate_traces,
        write_histogram_csv,
        write_traces,
    )

    tag = prepared.value
    if traces:
        # Trace and count modes share the same per-shot random numbers, so
        # the histogram built from the traces is the count-mode histogram.
        batch = simulate_traces(prepared, sim, threads=threads)
        write_traces(batch, out / f"traces_{tag}.npz", metadata)
        hist = CountHistogram.from_counts(batch.counts)
    else:
        hist = simulate_histogram(prepared, sim, threads=threads)
    write_histogram_csv(hist, out / f"hist_{tag}.csv", metadata)
    mean = float(
        np.arange(hist.counts_per_bin.size) @ hist.counts_per_bin / hist.total_shots
    )
    print(f"{tag}: {hist.total_shots} shots, mean count {mean:.4f} -> hist_{tag}.csv")


def cmd_simulate(
    config: dict, out: Path, seed_override: int | None, threads: int
) -> None:
    from .monte_carlo import DecayTimeLaw, Prepared, SimConfig

    model = _model_from_config(config)
    errors = _errors_from_config(config)
    shots = _integer(config, "simulate", "shots", 1)
    if seed_override is None:
        seed = _integer(config, "simulate", "seed", 0, _SEED_MODULUS)
    else:
        seed = seed_override
    law = DecayTimeLaw(str(_require(config, "simulate", "decay_time_law")))
    traces = _typed(config, "simulate", "traces", bool, False)
    if seed_override is not None:
        config = dict(config)
        config["simulate"] = dict(config["simulate"], seed=seed)
    metadata = _metadata(config, "simulate")
    # Distinct counter-RNG keys per prepared state keep the ensembles independent.
    for prepared, state_seed in (
        (Prepared.DOWN, seed % _SEED_MODULUS),
        (Prepared.UP, (seed + 1) % _SEED_MODULUS),
    ):
        sim = SimConfig(
            model=model, errors=errors, shots=shots, seed=state_seed, decay_time_law=law
        )
        _simulate_one(prepared, sim, traces, threads, out, metadata)


def cmd_fit(config: dict, out: Path, seed_override: int | None) -> None:
    from .mle_fit import fit, write_fit_json
    from .monte_carlo import read_histogram_csv

    model = _model_from_config(config)
    section = config.get("fit", {})
    bootstrap = _integer(config, "fit", "bootstrap", 0) if "bootstrap" in section else 0
    mode = _typed(config, "fit", "mode", str, "joint")
    hist_down, hist_up = (
        read_histogram_csv(_typed(config, "fit", key, _PATH, None) or out / f"{key}.csv")
        for key in ("hist_down", "hist_up")
    )
    seed = 0 if seed_override is None else seed_override
    result = fit(
        hist_down,
        hist_up,
        t_det=model.t_det,
        lifetime=model.lifetime,
        mode=mode,
        bootstrap=bootstrap,
        bootstrap_seed=seed,
    )
    write_fit_json(result, out / "fit.json", metadata=dict(_metadata(config, "fit"), seed=seed))
    print(f"converged: {result.converged} (log-likelihood {result.log_likelihood:.3f})")
    for name in ("mean_bright", "mean_dark", "eps_down_tot", "eps_up_tot"):
        print(
            f"  {name} = {getattr(result, name):.6g} "
            f"+/- {result.std_errors[name]:.2g}"
        )
    print(f"wrote {out / 'fit.json'}")


def cmd_tomo(config: dict, out: Path) -> None:
    from ._files import write_json
    from .tomography import (
        PREPARED_LABELS,
        average_fidelity,
        bloch_error_surface,
        chi_from_projections,
        null_orthogonal_projections,
        process_fidelity,
        projections_from_records,
        read_records_csv,
        state_fidelities,
        trace_preservation_defect,
        write_chi_json,
        write_surface_csv,
    )

    section = config.get("tomo", {})
    records_path = _typed(config, "tomo", "records", _PATH, None)
    records = read_records_csv(records_path or _bundled("tomography_records.csv"))
    mode = _typed(config, "tomo", "mode", str, "state")
    if mode not in ("state", "process"):
        raise ValueError(f"tomo.mode must be 'state' or 'process', got {mode!r}")
    metadata = _metadata(config, "tomo")
    projections = projections_from_records(records)

    if mode == "state":
        fidelities = state_fidelities(projections)
        payload = {
            "projections": {
                label: [p.p_x, p.p_y, p.p_z] for label, p in projections.items()
            },
            "fidelities": fidelities,
        }
        if all(label in fidelities for label in PREPARED_LABELS):
            payload["average_fidelity"] = average_fidelity(fidelities)
            print(f"average state fidelity: {payload['average_fidelity']:.6f}")
        write_json(out / "state_fidelities.json", payload, metadata)
        print(f"wrote {out / 'state_fidelities.json'}")
        return

    theta_points, phi_points = (
        _integer(config, "tomo", key, 1) if key in section else default
        for key, default in (("theta_points", 181), ("phi_points", 360))
    )
    if _typed(config, "tomo", "null_orthogonal", bool, True):
        projections = null_orthogonal_projections(projections)
    chi = chi_from_projections(projections)
    write_chi_json(chi, out / "chi.json", metadata)
    process = {
        "process_fidelity": process_fidelity(chi),
        "min_eigenvalue": chi.min_eigenvalue,
        "trace_preservation_defect": trace_preservation_defect(chi),
        "physical": chi.is_physical(),
    }
    write_json(out / "process.json", process, metadata)
    theta = np.linspace(0.0, 180.0, theta_points)
    phi = np.linspace(0.0, 360.0, phi_points, endpoint=False)
    surface = bloch_error_surface(chi, theta, phi)
    write_surface_csv(*surface, out / "sphere_error.csv", metadata)
    print(f"process fidelity: {process_fidelity(chi):.6f} (physical: {chi.is_physical()})")
    print(f"wrote {out / 'chi.json'}, {out / 'process.json'}, {out / 'sphere_error.csv'}")


def cmd_budget(config: dict, out: Path) -> None:
    from .error_budget import combine, read_budget_json, write_report_json

    entries_path = _typed(config, "budget", "entries", _PATH, None)
    budgets = read_budget_json(entries_path or _bundled("shelving_budget.json"))
    reports = {name: combine(entries) for name, entries in budgets.items()}
    write_report_json(reports, out / "budget_report.json", metadata=_metadata(config, "budget"))
    for name, report in reports.items():
        print(
            f"{name}: initialization {report.initialization_total:.4e}, "
            f"shelving {report.shelving_total:.4e}, overall {report.overall:.4e}"
        )
    print(f"wrote {out / 'budget_report.json'}")


# ---------------------------------------------------------------------------
# Entry point


# subcommand -> (help, the flags it takes besides --config and --out)
_COMMANDS = {
    "optimize": ("compute the error surface and the optimal window/threshold", ()),
    "simulate": ("generate photon-count histograms for both prepared states", ("seed", "threads")),
    "fit": ("maximum-likelihood fit of a histogram pair", ("seed",)),
    "tomo": ("state or process tomography from projection records", ()),
    "budget": ("combine an error-budget configuration into totals", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shelveread",
        description="Shelving-readout modeling: optimize, simulate, fit, tomo, budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
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
        config = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "optimize":
            cmd_optimize(config, out)
        elif args.command == "simulate":
            cmd_simulate(config, out, seed, args.threads)
        elif args.command == "fit":
            cmd_fit(config, out, seed)
        elif args.command == "tomo":
            cmd_tomo(config, out)
        else:
            cmd_budget(config, out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
