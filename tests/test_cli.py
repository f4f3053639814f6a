"""End-to-end command-line workflows over real artifact files."""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import shelveread
from shelveread.cli import main
from shelveread.discrimination import read_error_surface_csv
from shelveread.mle_fit import read_fit_json
from shelveread.monte_carlo import (
    DecayTimeLaw,
    Prepared,
    SimConfig,
    read_histogram_csv,
    read_traces,
    simulate_traces,
)
from shelveread.photon_statistics import DetectionModel, ErrorRates
from shelveread.tomography import read_chi_json, read_surface_csv

PIPELINE_CONFIG = {
    "model": {
        "rate_bright_hz": 73.5e3,
        "rate_dark_hz": 1.75e3,
        "lifetime_s": 0.390,
        "t_det_s": 280e-6,
    },
    "errors": {"eps_down_tot": 6e-4, "eps_up_tot": 10e-4},
    "simulate": {
        "shots": 40_000,
        "seed": 11,
        "decay_time_law": "uniform_first_order",
        "traces": False,
    },
    "fit": {"mode": "joint", "bootstrap": 0, "hist_down": None, "hist_up": None},
}


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2) + "\n")
    return str(path)


def test_optimize_default_config(tmp_path, capsys):
    assert main(["optimize", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "t_det = 280.0 us" in out and "n_th = 5" in out

    optimum = json.loads((tmp_path / "optimum.json").read_text())
    assert optimum["t_det_us"] == pytest.approx(280.0, abs=1e-9)
    assert optimum["n_th"] == 5
    assert optimum["eps_mean"] == pytest.approx(2.898811280094431e-4, abs=1e-15)
    meta = optimum["metadata"]
    assert meta["tool"] == "shelveread" and meta["command"] == "optimize"
    assert len(meta["config_sha256"]) == 64
    assert all(c in "0123456789abcdef" for c in meta["config_sha256"])
    assert meta["rng_stream"] == "philox4x64-10/shot-major/2"

    surface_path = tmp_path / "error_surface.csv"
    assert surface_path.read_text().startswith("# tool: shelveread\n")
    assert "# rng_stream: philox4x64-10/shot-major/2\n" in surface_path.read_text()
    t_values, n_values, surface = read_error_surface_csv(surface_path)
    assert surface.shape == (111, 31)  # 50..600 us by 5, thresholds 0..30
    assert surface.min() == pytest.approx(optimum["eps_mean"], rel=1e-12)
    # header + grid rows + metadata comments
    n_lines = surface_path.read_text().count("\n")
    assert n_lines == 5 + 1 + 111 * 31


def test_simulate_then_fit_recovers_config_truth(tmp_path, capsys):
    config = _write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["simulate", "--config", config, "--out", str(tmp_path), "--threads", "2"]) == 0

    hist_down = read_histogram_csv(tmp_path / "hist_down.csv")
    hist_up = read_histogram_csv(tmp_path / "hist_up.csv")
    assert hist_down.total_shots == 40_000
    assert hist_up.total_shots == 40_000
    mean_down = np.arange(hist_down.counts_per_bin.size) @ hist_down.frequencies
    mean_up = np.arange(hist_up.counts_per_bin.size) @ hist_up.frequencies
    assert mean_down == pytest.approx(73.5e3 * 280e-6, abs=0.15)
    assert mean_up == pytest.approx(1.75e3 * 280e-6, abs=0.15)

    assert main(["fit", "--config", config, "--out", str(tmp_path), "--seed", "7"]) == 0
    assert "converged: True" in capsys.readouterr().out
    # the bootstrap seed is recorded even though no bootstrap ran
    assert json.loads((tmp_path / "fit.json").read_text())["metadata"]["seed"] == 7
    result = read_fit_json(tmp_path / "fit.json")
    assert result.converged
    truth = {
        "mean_bright": 73.5e3 * 280e-6,
        "mean_dark": 1.75e3 * 280e-6,
        "eps_down_tot": 6e-4,
        "eps_up_tot": 10e-4,
    }
    for name, value in truth.items():
        se = result.std_errors[name]
        assert abs(getattr(result, name) - value) < 4.5 * se, name


def test_simulate_reruns_are_byte_identical(tmp_path):
    config = _write_config(tmp_path, PIPELINE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", config, "--out", str(a)]) == 0
    assert main(["simulate", "--config", config, "--out", str(b), "--threads", "4"]) == 0
    for name in ("hist_down.csv", "hist_up.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_override_changes_outputs_and_metadata(tmp_path):
    config = _write_config(tmp_path, PIPELINE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", config, "--out", str(a)]) == 0
    assert main(["simulate", "--config", config, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "hist_down.csv").read_bytes() != (b / "hist_down.csv").read_bytes()

    def sha_line(path):
        for line in path.read_text().splitlines():
            if line.startswith("# config_sha256"):
                return line
        raise AssertionError("missing config hash line")

    # the override is folded into the effective config before hashing
    assert sha_line(a / "hist_down.csv") != sha_line(b / "hist_down.csv")


def test_simulate_traces_mode(tmp_path):
    config = dict(PIPELINE_CONFIG)
    config["simulate"] = dict(config["simulate"], shots=20_000, traces=True)
    path = _write_config(tmp_path, config)
    runs = {
        "a": ["--threads", "1"],
        "b": ["--threads", "1"],  # rerun
        "c": ["--threads", "2"],
    }
    for name, flags in runs.items():
        assert main(["simulate", "--config", path, "--out", str(tmp_path / name), *flags]) == 0
    for tag in ("down", "up"):
        name = f"traces_{tag}.npz"
        data = (tmp_path / "a" / name).read_bytes()
        assert data == (tmp_path / "b" / name).read_bytes(), name
        assert data == (tmp_path / "c" / name).read_bytes(), name
    assert not list((tmp_path / "a").glob("traces_*.csv"))

    # the stored times are the sampler's, bit for bit
    model = DetectionModel(73.5e3, 1.75e3, 0.390, t_det=280e-6)
    errors = ErrorRates(eps_down_tot=6e-4, eps_up_tot=10e-4)
    for tag, prepared, seed in (("down", Prepared.DOWN, 11), ("up", Prepared.UP, 12)):
        batch = read_traces(tmp_path / "a" / f"traces_{tag}.npz")
        sim = SimConfig(model=model, errors=errors, shots=20_000, seed=seed)
        expected = simulate_traces(prepared, sim)
        np.testing.assert_array_equal(batch.timestamps, expected.timestamps)
        np.testing.assert_array_equal(batch.offsets, expected.offsets)
        assert batch.t_det == 280e-6
        hist = read_histogram_csv(tmp_path / "a" / f"hist_{tag}.csv")
        np.testing.assert_array_equal(
            np.bincount(batch.counts, minlength=hist.counts_per_bin.size),
            hist.counts_per_bin,
        )
    with np.load(tmp_path / "a" / "traces_down.npz", allow_pickle=False) as archive:
        metadata = json.loads(str(archive["metadata"]))
    assert metadata["command"] == "simulate"
    assert metadata["rng_stream"] == shelveread.RNG_STREAM


def test_tomo_state_default_records(tmp_path, capsys):
    assert main(["tomo", "--out", str(tmp_path)]) == 0
    assert "average state fidelity: 0.997933" in capsys.readouterr().out
    payload = json.loads((tmp_path / "state_fidelities.json").read_text())
    assert payload["average_fidelity"] == pytest.approx(0.9979333333333333, abs=1e-12)
    assert payload["fidelities"]["+z"] == pytest.approx(0.99835, abs=1e-12)
    assert set(payload["projections"]) == {"+z", "-z", "+x", "-x", "+y", "-y"}
    assert len(payload["projections"]["+x"]) == 3


def test_tomo_process_small_grid(tmp_path, capsys):
    config = {"tomo": {"mode": "process", "theta_points": 19, "phi_points": 36}}
    path = _write_config(tmp_path, config)
    assert main(["tomo", "--config", path, "--out", str(tmp_path)]) == 0
    assert "process fidelity: 0.996675" in capsys.readouterr().out

    chi = read_chi_json(tmp_path / "chi.json")
    assert chi.is_physical()
    process = json.loads((tmp_path / "process.json").read_text())
    assert process["process_fidelity"] == pytest.approx(0.996675, abs=1e-9)
    assert process["physical"] is True
    assert process["trace_preservation_defect"] < 1e-9
    theta, phi, error = read_surface_csv(tmp_path / "sphere_error.csv")
    assert error.shape == (19, 36)
    assert np.all(error >= 0.0)


def test_tomo_process_raw_not_physical(tmp_path):
    config = {"tomo": {"mode": "process", "null_orthogonal": False,
                       "theta_points": 3, "phi_points": 4}}
    path = _write_config(tmp_path, config)
    assert main(["tomo", "--config", path, "--out", str(tmp_path)]) == 0
    process = json.loads((tmp_path / "process.json").read_text())
    assert process["physical"] is False
    assert process["min_eigenvalue"] < -1e-3


def test_budget_default(tmp_path, capsys):
    assert main(["budget", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "up:" in out and "down:" in out
    payload = json.loads((tmp_path / "budget_report.json").read_text())
    assert payload["up"]["overall"] == pytest.approx(3.83416e-4, abs=1e-12)
    assert payload["down"]["overall"] == pytest.approx(4.5e-4, rel=1e-12)
    assert payload["up"]["shelving_total"] == pytest.approx(2.33416e-4, abs=1e-12)


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["optimize", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err

    sparse = _write_config(tmp_path, {"model": {}}, "sparse.json")
    assert main(["optimize", "--config", sparse, "--out", str(tmp_path)]) == 2
    assert "optimize.t_min_us" in capsys.readouterr().err

    assert main(["simulate", "--seed", "-3", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["simulate", "--threads", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()

    empty = tmp_path / "empty_dir"
    config = _write_config(tmp_path, PIPELINE_CONFIG)
    assert main(["fit", "--config", config, "--out", str(empty)]) == 2  # no histograms
    capsys.readouterr()

    bad_mode = _write_config(tmp_path, {"tomo": {"mode": "both"}}, "mode.json")
    assert main(["tomo", "--config", bad_mode, "--out", str(tmp_path)]) == 2
    assert "tomo.mode" in capsys.readouterr().err

    not_object = _write_config(tmp_path, dict(PIPELINE_CONFIG, fit="x"), "section.json")
    assert main(["fit", "--config", not_object, "--out", str(tmp_path)]) == 2
    assert "fit" in capsys.readouterr().err

    zero_step = {"model": PIPELINE_CONFIG["model"],
                 "optimize": {"t_min_us": 50.0, "t_max_us": 600.0, "t_step_us": 0, "n_th_max": 30}}
    zero_step = _write_config(tmp_path, zero_step, "step.json")
    assert main(["optimize", "--config", zero_step, "--out", str(tmp_path)]) == 2
    assert "optimize.t_step_us" in capsys.readouterr().err

    # each subcommand takes only the flags it uses
    for command, flag in (
        ("optimize", "--seed"),
        ("optimize", "--threads"),
        ("tomo", "--seed"),
        ("tomo", "--threads"),
        ("budget", "--seed"),
        ("budget", "--threads"),
        ("fit", "--threads"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "1", "--out", str(tmp_path)])
        assert exit_info.value.code == 2, (command, flag)
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"shelveread: error: unrecognized arguments: {flag} 1"

    # simulate values must be JSON integers/booleans of the right range
    for key, value in (
        ("shots", [1]),
        ("shots", 1.7),
        ("shots", 0),
        ("shots", True),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", False),
        ("seed", "3"),
        ("traces", "no"),
        ("traces", 1),
    ):
        config = dict(PIPELINE_CONFIG)
        config["simulate"] = {**config["simulate"], "shots": 100, key: value}
        path = _write_config(tmp_path, config, "simulate.json")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"simulate.{key}" in err, err
    assert not (tmp_path / "sim" / "hist_down.csv").exists()

    # model, errors and optimize.t_*_us are finite JSON numbers, n_th_max an integer >= 0
    grid = {"t_min_us": 100.0, "t_max_us": 300.0, "t_step_us": 50.0, "n_th_max": 8}
    for command, section, key, value in (
        ("optimize", "model", "rate_bright_hz", [1]),
        ("simulate", "model", "rate_bright_hz", [1]),
        ("simulate", "model", "lifetime_s", True),
        ("simulate", "model", "rate_bright_hz", 10**400),
        ("simulate", "model", "rate_bright_hz", float("inf")),
        ("fit", "model", "t_det_s", "0.00028"),
        ("simulate", "errors", "eps_up_tot", "0.001"),
        ("optimize", "optimize", "n_th_max", [3]),
        ("optimize", "optimize", "n_th_max", 2.7),
        ("optimize", "optimize", "n_th_max", True),
        ("optimize", "optimize", "n_th_max", -1),
        ("optimize", "optimize", "t_min_us", [50]),
        ("optimize", "optimize", "t_step_us", False),
        ("optimize", "optimize", "t_max_us", float("nan")),
    ):
        config = dict(PIPELINE_CONFIG, optimize=grid)
        config["simulate"] = {**config["simulate"], "shots": 100}
        config[section] = {**config[section], key: value}
        path = _write_config(tmp_path, config, "number.json")
        assert main([command, "--config", path, "--out", str(tmp_path / "number")]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{section}.{key}" in err, err
    assert not any((tmp_path / "number").iterdir())

    # every present entry is checked against the schema, whatever the subcommand
    # reads, before any histogram is read or any artifact written
    model = PIPELINE_CONFIG["model"]
    simulate = PIPELINE_CONFIG["simulate"]
    for command, flags, changes, name in (
        ("simulate", [], {"simulate": {**simulate, "shotz": 100}}, "simulate.shotz"),
        ("simulate", [], {"simualte": {"shots": 100}}, "simualte"),
        ("tomo", [], {"tomo": {"mode": "state", "theta_points": "x"}}, "tomo.theta_points"),
        ("simulate", [], {"simulate": {**simulate, "decay_time_law": "exp"}},
         "simulate.decay_time_law"),
        ("fit", [], {"fit": {"mode": "both"}}, "fit.mode"),
        ("optimize", [], {"optimize": {**grid, "t_min_us": -5}}, "optimize.t_min_us"),
        ("optimize", [], {"model": {k: v for k, v in model.items() if k != "t_det_s"}},
         "model.t_det_s"),
        ("simulate", ["--seed", "5"], {"simulate": {**simulate, "seed": "3"}}, "simulate.seed"),
    ):
        config = {**PIPELINE_CONFIG, "optimize": grid, **changes}
        path = _write_config(tmp_path, config, "schema.json")
        argv = [command, "--config", path, "--out", str(tmp_path / "schema"), *flags]
        assert main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert name in err, err
    assert not any((tmp_path / "schema").iterdir())

    # fit.bootstrap must be a JSON integer other than 1, fit.mode a string
    fit_out = tmp_path / "fit"
    small = dict(PIPELINE_CONFIG, simulate={**PIPELINE_CONFIG["simulate"], "shots": 2000})
    small = _write_config(tmp_path, small, "small.json")
    assert main(["simulate", "--config", small, "--out", str(fit_out)]) == 0
    capsys.readouterr()
    for key, value in (
        ("bootstrap", 2.7),
        ("bootstrap", True),
        ("bootstrap", "3"),
        ("bootstrap", -1),
        ("bootstrap", 1),
        ("mode", 3),
        ("mode", ["joint"]),
    ):
        config = dict(PIPELINE_CONFIG, fit={**PIPELINE_CONFIG["fit"], key: value})
        path = _write_config(tmp_path, config, "fit.json")
        assert main(["fit", "--config", path, "--out", str(fit_out)]) == 2, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err, err
    assert not (fit_out / "fit.json").exists()

    # tomo values are typed JSON, and every path entry is a string or null
    bad_budget = tmp_path / "bad_budget.json"
    bad_budget.write_text('[{"source": "a", "pulse": "pulse1"}]\n')
    for command, section, key, value in (
        ("tomo", "tomo", "theta_points", [1]),
        ("tomo", "tomo", "theta_points", 2.7),
        ("tomo", "tomo", "phi_points", 0),
        ("tomo", "tomo", "null_orthogonal", "no"),
        ("tomo", "tomo", "mode", 3),
        ("tomo", "tomo", "records", 5),
        ("fit", "fit", "hist_down", 5),
        ("fit", "fit", "hist_up", 5),
        ("budget", "budget", "entries", 5),
        ("budget", "budget", "entries", str(bad_budget)),
    ):
        config = dict(PIPELINE_CONFIG, tomo={"mode": "process"})
        config[section] = {**config.get(section, {}), key: value}
        path = _write_config(tmp_path, config, "typed.json")
        assert main([command, "--config", path, "--out", str(fit_out)]) == 2, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        expected = str(bad_budget) if key == "entries" and value != 5 else f"{section}.{key}"
        assert expected in err, err
    assert sorted(p.name for p in fit_out.iterdir()) == ["hist_down.csv", "hist_up.csv"]


def test_bundled_config_documents_the_schema(tmp_path):
    from shelveread.cli import _COMMANDS, _SCHEMA, _load_config

    bundled = json.loads(
        resources.files("shelveread").joinpath("data", "default_config.json").read_text()
    )
    assert {name: set(section) for name, section in bundled.items()} == {
        name: set(keys) for name, keys in _SCHEMA.items()
    }
    for command, (_, _, sections) in _COMMANDS.items():
        checked = _load_config(None, command, None)[1]
        assert checked == {name: bundled[name] for name in sections}, command
    # the schema's literal law names are those of the enum
    for law in DecayTimeLaw:
        config = dict(bundled, simulate={**bundled["simulate"], "decay_time_law": law.value})
        path = _write_config(tmp_path, config)
        assert _load_config(path, "simulate", None)[1]["simulate"]["decay_time_law"] == law.value


def test_artifacts_share_one_format(tmp_path):
    sim = tmp_path / "simulate"
    config = dict(PIPELINE_CONFIG, tomo={"mode": "process", "theta_points": 7, "phi_points": 8})
    config["simulate"] = dict(config["simulate"], shots=2000, traces=True)
    config["fit"] = dict(config["fit"], hist_down=str(sim / "hist_down.csv"),
                         hist_up=str(sim / "hist_up.csv"))
    config["optimize"] = {"t_min_us": 100.0, "t_max_us": 300.0, "t_step_us": 50.0, "n_th_max": 8}
    path = _write_config(tmp_path, config)
    readers = {
        "hist_down.csv": read_histogram_csv,
        "hist_up.csv": read_histogram_csv,
        "error_surface.csv": read_error_surface_csv,
        "sphere_error.csv": read_surface_csv,
    }
    for command in ("optimize", "simulate", "fit", "tomo", "budget"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0, command
        blocks = []
        for artifact in sorted(out.iterdir()):
            if artifact.suffix == ".npz":
                with np.load(artifact, allow_pickle=False) as archive:
                    blocks.append(json.loads(str(archive["metadata"])))
                continue
            text = artifact.read_bytes().decode()
            assert "\r" not in text, artifact
            if artifact.suffix == ".json":
                payload = json.loads(text)
                assert list(payload)[-1] == "metadata", artifact
                blocks.append(payload["metadata"])
            else:
                lines = text.splitlines()
                n_meta = next(i for i, line in enumerate(lines) if not line.startswith("# "))
                blocks.append(dict(line[2:].split(": ", 1) for line in lines[:n_meta]))
                readers.pop(artifact.name)(artifact)
        # one metadata block per subcommand; CSV lines hold its values as text
        assert blocks and all(
            {key: str(value) for key, value in block.items()}
            == {key: str(value) for key, value in blocks[0].items()}
            for block in blocks
        ), command
    assert not readers  # every CSV was written and read back


def test_module_runs_as_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "shelveread.cli", "budget", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "budget_report.json").exists()
    assert "overall" in result.stdout


@pytest.mark.parametrize(
    "command, banned",
    [("tomo", "scipy"), ("budget", "scipy"), ("optimize", "scipy.optimize"),
     ("simulate", "scipy.optimize"), ("fit", "scipy.optimize")],
)
def test_subcommand_imports_only_what_it_runs(tmp_path, command, banned):
    config = dict(PIPELINE_CONFIG)
    config["simulate"] = dict(config["simulate"], shots=200, traces=True)
    config["optimize"] = {"t_min_us": 50.0, "t_max_us": 600.0, "t_step_us": 5.0, "n_th_max": 30}
    argv = [command, "--config", _write_config(tmp_path, config), "--out", str(tmp_path)]
    if command == "fit":  # the histograms it reads
        assert main(["simulate", *argv[1:]]) == 0
    script = (
        "import sys\n"
        "from shelveread.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print([m for m in sys.modules if m == {banned!r} or m.startswith({banned!r} + '.')])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_package_exports_load_lazily():
    script = (
        "import sys, shelveread\n"
        "print([m for m in sys.modules if m.startswith('shelveread.')])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

    assert shelveread.fit is shelveread.mle_fit.fit
    assert shelveread.RNG_STREAM is shelveread.monte_carlo.RNG_STREAM
    assert set(shelveread.__all__) <= set(dir(shelveread))
    namespace = {}
    exec("from shelveread import *", namespace)
    assert set(shelveread.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        shelveread.no_such_name
