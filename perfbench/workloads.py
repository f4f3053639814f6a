"""The four benchmark workloads: inputs, one pipeline pass, and its checks.

Every workload is a closed loop in one process at a time: the next pass
starts when the previous one ends, with at most ``nproc`` simulation
threads.  Inputs
are a pure function of the workload seed, and every pass of a run repeats
the same inputs.  The passes call only documented interfaces (the CLI's
argv and config, ``simulate_*``, ``classify_traces``, ``fit``, ``optimize``,
``mean_error``), so the benchmark keeps running across refactors of the
layers underneath.  Checks avoid pinning the random bit stream: they test
totals, model agreement within statistical intervals, and determinism
between thread counts and between passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from shelveread import cli, discrimination, mle_fit, monte_carlo, photon_statistics

# Paper operating point (default_config.json): rates in Hz, times in s.
RATE_BRIGHT = 73500.0
RATE_DARK = 1750.0
LIFETIME = 0.39
T_DET = 285e-6
EPS_DOWN, EPS_UP = 6e-4, 1e-3
N_TH = 5
# Fitted parameters and threshold errors must lie this many standard errors
# from the truth; at 5 sigma a correct program fails about once in 10^6.
Z_MAX = 5.0
PARAMS = ("mean_bright", "mean_dark", "eps_down_tot", "eps_up_tot")


def src_env(root: Path) -> dict:
    """The environment for a child process that imports ``root/src``."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
    return env


def derived_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def state_configs(model, errors, shots, seeds) -> dict:
    """Simulation configs of both prepared states, one seed each."""
    states = (monte_carlo.Prepared.DOWN, monte_carlo.Prepared.UP)
    return {s: monte_carlo.SimConfig(model, errors, shots, seed) for s, seed in zip(states, seeds)}


def model_tv(hist, pmf) -> float:
    """Total-variation distance between a sampled histogram and a pmf."""
    freq = hist.frequencies
    size = max(freq.size, pmf.probs.size)
    a = np.pad(freq, (0, size - freq.size))
    b = np.pad(pmf.probs, (0, size - pmf.probs.size))
    return 0.5 * float(np.abs(a - b).sum())


class Workload:
    """One set of inputs and the pipeline pass the benchmark repeats."""

    name = ""

    def __init__(self, seed: int, threads: int, workdir: Path, root: Path):
        self.threads = threads
        self.workdir = workdir
        self.root = root

    def sizes(self) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, checks) -> dict:
        """One timed pass.

        Returns ``pass_s``, ``sim_s`` (time in the simulate calls),
        ``sim_shots`` (shots they simulated), ``stages`` (further stage
        times) and ``digest``, a hash of the pass's outputs that every pass
        of a run must reproduce.
        """
        raise NotImplementedError

    def traced_pass(self, checks, tracer) -> dict:
        """The in-process pass the tracer observes (the timed pass by default)."""
        return self.run_pass(checks)

    def check_run(self, checks) -> dict:
        """Once-per-run checks; returns timings the traced run reports."""
        return {}

    def peak_memory(self, checks) -> tuple[float, dict | None]:
        """Peak memory of one pass in MiB, and the record of any pass it ran.

        An untimed in-process pass under tracemalloc, which sees numpy's
        buffers and Python's objects: the pass's live memory without what
        the allocator keeps after a free.  That peak repeats within ~1 %
        between processes, where peak RSS of the same pass varies by up to
        ~30 %.  Tracing slows Python-heavy stages, so the pass is not timed.
        """
        tracemalloc.start()
        try:
            record = self.traced_pass(checks, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20, record

    def trace_extras(self) -> dict:
        """Layer figures that need calls beyond the pass (traced run only)."""
        return {}


class CountsWorkload(Workload):
    """Count histograms for both states at ``threads``, then a joint fit."""

    name = "counts"
    shots = 3_000_000
    lifetime = LIFETIME
    eps_down, eps_up = EPS_DOWN, EPS_UP
    # At the operating point the fit and the threshold error agree with the
    # truth.  At large decay fraction and errors the closed form the fit uses
    # and the sampler disagree, so there the bias is reported, not gated.
    gate_model_agreement = True

    def __init__(self, seed, threads, workdir, root):
        super().__init__(seed, threads, workdir, root)
        self.model = photon_statistics.DetectionModel(RATE_BRIGHT, RATE_DARK, self.lifetime, T_DET)
        self.errors = photon_statistics.ErrorRates(self.eps_down, self.eps_up)
        *seeds, self.boot_seed = derived_seeds(seed, 3)
        self.configs = state_configs(self.model, self.errors, self.shots, seeds)
        self.truth = dict(
            zip(PARAMS, (self.model.mean_bright, self.model.mean_dark, self.eps_down, self.eps_up))
        )
        self.last = None

    def sizes(self):
        return {
            "shots_per_state": self.shots,
            "threads": self.threads,
            "bootstrap": 20,
            "t_det_over_lifetime": self.model.decay_fraction,
            "eps_down_tot": self.eps_down,
            "eps_up_tot": self.eps_up,
        }

    def warm_up(self):
        small = state_configs(self.model, self.errors, 20_000, (c.seed for c in self.configs.values()))
        hists = [monte_carlo.simulate_histogram(s, c, threads=self.threads) for s, c in small.items()]
        mle_fit.fit(*hists, t_det=T_DET, lifetime=self.lifetime, bootstrap=2)

    def run_pass(self, checks):
        t0 = time.perf_counter()
        hists = {}
        stage = {}
        for state, config in self.configs.items():
            t = time.perf_counter()
            hists[state] = monte_carlo.simulate_histogram(state, config, threads=self.threads)
            stage[state] = time.perf_counter() - t
        t_sim = time.perf_counter()
        down, up = hists[monte_carlo.Prepared.DOWN], hists[monte_carlo.Prepared.UP]
        result = mle_fit.fit(
            down, up, t_det=T_DET, lifetime=self.lifetime, bootstrap=20, bootstrap_seed=self.boot_seed
        )
        t_end = time.perf_counter()
        self.last = (down, up, result)
        self._check_pass(checks, down, up, result)
        return {
            "pass_s": t_end - t0,
            "sim_s": t_sim - t0,
            "sim_shots": 2 * self.shots,
            "stages": {"fit_s": t_end - t_sim, "threaded_s": stage[monte_carlo.Prepared.UP]},
            "digest": digest(down.counts_per_bin, up.counts_per_bin, result.params.as_array()),
        }

    def _check_pass(self, checks, down, up, result):
        for tag, hist in (("down", down), ("up", up)):
            checks.expect(
                f"{tag} histogram total",
                hist.total_shots == self.shots and int(hist.counts_per_bin.sum()) == self.shots,
                f"{int(hist.counts_per_bin.sum())} != {self.shots}",
            )
        checks.expect("fit converged", bool(result.converged))
        ses = [result.std_errors[p] for p in PARAMS]
        checks.expect("fit standard errors finite", all(math.isfinite(se) and se > 0 for se in ses), str(ses))
        if not self.gate_model_agreement:
            return
        z = self.bias_se(result)
        checks.expect(f"fit within {Z_MAX} SE of truth", max(z.values()) <= Z_MAX, str(z))
        # Simulated threshold error against the closed form, binomial sigma.
        e_down = down.counts_per_bin[: N_TH + 1].sum() / self.shots
        e_up = up.counts_per_bin[N_TH + 1 :].sum() / self.shots
        sampled = 0.5 * (e_down + e_up)
        closed = discrimination.mean_error(self.model, N_TH, self.errors).eps_total_mean
        sigma = 0.5 * math.sqrt((e_down * (1 - e_down) + e_up * (1 - e_up)) / self.shots)
        checks.expect(
            "threshold error matches mean_error",
            abs(sampled - closed) <= Z_MAX * sigma,
            f"sampled {sampled:.4e}, closed form {closed:.4e}, sigma {sigma:.2e}",
        )

    def bias_se(self, result) -> dict:
        return {p: abs(getattr(result, p) - self.truth[p]) / result.std_errors[p] for p in PARAMS}

    def check_run(self, checks):
        # One state at one thread against the threaded pass output; UP holds
        # the in-window decays, i.e. both quantile paths.
        state = monte_carlo.Prepared.UP
        t = time.perf_counter()
        single = monte_carlo.simulate_histogram(state, self.configs[state], threads=1)
        single_s = time.perf_counter() - t
        checks.expect(
            "1 thread and nproc threads agree",
            np.array_equal(single.counts_per_bin, self.last[1].counts_per_bin),
        )
        return {"single_thread_s": single_s}

    def trace_extras(self):
        down, up, result = self.last
        mle_fit.fit(down, up, t_det=T_DET, lifetime=self.lifetime)
        return {
            "mle_fit.max_abs_bias_se": max(self.bias_se(result).values()),
            "photon_statistics.model_tv": max(
                model_tv(down, photon_statistics.observed_pdf_down(self.model, self.errors)),
                model_tv(up, photon_statistics.observed_pdf_up(self.model, self.errors)),
            ),
        }


class HighDecayWorkload(CountsWorkload):
    """The counts pipeline where in-window decays and errors are large."""

    name = "counts_high_decay"
    lifetime = T_DET / 0.072
    eps_down, eps_up = 0.3, 0.3
    gate_model_agreement = False


class TracesWorkload(Workload):
    """Photon-arrival traces for both states, time-resolved and threshold calls."""

    name = "traces"
    shots = 300_000

    def __init__(self, seed, threads, workdir, root):
        super().__init__(seed, threads, workdir, root)
        self.model = photon_statistics.DetectionModel(RATE_BRIGHT, RATE_DARK, LIFETIME, T_DET)
        self.errors = photon_statistics.ErrorRates(EPS_DOWN, EPS_UP)
        self.configs = state_configs(self.model, self.errors, self.shots, derived_seeds(seed, 2))
        self.last = None

    def sizes(self):
        return {"shots_per_state": self.shots, "threads": self.threads, "n_th": N_TH}

    def warm_up(self):
        small = state_configs(self.model, self.errors, 5_000, (c.seed for c in self.configs.values()))
        for state, config in small.items():
            batch = monte_carlo.simulate_traces(state, config, threads=self.threads)
            discrimination.classify_traces(batch, self.model)

    def run_pass(self, checks):
        t0 = time.perf_counter()
        batches = {}
        stage = {}
        for state, config in self.configs.items():
            t = time.perf_counter()
            batches[state] = monte_carlo.simulate_traces(state, config, threads=self.threads)
            stage[state] = time.perf_counter() - t
        t_sim = time.perf_counter()
        down, up = batches[monte_carlo.Prepared.DOWN], batches[monte_carlo.Prepared.UP]
        bright_down = discrimination.classify_traces(down, self.model)
        bright_up = discrimination.classify_traces(up, self.model)
        t_cls = time.perf_counter()
        thr_down = down.counts > N_TH
        thr_up = up.counts > N_TH
        t_end = time.perf_counter()
        self.last = (down, up)
        self._check_pass(checks, down, up, bright_down, bright_up, thr_down, thr_up)
        return {
            "pass_s": t_end - t0,
            "sim_s": t_sim - t0,
            "sim_shots": 2 * self.shots,
            "stages": {
                "classify_s": t_cls - t_sim,
                "classify_traces_per_s": 2 * self.shots / (t_cls - t_sim),
                "threaded_s": stage[monte_carlo.Prepared.DOWN],
            },
            "digest": digest(down.timestamps, down.offsets, up.timestamps, up.offsets, bright_down, bright_up),
        }

    def _check_pass(self, checks, down, up, bright_down, bright_up, thr_down, thr_up):
        for tag, batch in (("down", down), ("up", up)):
            ts, offsets = batch.timestamps, batch.offsets
            checks.expect(f"{tag} trace count", batch.n_shots == self.shots, str(batch.n_shots))
            in_window = ts.size == 0 or (ts.min() >= 0.0 and ts.max() <= T_DET)
            checks.expect(f"{tag} timestamps in [0, t_det]", bool(in_window))
            # diff(ts)[k] compares ts[k+1] with ts[k]; it may drop only where
            # ts[k+1] starts a new trace.
            step_ok = np.diff(ts) >= 0.0
            starts = offsets[1:-1]
            step_ok[starts[(starts > 0) & (starts < ts.size)] - 1] = True
            checks.expect(f"{tag} timestamps sorted within traces", bool(step_ok.all()))
        tr = 0.5 * (np.mean(~bright_down) + np.mean(bright_up))
        thr = 0.5 * (np.mean(~thr_down) + np.mean(thr_up))
        checks.expect(
            "time-resolved error <= threshold error", tr <= thr, f"{tr:.4e} > {thr:.4e}"
        )

    def check_run(self, checks):
        down, up = self.last
        for state, batch in ((monte_carlo.Prepared.DOWN, down), (monte_carlo.Prepared.UP, up)):
            counts = monte_carlo.simulate_counts(state, self.configs[state], threads=self.threads)
            checks.expect(
                f"{state.value} trace counts equal simulate_counts", np.array_equal(counts, batch.counts)
            )
        state = monte_carlo.Prepared.DOWN
        t = time.perf_counter()
        single = monte_carlo.simulate_traces(state, self.configs[state], threads=1)
        single_s = time.perf_counter() - t
        checks.expect(
            "1 thread and nproc threads agree",
            digest(single.timestamps, single.offsets) == digest(down.timestamps, down.offsets),
        )
        return {"single_thread_s": single_s}


class CliWorkload(Workload):
    """The JSON-driven CLI, one ``python -m shelveread.cli`` process per subcommand."""

    name = "cli"
    shots = 20_000
    # Subcommand, extra flags (beyond --config/--out) and the artifacts it writes.
    COMMANDS = (
        ("optimize", (), ("error_surface.csv", "optimum.json")),
        ("simulate", ("threads",), ("hist_down.csv", "hist_up.csv", "traces_down.*", "traces_up.*")),
        ("fit", ("seed",), ("fit.json",)),
        ("tomo", (), ("chi.json", "process.json", "sphere_error.csv")),
        ("budget", (), ("budget_report.json",)),
    )

    def __init__(self, seed, threads, workdir, root):
        super().__init__(seed, threads, workdir, root)
        sim_seed, self.fit_seed = derived_seeds(seed, 2)
        config = {
            "model": {
                "rate_bright_hz": RATE_BRIGHT,
                "rate_dark_hz": RATE_DARK,
                "lifetime_s": LIFETIME,
                "t_det_s": T_DET,
            },
            "errors": {"eps_down_tot": EPS_DOWN, "eps_up_tot": EPS_UP},
            "optimize": {"t_min_us": 50.0, "t_max_us": 600.0, "t_step_us": 5.0, "n_th_max": 30},
            "simulate": {
                "shots": self.shots,
                "seed": sim_seed,
                "decay_time_law": "uniform_first_order",
                "traces": True,
            },
            "fit": {"mode": "joint", "bootstrap": 20, "hist_down": None, "hist_up": None},
            "tomo": {"mode": "process", "null_orthogonal": True, "records": None,
                     "theta_points": 181, "phi_points": 360},
            "budget": {"entries": None},
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.env = src_env(root)

    def sizes(self):
        return {"simulate_shots_per_state": self.shots, "threads": self.threads,
                "fit_bootstrap": 20, "tomo_surface_points": 181 * 360}

    def argv(self, command, flags, out):
        argv = [command, "--config", str(self.config_path), "--out", str(out)]
        if "seed" in flags:
            argv += ["--seed", str(self.fit_seed)]
        if "threads" in flags:
            argv += ["--threads", str(self.threads)]
        return argv

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.argv("budget", (), self.workdir / "warm_up"))

    def _fresh_out(self, tag):
        out = self.workdir / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def run_pass(self, checks):
        out = self._fresh_out("pass")
        stage = {}
        t0 = time.perf_counter()
        for command, flags, _ in self.COMMANDS:
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "shelveread.cli", *self.argv(command, flags, out)],
                env=self.env, cwd=self.root, capture_output=True, text=True, timeout=150,
            )
            stage[command] = time.perf_counter() - t
            checks.expect(f"cli {command} exit status 0", proc.returncode == 0,
                          f"{proc.returncode}: {proc.stderr.strip()[-300:]}")
        t_end = time.perf_counter()
        artifacts = self._check_artifacts(checks, out)
        shutil.rmtree(out, ignore_errors=True)
        return {
            "pass_s": t_end - t0,
            "sim_s": stage["simulate"],
            "sim_shots": 2 * self.shots,
            "stages": {f"{c}_s": s for c, s in stage.items()},
            "digest": artifacts,
        }

    def peak_memory(self, checks):
        """Peak RSS of the CLI processes of the timed passes, in MiB.

        Nothing else runs in those processes, and their peak repeats within
        ~0.2 % between runs; tracing the in-process CLI instead would cost
        a slow pass, since the CSV writer allocates one object per field.
        """
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, None

    def _check_artifacts(self, checks, out) -> str:
        """Checks the artifacts of one pass and returns a digest of them all."""
        missing = [p for _, _, patterns in self.COMMANDS for p in patterns if not list(out.glob(p))]
        checks.expect("cli artifacts exist", not missing, f"missing {missing}")
        try:
            optimum = json.loads((out / "optimum.json").read_text())
            ok = abs(optimum["t_det_us"] - 280.0) < 1e-6 and optimum["n_th"] == 5
            detail = f"t_det_us {optimum['t_det_us']}, n_th {optimum['n_th']}"
        except (OSError, ValueError, KeyError) as exc:
            ok, detail = False, str(exc)
        checks.expect("optimum is 280 us, n_th 5", ok, detail)
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def traced_pass(self, checks, tracer):
        """The same subcommands in-process through ``cli.main(argv)``."""
        out = self._fresh_out("in_process")
        t0 = time.perf_counter()
        for command, flags, _ in self.COMMANDS:
            argv = self.argv(command, flags, out)
            span = tracer.span("cli.main", command=command) if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            checks.expect(f"in-process cli {command} exit status 0", code == 0, str(code))
        t_end = time.perf_counter()
        artifacts = self._check_artifacts(checks, out)
        shutil.rmtree(out, ignore_errors=True)
        return {
            "pass_s": t_end - t0,
            "digest": artifacts,
        }


WORKLOADS = {w.name: w for w in (CountsWorkload, HighDecayWorkload, TracesWorkload, CliWorkload)}
