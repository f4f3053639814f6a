"""Release gate: every shipped capability checked end to end.

Each test prints one ``criterion N: PASS/FAIL - ...`` line (run with
``pytest -s`` to see them) and then asserts, so a red criterion names
itself in both the output and the failure.
"""

from __future__ import annotations

import json
import math
import time
from importlib import resources

import numpy as np
import pytest
from scipy import integrate

from shelveread import DetectionModel, ErrorRates, Prepared, SimConfig
from shelveread.cli import main
from shelveread.discrimination import classify_traces
from shelveread.error_budget import combine, read_budget_json
from shelveread.mle_fit import fit
from shelveread.monte_carlo import (
    DecayTimeLaw,
    simulate_counts,
    simulate_histogram,
    simulate_traces,
)
from shelveread.photon_statistics import (
    ZERO_ERRORS,
    bright_pdf,
    dark_pdf,
    observed_pdf_down,
    observed_pdf_up,
)
from shelveread.photon_statistics import _readout_pmfs
from shelveread.tomography import (
    BlochVector,
    average_fidelity,
    bloch_from_state,
    chi_from_projections,
    null_orthogonal_projections,
    process_fidelity,
    projections_from_records,
    read_chi_json,
    read_records_csv,
    reconstruct_state,
    state_fidelities,
    trace_preservation_defect,
    write_chi_json,
)

TRUTH = {
    "mean_bright": 73.5e3 * 280e-6,
    "mean_dark": 1.75e3 * 280e-6,
    "eps_down_tot": 6e-4,
    "eps_up_tot": 10e-4,
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def count_ensembles(optimum_model, measured_errors):
    """Timed count-mode ensembles at the optimum, threshold-classified."""
    shots = 300_000
    start = time.perf_counter()
    hist_down = simulate_histogram(
        Prepared.DOWN,
        SimConfig(model=optimum_model, errors=measured_errors, shots=shots, seed=42),
        threads=4,
    )
    hist_up = simulate_histogram(
        Prepared.UP,
        SimConfig(model=optimum_model, errors=measured_errors, shots=shots, seed=43),
        threads=4,
    )
    eps_down = hist_down.counts_per_bin[:6].sum() / shots
    eps_up = hist_up.counts_per_bin[6:].sum() / shots
    elapsed = time.perf_counter() - start
    return {
        "hist_down": hist_down,
        "hist_up": hist_up,
        "shots": shots,
        "eps_down": eps_down,
        "eps_up": eps_up,
        "mean": 0.5 * (eps_down + eps_up),
        "seconds": elapsed,
    }


@pytest.fixture(scope="module")
def bundled_projections():
    path = resources.files("shelveread").joinpath("data/tomography_records.csv")
    return projections_from_records(read_records_csv(str(path)))


def test_criterion_1_grid_optimum(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["optimize", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    optimum = json.loads((tmp_path / "optimum.json").read_text())
    t_us, n_th, eps = optimum["t_det_us"], optimum["n_th"], optimum["eps_mean"]
    ok = (
        code == 0
        and abs(t_us - 280.0) <= 5.0 + 1e-9  # within one 5 us grid step
        and n_th == 5
        and abs(eps - 2.9e-4) <= 0.1e-4
        and elapsed < 5.0
    )
    _report(1, ok, f"t_det {t_us:g} us, n_th {n_th}, eps {eps:.4e}, {elapsed:.2f} s")


def test_criterion_2_simulated_threshold_error(count_ensembles):
    c = count_ensembles
    shots, eps_down, eps_up, mean = c["shots"], c["eps_down"], c["eps_up"], c["mean"]
    # 95% binomial interval around the measured mean of two proportions
    sigma = 0.5 * np.sqrt(
        eps_down * (1 - eps_down) / shots + eps_up * (1 - eps_up) / shots
    )
    detection = mean - 8e-4  # injected preparation errors average 8e-4
    ok = (
        abs(mean - 11e-4) <= 1.96 * sigma
        and abs(detection - 3e-4) <= 1e-4
        and c["seconds"] < 60.0
    )
    _report(
        2,
        ok,
        f"mean error {mean:.3e} (11e-4 within {1.96 * sigma:.2e}), "
        f"detection-only {detection:.2e}, {c['seconds']:.2f} s",
    )


def test_criterion_3_mle_recovery(count_ensembles):
    result = fit(
        count_ensembles["hist_down"], count_ensembles["hist_up"], 280e-6, 0.390
    )
    z = {
        name: (getattr(result, name) - truth) / result.std_errors[name]
        for name, truth in TRUTH.items()
    }
    eps_ses = [result.std_errors["eps_down_tot"], result.std_errors["eps_up_tot"]]
    ok = (
        result.converged
        and all(abs(v) <= 3.0 for v in z.values())
        and all(0.2e-4 <= se <= 2.5e-4 for se in eps_ses)
    )
    worst = max(z, key=lambda k: abs(z[k]))
    _report(
        3,
        ok,
        f"worst |z| {abs(z[worst]):.2f} ({worst}), "
        f"eps SEs {eps_ses[0]:.2e}/{eps_ses[1]:.2e}",
    )


def test_criterion_4_sampler_matches_closed_form(measured_model):
    config = SimConfig(
        model=measured_model,
        errors=ZERO_ERRORS,
        shots=10_000_000,
        seed=7,
        decay_time_law=DecayTimeLaw.UNIFORM_FIRST_ORDER,
    )
    hist = simulate_histogram(Prepared.UP, config, threads=4)
    pmf = dark_pdf(measured_model).probs
    empirical = hist.counts_per_bin / hist.total_shots
    width = max(pmf.size, empirical.size)
    gap = np.pad(pmf, (0, width - pmf.size)) - np.pad(
        empirical, (0, width - empirical.size)
    )
    tv = 0.5 * np.abs(gap).sum() + 0.5 * (1.0 - pmf.sum())
    ok = tv <= 2e-3
    _report(4, ok, f"total variation {tv:.2e} at 1e7 shots")


def test_criterion_5_state_fidelities(bundled_projections):
    reference = {
        "+z": 0.9984,
        "-z": 0.9988,
        "+x": 0.9974,
        "-x": 0.9979,
        "+y": 0.9974,
        "-y": 0.9979,
    }
    fidelities = state_fidelities(bundled_projections)
    average = average_fidelity(fidelities)
    gaps = {k: abs(fidelities[k] - v) for k, v in reference.items()}
    ok = all(g <= 1e-4 for g in gaps.values()) and abs(average - 0.9979) <= 1e-4
    worst = max(gaps, key=gaps.get)
    _report(
        5,
        ok,
        f"average {average:.6f}, worst state gap {gaps[worst]:.1e} ({worst})",
    )


def test_criterion_6_process_reconstruction(bundled_projections):
    chi = chi_from_projections(null_orthogonal_projections(bundled_projections))
    m = chi.matrix
    hermitian = np.abs(m - m.conj().T).max()
    tp = trace_preservation_defect(chi)
    min_eig = np.linalg.eigvalsh(m).min()
    off_diag = np.abs(m).max(initial=0.0, where=~np.eye(4, dtype=bool))
    f_proc = process_fidelity(chi)

    identity = {
        "+z": BlochVector(0, 0, 1),
        "-z": BlochVector(0, 0, -1),
        "+x": BlochVector(1, 0, 0),
        "-x": BlochVector(-1, 0, 0),
        "+y": BlochVector(0, 1, 0),
        "-y": BlochVector(0, -1, 0),
    }
    chi_id = chi_from_projections(identity).matrix
    id_gap = np.abs(chi_id - np.diag([1.0, 0.0, 0.0, 0.0])).max()

    lam = 0.12
    depolarized = {
        label: BlochVector(*((1.0 - lam) * p.as_array()))
        for label, p in identity.items()
    }
    chi_dep = chi_from_projections(depolarized).matrix
    dep_gap = np.abs(
        chi_dep - np.diag([1.0 - 0.75 * lam, 0.25 * lam, 0.25 * lam, 0.25 * lam])
    ).max()

    ok = (
        hermitian <= 1e-12
        and tp <= 1e-9
        and min_eig >= -1e-12
        and m[0, 0].real > off_diag
        and abs(f_proc - 0.997) <= 1e-3
        and id_gap <= 1e-9
        and dep_gap <= 1e-9
    )
    _report(
        6,
        ok,
        f"F_proc {f_proc:.6f}, TP defect {tp:.1e}, min eig {min_eig:.1e}, "
        f"closed-form gaps {id_gap:.1e}/{dep_gap:.1e}",
    )


def test_criterion_7_error_budget():
    path = resources.files("shelveread").joinpath("data/shelving_budget.json")
    budgets = read_budget_json(str(path))
    down = combine(budgets["down"])
    up = combine(budgets["up"])
    ok = (
        abs(down.shelving_total - 3e-4) <= 1e-9
        and 2.3e-4 <= up.shelving_total <= 2.5e-4
        and abs(down.overall - 4.5e-4) <= 1e-9
        and abs(up.overall - 4e-4) <= 0.3e-4
    )
    _report(
        7,
        ok,
        f"shelving down {down.shelving_total:.3e} / up {up.shelving_total:.3e}, "
        f"overall down {down.overall:.3e} / up {up.overall:.3e}",
    )


def test_criterion_8_arrival_times_beat_threshold(
    big_ensembles, optimum_model, count_ensembles
):
    bright_down = classify_traces(big_ensembles["down"], optimum_model)
    bright_up = classify_traces(big_ensembles["up"], optimum_model)
    tr_mean = 0.5 * (np.mean(~bright_down) + np.mean(bright_up))
    thr_mean = count_ensembles["mean"]
    detection = tr_mean - 8e-4
    ok = tr_mean <= thr_mean and 0.5e-4 <= detection <= 3.5e-4
    _report(
        8,
        ok,
        f"arrival-time mean error {tr_mean:.3e} vs threshold {thr_mean:.3e}, "
        f"detection-only {detection:.2e} (~2e-4)",
    )


def test_criterion_9_invariant_battery(
    measured_model, optimum_model, measured_errors, tmp_path
):
    # Count PMFs carry all their mass on the truncated support.
    norm_gap = max(
        abs(pdf.total() - 1.0)
        for model in (measured_model, optimum_model)
        for pdf in (
            bright_pdf(model),
            dark_pdf(model),
            observed_pdf_down(model, measured_errors),
            observed_pdf_up(model, measured_errors),
        )
    )

    # In-window decay mixture against direct quadrature over the line of means.
    mixture_gap = 0.0
    means = (0.49875, 5.0, 20.9475)
    for mean_bright in means:
        for mean_dark in (m for m in means if m < mean_bright):
            gap = mean_bright - mean_dark
            g = _readout_pmfs(np.arange(21), mean_bright, mean_dark, 0.0, 0.0, 1.0)[1]  # f = 1: the mixture
            for n in (0, 6, 20):
                numeric = integrate.quad(
                    lambda mu: mu**n * math.exp(-mu) / math.factorial(n),
                    mean_dark, mean_bright, epsabs=1e-14,
                )[0] / gap
                mixture_gap = max(mixture_gap, abs(g[n] - numeric))

    rng = np.random.default_rng(9)
    bloch_gap = 0.0
    for _ in range(100):
        p = rng.normal(size=3)
        p *= rng.random() / np.linalg.norm(p)
        back = bloch_from_state(reconstruct_state(BlochVector(*p))).as_array()
        bloch_gap = max(bloch_gap, np.abs(back - p).max())

    lam = 0.3
    chi = chi_from_projections(
        {
            "+z": BlochVector(0, 0, 1 - lam),
            "-z": BlochVector(0, 0, lam - 1),
            "+x": BlochVector(1 - lam, 0, 0),
            "-x": BlochVector(lam - 1, 0, 0),
            "+y": BlochVector(0, 1 - lam, 0),
            "-y": BlochVector(0, lam - 1, 0),
        }
    )
    chi_path = tmp_path / "chi.json"
    write_chi_json(chi, chi_path)
    chi_gap = np.abs(read_chi_json(chi_path).matrix - chi.matrix).max()

    config = SimConfig(
        model=optimum_model, errors=measured_errors, shots=2000, seed=5
    )
    counts_equal = np.array_equal(
        simulate_counts(Prepared.DOWN, config, threads=1),
        simulate_counts(Prepared.DOWN, config, threads=4),
    )
    t1 = simulate_traces(Prepared.UP, config, threads=1)
    t4 = simulate_traces(Prepared.UP, config, threads=4)
    traces_equal = np.array_equal(t1.timestamps, t4.timestamps) and np.array_equal(
        t1.offsets, t4.offsets
    )

    ok = (
        norm_gap <= 1e-9
        and mixture_gap <= 1e-10
        and bloch_gap <= 1e-12
        and chi_gap <= 1e-9
        and counts_equal
        and traces_equal
    )
    _report(
        9,
        ok,
        f"PMF norm {norm_gap:.1e}, decay mixture {mixture_gap:.1e}, Bloch {bloch_gap:.1e}, "
        f"chi {chi_gap:.1e}, thread-count invariance {counts_equal and traces_equal}",
    )
