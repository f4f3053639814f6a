"""Electron-shelving readout toolkit for two-level qubits.

Models photon-count statistics of fluorescence detection with a shelved
dark state, optimizes the detection window and photon threshold, simulates
shot-by-shot photon records with a counter-based RNG, fits measured
histograms by maximum likelihood, runs state and process tomography on
projection data, and composes multi-pulse error budgets.  The ``shelveread``
command-line tool drives all of it from a single JSON config.

Importing the package loads no submodule: each public name below is
imported from its submodule on first access (PEP 562), so a process pays
only for the modules it uses.  Start-up is most of a short subcommand:
importing every submodule up front made a ``tomo`` or ``budget`` process
about 60 ms slower, 0.24 -> 0.30 s median of 15 runs on 2 cores.
"""

import importlib

__version__ = "0.1.0"

# Names the sampler's random-stream layout (see ``monte_carlo``).  Every CLI
# artifact records it next to the version; change it whenever any shot's
# values change.
RNG_STREAM = "philox4x64-10/shot-group/4"

# public name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "photon_statistics": """CountPMF DetectionModel ErrorRates ZERO_ERRORS bright_pdf
            dark_pdf observed_pdf_down observed_pdf_up poisson_pmf""",
        "discrimination": """ErrorReport OptimizationGrid OptimizationResult State
            classify classify_time_resolved classify_traces mean_error optimize""",
        "monte_carlo": """CountHistogram DecayTimeLaw PhotonTrace Prepared SimConfig
            TraceBatch simulate_counts simulate_histogram simulate_shot simulate_traces""",
        "mle_fit": "FitResult ReadoutParams fit log_likelihood",
        "tomography": """BlochVector ChiMatrix DensityMatrix TomographyRecord apply_chi
            average_fidelity bloch_error_surface chi_from_projections
            null_orthogonal_projections process_fidelity projections_from_records pure_state
            reconstruct_state state_fidelities state_fidelity""",
        "error_budget": "BudgetEntry BudgetReport PulseGroup combine",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", "RNG_STREAM", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
