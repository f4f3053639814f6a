"""Electron-shelving readout toolkit for two-level qubits.

Models photon-count statistics of fluorescence detection with a shelved
dark state, optimizes the detection window and photon threshold, simulates
shot-by-shot photon records with a counter-based RNG, fits measured
histograms by maximum likelihood, runs state and process tomography on
projection data, and composes multi-pulse error budgets.  The ``shelveread``
command-line tool drives all of it from a single JSON config.
"""

from .photon_statistics import (
    CountPMF,
    DetectionModel,
    ErrorRates,
    ZERO_ERRORS,
    bright_pdf,
    dark_pdf,
    observed_pdf_down,
    observed_pdf_up,
    poisson_pmf,
)
from .discrimination import (
    ErrorReport,
    OptimizationGrid,
    OptimizationResult,
    State,
    ThresholdPolicy,
    classify,
    classify_time_resolved,
    classify_traces,
    mean_error,
    optimize,
)
from .monte_carlo import (
    CountHistogram,
    DecayTimeLaw,
    PhotonTrace,
    Prepared,
    SimConfig,
    TraceBatch,
    simulate_counts,
    simulate_histogram,
    simulate_shot,
    simulate_traces,
)
from .mle_fit import FitResult, ReadoutParams, fit, log_likelihood
from .tomography import (
    BlochVector,
    ChiMatrix,
    DensityMatrix,
    TomographyRecord,
    apply_chi,
    average_fidelity,
    bloch_error_surface,
    null_orthogonal_projections,
    process_fidelity,
    projections_from_records,
    pure_state,
    reconstruct_chi,
    reconstruct_state,
    state_fidelities,
    state_fidelity,
)
from .error_budget import BudgetEntry, BudgetReport, PulseGroup, combine

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # photon statistics
    "CountPMF",
    "DetectionModel",
    "ErrorRates",
    "ZERO_ERRORS",
    "bright_pdf",
    "dark_pdf",
    "observed_pdf_down",
    "observed_pdf_up",
    "poisson_pmf",
    # discrimination
    "ErrorReport",
    "OptimizationGrid",
    "OptimizationResult",
    "State",
    "ThresholdPolicy",
    "classify",
    "classify_time_resolved",
    "classify_traces",
    "mean_error",
    "optimize",
    # monte carlo
    "CountHistogram",
    "DecayTimeLaw",
    "PhotonTrace",
    "Prepared",
    "SimConfig",
    "TraceBatch",
    "simulate_counts",
    "simulate_histogram",
    "simulate_shot",
    "simulate_traces",
    # fitting
    "FitResult",
    "ReadoutParams",
    "fit",
    "log_likelihood",
    # tomography
    "BlochVector",
    "ChiMatrix",
    "DensityMatrix",
    "TomographyRecord",
    "apply_chi",
    "average_fidelity",
    "bloch_error_surface",
    "null_orthogonal_projections",
    "process_fidelity",
    "projections_from_records",
    "pure_state",
    "reconstruct_chi",
    "reconstruct_state",
    "state_fidelities",
    "state_fidelity",
    # error budget
    "BudgetEntry",
    "BudgetReport",
    "PulseGroup",
    "combine",
]
