"""Qubit state and process tomography from projection measurements.

Projection data arrive as per-axis bright/dark counts: each prepared state
is rotated so the requested measurement axis maps onto the detection basis,
then read out by shelving.  The shelved (dark) outcome corresponds to
|up> = Bloch +z, so an axis projection is p = 1 - 2*(bright fraction); a
perfectly prepared |+z> state that never fluoresces gives p_z = +1.

From the Bloch vectors the module reconstructs density matrices, computes
state fidelities against the six cardinal pure states, and performs process
tomography: a least-squares fit of the affine Bloch map over every input
present, turned into the chi matrix in the fixed operator basis {I, sigma_x,
i*sigma_y, sigma_z} by one constant linear map.  The six cardinal states are
a 2-design, so their fitted chi has the six-state average as its sphere
average.  Physicality of the raw chi is reported, not enforced; the
supported correction is nulling the measured Bloch components orthogonal to
each preparation axis before reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._files import (
    _is_int, json_object, read_csv, read_grid_csv, read_json, write_csv, write_grid_csv, write_json
)

__all__ = [
    "PREPARED_LABELS",
    "AXES",
    "BlochVector",
    "DensityMatrix",
    "ChiMatrix",
    "TomographyRecord",
    "pure_state",
    "projections_from_records",
    "reconstruct_state",
    "bloch_from_state",
    "state_fidelity",
    "state_fidelities",
    "average_fidelity",
    "null_orthogonal_projections",
    "chi_from_projections",
    "apply_chi",
    "process_fidelity",
    "trace_preservation_defect",
    "bloch_error_surface",
    "read_records_csv",
    "write_records_csv",
    "write_chi_json",
    "read_chi_json",
    "write_surface_csv",
    "read_surface_csv",
]

PREPARED_LABELS = ("+z", "-z", "+x", "-x", "+y", "-y")
AXES = ("x", "y", "z")
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

_I2 = np.eye(2, dtype=complex)
_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Process-matrix operator basis: {I, sigma_x, i*sigma_y, sigma_z} (all real).
CHI_BASIS_LABELS = ("I", "sigma_x", "i*sigma_y", "sigma_z")
_CHI_BASIS = np.array((_I2, _SIGMA[0], 1j * _SIGMA[1], _SIGMA[2]))
_PAULI = np.array((_I2, *_SIGMA))
# T maps chi to the Pauli transfer matrix R_ij = Tr(sigma_i E(sigma_j))/2, with
# sigma_0 = I: R.ravel() = T @ chi.ravel().  T^dag T = 4 I, so the inverse is T^dag / 4.
_PTM_FROM_CHI = np.einsum(
    "iab,mbc,jcd,nad->ijmn", _PAULI, _CHI_BASIS, _PAULI, _CHI_BASIS.conj()
).reshape(16, 16) / 2


@dataclass(frozen=True)
class BlochVector:
    """Pauli expectation values (p_x, p_y, p_z) of a qubit state."""

    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self) -> None:
        for name in ("p_x", "p_y", "p_z"):
            value = getattr(self, name)
            if not (np.isfinite(value) and -1.0 - 1e-9 <= value <= 1.0 + 1e-9):
                raise ValueError(f"{name} must lie in [-1, 1], got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_x, self.p_y, self.p_z])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    def is_physical(self, tol: float = 1e-9) -> bool:
        return self.norm <= 1.0 + tol


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, unit-trace matrix.

    Positivity is deliberately not enforced: raw tomographic reconstructions
    may have a slightly negative eigenvalue, which downstream consumers
    inspect via ``eigenvalues``/``is_physical``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError("density matrix must have unit trace within 1e-12")
        object.__setattr__(self, "matrix", m)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def is_physical(self, tol: float = 1e-9) -> bool:
        return bool(self.eigenvalues.min() >= -tol)


@dataclass(frozen=True)
class ChiMatrix:
    """4x4 process matrix in the basis {I, sigma_x, i*sigma_y, sigma_z}.

    Hermiticity and trace preservation are hard invariants; positive
    semidefiniteness is only reported (``min_eigenvalue``/``is_physical``)
    because reconstructions from noisy data may violate it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"chi matrix must be 4x4, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("chi matrix must be Hermitian within 1e-12")
        defect = _trace_preservation_defect(m)
        if defect > 1e-9:
            raise ValueError(
                f"chi matrix must be trace-preserving within 1e-9, defect {defect:.3g}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())

    def is_physical(self, tol: float = 1e-9) -> bool:
        return self.min_eigenvalue >= -tol


@dataclass(frozen=True)
class TomographyRecord:
    """One projection measurement: prepared state, axis, and outcome tally."""

    prepared: str
    axis: str
    shots: int
    bright_count: int

    def __post_init__(self) -> None:
        if self.prepared not in PREPARED_LABELS:
            raise ValueError(
                f"prepared must be one of {PREPARED_LABELS}, got {self.prepared!r}"
            )
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        for name in ("shots", "bright_count"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not 0 <= self.bright_count <= self.shots:
            raise ValueError(
                f"bright_count must lie in [0, shots], got {self.bright_count}"
            )


def _axis_of(label: str) -> tuple[int, float]:
    sign = 1.0 if label[0] == "+" else -1.0
    return _AXIS_INDEX[label[1]], sign


def pure_state(label: str) -> DensityMatrix:
    """The ideal pure state for a cardinal preparation label."""
    if label not in PREPARED_LABELS:
        raise ValueError(f"unknown state label {label!r}")
    index, sign = _axis_of(label)
    p = np.zeros(3)
    p[index] = sign
    return reconstruct_state(BlochVector(*p))


# ---------------------------------------------------------------------------
# Projections and states


def _pooled_tallies(records: Iterable[TomographyRecord]) -> dict[tuple[str, str], tuple[int, int]]:
    """(shots, bright count) per (prepared, axis) pair, records sharing a pair pooled."""
    tallies: dict[tuple[str, str], tuple[int, int]] = {}
    for r in records:
        shots, bright = tallies.get((r.prepared, r.axis), (0, 0))
        tallies[r.prepared, r.axis] = (shots + r.shots, bright + r.bright_count)
    return tallies


def projections_from_records(records: Iterable[TomographyRecord]) -> dict[str, BlochVector]:
    """Bloch vectors per prepared state from projection tallies.

    Records sharing a (prepared, axis) pair are pooled.  Every prepared
    state present must come with all three axes; a missing parallel axis is
    named as such.
    """
    return _projections(_pooled_tallies(records))


def _projections(tallies: Mapping[tuple[str, str], tuple[int, int]]) -> dict[str, BlochVector]:
    out: dict[str, BlochVector] = {}
    for label in PREPARED_LABELS:
        measured = {axis: (label, axis) in tallies for axis in AXES}
        if not any(measured.values()):
            continue
        parallel_axis = label[1]
        if not measured[parallel_axis]:
            raise ValueError(
                f"state {label}: parallel axis {parallel_axis!r} was not measured"
            )
        p = np.zeros(3)
        for axis in AXES:
            if not measured[axis]:
                raise ValueError(f"state {label}: axis {axis!r} missing")
            shots, bright = tallies[(label, axis)]
            # Dark (shelved) is the +1 outcome on every mapped axis.
            p[_AXIS_INDEX[axis]] = 1.0 - 2.0 * bright / shots
        out[label] = BlochVector(*p)
    return out


def reconstruct_state(p: BlochVector) -> DensityMatrix:
    """Linear reconstruction rho = (I + p . sigma) / 2, no positivity fix."""
    m = _I2.copy()
    for component, pauli in zip(p.as_array(), _SIGMA):
        m = m + component * pauli
    return DensityMatrix(0.5 * m)


def bloch_from_state(rho: DensityMatrix) -> BlochVector:
    """Pauli expectation values Tr(rho sigma_i); inverse of reconstruction."""
    p = [float(np.trace(rho.matrix @ pauli).real) for pauli in _SIGMA]
    return BlochVector(*p)


def state_fidelity(rho_out: DensityMatrix, psi_in: DensityMatrix) -> float:
    """Overlap <psi|rho_out|psi> with a pure target state."""
    eigs = psi_in.eigenvalues
    if abs(eigs.min()) > 1e-9:
        raise ValueError(
            f"target state must be pure (rank 1 within 1e-9), eigenvalues {eigs}"
        )
    return float(np.trace(rho_out.matrix @ psi_in.matrix).real)


def state_fidelities(projections: Mapping[str, BlochVector]) -> dict[str, float]:
    """Fidelity of each measured state against its ideal preparation."""
    return {
        label: state_fidelity(reconstruct_state(p), pure_state(label))
        for label, p in projections.items()
    }


def average_fidelity(fidelities: Mapping[str, float]) -> float:
    """Arithmetic mean over the six cardinal states; all must be present."""
    missing = [label for label in PREPARED_LABELS if label not in fidelities]
    if missing:
        raise ValueError(f"missing fidelities for states: {missing}")
    return float(np.mean([fidelities[label] for label in PREPARED_LABELS]))


def _average_fidelity_se(tallies: Mapping[tuple[str, str], tuple[int, int]]) -> float:
    """Binomial SE of the six-state average fidelity, ``sqrt(sum q(1 - q)/N) / 6``, over parallel-axis tallies."""
    shots, bright = np.array([tallies[(label, label[1])] for label in PREPARED_LABELS], dtype=float).T
    q = bright / shots
    return float(np.sqrt(np.sum(q * (1.0 - q) / shots))) / len(PREPARED_LABELS)


def null_orthogonal_projections(
    projections: Mapping[str, BlochVector],
) -> dict[str, BlochVector]:
    """Zero each state's Bloch components orthogonal to its preparation axis.

    The parallel component is untouched.  This is the supported physicality
    correction for process reconstruction: orthogonal projections of
    cardinal states carry no signal, only sampling noise.
    """
    out: dict[str, BlochVector] = {}
    for label, p in projections.items():
        if label not in PREPARED_LABELS:
            raise ValueError(f"unknown state label {label!r}")
        index, _ = _axis_of(label)
        kept = np.zeros(3)
        kept[index] = p.as_array()[index]
        out[label] = BlochVector(*kept)
    return out


# ---------------------------------------------------------------------------
# Process tomography


def _trace_preservation_defect(chi: np.ndarray) -> float:
    acc = np.einsum("mn,nba,mbc->ac", chi, _CHI_BASIS.conj(), _CHI_BASIS)
    return float(np.max(np.abs(acc - _I2)))


def trace_preservation_defect(chi: ChiMatrix) -> float:
    """Max deviation of sum_mn chi_mn E_n^dag E_m from the identity."""
    return _trace_preservation_defect(chi.matrix)


def chi_from_projections(projections: Mapping[str, BlochVector]) -> ChiMatrix:
    """Process matrix from the output Bloch vectors of the cardinal inputs.

    Fits p' = lam @ p + shift by least squares over every input present (it
    interpolates four inputs) and maps the Pauli transfer matrix [[1, 0],
    [shift, lam]] to chi.  Fewer than four affinely independent inputs raise.
    """
    labels = [label for label in PREPARED_LABELS if label in projections]
    design = np.zeros((len(labels), 4))
    design[:, 0] = 1.0
    for row, label in zip(design, labels):
        index, sign = _axis_of(label)
        row[1 + index] = sign
    outputs = np.array([projections[label].as_array() for label in labels])
    coef, _, rank, _ = np.linalg.lstsq(design, outputs, rcond=None)
    if rank < 4:
        raise ValueError(
            f"input states {labels} do not determine the process: "
            "need four affinely independent cardinal inputs"
        )
    ptm = np.eye(4)
    ptm[1:] = coef.T  # columns: shift, then lam
    chi = (_PTM_FROM_CHI.conj().T @ ptm.ravel()).reshape(4, 4) / 4
    chi = 0.5 * (chi + chi.conj().T)  # discard round-off asymmetry
    return ChiMatrix(chi)


def apply_chi(chi: ChiMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Forward action sum_mn chi_mn E_m rho E_n^dag."""
    acc = np.einsum("mn,mab,bc,ndc->ad", chi.matrix, _CHI_BASIS, rho.matrix, _CHI_BASIS.conj())
    acc = 0.5 * (acc + acc.conj().T)
    return DensityMatrix(acc)


def process_fidelity(chi: ChiMatrix) -> float:
    """Overlap with the ideal identity process: Re(chi[0, 0])."""
    return float(chi.matrix[0, 0].real)


def _affine_from_chi(chi: ChiMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Bloch-sphere affine form of the channel: p -> lam @ p + shift.

    Both come from the Pauli transfer matrix R_ij = Tr(sigma_i E(sigma_j))/2,
    with sigma_0 = I: lam = R[1:, 1:] and shift = R[1:, 0].
    """
    ptm = (_PTM_FROM_CHI @ chi.matrix.ravel()).real.reshape(4, 4)
    return ptm[1:, 1:], ptm[1:, 0]


def bloch_error_surface(
    chi: ChiMatrix,
    theta_deg: np.ndarray | None = None,
    phi_deg: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detection error of every pure state on a polar/azimuthal grid.

    The state at (theta, phi) is cos(theta/2)|up> + e^{i phi} sin(theta/2)
    |down>; the error is 1 - <psi| chi(|psi><psi|) |psi>.  Defaults to a
    1-degree grid (181 polar x 360 azimuthal).  Returns (theta_deg,
    phi_deg, error) with error shaped (len(theta), len(phi)).
    """
    theta_deg = (
        np.linspace(0.0, 180.0, 181) if theta_deg is None else np.asarray(theta_deg, float)
    )
    phi_deg = (
        np.arange(0.0, 360.0) if phi_deg is None else np.asarray(phi_deg, float)
    )
    if theta_deg.size == 0 or phi_deg.size == 0:
        raise ValueError("angle grids must be nonempty")

    lam, center = _affine_from_chi(chi)
    theta = np.deg2rad(theta_deg)[:, None]
    phi = np.deg2rad(phi_deg)[None, :]
    # Bloch vector of cos(t/2)|up> + e^{i p} sin(t/2)|down>, with |up> at +z.
    rx = np.sin(theta) * np.cos(phi)
    ry = np.sin(theta) * np.sin(phi)
    rz = np.cos(theta) * np.ones_like(phi)
    r = np.stack([rx, ry, rz], axis=-1)
    mapped = r @ lam.T + center
    fidelity = 0.5 * (1.0 + np.einsum("tpi,tpi->tp", r, mapped))
    return theta_deg, phi_deg, 1.0 - fidelity


# ---------------------------------------------------------------------------
# File formats

_RECORDS_HEADER = ("prepared", "axis", "shots", "bright_count")
_SURFACE_HEADER = ("theta_deg", "phi_deg", "error")


def write_records_csv(
    records: Iterable[TomographyRecord], path, metadata: dict | None = None
) -> None:
    rows = ((r.prepared, r.axis, r.shots, r.bright_count) for r in records)
    write_csv(path, _RECORDS_HEADER, rows, metadata)


def read_records_csv(path) -> list[TomographyRecord]:
    def record(row: list[str]) -> TomographyRecord:
        prepared, axis, shots, bright = row
        return TomographyRecord(prepared, axis, int(shots), int(bright))

    return read_csv(path, _RECORDS_HEADER, record)


def write_chi_json(chi: ChiMatrix, path, metadata: dict | None = None) -> None:
    payload = {
        "basis": list(CHI_BASIS_LABELS),
        "real": chi.matrix.real.tolist(),
        "imag": chi.matrix.imag.tolist(),
    }
    write_json(path, payload, metadata)


def read_chi_json(path) -> ChiMatrix:
    try:
        payload = json_object(read_json(path), ("basis", "real", "imag"))
        if tuple(payload["basis"]) != CHI_BASIS_LABELS:
            raise ValueError(f"unexpected operator basis {payload['basis']}")
        return ChiMatrix(np.array(payload["real"]) + 1j * np.array(payload["imag"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_surface_csv(theta_deg, phi_deg, error, path, metadata: dict | None = None) -> None:
    write_grid_csv(path, _SURFACE_HEADER, theta_deg, phi_deg, error, metadata)


def read_surface_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return read_grid_csv(path, _SURFACE_HEADER)
