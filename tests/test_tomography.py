"""State/process reconstruction from projection tallies."""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

from shelveread.tomography import (
    AXES,
    CHI_BASIS_LABELS,
    PREPARED_LABELS,
    BlochVector,
    ChiMatrix,
    DensityMatrix,
    TomographyRecord,
    _affine_from_chi,
    _average_fidelity_se,
    _pooled_tallies,
    apply_chi,
    average_fidelity,
    bloch_error_surface,
    bloch_from_state,
    chi_from_projections,
    null_orthogonal_projections,
    process_fidelity,
    projections_from_records,
    pure_state,
    read_chi_json,
    read_records_csv,
    read_surface_csv,
    reconstruct_state,
    state_fidelities,
    state_fidelity,
    trace_preservation_defect,
    write_chi_json,
    write_records_csv,
    write_surface_csv,
)

REFERENCE_FIDELITIES = {
    "+z": 0.99835,
    "-z": 0.99875,
    "+x": 0.9974,
    "-x": 0.99785,
    "+y": 0.9974,
    "-y": 0.99785,
}


@pytest.fixture(scope="module")
def bundled_records():
    path = resources.files("shelveread").joinpath("data/tomography_records.csv")
    return read_records_csv(str(path))


def _ideal_records(depolarization: float = 0.0, shots: int = 10**6):
    """Exact tallies for the channel p -> (1 - depolarization) p."""
    records = []
    for label in PREPARED_LABELS:
        sign = 1.0 if label[0] == "+" else -1.0
        for axis in AXES:
            p = sign * (1.0 - depolarization) if axis == label[1] else 0.0
            bright = round(shots * (1.0 - p) / 2.0)
            records.append(TomographyRecord(label, axis, shots, bright))
    return records


# ---------------------------------------------------------------------------
# Projections and state fidelities


def test_bundled_records_fidelities(bundled_records):
    projections = projections_from_records(bundled_records)
    fidelities = state_fidelities(projections)
    for label, expected in REFERENCE_FIDELITIES.items():
        assert fidelities[label] == pytest.approx(expected, abs=1e-12), label
    assert average_fidelity(fidelities) == pytest.approx(0.9979333333333333, abs=1e-12)


def _with_orthogonal_axes(records):
    # the other two axes of each record's state, measured at p = 0
    label = records[0].prepared
    return records + [TomographyRecord(label, axis, 2, 1) for axis in AXES if axis != label[1]]


def test_projection_sign_convention():
    # all shots bright -> fully fluorescing -> spin-down -> p = -1
    records = _with_orthogonal_axes([TomographyRecord("+z", "z", 1000, 1000)])
    p = projections_from_records(records)["+z"]
    assert p.as_array()[2] == -1.0
    records = _with_orthogonal_axes([TomographyRecord("+z", "z", 1000, 0)])
    p = projections_from_records(records)["+z"]
    assert p.as_array()[2] == 1.0


def test_records_pool_by_key():
    records = _with_orthogonal_axes([
        TomographyRecord("+x", "x", 600, 30),
        TomographyRecord("+x", "x", 400, 10),
    ])
    p = projections_from_records(records)["+x"]
    assert p.as_array()[0] == pytest.approx(1.0 - 2.0 * 40 / 1000, abs=1e-15)


def test_missing_axes():
    records = [TomographyRecord("+z", "x", 100, 50)]
    with pytest.raises(ValueError, match="parallel axis"):
        projections_from_records(records)
    records = [TomographyRecord("+z", "z", 100, 1)]
    with pytest.raises(ValueError, match="missing"):
        projections_from_records(records)


def test_projection_sampling_recovers_truth():
    rng = np.random.default_rng(30)
    p_true = np.array([0.3, -0.2, 0.8])
    shots = 100_000
    records = []
    for axis, value in zip(AXES, p_true):
        bright = int(rng.binomial(shots, (1.0 - value) / 2.0))
        records.append(TomographyRecord("+z", axis, shots, bright))
    p_est = projections_from_records(records)["+z"].as_array()
    for i in range(3):
        pb = (1.0 - p_true[i]) / 2.0
        sigma = 2.0 * np.sqrt(pb * (1.0 - pb) / shots)
        assert abs(p_est[i] - p_true[i]) < 5 * sigma


def test_axis_relabeling_permutes_components():
    rng = np.random.default_rng(4)
    counts = {axis: int(rng.integers(100, 900)) for axis in AXES}
    base = [TomographyRecord("+z", axis, 1000, counts[axis]) for axis in AXES]
    cycle = {"x": "y", "y": "z", "z": "x"}
    moved = [
        TomographyRecord("+x", cycle[r.axis], r.shots, r.bright_count) for r in base
    ]
    p_base = projections_from_records(base)["+z"].as_array()
    p_moved = projections_from_records(moved)["+x"].as_array()
    index = {"x": 0, "y": 1, "z": 2}
    for axis in AXES:
        assert p_moved[index[cycle[axis]]] == p_base[index[axis]]


def test_reconstruct_state_and_bloch_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = rng.uniform(-1, 1, 3)
        p *= rng.uniform(0, 1) / max(1.0, np.linalg.norm(p))
        rho = reconstruct_state(BlochVector(*p))
        assert float(np.trace(rho.matrix).real) == pytest.approx(1.0, abs=1e-12)
        back = bloch_from_state(rho).as_array()
        np.testing.assert_allclose(back, p, atol=1e-12)


def test_state_fidelity_requires_pure_target():
    mixed = DensityMatrix(0.5 * np.eye(2))
    with pytest.raises(ValueError, match="pure"):
        state_fidelity(mixed, mixed)
    assert state_fidelity(mixed, pure_state("+z")) == pytest.approx(0.5)


def test_average_fidelity_se_reads_pooled_parallel_tallies(bundled_records):
    # Splitting every record in two and changing every orthogonal tally
    # leaves the SE as it is: it reads the pooled parallel-axis tallies only.
    split = []
    for r in bundled_records:
        bright = r.bright_count if r.axis == r.prepared[1] else 0
        split.append(TomographyRecord(r.prepared, r.axis, r.shots // 2, bright // 2))
        split.append(TomographyRecord(r.prepared, r.axis, r.shots - r.shots // 2, bright - bright // 2))
    tallies = _pooled_tallies(split)
    assert {key: tallies[key] for key in tallies if key[1] == key[0][1]} == {
        key: value for key, value in _pooled_tallies(bundled_records).items() if key[1] == key[0][1]
    }
    expected = _average_fidelity_se(_pooled_tallies(bundled_records))
    assert _average_fidelity_se(tallies) == expected
    assert expected == pytest.approx(4.1454e-5, rel=1e-4)


def test_average_fidelity_requires_all_states():
    with pytest.raises(ValueError, match="missing"):
        average_fidelity({"+z": 1.0})


# ---------------------------------------------------------------------------
# Process reconstruction


def test_identity_process():
    projections = projections_from_records(_ideal_records())
    chi = chi_from_projections(projections)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(chi.matrix, expected, atol=1e-12)
    assert process_fidelity(chi) == pytest.approx(1.0, abs=1e-12)
    assert trace_preservation_defect(chi) < 1e-12
    assert chi.is_physical()


def test_depolarizing_process():
    lam = 0.02  # p -> (1 - lam) p means depolarizing strength lam
    projections = projections_from_records(_ideal_records(depolarization=lam))
    chi = chi_from_projections(projections)
    expected = np.diag([1.0 - 0.75 * lam, 0.25 * lam, 0.25 * lam, 0.25 * lam])
    np.testing.assert_allclose(chi.matrix, expected, atol=1e-9)
    theta, phi, error = bloch_error_surface(chi, np.linspace(0, 180, 7), np.arange(0, 360, 45))
    np.testing.assert_allclose(error, lam / 2.0, atol=1e-9)


def test_chi_forward_consistency(bundled_records):
    # four inputs: the process interpolates, so it reproduces each output
    projections = null_orthogonal_projections(projections_from_records(bundled_records))
    four = {label: projections[label] for label in ("+z", "-z", "+x", "+y")}
    chi = chi_from_projections(four)
    for label, p in four.items():
        rho_out = apply_chi(chi, pure_state(label))
        np.testing.assert_allclose(bloch_from_state(rho_out).as_array(), p.as_array(), atol=1e-9)

    # six inputs are fitted: the residuals are orthogonal to the design [1, p]
    chi = chi_from_projections(projections)
    design = np.array([[1.0, *bloch_from_state(pure_state(label)).as_array()]
                       for label in PREPARED_LABELS])
    residuals = np.array([
        projections[label].as_array()
        - bloch_from_state(apply_chi(chi, pure_state(label))).as_array()
        for label in PREPARED_LABELS
    ])
    assert np.abs(residuals).max() > 1e-5  # the six outputs are not exactly affine
    np.testing.assert_allclose(design.T @ residuals, 0.0, atol=1e-9)


def test_nulled_chi_is_physical(bundled_records):
    projections = projections_from_records(bundled_records)
    raw_chi = chi_from_projections(projections)
    assert raw_chi.min_eigenvalue < -1e-3
    assert not raw_chi.is_physical()

    nulled = null_orthogonal_projections(projections)
    chi = chi_from_projections(nulled)
    assert chi.is_physical()
    assert chi.min_eigenvalue > 1e-4
    assert trace_preservation_defect(chi) < 1e-9
    assert process_fidelity(chi) == pytest.approx(0.9969, abs=1e-9)
    # chi is diagonal-dominant: identity term carries nearly all the weight
    assert chi.matrix[0, 0].real > 100 * np.abs(chi.matrix).max(
        initial=0.0, where=~np.eye(4, dtype=bool)
    )


def test_null_orthogonal_keeps_parallel():
    p = {"+x": BlochVector(0.98, 0.01, -0.02)}
    nulled = null_orthogonal_projections(p)["+x"]
    np.testing.assert_array_equal(nulled.as_array(), [0.98, 0.0, 0.0])


@pytest.mark.parametrize(
    "labels",
    [("+z",), ("+x", "-x", "+y", "-y"), ("+z", "-z", "+x"), ("+z", "-z", "+x", "-x")],
    ids="".join,
)
def test_chi_from_projections_missing_input(labels):
    # inputs that do not determine the affine map: a one-line error naming them
    projections = {label: bloch_from_state(pure_state(label)) for label in labels}
    with pytest.raises(ValueError) as info:
        chi_from_projections(projections)
    message = str(info.value)
    assert message.startswith(f"input states {list(labels)} do not determine the process")
    assert "\n" not in message


_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# E_m of the chi basis {I, sigma_x, i*sigma_y, sigma_z}, built here from the labels
_BASIS = (_PAULI[0], _PAULI[1], 1j * _PAULI[2], _PAULI[3])


def _rotation(angle, axis):
    n = np.asarray(axis, float) / np.linalg.norm(axis)
    generator = sum(c * pauli for c, pauli in zip(n, _PAULI[1:]))
    return np.cos(angle / 2) * _PAULI[0] - 1j * np.sin(angle / 2) * generator


_ROTATION = [_rotation(0.7, (0.3, -0.5, 0.8))]
_DAMPING = [np.diag([1.0, np.sqrt(0.8)]), np.sqrt(0.2) * np.array([[0.0, 1.0], [0.0, 0.0]])]
KRAUS_CHANNELS = {
    "rotation": _ROTATION,
    "damping": _DAMPING,
    "damping_then_rotation": [_ROTATION[0] @ k for k in _DAMPING],
}


def _kraus_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def _kraus_chi(kraus):
    """chi = sum_k a_k a_k^dag with K_k = sum_m a_km E_m, a_km = Tr(E_m^dag K_k)/2."""
    chi = np.zeros((4, 4), dtype=complex)
    for k in kraus:
        a = np.array([np.trace(e.conj().T @ k) / 2 for e in _BASIS])
        chi += np.outer(a, a.conj())
    return chi


_FOUR_INPUTS = ("+z", "-z", "+x", "+y")
_INPUT_SETS = {"five": ("+z", "-z", "+x", "-x", "-y"), "six": PREPARED_LABELS}


def _exact_chi(kraus, inputs=_FOUR_INPUTS):
    outputs = {
        label: bloch_from_state(DensityMatrix(_kraus_apply(kraus, pure_state(label).matrix)))
        for label in inputs
    }
    return chi_from_projections(outputs)


@pytest.mark.parametrize(
    "name,inputs",
    [pytest.param(name, _FOUR_INPUTS, id=name) for name in sorted(KRAUS_CHANNELS)]
    + [
        pytest.param(name, inputs, id=f"{name}-{key}")
        for key, inputs in _INPUT_SETS.items()
        for name in sorted(KRAUS_CHANNELS)
    ],
)
def test_chi_matches_kraus_oracle(name, inputs):
    # complex, off-diagonal chi: a conjugated or transposed basis change fails here
    kraus = KRAUS_CHANNELS[name]
    chi = _exact_chi(kraus, inputs)
    np.testing.assert_allclose(chi.matrix, _kraus_chi(kraus), rtol=0, atol=1e-12)
    assert trace_preservation_defect(chi) < 1e-12

    rho = reconstruct_state(BlochVector(0.3, -0.4, 0.5))
    np.testing.assert_allclose(
        apply_chi(chi, rho).matrix, _kraus_apply(kraus, rho.matrix), rtol=0, atol=1e-12
    )
    # the error surface carries the channel's shift (damping) and rotation
    theta, phi, error = bloch_error_surface(chi, np.array([0, 60, 180]), np.array([0, 100]))
    for i, t in enumerate(np.deg2rad(theta)):
        for j, f in enumerate(np.deg2rad(phi)):
            psi = np.array([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)])
            out = _kraus_apply(kraus, np.outer(psi, psi.conj()))
            assert error[i, j] == pytest.approx(1.0 - (psi.conj() @ out @ psi).real, abs=1e-12)


def test_six_state_mean_fidelity_is_trace_of_affine_map(bundled_records):
    # Bowdrey et al. 2002: the mean over the six cardinal states is 1/2 + tr(M)/6
    nulled = null_orthogonal_projections(projections_from_records(bundled_records))
    chis = [chi_from_projections(nulled)]
    chis += [_exact_chi(KRAUS_CHANNELS[name]) for name in sorted(KRAUS_CHANNELS)]
    for chi in chis:
        mean = np.mean([
            state_fidelity(apply_chi(chi, pure_state(label)), pure_state(label))
            for label in PREPARED_LABELS
        ])
        lam, _ = _affine_from_chi(chi)
        assert abs(mean - (0.5 + np.trace(lam) / 6)) < 1e-12

    # the sin(theta)-weighted grid mean of the error surface is the sphere
    # average 1 - (2 F_pro + 1)/3 (Nielsen 2002), up to quadrature error
    theta, _, error = bloch_error_surface(chis[0])
    weight = np.broadcast_to(np.sin(np.deg2rad(theta))[:, None], error.shape)
    sphere_mean = np.average(error, weights=weight)
    assert abs(sphere_mean - (1.0 - (2.0 * process_fidelity(chis[0]) + 1.0) / 3.0)) < 1e-6


def test_error_surface_shapes_and_identity(bundled_records):
    ident = chi_from_projections(projections_from_records(_ideal_records()))
    theta, phi, error = bloch_error_surface(ident)
    assert theta.shape == (181,) and phi.shape == (360,)
    assert error.shape == (181, 360)
    np.testing.assert_allclose(error, 0.0, atol=1e-12)

    projections = null_orthogonal_projections(projections_from_records(bundled_records))
    chi = chi_from_projections(projections)
    theta, phi, error = bloch_error_surface(chi)
    assert np.all(error >= 0.0) and np.all(error <= 1.0)
    polar = 0.5 * (error[0].mean() + error[-1].mean())
    equatorial = error[90].mean()
    assert polar == pytest.approx(0.00145, abs=1e-9)
    assert equatorial == pytest.approx(0.002375, abs=1e-9)
    # the fitted shift's equatorial part tilts the equator: error =
    # equatorial - (shift_x cos(phi) + shift_y sin(phi))/2, with extremes on the grid
    _, shift = _affine_from_chi(chi)
    np.testing.assert_allclose(shift[:2], -0.00015, atol=1e-9)
    assert np.ptp(error[90]) == pytest.approx(np.hypot(*shift[:2]), abs=1e-9)
    assert equatorial > polar  # oblate error surface


def test_error_surface_rejects_empty_grid():
    ident = chi_from_projections(projections_from_records(_ideal_records()))
    with pytest.raises(ValueError):
        bloch_error_surface(ident, np.array([]), None)


# ---------------------------------------------------------------------------
# Containers


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        BlochVector(1.5, 0.0, 0.0)
    long = BlochVector(0.9, 0.9, 0.9)
    assert long.norm > 1.0
    assert not long.is_physical()
    assert BlochVector(0.6, 0.0, 0.8).is_physical()


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.1], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.9, 0.0], [0.0, 0.0]]))  # trace != 1
    rho = DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]]))
    assert rho.eigenvalues.sum() == pytest.approx(1.0)
    # negative eigenvalues are representable but flagged
    bad = DensityMatrix(np.array([[1.1, 0.0], [0.0, -0.1]]))
    assert not bad.is_physical()


def test_chi_matrix_validation():
    with pytest.raises(ValueError):
        ChiMatrix(np.eye(3))
    herm_but_not_tp = np.diag([0.9, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="trace"):
        ChiMatrix(herm_but_not_tp)
    skew = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        ChiMatrix(skew)


def test_tomography_record_validation():
    with pytest.raises(ValueError):
        TomographyRecord("up", "z", 100, 5)
    with pytest.raises(ValueError):
        TomographyRecord("+z", "w", 100, 5)
    with pytest.raises(ValueError):
        TomographyRecord("+z", "z", 0, 0)
    with pytest.raises(ValueError):
        TomographyRecord("+z", "z", 100, 101)
    for shots, bright in ((10.5, 5), (10.0, 5), (True, 1), (10, 5.5), (10, 5.0), (10, True)):
        with pytest.raises(ValueError, match="must be an integer, got"):
            TomographyRecord("+z", "z", shots, bright)
    assert TomographyRecord("+z", "z", np.int64(10), np.int32(5)).bright_count == 5


# ---------------------------------------------------------------------------
# File formats


def test_records_csv_round_trip(tmp_path, bundled_records):
    path = tmp_path / "records.csv"
    write_records_csv(bundled_records, path, metadata={"source": "bundled"})
    assert path.read_text().startswith("# source: bundled\n")
    back = read_records_csv(path)
    assert back == bundled_records
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_records_csv(bad)


def test_chi_json_round_trip(tmp_path, bundled_records):
    projections = null_orthogonal_projections(projections_from_records(bundled_records))
    chi = chi_from_projections(projections)
    path = tmp_path / "chi.json"
    write_chi_json(chi, path, metadata={"note": "test"})
    back = read_chi_json(path)
    np.testing.assert_array_equal(back.matrix, chi.matrix)
    text = path.read_text()
    assert all(label in text for label in CHI_BASIS_LABELS)
    # a malformed file is a one-line ValueError that names it
    for payload in ('{"real": [[1]]}', "[1, 2]", '{"basis": 3, "real": [], "imag": []}'):
        path.write_text(payload + "\n")
        with pytest.raises(ValueError) as info:
            read_chi_json(path)
        assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value), payload


def test_surface_csv_round_trip(tmp_path):
    lam = 0.05
    projections = projections_from_records(_ideal_records(depolarization=lam))
    chi = chi_from_projections(projections)
    theta, phi, error = bloch_error_surface(
        chi, np.linspace(0, 180, 5), np.arange(0, 360, 90)
    )
    path = tmp_path / "surface.csv"
    write_surface_csv(theta, phi, error, path, metadata={"model": "depolarizing"})
    t_back, p_back, e_back = read_surface_csv(path)
    np.testing.assert_allclose(t_back, theta, atol=0)
    np.testing.assert_allclose(p_back, phi, atol=0)
    np.testing.assert_allclose(e_back, error, atol=0)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("theta_deg,phi_deg,error\n0.0,0.0,0.1\n0.0,90.0,0.1\n45.0,0.0,0.1\n")
    with pytest.raises(ValueError, match="rectangular"):
        read_surface_csv(ragged)
    # (0, 90) and (90, 0) are missing and the other two points doubled
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("theta_deg,phi_deg,error\n0,0,0.1\n0,0,0.2\n90,90,0.3\n90,90,0.4\n")
    with pytest.raises(ValueError, match="rectangular"):
        read_surface_csv(doubled)
