"""Maximum-likelihood fits of count histograms to the readout model.

Given one histogram per prepared state, the fit extracts the bright and dark
mean photon numbers and the two combined preparation/shelving error
probabilities by maximizing the multinomial log-likelihood under the
error-corrected count distributions of ``photon_statistics`` (the same model
the Monte Carlo sampler draws from).  The detection window and the
metastable lifetime are held fixed (they are measured independently); only
their ratio enters, as the in-window decay weight.

The optimizer works on a transformed parameter vector (log mean gap, log
dark mean, scaled logits of the error rates) so box constraints are never
active, and uses the analytic likelihood gradient.  Uncertainties come from
the inverse expected (Fisher) information matrix, built in closed form from
the same gradient, with an optional multinomial bootstrap as a cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from .monte_carlo import CountHistogram
from .photon_statistics import MAX_DECAY_FRACTION, _readout_pmfs, count_support_max

__all__ = [
    "ReadoutParams",
    "FitResult",
    "log_likelihood",
    "log_likelihood_grad",
    "fit",
    "write_fit_json",
    "read_fit_json",
]

_PARAM_NAMES = ("mean_bright", "mean_dark", "eps_down_tot", "eps_up_tot")


@dataclass(frozen=True)
class ReadoutParams:
    """The four identifiable readout parameters.

    Mean photon numbers for the bright and dark states over the detection
    window, plus the combined preparation/shelving error probability per
    prepared state.
    """

    mean_bright: float
    mean_dark: float
    eps_down_tot: float
    eps_up_tot: float

    def __post_init__(self) -> None:
        if not (self.mean_bright > self.mean_dark >= 0.0):
            raise ValueError(
                "require mean_bright > mean_dark >= 0, got "
                f"{self.mean_bright}, {self.mean_dark}"
            )
        for name in ("eps_down_tot", "eps_up_tot"):
            value = getattr(self, name)
            if not (0.0 <= value < 0.5):
                raise ValueError(f"{name} must lie in [0, 0.5), got {value}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.mean_bright, self.mean_dark, self.eps_down_tot, self.eps_up_tot]
        )


@dataclass(frozen=True)
class FitResult:
    """Fitted readout parameters with uncertainties and diagnostics.

    ``std_errors`` maps each parameter name to its standard error from the
    inverse expected (Fisher) information matrix at the estimate (NaN where
    that matrix could not be inverted).  ``details`` carries optimizer diagnostics and,
    in independent mode, the two per-ensemble parameter sets.
    """

    params: ReadoutParams
    std_errors: dict[str, float]
    log_likelihood: float
    converged: bool
    n_iterations: int
    t_det: float
    lifetime: float
    mode: str = "joint"
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES:
            if name not in self.std_errors:
                raise ValueError(f"std_errors missing entry for {name}")
            se = self.std_errors[name]
            if not (np.isnan(se) or se >= 0.0):
                raise ValueError(f"std_errors[{name}] must be >= 0, got {se}")

    @property
    def mean_bright(self) -> float:
        return self.params.mean_bright

    @property
    def mean_dark(self) -> float:
        return self.params.mean_dark

    @property
    def eps_down_tot(self) -> float:
        return self.params.eps_down_tot

    @property
    def eps_up_tot(self) -> float:
        return self.params.eps_up_tot

    @property
    def rate_bright(self) -> float:
        """Bright photon rate implied by the fitted mean and the window."""
        return self.params.mean_bright / self.t_det

    @property
    def rate_dark(self) -> float:
        return self.params.mean_dark / self.t_det


# ---------------------------------------------------------------------------
# Likelihood


def _check_constants(t_det: float, lifetime: float) -> float:
    if not t_det > 0.0:
        raise ValueError(f"t_det must be positive, got {t_det}")
    if not lifetime > 0.0:
        raise ValueError(f"lifetime must be positive, got {lifetime}")
    f = t_det / lifetime
    if not f < MAX_DECAY_FRACTION:
        raise ValueError(
            f"t_det/lifetime = {f:.3g} >= {MAX_DECAY_FRACTION}; outside the "
            "first-order validity of the fitted distributions"
        )
    return f


def _bins(hist: CountHistogram) -> np.ndarray:
    return np.asarray(hist.counts_per_bin, dtype=float)


def _ll_and_score(
    theta: np.ndarray, h_down: np.ndarray | None, h_up: np.ndarray | None, f: float
) -> tuple[float, np.ndarray]:
    """Log-likelihood and its gradient in the natural parameters.

    A zero-probability bin holding counts makes the log-likelihood -inf;
    the gradient then clips that probability at 1e-300.
    """
    n = np.arange(max(h.size for h in (h_down, h_up) if h is not None), dtype=float)
    p_down, p_up, grad_down, grad_up = _readout_pmfs(n, *theta, f)
    ll, score = 0.0, np.zeros(4)
    for h, p, grad in ((h_down, p_down, grad_down), (h_up, p_up, grad_up)):
        if h is None:
            continue
        idx = np.flatnonzero(h)
        p_act = p[idx]
        ll = -np.inf if np.any(p_act <= 0.0) else ll + float(h[idx] @ np.log(p_act))
        score += grad[:, idx] @ (h[idx] / np.clip(p_act, 1e-300, None))
    return ll, score


def _information(
    theta: np.ndarray, h_down: np.ndarray | None, h_up: np.ndarray | None, f: float
) -> tuple[np.ndarray, list[int]]:
    """Expected (Fisher) information ``sum_s N_s sum_n dp dp^T / p``.

    Summed over the full count support of the model, in the natural
    parameters, and restricted to the ones the given histograms constrain
    (both means, and the error rate of each state present).  Returns the
    matrix and the indices of those parameters.
    """
    n = np.arange(count_support_max(theta[0]) + 1, dtype=float)
    p_down, p_up, grad_down, grad_up = _readout_pmfs(n, *theta, f)
    info = np.zeros((4, 4))
    for h, p, grad in ((h_down, p_down, grad_down), (h_up, p_up, grad_up)):
        if h is not None:
            keep = p > 0.0
            info += h.sum() * (grad[:, keep] / p[keep]) @ grad[:, keep].T
    active = [0, 1] + [2] * (h_down is not None) + [3] * (h_up is not None)
    return info[np.ix_(active, active)], active


def log_likelihood(
    params: ReadoutParams,
    hist_down: CountHistogram,
    hist_up: CountHistogram,
    t_det: float,
    lifetime: float,
) -> float:
    """Joint multinomial log-likelihood of the two histograms.

    A zero-probability bin holding observed counts yields -inf (reported,
    not raised): the parameter point is simply impossible.
    """
    f = _check_constants(t_det, lifetime)
    return _ll_and_score(params.as_array(), _bins(hist_down), _bins(hist_up), f)[0]


def log_likelihood_grad(
    params: ReadoutParams,
    hist_down: CountHistogram,
    hist_up: CountHistogram,
    t_det: float,
    lifetime: float,
) -> np.ndarray:
    """Analytic gradient of ``log_likelihood`` in the natural parameters.

    Order: (mean_bright, mean_dark, eps_down_tot, eps_up_tot).  Requires
    mean_dark > 0 (at exactly zero the dark-mean derivative is one-sided).
    """
    if params.mean_dark <= 0.0:
        raise ValueError("gradient requires mean_dark > 0")
    f = _check_constants(t_det, lifetime)
    return _ll_and_score(params.as_array(), _bins(hist_down), _bins(hist_up), f)[1]


# ---------------------------------------------------------------------------
# Fitting


def _to_vector(theta: np.ndarray) -> np.ndarray:
    mb, md, ed, eu = theta
    ed = max(ed, 1e-12)  # logit needs the open interval
    eu = max(eu, 1e-12)
    return np.array(
        [np.log(mb - md), np.log(max(md, 1e-12)), logit(2.0 * ed), logit(2.0 * eu)]
    )


def _from_vector(v: np.ndarray) -> np.ndarray:
    gap, md = np.exp(v[0]), np.exp(v[1])
    return np.array([gap + md, md, 0.5 * expit(v[2]), 0.5 * expit(v[3])])


def _vector_jacobian(theta: np.ndarray) -> np.ndarray:
    """d(theta)/d(v) as a 4x4 matrix (rows: natural, cols: transformed)."""
    mb, md, ed, eu = theta
    jac = np.zeros((4, 4))
    jac[0, 0] = mb - md
    jac[0, 1] = md
    jac[1, 1] = md
    jac[2, 2] = ed * (1.0 - 2.0 * ed)
    jac[3, 3] = eu * (1.0 - 2.0 * eu)
    return jac


def _initial_guess(h_down: np.ndarray, h_up: np.ndarray, f: float) -> np.ndarray:
    n_down = np.arange(h_down.size)
    n_up = np.arange(h_up.size)
    mean_down = (h_down @ n_down) / h_down.sum()
    mean_up = (h_up @ n_up) / h_up.sum()
    provisional = 0.5 * (mean_down + mean_up)

    above = n_down > provisional
    below = n_up <= provisional
    weight_above = h_down[above].sum()
    weight_below = h_up[below].sum()
    mb = (h_down[above] @ n_down[above]) / weight_above if weight_above else mean_down
    md = (h_up[below] @ n_up[below]) / weight_below if weight_below else mean_up
    md = max(float(md), 1e-6)
    mb = max(float(mb), md * (1.0 + 1e-3) + 1e-3)
    ed = float(h_down[~above].sum() / h_down.sum())
    frac_up_above = float(h_up[~below].sum() / h_up.sum())
    eu = frac_up_above - 0.75 * f  # decays account for roughly f of the tail
    return np.array(
        [mb, md, float(np.clip(ed, 1e-6, 0.4)), float(np.clip(eu, 1e-6, 0.4))]
    )


def _maximize(
    h_down: np.ndarray | None,
    h_up: np.ndarray | None,
    f: float,
    theta0: np.ndarray,
):
    n_total = sum(h.sum() for h in (h_down, h_up) if h is not None)

    def objective(v):
        theta = _from_vector(v)
        ll, score = _ll_and_score(theta, h_down, h_up, f)
        if not np.isfinite(ll):
            return np.inf, np.zeros(4)
        return -ll / n_total, -(score @ _vector_jacobian(theta)) / n_total

    result = minimize(
        objective,
        _to_vector(theta0),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-8},
    )
    v, fun, jac = result.x, result.fun, result.jac
    # L-BFGS-B can stop on its relative-decrease test while the per-shot
    # score is still ~1e-6, below what the objective resolves in floating
    # point.  One Fisher-scoring step in the transformed coordinates (which
    # keep every parameter in its domain) removes that remainder; it is
    # kept when it shrinks the score.
    theta = _from_vector(v)
    info, active = _information(theta, h_down, h_up, f)
    dtheta_dv = _vector_jacobian(theta)[np.ix_(active, active)]
    try:
        v_new = v.copy()
        v_new[active] -= np.linalg.solve(dtheta_dv.T @ info @ dtheta_dv, jac[active] * n_total)
        fun_new, jac_new = objective(v_new)
        if np.isfinite(fun_new) and np.max(np.abs(jac_new)) <= np.max(np.abs(jac)):
            v, fun, jac = v_new, fun_new, jac_new
    except np.linalg.LinAlgError:
        pass
    # L-BFGS-B sometimes aborts its line search once no float-representable
    # improvement is left; a vanishing per-shot score still means converged.
    ok = bool(result.success) or float(np.max(np.abs(jac))) < 1e-6
    return _from_vector(v), float(-fun * n_total), ok, int(result.nit), str(result.message)


def _standard_errors(
    theta: np.ndarray, h_down: np.ndarray | None, h_up: np.ndarray | None, f: float
) -> np.ndarray:
    """Standard errors from the inverse expected information (NaN if singular)."""
    info, active = _information(theta, h_down, h_up, f)
    se = np.full(4, np.nan)
    try:
        diag = np.diag(np.linalg.inv(info))
        if np.all(diag > 0.0):
            se[active] = np.sqrt(diag)
    except np.linalg.LinAlgError:
        pass
    return se


def _resample(hist: CountHistogram, rng: np.random.Generator) -> np.ndarray:
    return rng.multinomial(
        hist.total_shots, hist.counts_per_bin / hist.total_shots
    ).astype(float)


def fit(
    hist_down: CountHistogram,
    hist_up: CountHistogram,
    t_det: float,
    lifetime: float,
    init: ReadoutParams | None = None,
    mode: str = "joint",
    bootstrap: int = 0,
    bootstrap_seed: int = 0,
) -> FitResult:
    """Fit the four readout parameters to a pair of count histograms.

    ``mode="joint"`` (default) shares the bright/dark means between the two
    histograms.  ``mode="independent"`` fits each histogram on its own; the
    reported means then come from the ensemble that constrains them
    (bright mean from the prepared-bright data, dark mean from the
    prepared-dark data) and both complete parameter sets are kept in
    ``details["per_state"]``.

    ``bootstrap > 0`` additionally estimates uncertainties from that many
    multinomial resamples (``details["bootstrap"]``), as a cross-check on
    the expected-information standard errors.
    """
    f = _check_constants(t_det, lifetime)
    if mode not in ("joint", "independent"):
        raise ValueError(f"mode must be 'joint' or 'independent', got {mode!r}")
    if bootstrap < 0:
        raise ValueError("bootstrap must be >= 0")
    for name, hist in (("hist_down", hist_down), ("hist_up", hist_up)):
        if hist.total_shots < 100:
            raise ValueError(f"{name} must contain at least 100 shots")
        if np.count_nonzero(hist.counts_per_bin) < 2:
            raise ValueError(f"{name} is degenerate: all counts in a single bin")

    h_down, h_up = _bins(hist_down), _bins(hist_up)
    theta0 = init.as_array() if init is not None else _initial_guess(h_down, h_up, f)

    details: dict = {}
    if mode == "joint":
        theta, ll, ok, nit, message = _maximize(h_down, h_up, f, theta0)
        se = _standard_errors(theta, h_down, h_up, f)
        details["optimizer"] = message
    else:
        th_d, ll_d, ok_d, nit_d, msg_d = _maximize(h_down, None, f, theta0)
        th_u, ll_u, ok_u, nit_u, msg_u = _maximize(None, h_up, f, theta0)
        se_d = _standard_errors(th_d, h_down, None, f)
        se_u = _standard_errors(th_u, None, h_up, f)
        theta = np.array([th_d[0], th_u[1], th_d[2], th_u[3]])
        se = np.array([se_d[0], se_u[1], se_d[2], se_u[3]])
        ll, ok, nit = ll_d + ll_u, ok_d and ok_u, nit_d + nit_u
        details["optimizer"] = {"down": msg_d, "up": msg_u}
        details["per_state"] = {
            "down": dict(zip(_PARAM_NAMES, th_d.tolist())),
            "up": dict(zip(_PARAM_NAMES, th_u.tolist())),
        }

    if bootstrap:
        rng = np.random.default_rng(bootstrap_seed)
        samples = []
        guess = theta
        for _ in range(bootstrap):
            hb_down = _resample(hist_down, rng)
            hb_up = _resample(hist_up, rng)
            if mode == "joint":
                th_b, _, _, _, _ = _maximize(hb_down, hb_up, f, guess)
            else:
                tb_d, _, _, _, _ = _maximize(hb_down, None, f, guess)
                tb_u, _, _, _, _ = _maximize(None, hb_up, f, guess)
                th_b = np.array([tb_d[0], tb_u[1], tb_d[2], tb_u[3]])
            samples.append(th_b)
        spread = np.std(np.array(samples), axis=0, ddof=1)
        details["bootstrap"] = {
            "samples": bootstrap,
            "std_errors": dict(zip(_PARAM_NAMES, spread.tolist())),
        }

    return FitResult(
        params=ReadoutParams(*theta.tolist()),
        std_errors=dict(zip(_PARAM_NAMES, se.tolist())),
        log_likelihood=ll,
        converged=ok,
        n_iterations=nit,
        t_det=t_det,
        lifetime=lifetime,
        mode=mode,
        details=details,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def write_fit_json(result: FitResult, path, metadata: dict | None = None) -> None:
    """Write every ``FitResult`` field to JSON (NaN encoded as null)."""
    payload = {
        "mean_bright": result.mean_bright,
        "mean_dark": result.mean_dark,
        "eps_down_tot": result.eps_down_tot,
        "eps_up_tot": result.eps_up_tot,
        "std_errors": {
            k: (None if np.isnan(v) else v) for k, v in result.std_errors.items()
        },
        "log_likelihood": result.log_likelihood,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
        "t_det_s": result.t_det,
        "lifetime_s": result.lifetime,
        "mode": result.mode,
        "details": result.details,
    }
    if metadata is not None:
        payload["metadata"] = metadata
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_fit_json(path) -> FitResult:
    """Reconstruct a ``FitResult`` written by ``write_fit_json``."""
    payload = json.loads(Path(path).read_text())
    params = ReadoutParams(
        payload["mean_bright"],
        payload["mean_dark"],
        payload["eps_down_tot"],
        payload["eps_up_tot"],
    )
    std_errors = {
        k: (np.nan if v is None else float(v))
        for k, v in payload["std_errors"].items()
    }
    return FitResult(
        params=params,
        std_errors=std_errors,
        log_likelihood=payload["log_likelihood"],
        converged=payload["converged"],
        n_iterations=payload["n_iterations"],
        t_det=payload["t_det_s"],
        lifetime=payload["lifetime_s"],
        mode=payload.get("mode", "joint"),
        details=payload.get("details", {}),
    )
