"""Maximum-likelihood fits of count histograms to the readout model.

Given one histogram per prepared state, the fit extracts the bright and dark
mean photon numbers and the two combined preparation/shelving error
probabilities by maximizing the multinomial log-likelihood under the
error-corrected count distributions of ``photon_statistics`` (the same model
the Monte Carlo sampler draws from).  The detection window and the
metastable lifetime are held fixed (they are measured independently); only
their ratio enters, as the in-window decay weight.

The maximum is found by projected, damped Fisher scoring (Osborne, Int.
Stat. Rev. 60, 99 (1992)) against the closed-form expected information,
directly in the four parameters: the means are held at 0 or above and in
order, the error rates in [0, 0.5).  One loop fits a batch of rows, one
model call per step for all of them, and each row stops on its own rule:
the point fit is one row, the bootstrap one per resample.  Uncertainties
come from the inverse of the same information at the estimate, with an
optional multinomial bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._files import _is_int, json_object, read_json, write_json
from .monte_carlo import CountHistogram
from .photon_statistics import _decay_fraction, _readout_pmfs, count_support_max

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
# the other keys ``read_fit_json`` requires
_FIT_KEYS = ("std_errors", "log_likelihood", "converged", "n_iterations", "t_det_s", "lifetime_s")

_MAX_ITERATIONS, _MAX_HALVINGS = 200, 60  # Fisher-scoring steps; halvings per step
_SCORE_TOL = 1e-11  # stop rule: largest per-shot score over the free parameters
_RIDGE = 1e-9  # least Levenberg ridge, relative to the diagonal of the information
_LL_ROUNDING = 1e-13  # relative log-likelihood drop that a step may cause
# the stop reasons that count as converged
_CONVERGED = ("score below tolerance", "predicted gain below rounding")
# upper bounds of the four parameters; every lower bound is 0
_UPPER = np.array([np.inf, np.inf, np.nextafter(0.5, 0.0), np.nextafter(0.5, 0.0)])


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
        if not (np.inf > self.mean_bright > self.mean_dark >= 0.0):
            raise ValueError(
                "require a finite mean_bright > mean_dark >= 0, got "
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
    that matrix could not be inverted).  ``converged``: the per-shot score
    over the free parameters fell below 1e-11, or no further step could
    show in the log-likelihood.  ``n_iterations``: Fisher scoring steps
    taken (both fits summed in independent mode).
    ``details["optimizer"]``: why the iteration stopped (``"score below
    tolerance"``, ``"predicted gain below rounding"``, ``"iteration
    limit"`` or ``"no ascent step"``), one reason per state in independent
    mode, where ``details["per_state"]`` also holds the two per-ensemble
    parameter sets.
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


def _pair(hist_down: CountHistogram, hist_up: CountHistogram, rng=None) -> np.ndarray:
    """The two histograms as one float array, (2, bins), the shorter padded
    with zeros; with ``rng``, a multinomial resample of each, down first."""
    pair = np.zeros((2, max(hist_down.counts_per_bin.size, hist_up.counts_per_bin.size)))
    for row, hist in zip(pair, (hist_down, hist_up)):
        counts = hist.counts_per_bin if rng is None else rng.multinomial(hist.total_shots, hist.frequencies)
        row[: counts.size] = counts
    return pair


def _ll_score_info(theta: np.ndarray, h: np.ndarray, f: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-likelihood, its gradient and the expected (Fisher) information, per row.

    ``theta`` holds a parameter set per row, (B, 4), and ``h`` its two
    histograms, (B, 2, bins); returns (B,), (B, 4) and (B, 4, 4), in the
    natural parameters.  A row is evaluated over the histogram bins and the
    count support of its own bright mean, one model call for all rows of a
    length, so it gets the same floats in any batch.  A zero-probability bin
    holding counts makes the log-likelihood -inf; the gradient then clips
    that probability at 1e-300.  The information is ``sum_s N_s sum_n dp
    dp^T / p``; a parameter the histograms do not constrain (the error rate
    of a state whose histogram is all zeros) has a zero row and column.
    """
    sizes, bins = np.maximum(count_support_max(theta[:, 0]) + 1, h.shape[2]), h.shape[2]
    ll, score, info = np.empty(len(h)), np.empty((len(h), 4)), np.empty((len(h), 4, 4))
    for size in set(sizes.tolist()):  # np.unique's first call in a process costs ~15 ms
        rows = sizes == size
        *pmfs, grad_down, grad_up = _readout_pmfs(np.arange(size, dtype=float), *theta[rows].T, f, grad=True)
        p, grad = np.stack(pmfs, axis=1), np.stack([grad_down, grad_up], axis=1)  # (R, 2, N), (R, 2, 4, N)
        hist, p_obs = h[rows], p[..., :bins]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.einsum("bsn,bsn->b", hist, np.log(np.where(hist > 0.0, p_obs, 1.0)))
        ll[rows] = np.where(np.any((hist > 0.0) & (p_obs <= 0.0), axis=(1, 2)), -np.inf, log_p)
        score[rows] = np.einsum("bskn,bsn->bk", grad[..., :bins], hist / np.clip(p_obs, 1e-300, None))
        # a state whose histogram is all zeros adds nothing, whatever its model
        shots, p = hist.sum(axis=2)[..., None, None], p[:, :, None]
        weighted = np.divide(grad, p, out=np.zeros_like(grad), where=(p > 0.0) & (shots > 0.0))
        info[rows] = (shots * (weighted @ grad.swapaxes(2, 3))).sum(axis=1)
    return ll, score, info


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
    f = _decay_fraction(t_det, lifetime)
    return float(_ll_score_info(params.as_array()[None], _pair(hist_down, hist_up)[None], f)[0][0])


def log_likelihood_grad(
    params: ReadoutParams,
    hist_down: CountHistogram,
    hist_up: CountHistogram,
    t_det: float,
    lifetime: float,
) -> np.ndarray:
    """Analytic gradient of ``log_likelihood`` in the natural parameters.

    Order: (mean_bright, mean_dark, eps_down_tot, eps_up_tot).  At
    ``mean_dark == 0`` the dark-mean entry is the right derivative.
    """
    f = _decay_fraction(t_det, lifetime)
    return _ll_score_info(params.as_array()[None], _pair(hist_down, hist_up)[None], f)[1][0]


# ---------------------------------------------------------------------------
# Fitting


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
    ed = float(h_down[~above].sum() / h_down.sum())
    frac_up_above = float(h_up[~below].sum() / h_up.sum())
    eu = frac_up_above - 0.75 * f  # decays account for roughly f of the tail
    return np.array([mb, md, *np.clip([ed, eu], 1e-6, 0.4)])


def _standard_errors(info: np.ndarray) -> np.ndarray:
    """Standard errors from the inverse expected information (NaN if singular).

    A parameter without information (such as the dark mean of a down-only
    fit at ``eps_down_tot == 0``) is left out of the inversion and gets NaN.
    """
    se = np.full(4, np.nan)
    keep = np.diag(info) > 0.0
    try:
        diag = np.diag(np.linalg.inv(info[np.ix_(keep, keep)]))
        if np.all(diag > 0.0):
            se[keep] = np.sqrt(diag)
    except np.linalg.LinAlgError:
        pass
    return se


def _maximize(h: np.ndarray, f: float, theta: np.ndarray, mode: str):
    """Projected, damped Fisher scoring of the log-likelihood, one row per histogram pair.

    ``h`` holds B histogram pairs, (B, 2, bins), and ``theta`` their starts,
    (B, 4).  A joint fit is one row per pair, an independent fit a down-only
    and an up-only row (the other histogram zeroed).  Each model call
    evaluates the rows still stepping or halving; each row keeps its own
    ridge and stops on its own reason, as a loop over it alone would.

    Per row, the loop runs in the natural parameters, in the box from 0 to
    ``_UPPER``.  Each step solves the expected information, plus a
    Levenberg ridge on its diagonal (so a parameter with little information
    is not swamped by one with much), against the score over the free
    parameters.  The trial is clipped to the box and halved while its means
    are out of order or its log-likelihood drops by more than its rounding;
    the ridge grows tenfold after a halved step and shrinks after a full one
    (Marquardt).  A parameter with no information is not free, nor is one
    at a bound whose score points out of it (its KKT condition), such as a
    dark mean or an error rate at 0.

    A row stops when the largest per-shot score over its free parameters
    falls below ``_SCORE_TOL``, or when its last step could not show: its
    predicted gain, half the score times the step (the Newton decrement,
    Boyd & Vandenberghe, *Convex Optimization* 9.5.1), was below the
    log-likelihood's rounding, and it neither changed which parameters are
    free nor shrank their largest score.  The second rule ends a walk along
    a direction the data do not identify, such as a bright-only fit's dark
    mean when eps_down is near 0.

    Returns ``(theta, ll, converged, n_iterations, reasons, info)``, each
    shaped (runs, B, ...) with runs 1 for a joint fit and 2 (down, up) for
    an independent one; ``info`` is the expected information at the estimate.
    """
    runs = 2 if mode == "independent" else 1
    h = np.concatenate([h * [[1.0], [0.0]], h * [[0.0], [1.0]]]) if runs == 2 else h
    theta, eye, n_total = np.tile(theta, (runs, 1)), np.eye(4), h.sum(axis=(1, 2))
    size = len(theta)
    ll, score, info = _ll_score_info(theta, h, f)
    reasons = np.full(size, "iteration limit", dtype=object)
    iterations, ridge = np.full(size, _MAX_ITERATIONS), np.full(size, _RIDGE)
    # each row's last predicted gain, the parameters it moved and their largest score before it
    gain, moved, before = np.full(size, np.inf), np.zeros((size, 4), dtype=bool), np.full(size, np.inf)
    active = np.arange(size)
    for iteration in range(_MAX_ITERATIONS + 1):
        row_theta, row_score, row_info = theta[active], score[active], info[active]
        held = ((row_theta == 0.0) & (row_score < 0.0)) | ((row_theta == _UPPER) & (row_score > 0.0))
        free = (np.diagonal(row_info, axis1=1, axis2=2) > 0.0) & ~held
        largest = np.max(np.abs(row_score), axis=1, where=free, initial=0.0)
        small = largest < _SCORE_TOL * n_total[active]
        flat = (gain[active] < _LL_ROUNDING * np.abs(ll[active])) & (largest >= before[active])
        flat &= np.all(free == moved[active], axis=1)
        reasons[active[flat]] = "predicted gain below rounding"
        reasons[active[small]] = "score below tolerance"
        go = ~(small | flat | (iteration == _MAX_ITERATIONS))
        iterations[active[~go]] = iteration
        active, free, row_score, row_info = active[go], free[go], row_score[go], row_info[go]
        if not active.size:
            break
        moved[active], before[active] = free, largest[go]
        ridged = row_info + ridge[active, None, None] * (row_info * eye)
        # a parameter that is not free has an identity row and column and a zero score: no step
        ridged = np.where(free[:, :, None] & free[:, None, :], ridged, eye)
        step = np.linalg.solve(ridged, np.where(free, row_score, 0.0)[..., None])[..., 0]
        gain[active] = 0.5 * np.einsum("bk,bk->b", row_score, step)
        todo = np.arange(active.size)  # rows of ``active`` still halving
        for halvings in range(_MAX_HALVINGS):
            trial = np.clip(theta[active[todo]] + step[todo], 0.0, _UPPER)
            ordered = np.flatnonzero(trial[:, 0] > trial[:, 1])
            rows = active[todo[ordered]]
            ll_trial, score_trial, info_trial = _ll_score_info(trial[ordered], h[rows], f)
            ok = ll_trial >= ll[rows] - _LL_ROUNDING * np.abs(ll[rows])
            rows, ordered = rows[ok], ordered[ok]
            theta[rows], ll[rows] = trial[ordered], ll_trial[ok]
            score[rows], info[rows] = score_trial[ok], info_trial[ok]
            ridge[rows] = 10.0 * ridge[rows] if halvings else np.maximum(0.1 * ridge[rows], _RIDGE)
            todo = np.delete(todo, ordered)
            if not todo.size:
                break
            step[todo] *= 0.5
        reasons[active[todo]], iterations[active[todo]] = "no ascent step", iteration
        active = np.delete(active, todo)
    converged = np.isin(reasons, _CONVERGED)
    return tuple(a.reshape(runs, -1, *a.shape[1:]) for a in (theta, ll, converged, iterations, reasons, info))


# Independent mode reports the means and error rates each from the
# ensemble that constrains them: these from the down fit, the rest from up.
_FROM_DOWN = np.array([True, False, True, False])


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

    ``bootstrap >= 2`` additionally estimates uncertainties from that many
    multinomial resamples (``details["bootstrap"]``), as a cross-check on
    the expected-information standard errors; ``unconverged`` counts the
    resamples whose fit did not converge, which still enter the spread.
    The resamples run as one batch of rows from the point estimate, each
    stopping on its own rule, as it would alone.
    """
    f = _decay_fraction(t_det, lifetime)
    if mode not in ("joint", "independent"):
        raise ValueError(f"mode must be 'joint' or 'independent', got {mode!r}")
    if not _is_int(bootstrap) or bootstrap < 0 or bootstrap == 1:
        raise ValueError(f"bootstrap must be 0 or >= 2 resamples, got {bootstrap}")
    for name, hist in (("hist_down", hist_down), ("hist_up", hist_up)):
        if hist.total_shots < 100:
            raise ValueError(f"{name} must contain at least 100 shots")
        if np.count_nonzero(hist.counts_per_bin) < 2:
            raise ValueError(f"{name} is degenerate: all counts in a single bin")

    h = _pair(hist_down, hist_up)
    theta0 = init.as_array() if init is not None else _initial_guess(*h, f)
    thetas, lls, oks, iterations, reasons, info = _maximize(h[None], f, theta0[None], mode)
    theta = np.where(_FROM_DOWN, thetas[0, 0], thetas[-1, 0])
    se = np.where(_FROM_DOWN, _standard_errors(info[0, 0]), _standard_errors(info[-1, 0]))
    details: dict = {"optimizer": reasons[0, 0]}
    if mode == "independent":
        details["optimizer"] = dict(zip(("down", "up"), reasons[:, 0]))
        details["per_state"] = {
            tag: dict(zip(_PARAM_NAMES, th.tolist())) for tag, th in zip(("down", "up"), thetas[:, 0])
        }

    if bootstrap:
        rng = np.random.default_rng(bootstrap_seed)
        pairs = np.array([_pair(hist_down, hist_up, rng) for _ in range(bootstrap)])
        samples, _, fits_ok, *_ = _maximize(pairs, f, np.tile(theta, (bootstrap, 1)), mode)
        spread = np.std(np.where(_FROM_DOWN, samples[0], samples[-1]), axis=0, ddof=1)
        details["bootstrap"] = {
            "samples": bootstrap,
            "std_errors": dict(zip(_PARAM_NAMES, spread.tolist())),
            "unconverged": int(np.sum(~np.all(fits_ok, axis=0))),
        }

    return FitResult(
        params=ReadoutParams(*theta.tolist()),
        std_errors=dict(zip(_PARAM_NAMES, se.tolist())),
        log_likelihood=float(lls.sum()),
        converged=bool(oks.all()),
        n_iterations=int(iterations.sum()),
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
    write_json(path, payload, metadata)


def read_fit_json(path) -> FitResult:
    """Reconstruct a ``FitResult`` written by ``write_fit_json``."""
    try:
        payload = json_object(read_json(path), _PARAM_NAMES + _FIT_KEYS)
        std_errors = {
            k: (np.nan if v is None else float(v))
            for k, v in json_object(payload["std_errors"]).items()
        }
        return FitResult(
            params=ReadoutParams(*(payload[name] for name in _PARAM_NAMES)),
            std_errors=std_errors,
            log_likelihood=payload["log_likelihood"],
            converged=payload["converged"],
            n_iterations=payload["n_iterations"],
            t_det=payload["t_det_s"],
            lifetime=payload["lifetime_s"],
            mode=payload.get("mode", "joint"),
            details=payload.get("details", {}),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
