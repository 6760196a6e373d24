"""Probit models by maximum likelihood, plus forward stepwise selection.

The stepwise procedure follows the composite-indicator construction: pick the
single strongest predictor by Z-statistic, then repeatedly correlate the
response residual y - Phi(X beta) against the unselected variables, add the
best one, and stop as soon as a newly added variable fails the Z threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .forecast import CompositeModel

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
SEPARATION_BOUND = 50.0
NEWTON_TOL = 1e-8       # converged once the largest coefficient update is smaller
NEWTON_MAX_ITER = 100
DEFAULT_Z_THRESHOLD = 4.0   # |Z| a variable needs to enter the composite


class SeparationError(RuntimeError):
    """Perfect separation: coefficients diverge."""


class CollinearityError(RuntimeError):
    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"singular information matrix; collinear columns: "
                         f"{', '.join(self.columns)}")


@dataclass
class ProbitFit:
    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    z_stats: np.ndarray
    log_likelihood: float
    null_log_likelihood: float
    pseudo_r2: float
    n_obs: int
    n_iter: int
    ll_path: tuple[float, ...] = ()  # per-iteration log-likelihood, non-decreasing

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def z(self, name: str) -> float:
        return float(self.z_stats[self.names.index(name)])

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        """X has one column per non-intercept term, in fit order."""
        return _design(X) @ self.coefficients


def probit_loglik(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    return _terms(beta, X, 2.0 * y - 1.0)[2]


def probit_gradient(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    q = 2.0 * y - 1.0
    z, log_cdf, _ = _terms(beta, X, q)
    return X.T @ _gen_residual(z, log_cdf, q)


def _terms(beta: np.ndarray, X: np.ndarray, q: np.ndarray) -> tuple:
    """The linear predictor z, each row's log Phi(q z) (q = 2y - 1 is +-1) and
    their sum, the log-likelihood: one ``log_ndtr`` pass serves all three."""
    z = X @ beta
    log_cdf = log_ndtr(q * z)
    return z, log_cdf, float(log_cdf.sum())


def _gen_residual(z: np.ndarray, log_cdf: np.ndarray, q: np.ndarray) -> np.ndarray:
    # lambda_i = q phi(z)/Phi(q z), computed in log space so extreme linear
    # predictors stay finite
    return q * np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_cdf)


def _design(X: np.ndarray) -> np.ndarray:
    """X with a leading intercept column."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return np.column_stack([np.ones(len(X)), X])


def _collinear_columns(X: np.ndarray, names) -> list[str]:
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    v = np.abs(vt[-1])
    return [names[i] for i in np.flatnonzero(v > 0.3 * v.max())]


def fit_probit(X, y, names=None) -> ProbitFit:
    """Probit MLE, with an intercept, via Newton iterations with step halving.

    Converges when the largest coefficient update falls below NEWTON_TOL.
    Standard errors come from the inverse observed information. Raises
    SeparationError when coefficients diverge and CollinearityError (naming
    the offending columns) when the information matrix is singular.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        X = np.empty((len(y), 0))
    elif X.ndim == 1:
        X = X.reshape(-1, 1)
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
    names = tuple(names)
    if len(names) != X.shape[1]:
        raise ValueError("names must match X columns")
    if X.shape[0] != len(y):
        raise ValueError("X rows must match len(y)")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    if ((y != 0.0) & (y != 1.0)).any():
        raise ValueError("y must hold only 0 and 1")
    Xm = _design(X)
    all_names = ("intercept",) + names
    n, k = Xm.shape
    if n < 10 * k:
        raise ValueError(f"need at least {10 * k} rows for {k} columns, got {n}")
    ybar = float(y.mean())
    if ybar <= 0.0 or ybar >= 1.0:
        raise ValueError("y must contain both classes")

    beta = np.zeros(k)
    beta[0] = ndtri(min(max(ybar, 1.0 / n), 1.0 - 1.0 / n))
    q = 2.0 * y - 1.0
    z, log_cdf, ll = _terms(beta, Xm, q)
    ll_path = [ll]
    n_iter = 0
    for n_iter in range(1, NEWTON_MAX_ITER + 1):
        lam = _gen_residual(z, log_cdf, q)
        grad = Xm.T @ lam
        w = lam * (lam + z)  # always positive: observed information is PD
        info = (Xm * w[:, None]).T @ Xm
        try:
            delta = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise CollinearityError(_collinear_columns(Xm, all_names))
        step = 1.0
        for halving in range(41):
            beta_new = beta + step * delta
            z_new, log_cdf_new, ll_new = _terms(beta_new, Xm, q)
            # the 2^-40 step is taken whether or not it raises the likelihood
            if ll_new >= ll - 1e-12 or halving == 40:
                break
            step *= 0.5
        beta, z, log_cdf, ll = beta_new, z_new, log_cdf_new, ll_new
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            raise SeparationError("separation detected: coefficients diverging")
        ll_path.append(ll)
        if np.max(np.abs(step * delta)) < NEWTON_TOL:
            break

    lam = _gen_residual(z, log_cdf, q)
    w = lam * (lam + z)
    info = (Xm * w[:, None]).T @ Xm
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise CollinearityError(_collinear_columns(Xm, all_names))
    se = np.sqrt(np.diag(cov))
    ll_null = float(len(y)) * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))
    return ProbitFit(
        names=all_names,
        coefficients=beta,
        standard_errors=se,
        z_stats=beta / se,
        log_likelihood=ll,
        null_log_likelihood=ll_null,
        pseudo_r2=pseudo_r2(ll, ll_null),
        n_obs=n,
        n_iter=n_iter,
        ll_path=tuple(ll_path),
    )


def pseudo_r2(ll_model: float, ll_null: float) -> float:
    """McFadden pseudo-R-squared: 1 - ll_model / ll_null."""
    if ll_model > 0.0:
        raise ValueError("log-likelihood of a binary model cannot be positive")
    if ll_null >= 0.0:
        raise ValueError("null log-likelihood must be negative")
    if ll_model < ll_null - 1e-9:
        raise ValueError("model log-likelihood below the null model")
    return 1.0 - max(ll_model, ll_null) / ll_null


def stepwise_select(X, y, names, z_threshold: float = DEFAULT_Z_THRESHOLD) -> CompositeModel:
    """Forward stepwise probit selection.

    Variables enter one at a time: the first by the largest univariate |Z|, the
    rest by the largest |Pearson correlation| between the candidate and the
    current response residual y - Phi(X beta). All coefficients are refit at
    each stage; a newly added variable with |Z| below the threshold is dropped
    and selection stops. An empty model is returned when no variable ever
    clears the threshold.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    names = list(names)
    if len(names) < 2:
        raise ValueError("stepwise selection needs at least 2 candidates")
    if X.shape != (len(y), len(names)):
        raise ValueError("X must be len(y) x len(names)")

    history: list[dict] = []
    best_j, best_z, best_fit = None, 0.0, None
    for j, name in enumerate(names):
        fit = fit_probit(X[:, [j]], y, names=(name,))
        zj = abs(fit.z(name))
        history.append({"step": 0, "candidate": name, "abs_z": zj})
        if zj > best_z:
            best_j, best_z, best_fit = j, zj, fit
    if best_z < z_threshold:
        return CompositeModel((), (), meta={
            "selected": [], "history": history, "z_threshold": z_threshold,
            "note": "no variable reached the Z threshold",
        })

    selected, fit = [best_j], best_fit
    history.append({"step": 1, "added": names[best_j], "z": fit.z(names[best_j])})

    while len(selected) < len(names):
        resid = y - ndtr(fit.linear_predictor(X[:, selected]))
        best_j, best_corr = None, 0.0
        for j, name in enumerate(names):
            if j in selected:
                continue
            col = X[:, j]
            if np.std(col) < 1e-12:
                continue
            corr = abs(float(np.corrcoef(resid, col)[0, 1]))
            if corr > best_corr:
                best_j, best_corr = j, corr
        if best_j is None:
            break
        trial = selected + [best_j]
        trial_fit = fit_probit(X[:, trial], y, names=tuple(names[j] for j in trial))
        z_new = abs(trial_fit.z(names[best_j]))
        if z_new < z_threshold:
            history.append({"step": len(selected) + 1, "rejected": names[best_j],
                            "abs_z": z_new, "corr": best_corr})
            break
        selected = trial
        fit = trial_fit
        history.append({"step": len(selected), "added": names[best_j],
                        "z": trial_fit.z(names[best_j]), "corr": best_corr})

    chosen = tuple(names[j] for j in selected)
    return CompositeModel(
        variables=chosen,
        coefficients=tuple(fit.coef(name) for name in chosen),
        intercept=fit.coef("intercept"),
        meta={
            "selected": list(chosen),
            "z_stats": {name: fit.z(name) for name in chosen},
            "standard_errors": {name: float(fit.standard_errors[fit.names.index(name)])
                                for name in chosen},
            "pseudo_r2": fit.pseudo_r2,
            "log_likelihood": fit.log_likelihood,
            "null_log_likelihood": fit.null_log_likelihood,
            "n_obs": fit.n_obs,
            "z_threshold": z_threshold,
            "history": history,
        },
    )
