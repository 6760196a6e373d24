import itertools

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import oracles
from rcforecast import regression
from rcforecast.regression import (
    CollinearityError,
    SeparationError,
    fit_probit,
    probit_gradient,
    probit_loglik,
    pseudo_r2,
    stepwise_select,
)


def test_intercept_only_balanced_outcome():
    y = np.array([0, 1] * 10)
    fit = fit_probit(np.empty((20, 0)), y)
    assert fit.names == ("intercept",)
    assert fit.coef("intercept") == pytest.approx(0.0, abs=1e-8)


def test_intercept_only_equals_probit_inverse_of_mean():
    # Phi(1) = 0.8413...: an 84.13% positive rate forces intercept 1
    n = 10_000
    n1 = round(0.8413447460685429 * n)
    y = np.array([1] * n1 + [0] * (n - n1))
    fit = fit_probit(np.empty((n, 0)), y)
    assert fit.coef("intercept") == pytest.approx(float(ndtri(y.mean())), abs=1e-6)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(20, 60))
        k = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        y = (rng.random(n) < 0.5).astype(float)
        beta = rng.normal(scale=0.5, size=k + 1)
        grad = probit_gradient(beta, X, y)
        h = 1e-5
        for j in range(k + 1):
            e = np.zeros(k + 1)
            e[j] = h
            fd = (probit_loglik(beta + e, X, y) - probit_loglik(beta - e, X, y)) / (2 * h)
            denom = max(abs(fd), 1e-8)
            assert abs(grad[j] - fd) / denom < 1e-6


def test_synthetic_recovery_of_planted_coefficients():
    rng = np.random.default_rng(12)
    n = 50_000
    X = rng.normal(size=(n, 2))
    beta_true = np.array([-1.5, 0.8, 0.4])
    p = ndtr(beta_true[0] + X @ beta_true[1:])
    y = (rng.random(n) < p).astype(float)
    fit = fit_probit(X, y, names=("a", "b"))
    recovered = np.array([fit.coef("intercept"), fit.coef("a"), fit.coef("b")])
    assert np.all(np.abs(recovered - beta_true) < 0.05)


def test_loglik_non_decreasing_over_iterations():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 3))
    y = (rng.random(500) < ndtr(X @ np.array([1.0, -0.5, 0.2]))).astype(float)
    fit = fit_probit(X, y)
    diffs = np.diff(np.array(fit.ll_path))
    assert np.all(diffs >= -1e-12)


def test_row_order_invariance_and_duplication():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 2))
    y = (rng.random(400) < ndtr(0.3 + X @ np.array([0.7, -0.4]))).astype(float)
    fit = fit_probit(X, y)
    perm = rng.permutation(400)
    fit_perm = fit_probit(X[perm], y[perm])
    assert np.allclose(fit.coefficients, fit_perm.coefficients, atol=1e-7)
    fit_dup = fit_probit(np.vstack([X, X]), np.concatenate([y, y]))
    assert np.allclose(fit_dup.coefficients, fit.coefficients, atol=1e-7)
    assert np.allclose(fit_dup.standard_errors, fit.standard_errors / np.sqrt(2.0),
                       atol=1e-7)


def test_z_stats_are_coef_over_se():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 2))
    y = (rng.random(200) < ndtr(X @ np.array([0.8, 0.1]))).astype(float)
    fit = fit_probit(X, y)
    assert np.allclose(fit.z_stats, fit.coefficients / fit.standard_errors)
    assert fit.pseudo_r2 == pytest.approx(
        1.0 - fit.log_likelihood / fit.null_log_likelihood)


def test_separation_detected():
    X = np.linspace(-1, 1, 100).reshape(-1, 1)
    y = (X.ravel() > 0).astype(float)
    with pytest.raises(SeparationError):
        fit_probit(X, y)


def test_collinearity_names_columns():
    rng = np.random.default_rng(9)
    a = rng.normal(size=300)
    X = np.column_stack([a, 2.0 * a, rng.normal(size=300)])
    y = (rng.random(300) < 0.5).astype(float)
    with pytest.raises(CollinearityError) as exc:
        fit_probit(X, y, names=("a", "a2", "b"))
    assert "a" in exc.value.columns and "a2" in exc.value.columns


def test_preconditions(monkeypatch):
    with pytest.raises(ValueError, match="both classes"):
        fit_probit(np.empty((20, 0)), np.ones(20))
    with pytest.raises(ValueError, match="rows"):
        fit_probit(np.random.default_rng(0).normal(size=(15, 2)), np.array([0, 1] * 7 + [0]))
    # inputs the fit cannot take are refused before the first likelihood pass
    log_ndtr = _counting(monkeypatch, regression, "log_ndtr")
    X, y = np.random.default_rng(1).normal(size=(40, 2)), np.array([0.0, 1.0] * 20)
    for bad_x, bad_y, problem in [(np.nan, None, "finite"), (np.inf, None, "finite"),
                                  (None, np.nan, "finite"), (None, 0.3, "only 0 and 1"),
                                  (None, -1.0, "only 0 and 1")]:
        Xb, yb = X.copy(), y.copy()
        if bad_x is not None:
            Xb[7, 1] = bad_x
        else:
            yb[7] = bad_y
        with pytest.raises(ValueError, match=problem):
            fit_probit(Xb, yb)
    with pytest.raises(ValueError, match="only 0 and 1"):
        fit_probit(X, np.full(40, 0.3))
    assert log_ndtr == []


def test_pseudo_r2_arithmetic():
    assert pseudo_r2(-100.0, -100.0) == 0.0
    assert pseudo_r2(-63.0, -100.0) == pytest.approx(0.37)
    assert pseudo_r2(-1e-9, -100.0) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        pseudo_r2(1.0, -100.0)
    with pytest.raises(ValueError):
        pseudo_r2(-50.0, 1.0)
    with pytest.raises(ValueError):
        pseudo_r2(-120.0, -100.0)


def _stepwise_data(seed, n=20_000, planted_effect=0.8):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    p = ndtr(-1.5 + planted_effect * X[:, 0])
    y = (rng.random(n) < p).astype(float)
    return X, y, ("planted", "n1", "n2", "n3", "n4")


def test_stepwise_selects_planted_predictor():
    X, y, names = _stepwise_data(seed=21)
    model = stepwise_select(X, y, names)
    assert model.variables[0] == "planted"
    assert all(v == "planted" for v in model.variables)  # noise never survives
    assert model.meta["pseudo_r2"] > 0.05
    assert model.intercept is not None


def test_stepwise_all_noise_selects_nothing():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(20_000, 4))
    y = (rng.random(20_000) < 0.1).astype(float)
    model = stepwise_select(X, y, ("a", "b", "c", "d"))
    assert model.variables == ()
    assert model.coefficients == ()


def test_stepwise_two_real_predictors():
    rng = np.random.default_rng(8)
    n = 30_000
    X = rng.normal(size=(n, 4))
    p = ndtr(-1.0 + 0.7 * X[:, 0] + 0.4 * X[:, 1])
    y = (rng.random(n) < p).astype(float)
    model = stepwise_select(X, y, ("a", "b", "c", "d"))
    assert set(model.variables) == {"a", "b"}
    assert model.variables[0] == "a"  # strongest first
    coefs = dict(zip(model.variables, model.coefficients))
    assert coefs["a"] == pytest.approx(0.7, abs=0.05)
    assert coefs["b"] == pytest.approx(0.4, abs=0.05)


def test_stepwise_needs_two_candidates():
    with pytest.raises(ValueError):
        stepwise_select(np.zeros((100, 1)), np.zeros(100), ("only",))


def _counting(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that appends each call's result."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    monkeypatch.setattr(module, name, counted)
    return calls


def _problem(seed, n, k, rate, rho):
    """n rows of k standard normal columns correlated pairwise by rho, and
    outcomes of a probit with small random slopes and a positive rate near rate."""
    rng = np.random.default_rng(seed)
    cov = np.full((k, k), rho) + (1.0 - rho) * np.eye(k)
    X = rng.multivariate_normal(np.zeros(k), cov, size=n) if k else np.empty((n, 0))
    y = (rng.random(n) < ndtr(ndtri(rate) + X @ rng.normal(scale=0.3, size=k))).astype(float)
    return X, y


def _assert_same_fit(got, want):
    assert got.names == want.names
    for field in ("coefficients", "standard_errors", "z_stats"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert (got.ll_path, got.n_iter, got.log_likelihood, got.pseudo_r2) \
        == (want.ll_path, want.n_iter, want.log_likelihood, want.pseudo_r2)


# n x k, with balanced and 2%-positive outcomes and independent and correlated columns
_ORACLE_CASES = [(seed, n, k, (0.5, 0.02)[seed % 2], (0.0, 0.8)[seed // 2 % 2])
                 for seed, (n, k) in enumerate(itertools.product((200, 1000, 5000, 20_000),
                                                                 range(5)))]


@pytest.mark.parametrize("seed,n,k,rate,rho", _ORACLE_CASES)
def test_fit_and_selection_equal_the_two_pass_oracle(seed, n, k, rate, rho):
    X, y = _problem(seed, n, k, rate, rho)
    _assert_same_fit(fit_probit(X, y), oracles.fit_probit(X, y))
    if k >= 2:
        names = tuple(f"v{j}" for j in range(k))
        got, want = stepwise_select(X, y, names), oracles.stepwise_select(X, y, names)
        assert (got.variables, got.coefficients, got.intercept, got.meta) \
            == (want.variables, want.coefficients, want.intercept, want.meta)


@pytest.mark.parametrize("error", [SeparationError, CollinearityError])
def test_fit_errors_equal_the_two_pass_oracle(error):
    if error is SeparationError:
        X = np.linspace(-1, 1, 100).reshape(-1, 1)
        y = (X.ravel() > 0).astype(float)
    else:
        X, y = _problem(4, 300, 2, 0.5, 0.0)
        X = np.column_stack([X[:, 0], 2.0 * X[:, 0], X[:, 1]])
    names = tuple(f"v{j}" for j in range(X.shape[1]))
    with pytest.raises(error) as got:
        fit_probit(X, y, names)
    with pytest.raises(error) as want:
        oracles.fit_probit(X, y, names)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "columns", None) == getattr(want.value, "columns", None)


@pytest.mark.parametrize("scale", [1.0, 16.0, -1.0])
def test_one_log_ndtr_pass_per_candidate(monkeypatch, scale):
    # Newton steps scaled by 16 overshoot, so steps are halved; reversed, they
    # lower the likelihood at every length, so all 40 halvings fail and the
    # 2^-40 step is taken all the same
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: scale * solve(a, b))
    X, y = _problem(3, 1000, 2, 0.5, 0.0)
    loglik = _counting(monkeypatch, oracles, "probit_loglik")
    want = oracles.fit_probit(X, y)
    log_ndtr = _counting(monkeypatch, regression, "log_ndtr")
    got = fit_probit(X, y)
    _assert_same_fit(got, want)
    if scale < 0:
        assert got.n_iter == 1 and len(log_ndtr) == 1 + 40 + 1
    else:
        # the oracle evaluates the start, each candidate and each step taken
        candidates = len(loglik) - 1 - want.n_iter
        assert (candidates > want.n_iter) == (scale > 1)
        assert len(log_ndtr) == 1 + candidates


def test_stepwise_fits_each_candidate_and_each_trial_once(monkeypatch):
    X, y = _problem(19, 20_000, 4, 0.02, 0.8)
    names = ("a", "b", "c", "d")
    fits = _counting(monkeypatch, regression, "fit_probit")
    log_ndtr = _counting(monkeypatch, regression, "log_ndtr")
    model = stepwise_select(X, y, names)
    trials = [h for h in model.meta["history"] if h["step"] >= 2]
    assert [h.get("rejected") for h in trials] == [None, "a"]
    assert len(fits) == len(names) + len(trials)
    # no step of these fits is halved: one pass at the start and one per iteration
    assert len(log_ndtr) == sum(1 + fit.n_iter for fit in fits)
