import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from visitscope.model import (
    COV_KINDS,
    GmmModel,
    GmmParams,
    cell_seed,
    fit_gmm,
    information_criteria,
    log_likelihood,
    n_parameters,
    predict,
    suggest_elbow,
    sweep,
)


def two_blobs(rng, n_per=300, sep=8.0, d=2):
    a = rng.normal(0.0, 1.0, size=(n_per, d))
    b = rng.normal(sep, 1.0, size=(n_per, d))
    return np.vstack([a, b])


def full_cov_from(model, j):
    kind = model.cov_kind
    d = model.d
    if kind == "spherical":
        return np.eye(d) * model.covariances[j]
    if kind == "diagonal":
        return np.diag(model.covariances[j])
    if kind == "tied":
        return model.covariances
    return model.covariances[j]


def naive_log_likelihood(model, x):
    n = x.shape[0]
    ll = 0.0
    for i in range(n):
        terms = [
            math.log(model.weights[j])
            + multivariate_normal.logpdf(x[i], model.means[j], full_cov_from(model, j))
            for j in range(model.k)
        ]
        ll += logsumexp(terms)
    return ll


# --- k = 1 closed forms -------------------------------------------------------

@pytest.mark.parametrize("kind", COV_KINDS)
def test_k1_matches_closed_form_mle(kind):
    rng = np.random.default_rng(3)
    x = rng.normal([1.0, -2.0, 0.5], [2.0, 0.5, 1.5], size=(400, 3))
    params = GmmParams(k=1, cov_kind=kind, reg_covar=0.0, n_init=1)
    model = fit_gmm(x, params)
    mean = x.mean(axis=0)
    centered = x - mean
    np.testing.assert_allclose(model.means[0], mean, rtol=1e-9)
    np.testing.assert_allclose(model.weights, [1.0], rtol=1e-12)
    if kind == "spherical":
        np.testing.assert_allclose(model.covariances[0], centered.var(axis=0).mean(), rtol=1e-9)
    elif kind == "diagonal":
        np.testing.assert_allclose(model.covariances[0], centered.var(axis=0), rtol=1e-9)
    else:
        sigma = centered.T @ centered / x.shape[0]
        cov = model.covariances if kind == "tied" else model.covariances[0]
        np.testing.assert_allclose(cov, sigma, rtol=1e-9)
    # closed-form Gaussian log-likelihood
    want = naive_log_likelihood(model, x)
    assert model.loglik == pytest.approx(want, rel=1e-9)


def test_single_standard_normal_density_at_origin():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, size=(5000, 1))
    model = fit_gmm(x, GmmParams(k=1, cov_kind="full", reg_covar=0.0, n_init=1))
    zero = np.zeros((1, 1))
    got = log_likelihood(model, zero)
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=0.02)


# --- recovery and invariances --------------------------------------------------

@pytest.mark.parametrize("kind", COV_KINDS)
def test_two_cluster_recovery(kind):
    rng = np.random.default_rng(11)
    x = two_blobs(rng)
    model = fit_gmm(x, GmmParams(k=2, cov_kind=kind, seed=1))
    assert model.converged
    means = model.means[np.argsort(model.means[:, 0])]
    np.testing.assert_allclose(means[0], [0.0, 0.0], atol=0.2)
    np.testing.assert_allclose(means[1], [8.0, 8.0], atol=0.2)
    np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.05)
    labels, resp = predict(model, x)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-12)
    split = np.bincount(labels, minlength=2)
    assert abs(split[0] - split[1]) < 20


def test_loglik_monotone_and_consistent():
    rng = np.random.default_rng(21)
    x = two_blobs(rng, n_per=150)
    for kind in COV_KINDS:
        model = fit_gmm(x, GmmParams(k=3, cov_kind=kind, seed=4))
        h = np.array(model.loglik_history)
        assert np.all(np.diff(h) >= -1e-8 * np.abs(h[:-1]))
        # log_likelihood repeats the E-step's arithmetic; BIC/AIC read model.loglik
        assert model.loglik == log_likelihood(model, x)
        assert information_criteria(model, x)["loglik"] == log_likelihood(model, x)


def test_row_duplication_scales_loglik():
    # duplicating every row leaves the MLE fixed and doubles the log-likelihood
    rng = np.random.default_rng(8)
    x = two_blobs(rng, n_per=100)
    params = GmmParams(k=2, cov_kind="diagonal", seed=2, tol=1e-10)
    m1 = fit_gmm(x, params)
    m2 = fit_gmm(np.vstack([x, x]), params)
    assert m2.loglik == pytest.approx(2.0 * m1.loglik, rel=1e-4)
    order1 = np.argsort(m1.means[:, 0])
    order2 = np.argsort(m2.means[:, 0])
    np.testing.assert_allclose(m1.means[order1], m2.means[order2], rtol=1e-3)


def test_log_likelihood_naive_oracle():
    rng = np.random.default_rng(14)
    x = two_blobs(rng, n_per=40)
    for kind in COV_KINDS:
        model = fit_gmm(x, GmmParams(k=3, cov_kind=kind, seed=5))
        assert log_likelihood(model, x) == pytest.approx(
            naive_log_likelihood(model, x), rel=1e-10
        )


def test_fixed_seed_bit_identical():
    rng = np.random.default_rng(17)
    x = two_blobs(rng, n_per=120)
    params = GmmParams(k=3, cov_kind="tied", seed=9)
    a = fit_gmm(x, params)
    b = fit_gmm(x, params)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covariances, b.covariances)
    assert a.loglik == b.loglik and a.n_iter == b.n_iter


def test_predict_tie_breaks_to_lowest_index():
    model = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [0.0]]),
        covariances=np.array([[[1.0]], [[1.0]]]),
        cov_kind="full",
        loglik=0.0,
        n_iter=0,
        converged=True,
    )
    labels, resp = predict(model, np.array([[0.3], [-1.2]]))
    assert labels.tolist() == [0, 0]
    np.testing.assert_allclose(resp, 0.5)


def test_model_round_trip_dict():
    rng = np.random.default_rng(23)
    x = two_blobs(rng, n_per=60)
    model = fit_gmm(x, GmmParams(k=2, cov_kind="full", seed=3))
    clone = GmmModel.from_dict(model.to_dict())
    assert log_likelihood(clone, x) == model.loglik
    labels_a, _ = predict(model, x)
    labels_b, _ = predict(clone, x)
    assert np.array_equal(labels_a, labels_b)


# --- error handling -------------------------------------------------------------

def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_gmm(np.zeros((5, 2)), GmmParams(k=7))
    with pytest.raises(ValueError):
        fit_gmm(np.array([1.0, 2.0, 3.0]), GmmParams(k=1))
    bad = np.ones((20, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        fit_gmm(bad, GmmParams(k=2))


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 0), ("cov_kind", "round"), ("seed", -1), ("max_iter", 0), ("tol", 0.0), ("reg_covar", -1e-9),
        ("n_init", 0),
    ],
)
def test_params_reject_out_of_range_values(field, value):
    # the message names the field first, as a config error reports it
    with pytest.raises(ValueError, match=f"^{field} must"):
        GmmParams(**{field: value})


def test_identical_points_regularized_not_crashing():
    x = np.ones((50, 2))
    model = fit_gmm(x, GmmParams(k=2, cov_kind="diagonal", seed=0))
    assert np.all(np.isfinite(model.means))
    assert np.isfinite(model.loglik)


# --- parameter counts and information criteria ----------------------------------

def test_parameter_count_table():
    expected = {
        (1, 1): (2, 2, 2, 2),
        (1, 2): (3, 4, 5, 5),
        (1, 3): (4, 6, 9, 9),
        (2, 1): (5, 5, 4, 5),
        (2, 2): (7, 9, 8, 11),
        (2, 3): (9, 13, 13, 19),
        (7, 1): (20, 20, 14, 20),
        (7, 2): (27, 34, 23, 41),
        (7, 3): (34, 48, 33, 69),
    }
    for (k, d), counts in expected.items():
        for kind, want in zip(COV_KINDS, counts):
            assert n_parameters(k, d, kind) == want, (k, d, kind)


def test_parameter_count_ordering():
    for k in (2, 3, 7):
        for d in (2, 3, 5):
            sph = n_parameters(k, d, "spherical")
            diag = n_parameters(k, d, "diagonal")
            full = n_parameters(k, d, "full")
            assert sph <= diag <= full


def test_information_criteria_formulas():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(200, 2))
    model = fit_gmm(x, GmmParams(k=2, cov_kind="spherical", seed=0))
    ic = information_criteria(model, x)
    p = n_parameters(2, 2, "spherical")
    assert ic["bic"] == pytest.approx(p * math.log(200) - 2 * ic["loglik"], rel=1e-12)
    assert ic["aic"] == pytest.approx(2 * p - 2 * ic["loglik"], rel=1e-12)


# --- sweep and elbow -------------------------------------------------------------

def bic_series(result, cov_kind):
    """k -> BIC of the sweep's cells of ``cov_kind`` that fitted."""
    return {
        k: cell.bic
        for (k, kind), cell in sorted(result.cells.items())
        if kind == cov_kind and cell.error is None
    }


def test_sweep_shape_and_elbow():
    rng = np.random.default_rng(6)
    centers = np.array([[0, 0], [6, 0], [0, 6], [6, 6], [3, 10]], dtype=float)
    x = np.vstack([c + rng.normal(0, 0.3, size=(80, 2)) for c in centers])
    result = sweep(x, k_max=9, params=GmmParams(seed=0, n_init=2), selected=(5, "tied"))
    assert len(result.cells) == 9 * 4
    assert all(cell.error is None for cell in result.cells.values())
    assert result.elbow_flag == "ok"
    assert result.elbow_k == 5
    series = bic_series(result, "tied")
    assert sorted(series) == list(range(1, 10))


def test_sweep_cell_seeds_are_distinct_and_stable():
    seeds = {cell_seed(42, k, kind) for k in range(1, 22) for kind in COV_KINDS}
    assert len(seeds) == 21 * 4
    assert cell_seed(42, 3, "tied") == cell_seed(42, 3, "tied")


def test_elbow_breakpoint():
    # piecewise-linear series with the slope break at k=7
    series = {k: -100.0 * min(k, 7) - 2.0 * max(0, k - 7) for k in range(1, 15)}
    k, flag = suggest_elbow(series)
    assert (k, flag) == (7, "ok")


def test_elbow_linear_is_none():
    series = {k: 500.0 - 3.0 * k for k in range(1, 12)}
    assert suggest_elbow(series) == (None, "no-elbow")


def test_elbow_needs_three_points():
    assert suggest_elbow({1: 5.0, 2: 4.0}) == (None, "no-elbow")


def test_elbow_convex_quadratic_first_interior():
    series = {k: float(k * k) for k in range(1, 8)}
    k, flag = suggest_elbow(series)
    assert flag == "ok" and k == 2
