"""Gaussian mixture fitting by EM with BIC/AIC model selection."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

COV_KINDS = ("spherical", "diagonal", "tied", "full")

LOG_2PI = float(np.log(2.0 * np.pi))
DEGENERATE_WEIGHT = 1e-10


@dataclass(frozen=True)
class GmmParams:
    k: int = 7
    cov_kind: str = "tied"
    seed: int = 0
    max_iter: int = 500
    tol: float = 1e-6
    reg_covar: float = 1e-6
    n_init: int = 5

    def __post_init__(self):
        # a message starts with the field it names, which a config error then reports
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.cov_kind not in COV_KINDS:
            raise ValueError(f"cov_kind must be one of {COV_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.reg_covar < 0:
            raise ValueError("reg_covar must be non-negative")
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1")


@dataclass
class GmmModel:
    weights: np.ndarray         # (k,)
    means: np.ndarray           # (k, d)
    covariances: np.ndarray     # shape depends on cov_kind
    cov_kind: str
    loglik: float
    n_iter: int
    converged: bool
    loglik_history: list[float] = field(default_factory=list)
    degenerate: bool = False

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "cov_kind": self.cov_kind,
            "loglik": self.loglik,
            "n_iter": self.n_iter,
            "converged": self.converged,
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GmmModel":
        return cls(
            np.array(d["weights"], dtype=float),
            np.array(d["means"], dtype=float),
            np.array(d["covariances"], dtype=float),
            d["cov_kind"],
            d["loglik"],
            d["n_iter"],
            d["converged"],
            degenerate=d.get("degenerate", False),
        )


def kmeans_pp_seeds(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ center selection: squared-distance-weighted sampling."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = x[idx]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centers[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def _design(x: np.ndarray, cov_kind: str) -> np.ndarray:
    """Augmented design [x | sufficient-statistic columns] for one-GEMM E/M steps."""
    if cov_kind == "spherical":
        return np.hstack([x, np.sum(x**2, axis=1)[:, None]])
    if cov_kind == "diagonal":
        return np.hstack([x, x**2])
    n, d = x.shape
    xx = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    return np.hstack([x, xx])


def _weighted_log_prob(design, weights, means, covs, cov_kind) -> np.ndarray:
    """log(w_j N(x_i | mu_j, Sigma_j)), (n, k), as one gemm design @ b.T + c."""
    k, d = means.shape
    if cov_kind == "spherical":
        inv = 1.0 / covs
        b = np.hstack([means * inv[:, None], (-0.5 * inv)[:, None]])
        c = -0.5 * (d * LOG_2PI + d * np.log(covs) + np.sum(means**2, axis=1) * inv)
    elif cov_kind == "diagonal":
        inv = 1.0 / covs
        b = np.hstack([means * inv, -0.5 * inv])
        c = -0.5 * (d * LOG_2PI + np.sum(np.log(covs), axis=1) + np.sum(means**2 * inv, axis=1))
    elif cov_kind == "tied":
        chol = np.linalg.cholesky(covs)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        prec = np.linalg.inv(covs)
        prec = 0.5 * (prec + prec.T)
        pmu = means @ prec
        b = np.hstack([pmu, np.tile(-0.5 * prec.ravel(), (k, 1))])
        c = -0.5 * (d * LOG_2PI + logdet + np.sum(pmu * means, axis=1))
    elif cov_kind == "full":
        chol = np.linalg.cholesky(covs)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        prec = np.linalg.inv(covs)
        prec = 0.5 * (prec + prec.transpose(0, 2, 1))
        pmu = np.einsum("kde,ke->kd", prec, means)
        b = np.hstack([pmu, -0.5 * prec.reshape(k, d * d)])
        c = -0.5 * (d * LOG_2PI + logdet + np.sum(pmu * means, axis=1))
    else:
        raise ValueError(f"unknown cov_kind {cov_kind!r}")
    wlp = design @ b.T
    wlp += (c + np.log(weights))[None, :]
    return wlp


def _normalize(wlp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (wlp, normalised in place) and each row's max-shifted log-sum-exp."""
    wmax = wlp.max(axis=1)
    np.subtract(wlp, wmax[:, None], out=wlp)
    np.exp(wlp, out=wlp)
    norm = wlp.sum(axis=1)
    wlp /= norm[:, None]
    return wlp, np.log(norm) + wmax


def _m_step_cov(stat, nk, means, cov_kind, reg, n, total_xx=None):
    """Covariance update from the sufficient statistics gemm (resp.T @ design)."""
    k, d = means.shape
    if cov_kind == "spherical":
        var = (stat[:, d] / nk - np.sum(means**2, axis=1)) / d
        return np.maximum(var, 0.0) + reg
    if cov_kind == "diagonal":
        var = stat[:, d:] / nk[:, None] - means**2
        return np.maximum(var, 0.0) + reg
    if cov_kind == "tied":
        s = total_xx - (means * nk[:, None]).T @ means
        cov = s / n
        cov = 0.5 * (cov + cov.T)
        return cov + reg * np.eye(d)
    if cov_kind == "full":
        s = stat[:, d:].reshape(k, d, d) / nk[:, None, None]
        s -= means[:, :, None] * means[:, None, :]
        s = 0.5 * (s + s.transpose(0, 2, 1))
        return s + reg * np.eye(d)[None, :, :]
    raise ValueError(f"unknown cov_kind {cov_kind!r}")


def lloyd(x: np.ndarray, centers: np.ndarray, n_iter: int = 10) -> np.ndarray:
    """Lloyd's k-means from centers (updated in place; an empty cluster keeps its
    center) until the assignment repeats or n_iter passes; returns the assignment."""
    x2 = np.sum(x**2, axis=1)[:, None]
    assign = None
    for _ in range(n_iter):
        d2 = x2 - 2.0 * x @ centers.T + np.sum(centers**2, axis=1)[None, :]
        new_assign = np.argmin(d2, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(centers.shape[0]):
            mask = assign == j
            if mask.any():
                centers[j] = x[mask].mean(axis=0)
    return assign


def _fit_single(x: np.ndarray, params: GmmParams, rng: np.random.Generator) -> GmmModel:
    n, d = x.shape
    k = params.k
    design = _design(x, params.cov_kind)
    total_xx = x.T @ x if params.cov_kind == "tied" else None
    # hard assignment to refined k-means++ seeds initializes the first M-step
    centers = kmeans_pp_seeds(x, k, rng)
    assign = lloyd(x, centers)
    resp = np.zeros((n, k))
    resp[np.arange(n), assign] = 1.0

    weights = means = covs = None
    loglik = -np.inf
    history: list[float] = []
    converged = False
    degenerate = False
    reseeded = np.zeros(k, dtype=bool)
    n_iter = 0

    for n_iter in range(1, params.max_iter + 1):
        # M-step: one gemm yields every sufficient statistic
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 10.0 * np.finfo(float).tiny)
        stat = resp.T @ design
        weights = nk / n
        means = stat[:, :d] / nk[:, None]
        covs = _m_step_cov(stat, nk, means, params.cov_kind, params.reg_covar, n, total_xx)

        # degenerate components get one re-seed to a random data row
        low = np.where(weights < DEGENERATE_WEIGHT)[0]
        if low.size:
            for j in low:
                if reseeded[j]:
                    degenerate = True
                else:
                    reseeded[j] = True
                    means[j] = x[int(rng.integers(n))]
            weights = np.maximum(weights, 1.0 / n)
            weights = weights / weights.sum()

        # E-step: one gemm, then a single in-place exp pass shared by the
        # normalizer and the responsibilities
        wlp = _weighted_log_prob(design, weights, means, covs, params.cov_kind)
        resp, lse = _normalize(wlp)
        new_loglik = float(np.sum(lse))
        history.append(new_loglik)

        if np.isfinite(loglik) and abs(new_loglik - loglik) <= params.tol * max(1.0, abs(new_loglik)):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik

    return GmmModel(
        weights, means, covs, params.cov_kind, loglik, n_iter, converged, history, degenerate
    )


def fit_gmm(x: np.ndarray, params: GmmParams) -> GmmModel:
    """Best-of-n_init EM fit; restarts differ only in their k-means++ seeds."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    n, d = x.shape
    if n <= params.k:
        raise ValueError(f"need more rows ({n}) than components ({params.k})")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")

    best: GmmModel | None = None
    for init in range(params.n_init):
        rng = np.random.default_rng(np.random.SeedSequence([params.seed, init]))
        model = _fit_single(x, params, rng)
        if best is None or model.loglik > best.loglik:
            best = model
    return best


def _model_log_prob(model: GmmModel, x: np.ndarray) -> np.ndarray:
    design = _design(np.asarray(x, dtype=float), model.cov_kind)
    return _weighted_log_prob(design, model.weights, model.means, model.covariances, model.cov_kind)


def log_likelihood(model: GmmModel, x: np.ndarray) -> float:
    """Total log-likelihood of x under the mixture, by the E-step's arithmetic."""
    _, lse = _normalize(_model_log_prob(model, x))
    return float(np.sum(lse))


def predict(model: GmmModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard assignments (argmax, ties to the lowest index) and responsibilities."""
    wlp = _model_log_prob(model, x)
    labels = np.argmax(wlp, axis=1)
    resp, _ = _normalize(wlp)
    return labels, resp


def n_parameters(k: int, d: int, cov_kind: str) -> int:
    """Free-parameter count: means + weights + covariance terms."""
    cov_params = {
        "spherical": k,
        "diagonal": k * d,
        "tied": d * (d + 1) // 2,
        "full": k * d * (d + 1) // 2,
    }[cov_kind]
    return k * d + (k - 1) + cov_params


def information_criteria(model: GmmModel, x: np.ndarray) -> dict[str, float]:
    """BIC and AIC from the fit's own log-likelihood, ``model.loglik``.

    x must be the data the model was fitted on; only its row count is read.
    """
    n = np.asarray(x).shape[0]
    ll = model.loglik
    p = n_parameters(model.k, model.d, model.cov_kind)
    return {"bic": p * np.log(n) - 2.0 * ll, "aic": 2.0 * p - 2.0 * ll, "loglik": ll}


@dataclass
class SweepCell:
    k: int
    cov_kind: str
    loglik: float
    bic: float
    aic: float
    converged: bool
    error: str | None = None


@dataclass
class SweepResult:
    cells: dict[tuple[int, str], SweepCell]
    selected: tuple[int, str]
    elbow_k: int | None
    elbow_flag: str

    def rows(self) -> list[SweepCell]:
        return [self.cells[key] for key in sorted(self.cells)]


def cell_seed(base_seed: int, k: int, cov_kind: str) -> int:
    return (base_seed ^ zlib.crc32(f"{k}:{cov_kind}".encode())) & 0xFFFFFFFF


def sweep(
    x: np.ndarray,
    k_max: int = 21,
    kinds=COV_KINDS,
    params: GmmParams | None = None,
    selected: tuple[int, str] = (7, "tied"),
) -> SweepResult:
    """Fit every (k, covariance kind) cell and tabulate BIC/AIC.

    Individual cell failures are recorded and the sweep continues.
    """
    if params is None:
        params = GmmParams()
    cells: dict[tuple[int, str], SweepCell] = {}
    for k in range(1, k_max + 1):
        for kind in kinds:
            cell_params = replace(
                params, k=k, cov_kind=kind, seed=cell_seed(params.seed, k, kind),
                n_init=1 if k == 1 else params.n_init,
            )
            try:
                model = fit_gmm(x, cell_params)
                ic = information_criteria(model, x)
                cells[(k, kind)] = SweepCell(
                    k, kind, ic["loglik"], ic["bic"], ic["aic"], model.converged
                )
            except Exception as exc:  # cell failure must not kill the sweep
                cells[(k, kind)] = SweepCell(
                    k, kind, float("nan"), float("nan"), float("nan"), False, str(exc)
                )
    sel_k, sel_kind = selected
    series = {
        k: cell.bic for (k, kind), cell in cells.items() if kind == sel_kind and cell.error is None
    }
    elbow_k, flag = suggest_elbow(series)
    return SweepResult(cells, selected, elbow_k, flag)


def suggest_elbow(series: dict[int, float]) -> tuple[int | None, str]:
    """k with the largest discrete second difference of the BIC curve.

    Returns (None, "no-elbow") when the curve has no usable curvature
    (fewer than 3 points, or second differences all ~0, i.e. linear).
    """
    ks = sorted(series)
    if len(ks) < 3:
        return None, "no-elbow"
    vals = np.array([series[k] for k in ks], dtype=float)
    d2 = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.max(d2) <= 1e-9 * scale:
        return None, "no-elbow"
    return ks[1 + int(np.argmax(d2))], "ok"
