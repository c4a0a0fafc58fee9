"""Narrow/wide model pairs: densities, scores at the null, information
matrices, samplers, and estimands, plus the built-in model catalogue.

A "model" here is always a pair: a narrow parametric family indexed by theta
(p components, the parameters kept under any analysis) and a wide family with
q extra departure coordinates gamma whose null value recovers the narrow
family. Everything these objects expose is evaluated at, or scores against,
a null point (theta, gamma0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np
from scipy import special

from .numerics import (
    DomainError,
    NumericsError,
    PartitionedInfo,
    _legendre_rule,
    central_gradient,
    shifted_normal_nodes,
    std_normal_pdf,
    std_normal_quantile,
)

EULER_GAMMA = float(np.euler_gamma)


# ---------------------------------------------------------------------------
# designs


@dataclass(frozen=True)
class Design:
    """Covariate layout for one data set.

    rows is an (n, k) array of covariates, or None for i.i.d. models.
    """

    n: int
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("design needs a positive sample size")
        if self.rows is not None:
            rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
            if rows.shape[0] != self.n:
                raise ValueError(
                    f"design has {rows.shape[0]} rows but declares n={self.n}"
                )
            object.__setattr__(self, "rows", rows)

    def column(self, j: int) -> np.ndarray:
        if self.rows is None:
            raise ValueError("i.i.d. design has no covariate columns")
        return self.rows[:, j]

    def repeat(self, k: int) -> "Design":
        """Each observation repeated k times, preserving order."""
        if self.rows is None:
            return Design(self.n * k)
        return Design(self.n * k, np.repeat(self.rows, k, axis=0))


def uniform_grid_design(n: int, b: float = 1.0) -> Design:
    """Equally spaced covariate x_i = b*i/(n+1), i = 1..n."""
    x = b * np.arange(1, n + 1) / (n + 1.0)
    return Design(n, x[:, None])


def _golden_sequence(n: int) -> np.ndarray:
    # low-discrepancy fractional parts; decorrelated from any monotone column
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    u = np.mod((np.arange(1, n + 1) * phi) + 0.5 / n, 1.0)
    return np.asarray(std_normal_quantile(u))


# ---------------------------------------------------------------------------
# estimands


def _col(params, j):
    """Parameter j of a vector (a scalar), or of each row of a stack (B, k)
    (a column (B, 1)), so that it broadcasts against y of shape (n,) or
    (B, n)."""
    params = np.asarray(params, dtype=float)
    return params[:, j, None] if params.ndim > 1 else params[j]


def _log(col):
    """math.log of a parameter (see _col), entry by entry for a column, NaN
    where it is not positive; one parameter vector gets the scalar bits."""
    if not isinstance(col, np.ndarray):
        return math.log(col) if col > 0.0 else math.nan
    values = col.ravel().tolist()
    return np.array([math.log(v) if v > 0.0 else math.nan for v in values]).reshape(col.shape)


def _square(col):
    """A parameter (see _col) squared as Python's float power does."""
    if not isinstance(col, np.ndarray):
        return float(col) ** 2
    return np.array([v**2 for v in col.ravel().tolist()]).reshape(col.shape)


def _on_support(value, *positive):
    """value() where every entry of the parameters or arrays in positive is
    positive, -inf elsewhere. Only if some entry is not does value() run
    with numpy's warnings silenced, since they come from those entries."""
    for a in positive:
        if not (a.size == 0 or a.min() > 0.0 if isinstance(a, np.ndarray) else a > 0.0):
            break
    else:
        return value()
    outside = functools.reduce(np.logical_or, [~(np.asarray(a) > 0.0) for a in positive])
    with np.errstate(all="ignore"):
        return np.where(outside, -np.inf, value())


def _pack_split(theta, gamma):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    return theta, gamma


@dataclass(frozen=True)
class Estimand:
    """A scalar focus parameter mu(theta, gamma).

    Gradients at a point use the registered closed forms when present and
    central finite differences with step 1e-6*(1+|coordinate|) otherwise.
    """

    name: str
    value: Callable
    grad_theta: Callable | None = None
    grad_gamma: Callable | None = None

    def __call__(self, theta, gamma) -> float:
        theta, gamma = _pack_split(theta, gamma)
        return float(self.value(theta, gamma))

    def gradients(self, theta, gamma):
        """(d mu / d theta, d mu / d gamma) at the given point."""
        theta, gamma = _pack_split(theta, gamma)
        if self.grad_theta is not None and self.grad_gamma is not None:
            gt = np.atleast_1d(np.asarray(self.grad_theta(theta, gamma), dtype=float))
            gg = np.atleast_1d(np.asarray(self.grad_gamma(theta, gamma), dtype=float))
            return gt, gg
        packed = np.concatenate([theta, gamma])
        p = theta.size

        def on_packed(x):
            return float(self.value(x[:p], x[p:]))

        grad = central_gradient(on_packed, packed)
        return grad[:p], grad[p:]


# ---------------------------------------------------------------------------
# the model abstraction


@dataclass(frozen=True)
class ModelSpec:
    """One narrow/wide pair.

    Callable fields share these signatures:
      log_density(y, design, theta, gamma) -> (n,) per-observation values
          (-inf outside the support or parameter domain)
      score_null(y, design, theta) -> (U, V): per-observation score columns
          for theta and gamma, evaluated at (theta, gamma0)
      sampler(theta, gamma, design, rng) -> (n,) observations
      null_quadrature(theta, design) -> (ymat, wmat), each (n, K): nodes and
          probability weights for integrating against each observation's
          null conditional distribution (weights sum to 1 per row)
      closed_information(theta, design) -> PartitionedInfo, when available
      narrow_fit_exact(y, design) -> theta_hat, when the narrow MLE is closed
      wide_fit_exact(y, design) -> (theta_hat, gamma_hat), likewise
      data_check(y, design) -> None, raising DomainError on bad data

    A model with narrow_fit_exact is fitted in stacks: narrow_fit_exact,
    wide_fit_exact (if set) and log_density must then also accept y of
    shape (B, n), one sample per row on the same design, with theta of
    shape (B, p) and gamma of shape (B, q), and return B rows (theta_hat
    (B, p), gamma_hat (B, q), log densities (B, n)). Index parameters as
    theta[..., j], never float(theta[0]). A stacked fit also fits its last
    row alone and raises TypeError if the two differ. data_check and the
    other callables always see one sample.
    """

    name: str
    param_names: tuple
    theta0: tuple
    gamma0: tuple
    log_density: Callable
    score_null: Callable
    sampler: Callable
    default_design: Callable
    null_quadrature: Callable
    closed_information: Callable | None = None
    narrow_fit_exact: Callable | None = None
    wide_fit_exact: Callable | None = None
    data_check: Callable | None = None
    estimand_factories: Mapping[str, Callable] = field(default_factory=dict)
    default_estimand: str = ""

    @property
    def p(self) -> int:
        return len(self.theta0)

    @property
    def q(self) -> int:
        return len(self.gamma0)

    def estimand_names(self):
        return tuple(self.estimand_factories)

    def estimand(self, name: str, design: Design, **params) -> Estimand:
        try:
            factory = self.estimand_factories[name]
        except KeyError:
            known = ", ".join(sorted(self.estimand_factories))
            raise KeyError(
                f"model {self.name!r} has no estimand {name!r} (known: {known})"
            ) from None
        return factory(design, **params)

    def loglik(self, y, design, theta, gamma) -> float:
        return float(np.sum(self.log_density(y, design, theta, gamma)))


def information_at_null(model: ModelSpec, design: Design, theta=None) -> PartitionedInfo:
    """Per-observation information of the wide model at (theta, gamma0).

    Uses the model's closed form when registered, otherwise averages
    score outer products against the null quadrature. theta may also be a
    stack (R, p) of parameter rows: the blocks then carry a leading row
    axis, and a row whose information raises a NumericsError or is not
    positive definite is NaN and listed in errors, where a single theta
    raises.
    """
    theta = np.asarray(model.theta0 if theta is None else theta, dtype=float)
    rows = theta if theta.ndim == 2 else theta[None]
    infos, errors = [], {}
    for r, row in enumerate(rows):
        try:
            if model.closed_information is not None:
                infos.append(model.closed_information(row, design))
            else:
                infos.append(information_generic(model, design, row))
        except NumericsError as err:
            infos.append(None)
            errors[r] = err
    p, q = model.p, model.q
    j11 = np.full((len(rows), p, p), np.nan)
    j12 = np.full((len(rows), p, q), np.nan)
    j22 = np.full((len(rows), q, q), np.nan)
    live = [r for r, info in enumerate(infos) if info is not None]
    for r in live:
        j11[r], j12[r], j22[r] = infos[r].j11, infos[r].j12, infos[r].j22
    stacked = PartitionedInfo(j11, j12, j22, errors=errors)
    eigs = np.linalg.eigvalsh(stacked.matrix[live])
    for r, low, high in zip(live, eigs[:, 0], eigs[:, -1]):
        if low <= 1e-12 * max(high, 1.0):
            errors[r] = NumericsError(
                f"information matrix for {model.name!r} is not positive definite; "
                "the design may be too small or a score function misdeclared"
            )
            for block in (stacked.j11, stacked.j12, stacked.j22):
                block[r] = np.nan
    if theta.ndim < 2:
        if errors:
            raise errors[0]
        return infos[0]
    return stacked


def _null_scores(model: ModelSpec, design: Design, theta):
    """The null scores U and V at every node of the null quadrature, as
    columns over the flattened (observation, node) grid, and the weight of
    each grid point in the design average."""
    theta = np.asarray(model.theta0 if theta is None else theta, dtype=float)
    ymat, wmat = model.null_quadrature(theta, design)
    u, v = model.score_null(np.ravel(ymat), design.repeat(ymat.shape[1]), theta)
    return np.atleast_2d(u.T).T, np.atleast_2d(v.T).T, np.ravel(wmat) / design.n


def information_generic(model: ModelSpec, design: Design, theta=None) -> PartitionedInfo:
    """Information by quadrature: average E[s s'] over the design rows."""
    u, v, w = _null_scores(model, design, theta)
    scores = np.hstack([u, v])
    full = scores.T @ (scores * w[:, None])
    return PartitionedInfo.from_full(0.5 * (full + full.T), model.p)


def mean_abs_departure_score(model: ModelSpec, design: Design, theta=None) -> np.ndarray:
    """E0 |V(Y)| per departure coordinate, averaged over the design."""
    _, v, w = _null_scores(model, design, theta)
    return np.abs(v).T @ w


# ---------------------------------------------------------------------------
# shared quadrature node layouts


@lru_cache(maxsize=4)
def _exp_unit_nodes(
    panels=(0.0, 2.0**-20, 2.0**-15, 2.0**-10, 2.0**-5, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0),
    per=48,
):
    """Nodes/weights integrating g against the unit exponential density.

    The panels are graded geometrically near zero so that integrands with a
    log y factor (the shape scores of the Weibull and gamma departures) keep
    the endpoint singularity confined to a panel of negligible mass.
    """
    gx, gw = _legendre_rule(per)
    nodes, weights = [], []
    for lo, hi in zip(panels[:-1], panels[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        x = mid + half * gx
        nodes.append(x)
        weights.append(half * gw * np.exp(-x))
    return np.concatenate(nodes), np.concatenate(weights)


def _broadcast_nodes(design: Design, y_row: np.ndarray, w_row: np.ndarray):
    ymat = np.broadcast_to(y_row, (design.n, y_row.size))
    wmat = np.broadcast_to(w_row, (design.n, w_row.size))
    return ymat, wmat


def _normal_nodes(means: np.ndarray, sigma: float):
    """Null quadrature of normal errors with scale sigma about each of the
    means (n,): the standard normal rule of numerics, shifted and scaled."""
    z, wt = shifted_normal_nodes(0.0)
    ymat = means[:, None] + sigma * z[None, :]
    return ymat, np.broadcast_to(wt, ymat.shape)


# ---------------------------------------------------------------------------
# Example family: exponential narrow model


def _require_positive(y, what="observations"):
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DomainError(f"empty {what}")
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise DomainError(f"{what} must be positive and finite")


def _exp_rate_mle(y, design):
    return 1.0 / np.mean(y, axis=-1, keepdims=True)


def weibull_vs_exp(rate: float = 1.0) -> ModelSpec:
    """Exponential(rate) narrow model inside the Weibull family.

    The departure coordinate is the Weibull shape, with null value 1.
    """

    def log_density(y, design, theta, gamma):
        th, g = _col(theta, 0), _col(gamma, 0)
        y = np.asarray(y, dtype=float)
        return _on_support(
            lambda: _log(g) + g * _log(th) + (g - 1.0) * np.log(y) - (th * y) ** g, th, g, y
        )

    def score_null(y, design, theta):
        th = float(theta[0])
        w = th * np.asarray(y, dtype=float)
        u = (1.0 - w)[:, None] / th
        logw = np.log(w)
        v = (1.0 + logw - w * logw)[:, None]
        return u, v

    def closed_information(theta, design):
        th = float(theta[0])
        j11 = np.array([[1.0 / th**2]])
        j12 = np.array([[(1.0 - EULER_GAMMA) / th]])
        j22 = np.array([[math.pi**2 / 6.0 + (1.0 - EULER_GAMMA) ** 2]])
        return PartitionedInfo(j11, j12, j22)

    def sampler(theta, gamma, design, rng):
        th, g = float(theta[0]), float(gamma[0])
        return rng.exponential(1.0, design.n) ** (1.0 / g) / th

    def null_quadrature(theta, design):
        w, wt = _exp_unit_nodes()
        return _broadcast_nodes(design, w / float(theta[0]), wt)

    def wide_fit_exact(y, design):
        y = np.asarray(y, dtype=float)
        shape = np.asarray(_weibull_shape_mle(y))[..., None]
        rate = (y.shape[-1] / np.sum(y**shape, axis=-1, keepdims=True)) ** (1.0 / shape)
        return rate, shape

    def median_value(theta, gamma):
        return math.log(2.0) ** (1.0 / gamma[0]) / theta[0]

    def median_grad_theta(theta, gamma):
        return [-math.log(2.0) ** (1.0 / gamma[0]) / theta[0] ** 2]

    def median_grad_gamma(theta, gamma):
        m = median_value(theta, gamma)
        return [-m * math.log(math.log(2.0)) / gamma[0] ** 2]

    median = Estimand("median", median_value, median_grad_theta, median_grad_gamma)

    return ModelSpec(
        name="weibull-vs-exp",
        param_names=("rate", "shape"),
        theta0=(rate,),
        gamma0=(1.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, **kw: Design(int(n)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=_exp_rate_mle,
        wide_fit_exact=wide_fit_exact,
        data_check=lambda y, design: _require_positive(y),
        estimand_factories={
            "median": lambda design: median,
            "mean": lambda design: Estimand(
                "mean",
                lambda th, g: math.gamma(1.0 + 1.0 / g[0]) / th[0],
            ),
        },
        default_estimand="median",
    )


def _weibull_shape_mle(y: np.ndarray):
    """Shape MLE of a sample (n,), or of each row of a stack (B, n).

    The root in g of the profile equation
    f(g) = 1/g + mean(log y) - sum(y^g log y)/sum(y^g), with y^g written as
    exp(g*(log y - max log y)). f decreases, with f'(g) = -1/g^2 - Var_w(log y)
    under weights w proportional to y^g, so the root is unique. It is
    bracketed in [1e-2, 4], the upper end doubled up to 1e3, then found by
    Newton steps from g = 1 that bisect when they leave the bracket; a row
    stops once its step is at most 1e-12 + 1e-14*g. Returns a float, or B
    shapes; raises NumericsError if any row cannot be bracketed.
    """
    logy = np.atleast_2d(np.log(y))
    u = logy - logy.max(axis=-1, keepdims=True)
    mean_u = u.mean(axis=-1)

    def profile(g, rows):
        """f and f' at g[i] for row rows[i]."""
        ur = u[rows]
        w = np.exp(g[:, None] * ur)
        w /= w.sum(axis=-1, keepdims=True)
        mean_w = (w * ur).sum(axis=-1)
        var_w = (w * (ur - mean_w[:, None]) ** 2).sum(axis=-1)
        return 1.0 / g + mean_u[rows] - mean_w, -1.0 / g**2 - var_w

    every = np.arange(len(u))
    lo, hi = np.full(len(u), 1e-2), np.full(len(u), 4.0)
    f_hi = profile(hi, every)[0]
    grow = f_hi > 0.0
    while grow.any():
        hi[grow] *= 2.0
        f_hi[grow] = profile(hi[grow], every[grow])[0]
        grow = (f_hi > 0.0) & (hi < 1e3)
    if np.any(profile(lo, every)[0] < 0.0) or np.any(f_hi > 0.0):
        raise NumericsError("Weibull shape equation could not be bracketed")

    g = np.ones(len(u))
    active = every
    for _ in range(200):
        f, slope = profile(g[active], active)
        lo[active] = np.where(f > 0.0, g[active], lo[active])
        hi[active] = np.where(f < 0.0, g[active], hi[active])
        step = -f / slope
        new = g[active] + step
        outside = (new < lo[active]) | (new > hi[active])
        new[outside] = 0.5 * (lo[active] + hi[active])[outside]
        moved = np.abs(new - g[active])
        g[active] = new
        active = active[moved > 1e-12 + 1e-14 * np.abs(new)]
        if not active.size:
            return g if np.ndim(y) > 1 else float(g[0])
    raise NumericsError("Weibull shape equation did not converge")


def gamma_vs_exp(rate: float = 1.0) -> ModelSpec:
    """Exponential(rate) narrow model inside the gamma family (shape null 1)."""

    def log_density(y, design, theta, gamma):
        th, g = _col(theta, 0), _col(gamma, 0)
        y = np.asarray(y, dtype=float)
        return _on_support(
            lambda: g * _log(th) - special.gammaln(g) + (g - 1.0) * np.log(y) - th * y,
            th, g, y,
        )

    def score_null(y, design, theta):
        th = float(theta[0])
        y = np.asarray(y, dtype=float)
        u = (1.0 / th - y)[:, None]
        # digamma(1) = -EULER_GAMMA
        v = (np.log(th * y) + EULER_GAMMA)[:, None]
        return u, v

    def closed_information(theta, design):
        th = float(theta[0])
        return PartitionedInfo(
            [[1.0 / th**2]], [[-1.0 / th]], [[math.pi**2 / 6.0]]
        )

    def sampler(theta, gamma, design, rng):
        return rng.gamma(float(gamma[0]), 1.0 / float(theta[0]), design.n)

    def null_quadrature(theta, design):
        w, wt = _exp_unit_nodes()
        return _broadcast_nodes(design, w / float(theta[0]), wt)

    return ModelSpec(
        name="gamma-vs-exp",
        param_names=("rate", "shape"),
        theta0=(rate,),
        gamma0=(1.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, **kw: Design(int(n)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=_exp_rate_mle,
        data_check=lambda y, design: _require_positive(y),
        estimand_factories={
            "mean": lambda design: Estimand(
                "mean",
                lambda th, g: g[0] / th[0],
                lambda th, g: [-g[0] / th[0] ** 2],
                lambda th, g: [1.0 / th[0]],
            ),
        },
        default_estimand="mean",
    )


# ---------------------------------------------------------------------------
# normal regression families


def _lstsq_fit(y, columns):
    """Least squares coefficients and the ML residual scale of y, (n,) or
    one fit per row of (B, n): coef (k,) or (B, k), sigma a float or (B,)."""
    y = np.asarray(y, dtype=float)
    coef = np.linalg.lstsq(columns, y.T, rcond=None)[0].T
    resid = y - coef @ columns.T
    return coef, np.sqrt(np.mean(resid**2, axis=-1))


def _normal_log_density(y, means, sigma):
    """Normal log densities of y about means; -inf where sigma <= 0."""

    def value():
        z = (np.asarray(y, dtype=float) - means) / sigma
        return -_log(sigma) - 0.5 * z * z - 0.5 * math.log(2.0 * math.pi)

    return _on_support(value, sigma)


def _centered(design: Design) -> np.ndarray:
    x = design.column(0)
    return x - float(np.mean(x))


def _centered_slope_fit(y, design):
    """(sigma, slope) of the no-intercept fit on the centred covariate."""
    coef, s = _lstsq_fit(y, _centered(design)[:, None])
    return np.stack([s, coef[..., 0]], axis=-1)


def _line_fit(y, design):
    """(sigma, intercept, slope) of the straight-line fit on column 0."""
    x = design.column(0)
    coef, s = _lstsq_fit(y, np.column_stack([np.ones_like(x), x]))
    return np.concatenate([s[..., None], coef], axis=-1)


def linreg_quadratic(sigma: float = 1.0, beta: float = 1.0) -> ModelSpec:
    """Centered straight-line regression, departure = quadratic term.

    Narrow mean beta*(x - xbar) with no intercept; the wide model adds
    gamma*(x - xbar)^2. theta = (sigma, beta).
    """

    def means(design, theta, gamma):
        t = _centered(design)
        return _col(theta, 1) * t + _col(gamma, 0) * t * t

    def log_density(y, design, theta, gamma):
        return _normal_log_density(y, means(design, theta, gamma), _col(theta, 0))

    def score_null(y, design, theta):
        s = float(theta[0])
        t = _centered(design)
        z = (np.asarray(y, dtype=float) - theta[1] * t) / s
        u = np.column_stack([(z * z - 1.0) / s, t * z / s])
        v = (t * t * z / s)[:, None]
        return u, v

    def closed_information(theta, design):
        s = float(theta[0])
        t = _centered(design)
        m2, m3, m4 = (float(np.mean(t**k)) for k in (2, 3, 4))
        j11 = np.array([[2.0, 0.0], [0.0, m2]]) / s**2
        j12 = np.array([[0.0], [m3]]) / s**2
        j22 = np.array([[m4]]) / s**2
        return PartitionedInfo(j11, j12, j22)

    def sampler(theta, gamma, design, rng):
        return means(design, theta, gamma) + float(theta[0]) * rng.standard_normal(design.n)

    def null_quadrature(theta, design):
        return _normal_nodes(theta[1] * _centered(design), float(theta[0]))

    def wide_fit_exact(y, design):
        t = _centered(design)
        coef, s = _lstsq_fit(y, np.column_stack([t, t * t]))
        return np.stack([s, coef[..., 0]], axis=-1), coef[..., 1:]

    def mean_at(design, x0=None):
        x = design.column(0)
        t0 = float((max(x) if x0 is None else float(x0)) - np.mean(x))
        return Estimand(
            f"mean-at(x0={x0 if x0 is not None else 'max'})",
            lambda th, g: th[1] * t0 + g[0] * t0 * t0,
            lambda th, g: [0.0, t0],
            lambda th, g: [t0 * t0],
        )

    return ModelSpec(
        name="linreg-quadratic",
        param_names=("sigma", "slope", "curvature"),
        theta0=(sigma, beta),
        gamma0=(0.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, b=1.0, **kw: uniform_grid_design(int(n), float(b)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=_centered_slope_fit,
        wide_fit_exact=wide_fit_exact,
        estimand_factories={
            "slope": lambda design: Estimand(
                "slope",
                lambda th, g: th[1],
                lambda th, g: [0.0, 1.0],
                lambda th, g: [0.0],
            ),
            "mean-at": mean_at,
        },
        default_estimand="slope",
    )


def linreg_covariate(sigma: float = 1.0, alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Simple linear regression, departure = one omitted covariate.

    Design columns are (x, z); the wide mean is alpha + beta*x + gamma*z.
    """

    def means(design, theta, gamma):
        return (
            _col(theta, 1)
            + _col(theta, 2) * design.column(0)
            + _col(gamma, 0) * design.column(1)
        )

    def log_density(y, design, theta, gamma):
        return _normal_log_density(y, means(design, theta, gamma), _col(theta, 0))

    def score_null(y, design, theta):
        s = float(theta[0])
        x, zcol = design.column(0), design.column(1)
        r = (np.asarray(y, dtype=float) - theta[1] - theta[2] * x) / s
        u = np.column_stack([(r * r - 1.0) / s, r / s, x * r / s])
        v = (zcol * r / s)[:, None]
        return u, v

    def closed_information(theta, design):
        s = float(theta[0])
        x, zcol = design.column(0), design.column(1)
        one = np.ones_like(x)
        j11 = np.zeros((3, 3))
        j11[0, 0] = 2.0
        j11[1:, 1:] = np.array(
            [[1.0, float(np.mean(x))], [float(np.mean(x)), float(np.mean(x * x))]]
        )
        j12 = np.array([[0.0], [float(np.mean(zcol))], [float(np.mean(x * zcol))]])
        j22 = np.array([[float(np.mean(zcol * zcol))]])
        return PartitionedInfo(j11 / s**2, j12 / s**2, j22 / s**2)

    def sampler(theta, gamma, design, rng):
        return means(design, theta, gamma) + float(theta[0]) * rng.standard_normal(design.n)

    def null_quadrature(theta, design):
        return _normal_nodes(theta[1] + theta[2] * design.column(0), float(theta[0]))

    def wide_fit_exact(y, design):
        x, zcol = design.column(0), design.column(1)
        coef, s = _lstsq_fit(y, np.column_stack([np.ones_like(x), x, zcol]))
        return np.concatenate([s[..., None], coef[..., :2]], axis=-1), coef[..., 2:]

    def mean_at(design, x0=None, z0=0.0):
        x0 = float(max(design.column(0)) if x0 is None else x0)
        z0 = float(z0)
        return Estimand(
            f"mean-at(x0={x0:g},z0={z0:g})",
            lambda th, g: th[1] + th[2] * x0 + g[0] * z0,
            lambda th, g: [0.0, 1.0, x0],
            lambda th, g: [z0],
        )

    def covariate_design(n, b=1.0, **kw):
        n = int(n)
        x = b * np.arange(1, n + 1) / (n + 1.0)
        return Design(n, np.column_stack([x, _golden_sequence(n)]))

    return ModelSpec(
        name="linreg-covariate",
        param_names=("sigma", "intercept", "slope", "extra-slope"),
        theta0=(sigma, alpha, beta),
        gamma0=(0.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=covariate_design,
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=_line_fit,
        wide_fit_exact=wide_fit_exact,
        estimand_factories={"mean-at": mean_at},
        default_estimand="mean-at",
    )


def varhet_regression(sigma: float = 1.0, alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Linear regression whose departure is variance heterogeneity.

    Wide variance sigma^2 * (1 + gamma * x); theta = (sigma, alpha, beta).
    """

    def variances(design, theta, gamma):
        return float(theta[0]) ** 2 * (1.0 + gamma[0] * design.column(0))

    def log_density(y, design, theta, gamma):
        s, x = _col(theta, 0), design.column(0)
        var = _square(s) * (1.0 + _col(gamma, 0) * x)
        m = _col(theta, 1) + _col(theta, 2) * x
        r2 = (np.asarray(y, dtype=float) - m) ** 2
        return _on_support(lambda: -0.5 * (np.log(2.0 * math.pi * var) + r2 / var), s, var)

    def score_null(y, design, theta):
        s = float(theta[0])
        x = design.column(0)
        z = (np.asarray(y, dtype=float) - theta[1] - theta[2] * x) / s
        u = np.column_stack([(z * z - 1.0) / s, z / s, x * z / s])
        v = (0.5 * x * (z * z - 1.0))[:, None]
        return u, v

    def closed_information(theta, design):
        s = float(theta[0])
        x = design.column(0)
        mx, mxx = float(np.mean(x)), float(np.mean(x * x))
        j11 = np.array([[2.0 / s**2, 0.0, 0.0],
                        [0.0, 1.0 / s**2, mx / s**2],
                        [0.0, mx / s**2, mxx / s**2]])
        j12 = np.array([[mx / s], [0.0], [0.0]])
        j22 = np.array([[mxx / 2.0]])
        return PartitionedInfo(j11, j12, j22)

    def sampler(theta, gamma, design, rng):
        var = variances(design, theta, gamma)
        if np.any(var <= 0.0):
            raise DomainError("variance profile is not positive over the design")
        m = theta[1] + theta[2] * design.column(0)
        return m + np.sqrt(var) * rng.standard_normal(design.n)

    def null_quadrature(theta, design):
        return _normal_nodes(theta[1] + theta[2] * design.column(0), float(theta[0]))

    def sd_at(design, x0=None):
        x0 = float(np.mean(design.column(0)) if x0 is None else x0)
        return Estimand(
            f"sd-at(x0={x0:g})",
            lambda th, g: th[0] * math.sqrt(1.0 + g[0] * x0),
            lambda th, g: [math.sqrt(1.0 + g[0] * x0), 0.0, 0.0],
            lambda th, g: [th[0] * x0 / (2.0 * math.sqrt(1.0 + g[0] * x0))],
        )

    def mean_at(design, x0=None):
        x0 = float(max(design.column(0)) if x0 is None else x0)
        return Estimand(
            f"mean-at(x0={x0:g})",
            lambda th, g: th[1] + th[2] * x0,
            lambda th, g: [0.0, 1.0, x0],
            lambda th, g: [0.0],
        )

    return ModelSpec(
        name="varhet-regression",
        param_names=("sigma", "intercept", "slope", "var-slope"),
        theta0=(sigma, alpha, beta),
        gamma0=(0.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, b=1.0, **kw: uniform_grid_design(int(n), float(b)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=_line_fit,
        estimand_factories={"sd-at": sd_at, "mean-at": mean_at},
        default_estimand="sd-at",
    )


# ---------------------------------------------------------------------------
# power-transformed normal families


def transformation_constants():
    """The two cross-information constants of the transformed-normal model.

    Returns (a, b) with a = E[N log Phi(N)] and b = E[1 + N^2 log Phi(N)]
    for a standard normal N, computed by Gauss-Hermite quadrature.
    """
    z, w = shifted_normal_nodes(0.0)
    logphi = special.log_ndtr(z)
    a = float(w @ (z * logphi))
    b = float(w @ (1.0 + z * z * logphi))
    return a, b


@dataclass(frozen=True)
class NoiseSummaries:
    median_shift: float
    iqr_scale: float
    mean_shift: float
    sd_scale: float


def reparameterised_noise_summaries(power: float) -> NoiseSummaries:
    """Location/scale summaries of the tilted noise density power*Phi^(power-1)*phi.

    The median and quartiles are closed-form quantile transforms; the mean
    and standard deviation come from panel quadrature of the density.
    Raises DomainError for power <= 0.
    """
    lam = float(power)
    if lam <= 0.0:
        raise DomainError("the tilt power must be positive")
    median = float(std_normal_quantile(0.5 ** (1.0 / lam)))
    iqr = float(
        std_normal_quantile(0.75 ** (1.0 / lam)) - std_normal_quantile(0.25 ** (1.0 / lam))
    )
    lo = -math.sqrt(83.0 / min(lam, 1.0) + 25.0)
    hi = 10.0 + math.sqrt(max(math.log(max(lam, 1.0)), 0.0))
    gx, gw = _legendre_rule(160)
    edges = np.linspace(lo, hi, 9)
    m1 = m2 = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        z = mid + half * gx
        dens = lam * np.exp((lam - 1.0) * special.log_ndtr(z)) * std_normal_pdf(z)
        m1 += float(half * (gw * dens) @ z)
        m2 += float(half * (gw * dens) @ (z * z))
    sd = math.sqrt(max(m2 - m1 * m1, 0.0))
    return NoiseSummaries(median, iqr, m1, sd)


def _transform_log_density(y, means, sigma, lam):
    def value():
        z = (np.asarray(y, dtype=float) - means) / sigma
        return (
            _log(lam)
            + (lam - 1.0) * special.log_ndtr(z)
            - 0.5 * z * z
            - 0.5 * math.log(2.0 * math.pi)
            - _log(sigma)
        )

    return _on_support(value, sigma, lam)


def _transform_sampler(means, sigma, lam, n, rng):
    u = rng.random(n)
    z = std_normal_quantile(u ** (1.0 / lam))
    return means + sigma * np.asarray(z)


def transform_constant(sigma: float = 1.0, xi: float = 0.0) -> ModelSpec:
    """Constant-mean normal model against the CDF-power transformation.

    Wide density (power)*Phi(z)^(power-1)*phi(z)/sigma with z = (y-xi)/sigma;
    power has null value 1. theta = (sigma, xi).
    """

    def log_density(y, design, theta, gamma):
        return _transform_log_density(y, _col(theta, 1), _col(theta, 0), _col(gamma, 0))

    def score_null(y, design, theta):
        s = float(theta[0])
        z = (np.asarray(y, dtype=float) - theta[1]) / s
        u = np.column_stack([(z * z - 1.0) / s, z / s])
        v = (1.0 + special.log_ndtr(z))[:, None]
        return u, v

    def closed_information(theta, design):
        s = float(theta[0])
        a, b = transformation_constants()
        j11 = np.array([[2.0 / s**2, 0.0], [0.0, 1.0 / s**2]])
        j12 = np.array([[b / s], [a / s]])
        j22 = np.array([[1.0]])
        return PartitionedInfo(j11, j12, j22)

    def sampler(theta, gamma, design, rng):
        return _transform_sampler(theta[1], float(theta[0]), float(gamma[0]), design.n, rng)

    def null_quadrature(theta, design):
        z, wt = shifted_normal_nodes(0.0)
        return _broadcast_nodes(design, theta[1] + float(theta[0]) * z, wt)

    def narrow_fit_exact(y, design):
        y = np.asarray(y, dtype=float)
        mean = np.mean(y, axis=-1, keepdims=True)
        sd = np.sqrt(np.mean((y - mean) ** 2, axis=-1, keepdims=True))
        return np.concatenate([sd, mean], axis=-1)

    def median_est(design):
        def value(th, g):
            return th[1] + th[0] * float(std_normal_quantile(0.5 ** (1.0 / g[0])))

        def grad_theta(th, g):
            return [float(std_normal_quantile(0.5 ** (1.0 / g[0]))), 1.0]

        def grad_gamma(th, g):
            u = 0.5 ** (1.0 / g[0])
            q = float(std_normal_quantile(u))
            du = u * math.log(2.0) / g[0] ** 2
            return [th[0] * du / float(std_normal_pdf(q))]

        return Estimand("median", value, grad_theta, grad_gamma)

    return ModelSpec(
        name="transform-constant",
        param_names=("sigma", "location", "power"),
        theta0=(sigma, xi),
        gamma0=(1.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, **kw: Design(int(n)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=narrow_fit_exact,
        estimand_factories={"median": median_est},
        default_estimand="median",
    )


def transform_regression(sigma: float = 1.0, beta: float = 1.0) -> ModelSpec:
    """Centered no-intercept regression against the CDF-power transformation."""

    def log_density(y, design, theta, gamma):
        return _transform_log_density(
            y, _col(theta, 1) * _centered(design), _col(theta, 0), _col(gamma, 0)
        )

    def score_null(y, design, theta):
        s = float(theta[0])
        t = _centered(design)
        z = (np.asarray(y, dtype=float) - theta[1] * t) / s
        u = np.column_stack([(z * z - 1.0) / s, t * z / s])
        v = (1.0 + special.log_ndtr(z))[:, None]
        return u, v

    def closed_information(theta, design):
        s = float(theta[0])
        t = _centered(design)
        a, b = transformation_constants()
        j11 = np.array([[2.0 / s**2, 0.0], [0.0, float(np.mean(t * t)) / s**2]])
        j12 = np.array([[b / s], [a * float(np.mean(t)) / s]])
        j22 = np.array([[1.0]])
        return PartitionedInfo(j11, j12, j22)

    def sampler(theta, gamma, design, rng):
        return _transform_sampler(
            theta[1] * _centered(design), float(theta[0]), float(gamma[0]), design.n, rng
        )

    def null_quadrature(theta, design):
        return _normal_nodes(theta[1] * _centered(design), float(theta[0]))

    def median_at(design, x0=None):
        x = design.column(0)
        t0 = float((max(x) if x0 is None else float(x0)) - np.mean(x))

        def value(th, g):
            return th[1] * t0 + th[0] * float(std_normal_quantile(0.5 ** (1.0 / g[0])))

        return Estimand(f"median-at(x0={x0 if x0 is not None else 'max'})", value)

    return ModelSpec(
        name="transform-regression",
        param_names=("sigma", "slope", "power"),
        theta0=(sigma, beta),
        gamma0=(1.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, b=1.0, **kw: uniform_grid_design(int(n), float(b)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=_centered_slope_fit,
        estimand_factories={"median-at": median_at},
        default_estimand="median-at",
    )


# ---------------------------------------------------------------------------
# logistic families


def _check_binary(y, design=None):
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DomainError("empty observations")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("binary-response models need observations in {0, 1}")


def logistic_quadratic(alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Logistic regression in a centered covariate; departure = quadratic term."""

    def probs(design, theta, gamma):
        t = _centered(design)
        return special.expit(theta[0] + theta[1] * t + gamma[0] * t * t)

    def log_density(y, design, theta, gamma):
        p = probs(design, theta, gamma)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(y == 1.0, np.log(p), np.log1p(-p))

    def score_null(y, design, theta):
        t = _centered(design)
        p = special.expit(theta[0] + theta[1] * t)
        e = np.asarray(y, dtype=float) - p
        return np.column_stack([e, e * t]), (e * t * t)[:, None]

    def closed_information(theta, design):
        t = _centered(design)
        p = special.expit(theta[0] + theta[1] * t)
        w = p * (1.0 - p)
        cols = np.column_stack([np.ones_like(t), t, t * t])
        full = (cols * w[:, None]).T @ cols / design.n
        return PartitionedInfo.from_full(full, 2)

    def sampler(theta, gamma, design, rng):
        return (rng.random(design.n) < probs(design, theta, gamma)).astype(float)

    def null_quadrature(theta, design):
        t = _centered(design)
        p = special.expit(theta[0] + theta[1] * t)
        ymat = np.broadcast_to(np.array([0.0, 1.0]), (design.n, 2))
        return ymat, np.column_stack([1.0 - p, p])

    def prob_at(design, x0=None):
        x = design.column(0)
        t0 = float((max(x) if x0 is None else float(x0)) - np.mean(x))
        return Estimand(
            f"prob-at(x0={x0 if x0 is not None else 'max'})",
            lambda th, g: float(special.expit(th[0] + th[1] * t0 + g[0] * t0 * t0)),
        )

    return ModelSpec(
        name="logistic-quadratic",
        param_names=("intercept", "slope", "curvature"),
        theta0=(alpha, beta),
        gamma0=(0.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, b=4.0, **kw: uniform_grid_design(int(n), float(b)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        data_check=_check_binary,
        estimand_factories={"prob-at": prob_at},
        default_estimand="prob-at",
    )


def logistic_eta(alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Logistic regression against the success-probability power family.

    Wide success probability expit(alpha + beta*x)^eta with eta null 1;
    at eta = 1 this is exactly the plain logistic model.
    """

    def probs(design, theta, gamma):
        base = special.expit(theta[0] + theta[1] * design.column(0))
        return base ** float(gamma[0])

    def log_density(y, design, theta, gamma):
        if float(gamma[0]) <= 0.0:
            return np.full(np.shape(y), -np.inf)
        p = probs(design, theta, gamma)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(y == 1.0, np.log(p), np.log1p(-p))

    def score_null(y, design, theta):
        x = design.column(0)
        p = special.expit(theta[0] + theta[1] * x)
        e = np.asarray(y, dtype=float) - p
        u = np.column_stack([e, e * x])
        v = (e * np.log(p) / (1.0 - p))[:, None]
        return u, v

    def closed_information(theta, design):
        x = design.column(0)
        p = special.expit(theta[0] + theta[1] * x)
        logp = np.log(p)
        w = p * (1.0 - p)
        j11 = np.array(
            [
                [float(np.mean(w)), float(np.mean(w * x))],
                [float(np.mean(w * x)), float(np.mean(w * x * x))],
            ]
        )
        j12 = np.array([[float(np.mean(p * logp))], [float(np.mean(p * logp * x))]])
        j22 = np.array([[float(np.mean(p * logp**2 / (1.0 - p)))]])
        return PartitionedInfo(j11, j12, j22)

    def sampler(theta, gamma, design, rng):
        return (rng.random(design.n) < probs(design, theta, gamma)).astype(float)

    def null_quadrature(theta, design):
        p = special.expit(theta[0] + theta[1] * design.column(0))
        ymat = np.broadcast_to(np.array([0.0, 1.0]), (design.n, 2))
        return ymat, np.column_stack([1.0 - p, p])

    def prob_at(design, x0=None):
        x0 = float(max(design.column(0)) if x0 is None else x0)
        return Estimand(
            f"prob-at(x0={x0:g})",
            lambda th, g: float(special.expit(th[0] + th[1] * x0) ** g[0]),
        )

    return ModelSpec(
        name="logistic-eta",
        param_names=("intercept", "slope", "power"),
        theta0=(alpha, beta),
        gamma0=(1.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=lambda n, b=2.0, **kw: uniform_grid_design(int(n), float(b)),
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        data_check=_check_binary,
        estimand_factories={"prob-at": prob_at},
        default_estimand="prob-at",
    )


# ---------------------------------------------------------------------------
# two-sample family


def two_sample(xi1: float = 0.0, xi2: float = 1.0, sigma: float = 1.0) -> ModelSpec:
    """Two normal samples; the departure lets the second variance differ.

    The design's single column is the group indicator (0 for the first
    sample, 1 for the second). Group variances are sigma^2 and
    sigma^2*(1+gamma); theta = (xi1, xi2, sigma).
    """

    def group_stats(design):
        g = design.column(0)
        return g, float(np.mean(g))

    def means_sds(design, theta, gamma):
        g = design.column(0)
        m = np.where(g > 0.5, theta[1], theta[0])
        var = float(theta[2]) ** 2 * (1.0 + float(gamma[0]) * g)
        return m, var

    def log_density(y, design, theta, gamma):
        s, g1 = _col(theta, 2), _col(gamma, 0)
        grp = design.column(0)

        def value():
            m = np.where(grp > 0.5, _col(theta, 1), _col(theta, 0))
            var = _square(s) * (1.0 + g1 * grp)
            r2 = (np.asarray(y, dtype=float) - m) ** 2
            return -0.5 * (np.log(2.0 * math.pi * var) + r2 / var)

        return _on_support(value, s, 1.0 + g1)

    def score_null(y, design, theta):
        g = design.column(0)
        s = float(theta[2])
        m = np.where(g > 0.5, theta[1], theta[0])
        z = (np.asarray(y, dtype=float) - m) / s
        u = np.column_stack([(1.0 - g) * z / s, g * z / s, (z * z - 1.0) / s])
        v = (0.5 * g * (z * z - 1.0))[:, None]
        return u, v

    def closed_information(theta, design):
        _, r1 = group_stats(design)  # fraction in the second group
        s = float(theta[2])
        r = 1.0 - r1
        j11 = np.diag([r / s**2, r1 / s**2, 2.0 / s**2])
        j12 = np.array([[0.0], [0.0], [r1 / s]])
        j22 = np.array([[r1 / 2.0]])
        return PartitionedInfo(j11, j12, j22)

    def sampler(theta, gamma, design, rng):
        m, var = means_sds(design, theta, gamma)
        if np.any(var <= 0.0):
            raise DomainError("second-group variance must stay positive")
        return m + np.sqrt(var) * rng.standard_normal(design.n)

    def null_quadrature(theta, design):
        m = np.where(design.column(0) > 0.5, theta[1], theta[0])
        return _normal_nodes(m, float(theta[2]))

    def group_means(y, design):
        y = np.asarray(y, dtype=float)
        g = design.column(0) > 0.5
        m0 = np.mean(y[..., ~g], axis=-1, keepdims=True)
        m1 = np.mean(y[..., g], axis=-1, keepdims=True)
        return y, g, m0, m1

    def narrow_fit_exact(y, design):
        y, g, m0, m1 = group_means(y, design)
        resid = np.where(g, y - m1, y - m0)
        sd = np.sqrt(np.mean(resid**2, axis=-1, keepdims=True))
        return np.concatenate([m0, m1, sd], axis=-1)

    def wide_fit_exact(y, design):
        y, g, m0, m1 = group_means(y, design)
        s0sq = np.mean((y[..., ~g] - m0) ** 2, axis=-1, keepdims=True)
        s1sq = np.mean((y[..., g] - m1) ** 2, axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # a constant group: NaN
            ratio = s1sq / s0sq
        return np.concatenate([m0, m1, np.sqrt(s0sq)], axis=-1), ratio - 1.0

    def mean_diff(design):
        return Estimand(
            "mean-diff",
            lambda th, g: th[1] - th[0],
            lambda th, g: [-1.0, 1.0, 0.0],
            lambda th, g: [0.0],
        )

    def std_diff(design):
        """Scaled group difference combining mean and variance separation."""

        def value(th, g):
            pooled = th[2] ** 2 * (1.0 + g[0] / 2.0)
            nu2 = (th[1] - th[0]) ** 2 / pooled
            omega2 = 4.0 * math.log((1.0 + g[0] / 2.0) / math.sqrt(1.0 + g[0]))
            return math.sqrt(nu2 + omega2)

        def grad_theta(th, g):
            # valid at the null point gamma = 0 only; the factories below
            # are always evaluated there
            d = value(th, g)
            sgn = 1.0 if th[1] >= th[0] else -1.0
            return [-sgn / th[2], sgn / th[2], -d / th[2]]

        def grad_gamma(th, g):
            d = value(th, g)
            nu2 = (th[1] - th[0]) ** 2 / th[2] ** 2
            return [-nu2 / (4.0 * d)]

        return Estimand("std-diff", value, grad_theta, grad_gamma)

    def ts_design(n, m=None, **kw):
        n = int(n)
        m = n if m is None else int(m)
        if n < 1 or m < 1:
            raise ValueError(f"two-sample design needs positive group sizes, got m={m}, n={n}")
        groups = np.concatenate([np.zeros(m), np.ones(n)])
        return Design(m + n, groups[:, None])

    return ModelSpec(
        name="two-sample",
        param_names=("mean1", "mean2", "sigma", "var-ratio-minus-1"),
        theta0=(xi1, xi2, sigma),
        gamma0=(0.0,),
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        default_design=ts_design,
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=narrow_fit_exact,
        wide_fit_exact=wide_fit_exact,
        estimand_factories={"mean-diff": mean_diff, "std-diff": std_diff},
        default_estimand="std-diff",
    )


# ---------------------------------------------------------------------------
# catalogue


MODEL_BUILDERS: dict[str, Callable[..., ModelSpec]] = {
    "weibull-vs-exp": weibull_vs_exp,
    "gamma-vs-exp": gamma_vs_exp,
    "linreg-quadratic": linreg_quadratic,
    "linreg-covariate": linreg_covariate,
    "varhet-regression": varhet_regression,
    "transform-constant": transform_constant,
    "transform-regression": transform_regression,
    "logistic-quadratic": logistic_quadratic,
    "logistic-eta": logistic_eta,
    "two-sample": two_sample,
}


def builtin_catalogue() -> list[ModelSpec]:
    """All built-in narrow/wide pairs at their default null points."""
    return [build() for build in MODEL_BUILDERS.values()]


def get_model(name: str, **params) -> ModelSpec:
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_BUILDERS))
        raise KeyError(f"unknown model {name!r} (known: {known})") from None
    return builder(**params)
