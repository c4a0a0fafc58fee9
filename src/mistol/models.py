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
from typing import Callable, Mapping

import numpy as np
from scipy import special

from .numerics import (
    DomainError,
    NumericsError,
    PartitionedInfo,
    central_gradient,
    legendre_panels,
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


def _cols(params):
    """The parameters of a vector as floats, or those of each row of a stack
    (B, k) as columns (B, 1), so that they broadcast against y of shape (n,)
    or (B, n)."""
    params = np.asarray(params, dtype=float)
    return params.tolist() if params.ndim < 2 else list(params.T[:, :, None])


def _log(col):
    """math.log of a parameter (see _cols), entry by entry for a column, NaN
    where it is not positive; one parameter vector gets the scalar bits."""
    if not isinstance(col, np.ndarray):
        return math.log(col) if col > 0.0 else math.nan
    values = col.ravel().tolist()
    return np.array([math.log(v) if v > 0.0 else math.nan for v in values]).reshape(col.shape)


def _square(col):
    """A parameter (see _cols) squared as Python's float power does."""
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

    gradient(theta, gamma) -> (d mu / d theta, d mu / d gamma), when given,
    is the closed gradient; otherwise gradients are central finite
    differences with step 1e-6*(1+|coordinate|).
    """

    name: str
    value: Callable
    gradient: Callable | None = None

    def __call__(self, theta, gamma) -> float:
        theta, gamma = _pack_split(theta, gamma)
        return float(self.value(theta, gamma))

    def gradients(self, theta, gamma):
        """(d mu / d theta, d mu / d gamma) at the given point."""
        theta, gamma = _pack_split(theta, gamma)
        if self.gradient is not None:
            return tuple(
                np.atleast_1d(np.asarray(g, dtype=float)) for g in self.gradient(theta, gamma)
            )
        packed = np.concatenate([theta, gamma])
        p = theta.size

        def on_packed(x):
            return float(self.value(x[:p], x[p:]))

        grad = central_gradient(on_packed, packed)
        return grad[:p], grad[p:]


def _linear_focus(name: str, theta_weights, gamma_weights) -> Estimand:
    """The estimand sum_j w_j x_j over x = (theta, gamma), added in that
    order, with its constant gradient."""
    weights = tuple(theta_weights) + tuple(gamma_weights)
    return Estimand(
        name,
        lambda th, g: _linear_mean(weights, list(th) + list(g)),
        lambda th, g: (theta_weights, gamma_weights),
    )


# ---------------------------------------------------------------------------
# the model abstraction


@dataclass(frozen=True)
class ModelSpec:
    """One narrow/wide pair.

    param_names names theta's p entries, then gamma's q; a wide Newton fit
    that diverges names its limit by them (estimators.BoundaryFitError).

    Callable fields share these signatures:
      log_density(y, design, theta, gamma) -> (n,) per-observation values
          (-inf outside the support or parameter domain)
      score_null(y, design, theta) -> (U, V): per-observation score columns
          for theta and gamma, evaluated at (theta, gamma0)
      sampler(theta, gamma, design, rng) -> (n,) observations
      null_quadrature(theta, design) -> (ymat, wmat), each (n, K): nodes and
          probability weights for integrating against each observation's
          null conditional distribution (weights sum to 1 per row)
      closed_information(theta, design) -> (p+q, p+q) per-observation
          information matrix at (theta, gamma0), an array, when available
      narrow_fit_exact(y, design) -> theta_hat, when the narrow MLE is closed
      wide_fit_exact(y, design) -> (theta_hat, gamma_hat), likewise
      data_check(y, design) -> None, raising DomainError on bad data
      estimand_factories[name](design, **params) -> Estimand; the first
          name is the default_estimand

    log_density also takes a stack of parameter rows, theta (m, p) and
    gamma (m, q), against one sample y (n,) and returns (m, n): a Newton
    iteration takes its derivatives from one such call, and raises
    TypeError naming the model if the last row, its current point, differs
    from that point alone. A model with narrow_fit_exact is fitted in
    stacks: narrow_fit_exact, wide_fit_exact (if set) and log_density must
    then also accept y of shape (B, n), one sample per row on the same
    design, with theta of shape (B, p) and gamma of shape (B, q), and
    return B rows (theta_hat (B, p), gamma_hat (B, q), log densities
    (B, n)). Index parameters as theta[..., j], never float(theta[0]). A
    stacked fit also fits its last row alone and raises TypeError if the
    two differ. data_check and the other callables always see one sample.
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

    @property
    def default_estimand(self) -> str:
        """The first key of estimand_factories ("" if it has none)."""
        return next(iter(self.estimand_factories), "")

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


def information_at_null(model: ModelSpec, design: Design, theta=None) -> PartitionedInfo:
    """Per-observation information of the wide model at (theta, gamma0).

    Uses the model's closed form when registered, otherwise averages
    score outer products against the null quadrature; either gives one
    (p+q, p+q) matrix per parameter row. theta may also be a stack (R, p)
    of parameter rows: the blocks then carry a leading row axis. Raises
    ValueError if a matrix has the wrong shape or is not symmetric, and
    NumericsError if the information (of any row) cannot be computed in
    floating point (a division by zero or an overflow), is not finite, or
    is not positive definite.
    """
    theta = np.asarray(model.theta0 if theta is None else theta, dtype=float)
    rows = theta if theta.ndim == 2 else theta[None]
    information = model.closed_information or (
        lambda row, design: information_generic(model, design, row)
    )
    try:
        full = np.array([information(row, design) for row in rows])
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericsError(
            f"information matrix for {model.name!r} cannot be computed at these "
            f"parameters: {exc}"
        ) from None
    k = model.p + model.q
    if full.shape[1:] != (k, k):
        raise ValueError(f"{model.name!r} information must be ({k}, {k}), not {full.shape[1:]}")
    if not np.all(np.isfinite(full)):
        raise NumericsError(
            f"information matrix for {model.name!r} is not finite at these parameters"
        )
    info = PartitionedInfo(full if theta.ndim == 2 else full[0], model.p)
    eigs = np.linalg.eigvalsh(info.matrix)
    if np.any(eigs[..., 0] <= 1e-12 * np.maximum(eigs[..., -1], 1.0)):
        raise NumericsError(
            f"information matrix for {model.name!r} is not positive definite; "
            "the design may be too small or a score function misdeclared"
        )
    return info


def _null_scores(model: ModelSpec, design: Design, theta):
    """The null scores U and V at every node of the null quadrature, as
    columns over the flattened (observation, node) grid, and the weight of
    each grid point in the design average."""
    theta = np.asarray(model.theta0 if theta is None else theta, dtype=float)
    ymat, wmat = model.null_quadrature(theta, design)
    u, v = model.score_null(np.ravel(ymat), design.repeat(ymat.shape[1]), theta)
    return np.atleast_2d(u.T).T, np.atleast_2d(v.T).T, np.ravel(wmat) / design.n


def information_generic(model: ModelSpec, design: Design, theta=None) -> np.ndarray:
    """Information by quadrature: the (p+q, p+q) average of E[s s'] over
    the design rows, the matrix a closed_information returns."""
    u, v, w = _null_scores(model, design, theta)
    scores = np.hstack([u, v])
    full = scores.T @ (scores * w[:, None])
    return 0.5 * (full + full.T)


def mean_abs_departure_score(model: ModelSpec, design: Design, theta=None) -> np.ndarray:
    """E0 |V(Y)| per departure coordinate, averaged over the design."""
    _, v, w = _null_scores(model, design, theta)
    return np.abs(v).T @ w


# ---------------------------------------------------------------------------
# pieces shared by the built-in families


def _null_point(**params) -> tuple:
    """A builder's parameters, in order, as its null point theta0. Raises
    ValueError naming one that is not finite, or a rate or sigma that is
    not positive."""
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"model parameter {key} must be finite, got {value!r}")
        if key in ("rate", "sigma") and value <= 0.0:
            raise ValueError(f"model parameter {key} must be positive, got {value!r}")
    return tuple(params.values())


def _iid_design(n):
    return Design(int(n))


def _x0_or_max(design: Design, x0) -> float:
    """The estimand's covariate value x0, by default the largest in column 0."""
    return float(max(design.column(0)) if x0 is None else x0)


def _centered(design: Design, x=None):
    """x, by default covariate column 0 itself, less that column's mean."""
    column = design.column(0)
    return (column if x is None else x) - float(np.mean(column))


def _linear_mean(coefs, columns):
    """sum_j coefs[j] * columns[j], added in column order. A column may be
    the float 1.0, so that an intercept enters as its own bits."""
    mean = coefs[0] * columns[0]
    for j in range(1, len(columns)):
        mean = mean + coefs[j] * columns[j]
    return mean


def _residual(y, coefs, columns):
    """y less each term coefs[j] * columns[j] in turn, in column order."""
    r = np.asarray(y, dtype=float)
    for b, c in zip(coefs, columns):
        r = r - b * c
    return r


def _mean_products(columns) -> np.ndarray:
    """The matrix of design averages of c_i * c_j over the columns."""
    return np.array([[float(np.mean(a * b)) for b in columns] for a in columns])


def _least_squares(y, columns):
    """The ML residual scale followed by the least squares coefficients of y
    on the columns (see _linear_mean), for y (n,) or each row of (B, n)."""
    y = np.asarray(y, dtype=float)
    matrix = np.column_stack(np.broadcast_arrays(*columns))
    coef = np.linalg.lstsq(matrix, y.T, rcond=None)[0].T
    sigma = np.sqrt(np.mean((y - coef @ matrix.T) ** 2, axis=-1))
    return np.concatenate([sigma[..., None], coef], axis=-1)


@functools.cache
def _exp_unit_nodes():
    """Nodes/weights integrating g against the unit exponential density.

    The panels are graded geometrically near zero so that integrands with a
    log y factor (the shape scores of the Weibull and gamma departures) keep
    the endpoint singularity confined to a panel of negligible mass.
    """
    panels = (
        0.0, 2.0**-20, 2.0**-15, 2.0**-10, 2.0**-5, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0
    )
    x, w = legendre_panels(panels, 48)
    return x, w * np.exp(-x)


def _normal_nodes(means, sigma: float, n: int):
    """Null quadrature of normal errors with scale sigma about each of the n
    means (a scalar is every row's mean): the standard normal rule of
    numerics, shifted and scaled."""
    z, wt = shifted_normal_nodes(0.0)
    ymat = np.broadcast_to(means, (n,))[:, None] + sigma * z[None, :]
    return ymat, np.broadcast_to(wt, ymat.shape)


# ---------------------------------------------------------------------------
# exponential narrow model


def _require_positive(y, design=None):
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise DomainError("observations must be positive and finite")


def _require_spread(y, design=None):
    _require_positive(y)
    if np.min(y) == np.max(y):
        raise DomainError(
            "a constant sample has no gamma MLE: the likelihood grows without "
            "bound as the shape goes to infinity at the sample mean"
        )


def _exponential(name: str, rate: float, data_check=_require_positive, **fields) -> ModelSpec:
    """Exponential(rate) narrow model inside a wide family whose shape has
    null value 1; fields give the wide family's own callables."""

    def null_quadrature(theta, design):
        w, wt = _exp_unit_nodes()
        shape = (design.n, w.size)
        return np.broadcast_to(w / float(theta[0]), shape), np.broadcast_to(wt, shape)

    return ModelSpec(
        name=name,
        param_names=("rate", "shape"),
        theta0=_null_point(rate=rate),
        gamma0=(1.0,),
        default_design=_iid_design,
        null_quadrature=null_quadrature,
        narrow_fit_exact=lambda y, design: 1.0 / np.mean(y, axis=-1, keepdims=True),
        data_check=data_check,
        **fields,
    )


def weibull_vs_exp(rate: float = 1.0) -> ModelSpec:
    """Exponential(rate) narrow model inside the Weibull family.

    The departure coordinate is the Weibull shape, with null value 1.
    """

    def log_density(y, design, theta, gamma):
        (th,), (g,) = _cols(theta), _cols(gamma)
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
        j12 = (1.0 - EULER_GAMMA) / th
        return np.array([[1.0 / th**2, j12], [j12, math.pi**2 / 6.0 + (1.0 - EULER_GAMMA) ** 2]])

    def sampler(theta, gamma, design, rng):
        th, g = float(theta[0]), float(gamma[0])
        return rng.exponential(1.0, design.n) ** (1.0 / g) / th

    def wide_fit_exact(y, design):
        y = np.asarray(y, dtype=float)
        shape = np.asarray(_weibull_shape_mle(y))[..., None]
        rate = (y.shape[-1] / np.sum(y**shape, axis=-1, keepdims=True)) ** (1.0 / shape)
        return rate, shape

    def median_gradient(th, g):
        return (
            [-math.log(2.0) ** (1.0 / g[0]) / th[0] ** 2],
            [-(math.log(2.0) ** (1.0 / g[0]) / th[0]) * math.log(math.log(2.0)) / g[0] ** 2],
        )

    return _exponential(
        "weibull-vs-exp",
        rate,
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        closed_information=closed_information,
        wide_fit_exact=wide_fit_exact,
        estimand_factories={
            "median": lambda design: Estimand(
                "median", lambda th, g: math.log(2.0) ** (1.0 / g[0]) / th[0], median_gradient
            ),
            "mean": lambda design: Estimand(
                "mean",
                lambda th, g: math.gamma(1.0 + 1.0 / g[0]) / th[0],
            ),
        },
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
        (th,), (g,) = _cols(theta), _cols(gamma)
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
        return np.array([[1.0 / th**2, -1.0 / th], [-1.0 / th, math.pi**2 / 6.0]])

    def sampler(theta, gamma, design, rng):
        return rng.gamma(float(gamma[0]), 1.0 / float(theta[0]), design.n)

    return _exponential(
        "gamma-vs-exp",
        rate,
        log_density=log_density,
        score_null=score_null,
        sampler=sampler,
        closed_information=closed_information,
        data_check=_require_spread,
        estimand_factories={
            "mean": lambda design: Estimand(
                "mean",
                lambda th, g: g[0] / th[0],
                lambda th, g: ([-g[0] / th[0] ** 2], [1.0 / th[0]]),
            ),
        },
    )


# ---------------------------------------------------------------------------
# normal errors with an omitted mean term


def _mean_departure(name: str, param_names, theta0, columns, **fields) -> ModelSpec:
    """Normal errors about the mean sum_j beta_j c_j + gamma z, where the
    narrow model omits the term in z; theta = (sigma, beta_1, ..., beta_k).

    columns(design) -> ((c_1, ..., c_k), z), each an (n,) array or the float
    1.0. Both fits are least squares.
    """
    p = len(theta0)

    def log_density(y, design, theta, gamma):
        cols, z = columns(design)
        s, *betas = _cols(theta)
        means = _linear_mean(betas + _cols(gamma), cols + (z,))

        def value():
            r = (np.asarray(y, dtype=float) - means) / s
            return -_log(s) - 0.5 * r * r - 0.5 * math.log(2.0 * math.pi)

        return _on_support(value, s)

    def score_null(y, design, theta):
        cols, z = columns(design)
        s, *betas = _cols(theta)
        r = _residual(y, betas, cols) / s
        u = np.column_stack([(r * r - 1.0) / s] + [c * r / s for c in cols])
        return u, (z * r / s)[:, None]

    def closed_information(theta, design):
        cols, z = columns(design)
        full = np.zeros((p + 1, p + 1))
        full[0, 0] = 2.0
        full[1:, 1:] = _mean_products(cols + (z,))
        return full / float(theta[0]) ** 2

    def sampler(theta, gamma, design, rng):
        cols, z = columns(design)
        s, *betas = _cols(theta)
        return _linear_mean(betas + _cols(gamma), cols + (z,)) + s * rng.standard_normal(design.n)

    def null_quadrature(theta, design):
        s, *betas = _cols(theta)
        return _normal_nodes(_linear_mean(betas, columns(design)[0]), s, design.n)

    def wide_fit_exact(y, design):
        cols, z = columns(design)
        params = _least_squares(y, cols + (z,))
        return params[..., :p], params[..., p:]

    return ModelSpec(
        name, param_names, theta0, (0.0,), log_density, score_null, sampler,
        null_quadrature=null_quadrature,
        closed_information=closed_information,
        narrow_fit_exact=lambda y, design: _least_squares(y, columns(design)[0]),
        wide_fit_exact=wide_fit_exact,
        **fields,
    )


def linreg_quadratic(sigma: float = 1.0, beta: float = 1.0) -> ModelSpec:
    """Centered straight-line regression, departure = quadratic term.

    Narrow mean beta*(x - xbar) with no intercept; the wide model adds
    gamma*(x - xbar)^2. theta = (sigma, beta).
    """

    def columns(design):
        t = _centered(design)
        return (t,), t * t

    def mean_at(design, x0=None):
        x0 = _x0_or_max(design, x0)
        t0 = _centered(design, x0)
        return _linear_focus(f"mean-at(x0={x0:g})", (0.0, t0), (t0 * t0,))

    return _mean_departure(
        "linreg-quadratic",
        ("sigma", "slope", "curvature"),
        _null_point(sigma=sigma, beta=beta),
        columns,
        default_design=lambda n: uniform_grid_design(int(n)),
        estimand_factories={
            "slope": lambda design: _linear_focus("slope", (0.0, 1.0), (0.0,)),
            "mean-at": mean_at,
        },
    )


def linreg_covariate(sigma: float = 1.0, alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Simple linear regression, departure = one omitted covariate.

    Design columns are (x, z); the wide mean is alpha + beta*x + gamma*z.
    """

    def mean_at(design, x0=None, z0=0.0):
        x0, z0 = _x0_or_max(design, x0), float(z0)
        return _linear_focus(f"mean-at(x0={x0:g},z0={z0:g})", (0.0, 1.0, x0), (z0,))

    def covariate_design(n):
        n = int(n)
        x = np.arange(1, n + 1) / (n + 1.0)
        return Design(n, np.column_stack([x, _golden_sequence(n)]))

    return _mean_departure(
        "linreg-covariate",
        ("sigma", "intercept", "slope", "extra-slope"),
        _null_point(sigma=sigma, alpha=alpha, beta=beta),
        lambda design: ((1.0, design.column(0)), design.column(1)),
        default_design=covariate_design,
        estimand_factories={"mean-at": mean_at},
    )


# ---------------------------------------------------------------------------
# normal errors with a variance departure


def _variance_departure(name: str, param_names, theta0, columns, scale_at: int,
                        **fields) -> ModelSpec:
    """Normal errors with mean sum_j beta_j c_j and variance s^2 (1 + gamma w).

    theta holds the beta_j in order, with the scale s inserted at position
    scale_at. columns(design) -> ((c_1, ..., c_k), w), each an (n,) array or
    the float 1.0. The narrow fit is the model's own.
    """
    p = len(theta0)

    def split(theta):
        """(s, [beta_1, ..., beta_k]), as _cols gives them."""
        betas = _cols(theta)
        return betas.pop(scale_at), betas

    def log_density(y, design, theta, gamma):
        cols, w = columns(design)
        (s, betas), (g,) = split(theta), _cols(gamma)
        var = _square(s) * (1.0 + g * w)
        r2 = (np.asarray(y, dtype=float) - _linear_mean(betas, cols)) ** 2
        return _on_support(lambda: -0.5 * (np.log(2.0 * math.pi * var) + r2 / var), s, var)

    def score_null(y, design, theta):
        cols, w = columns(design)
        s, betas = split(theta)
        z = _residual(y, betas, cols) / s
        u = [c * z / s for c in cols]
        u.insert(scale_at, (z * z - 1.0) / s)
        return np.column_stack(u), (0.5 * w * (z * z - 1.0))[:, None]

    def closed_information(theta, design):
        cols, w = columns(design)
        s = float(theta[scale_at])
        beta_at = [j for j in range(p) if j != scale_at]
        full = np.zeros((p + 1, p + 1))
        full[np.ix_(beta_at, beta_at)] = _mean_products(cols) / s**2
        full[scale_at, scale_at] = 2.0 / s**2
        full[scale_at, p] = full[p, scale_at] = float(np.mean(w)) / s
        full[p, p] = float(np.mean(w * w)) / 2.0
        return full

    def sampler(theta, gamma, design, rng):
        cols, w = columns(design)
        s, betas = split(theta)
        var = s**2 * (1.0 + float(gamma[0]) * w)
        if np.any(var <= 0.0):
            raise DomainError("variance profile is not positive over the design")
        return _linear_mean(betas, cols) + np.sqrt(var) * rng.standard_normal(design.n)

    def null_quadrature(theta, design):
        s, betas = split(theta)
        return _normal_nodes(_linear_mean(betas, columns(design)[0]), s, design.n)

    return ModelSpec(
        name, param_names, theta0, (0.0,), log_density, score_null, sampler,
        null_quadrature=null_quadrature, closed_information=closed_information, **fields,
    )


def varhet_regression(sigma: float = 1.0, alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Linear regression whose departure is variance heterogeneity.

    Wide variance sigma^2 * (1 + gamma * x); theta = (sigma, alpha, beta).
    """

    def columns(design):
        x = design.column(0)
        return (1.0, x), x

    def sd_at(design, x0=None):
        x0 = float(np.mean(design.column(0)) if x0 is None else x0)
        return Estimand(
            f"sd-at(x0={x0:g})",
            lambda th, g: th[0] * math.sqrt(1.0 + g[0] * x0),
            lambda th, g: (
                [math.sqrt(1.0 + g[0] * x0), 0.0, 0.0],
                [th[0] * x0 / (2.0 * math.sqrt(1.0 + g[0] * x0))],
            ),
        )

    def mean_at(design, x0=None):
        x0 = _x0_or_max(design, x0)
        return _linear_focus(f"mean-at(x0={x0:g})", (0.0, 1.0, x0), (0.0,))

    return _variance_departure(
        "varhet-regression",
        ("sigma", "intercept", "slope", "var-slope"),
        _null_point(sigma=sigma, alpha=alpha, beta=beta),
        columns,
        0,
        default_design=lambda n: uniform_grid_design(int(n)),
        narrow_fit_exact=lambda y, design: _least_squares(y, columns(design)[0]),
        estimand_factories={"sd-at": sd_at, "mean-at": mean_at},
    )


def two_sample(xi1: float = 0.0, xi2: float = 1.0, sigma: float = 1.0) -> ModelSpec:
    """Two normal samples; the departure lets the second variance differ.

    The design's single column is the group indicator (0 for the first
    sample, 1 for the second). Group variances are sigma^2 and
    sigma^2*(1+gamma); theta = (xi1, xi2, sigma).
    """

    def columns(design):
        second = (design.column(0) > 0.5).astype(float)
        return (1.0 - second, second), second

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

    def std_diff(design):
        """Scaled group difference combining mean and variance separation."""

        def parts(th, g):
            # d^2 = nu^2 + omega^2, nu^2 = (xi2 - xi1)^2 / P, P = sigma^2 (1 + g/2)
            half = 1.0 + g[0] / 2.0
            pooled = th[2] ** 2 * half
            with np.errstate(over="ignore"):  # inf; limit_geometry rejects it
                nu2 = (th[1] - th[0]) ** 2 / pooled
            omega2 = 4.0 * math.log(half / math.sqrt(1.0 + g[0]))
            return half, pooled, nu2, math.sqrt(nu2 + omega2)

        # At the null omega = 0 and d = nu, so nu / d is exactly 1 and the
        # gradients are, bit for bit, (-s, s, -d) / sigma and -nu^2 / (4 d),
        # s the sign of xi2 - xi1.
        def gradient(th, g):
            half, pooled, nu2, d = parts(th, g)
            if d == 0.0:
                raise DomainError("std-diff is not differentiable where it is zero")
            nu = math.sqrt(nu2)
            with np.errstate(invalid="ignore"):  # NaN at an infinite d; as above
                share = nu / d
                slope = (1.0 if th[1] >= th[0] else -1.0) * share / math.sqrt(pooled)
                return (
                    [-slope, slope, -(share * nu) / th[2]],
                    [(-nu2 / (2.0 * half) + (2.0 / half - 2.0 / (1.0 + g[0]))) / (2.0 * d)],
                )

        return Estimand("std-diff", lambda th, g: parts(th, g)[3], gradient)

    def ts_design(n, m=None, **kw):
        n = int(n)
        m = n if m is None else int(m)
        if n < 1 or m < 1:
            raise ValueError(f"two-sample design needs positive group sizes, got m={m}, n={n}")
        groups = np.concatenate([np.zeros(m), np.ones(n)])
        return Design(m + n, groups[:, None])

    return _variance_departure(
        "two-sample",
        ("mean1", "mean2", "sigma", "var-ratio-minus-1"),
        _null_point(xi1=xi1, xi2=xi2, sigma=sigma),
        columns,
        2,
        default_design=ts_design,
        narrow_fit_exact=narrow_fit_exact,
        wide_fit_exact=wide_fit_exact,
        estimand_factories={
            "std-diff": std_diff,
            "mean-diff": lambda design: _linear_focus("mean-diff", (-1.0, 1.0, 0.0), (0.0,)),
        },
    )


# ---------------------------------------------------------------------------
# normal errors with a CDF-power departure


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
    z, w = legendre_panels(np.linspace(lo, hi, 9), 160)
    mass = w * (lam * np.exp((lam - 1.0) * special.log_ndtr(z)) * std_normal_pdf(z))
    m1, m2 = float(mass @ z), float(mass @ (z * z))
    sd = math.sqrt(max(m2 - m1 * m1, 0.0))
    return NoiseSummaries(median, iqr, m1, sd)


def _cdf_power(name: str, param_names, theta0, column, **fields) -> ModelSpec:
    """Normal errors about beta*c against the CDF-power transformation.

    Wide density power*Phi(z)^(power-1)*phi(z)/sigma with z = (y - beta*c)/sigma;
    power has null value 1. theta = (sigma, beta); column(design) -> c, an
    (n,) array or the float 1.0. The narrow fit is the model's own.
    """

    def log_density(y, design, theta, gamma):
        (s, beta), (lam,) = _cols(theta), _cols(gamma)
        means = beta * column(design)

        def value():
            z = (np.asarray(y, dtype=float) - means) / s
            return (
                _log(lam)
                + (lam - 1.0) * special.log_ndtr(z)
                - 0.5 * z * z
                - 0.5 * math.log(2.0 * math.pi)
                - _log(s)
            )

        return _on_support(value, s, lam)

    def score_null(y, design, theta):
        c, s = column(design), float(theta[0])
        z = (np.asarray(y, dtype=float) - theta[1] * c) / s
        u = np.column_stack([(z * z - 1.0) / s, c * z / s])
        return u, (1.0 + special.log_ndtr(z))[:, None]

    def closed_information(theta, design):
        c, s = column(design), float(theta[0])
        a, b = transformation_constants()
        j12 = (b / s, a * float(np.mean(c)) / s)
        return np.array([
            [2.0 / s**2, 0.0, j12[0]],
            [0.0, float(np.mean(c * c)) / s**2, j12[1]],
            [j12[0], j12[1], 1.0],
        ])

    def sampler(theta, gamma, design, rng):
        z = std_normal_quantile(rng.random(design.n) ** (1.0 / float(gamma[0])))
        return theta[1] * column(design) + float(theta[0]) * np.asarray(z)

    def null_quadrature(theta, design):
        return _normal_nodes(theta[1] * column(design), float(theta[0]), design.n)

    return ModelSpec(
        name, param_names, theta0, (1.0,), log_density, score_null, sampler,
        null_quadrature=null_quadrature, closed_information=closed_information, **fields,
    )


def _cdf_power_median(name: str, c0) -> Estimand:
    """The median c0*beta + sigma*Phi^-1(2^(-1/power)) of a CDF-power
    model's response where its mean column is c0, with its gradient."""

    def gradient(th, g):
        u = 0.5 ** (1.0 / g[0])
        q = float(std_normal_quantile(u))
        du = u * math.log(2.0) / g[0] ** 2
        return [q, c0], [th[0] * du / float(std_normal_pdf(q))]

    return Estimand(
        name,
        lambda th, g: c0 * th[1] + th[0] * float(std_normal_quantile(0.5 ** (1.0 / g[0]))),
        gradient,
    )


def transform_constant(sigma: float = 1.0, xi: float = 0.0) -> ModelSpec:
    """Constant-mean normal model against the CDF-power transformation.

    Wide density (power)*Phi(z)^(power-1)*phi(z)/sigma with z = (y-xi)/sigma;
    power has null value 1. theta = (sigma, xi).
    """

    def narrow_fit_exact(y, design):
        y = np.asarray(y, dtype=float)
        mean = np.mean(y, axis=-1, keepdims=True)
        sd = np.sqrt(np.mean((y - mean) ** 2, axis=-1, keepdims=True))
        return np.concatenate([sd, mean], axis=-1)

    return _cdf_power(
        "transform-constant",
        ("sigma", "location", "power"),
        _null_point(sigma=sigma, xi=xi),
        lambda design: 1.0,
        default_design=_iid_design,
        narrow_fit_exact=narrow_fit_exact,
        estimand_factories={"median": lambda design: _cdf_power_median("median", 1.0)},
    )


def _require_varying_response(y, design):
    """Reject a response that is constant, or exactly affine in the centred
    covariate c: its least-squares residual on (1, c) is at most 1e-12 of
    max|y| (rounding leaves at most about 1e-15; a sample drawn from the
    model leaves far more)."""
    if np.min(y) == np.max(y):
        raise DomainError(
            "a constant response has no transform-regression MLE: at slope 0 the "
            "likelihood keeps rising as sigma goes to 0, with the power going to "
            "infinity for a positive response and to 0 for a negative one"
        )
    columns = (1.0, _centered(design))
    residual = _residual(y, _least_squares(y, columns)[1:], columns)
    if np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(y)):
        raise DomainError(
            "an exactly affine response (least-squares residual on the centred "
            "covariate and an intercept at most 1e-12 of max|y|) has no "
            "transform-regression MLE: at its own slope the likelihood keeps "
            "rising as sigma goes to 0, with the power going to infinity for a "
            "positive intercept and to 0 for a negative one"
        )


def transform_regression(sigma: float = 1.0, beta: float = 1.0) -> ModelSpec:
    """Centered no-intercept regression against the CDF-power transformation."""

    def median_at(design, x0=None):
        x0 = _x0_or_max(design, x0)
        return _cdf_power_median(f"median-at(x0={x0:g})", _centered(design, x0))

    return _cdf_power(
        "transform-regression",
        ("sigma", "slope", "power"),
        _null_point(sigma=sigma, beta=beta),
        _centered,
        default_design=lambda n: uniform_grid_design(int(n)),
        narrow_fit_exact=lambda y, design: _least_squares(y, (_centered(design),)),
        data_check=_require_varying_response,
        estimand_factories={"median-at": median_at},
    )


# ---------------------------------------------------------------------------
# Bernoulli responses


def _bernoulli(name: str, param_names, theta0, gamma0, column, wide_prob, departure_score,
               span: float) -> ModelSpec:
    """Binary responses with success probability expit(a + b c) under the
    narrow model; theta = (a, b).

    column(design, x) -> c, the model's covariate at the raw covariate
    values x of the design; wide_prob(c, a, b, g) -> the wide success
    probability; departure_score(e, c, p) -> the null score of gamma from
    the residual e = y - p. The design is the uniform grid on (0, span). A
    departure with null value 1 is a power: the log density is -inf where
    it is not positive. The null quadrature is the two outcomes with their
    probabilities, exact, so a Bernoulli model's information is
    information_generic on it (neither built-in has a closed_information).
    The estimand prob-at is the wide success probability at covariate value
    x0, by default the largest, named prob-at(x0=<x0 as %g>) for both
    built-ins.
    """

    def null_probs(design, theta):
        a, b = _cols(theta)
        return special.expit(a + b * column(design, design.column(0)))

    def probs(design, theta, gamma):
        (a, b), (g,) = _cols(theta), _cols(gamma)
        return wide_prob(column(design, design.column(0)), a, b, g)

    def log_density(y, design, theta, gamma):
        def value():  # log p where y is 1 and log(1 - p) elsewhere; -inf at saturation
            p = probs(design, theta, gamma)
            with np.errstate(divide="ignore"):
                return np.where(np.asarray(y, dtype=float) == 1.0, np.log(p), np.log1p(-p))

        return _on_support(value, *(_cols(gamma) if gamma0 == (1.0,) else ()))

    def score_null(y, design, theta):
        c = column(design, design.column(0))
        p = null_probs(design, theta)
        e = np.asarray(y, dtype=float) - p
        # a saturated probability (p = 1 or 0) gives a NaN departure score,
        # which the information's finiteness check then rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.column_stack([e, e * c]), departure_score(e, c, p)[:, None]

    def null_quadrature(theta, design):
        p = null_probs(design, theta)
        return np.broadcast_to(np.array([0.0, 1.0]), (p.size, 2)), np.column_stack([1.0 - p, p])

    def data_check(y, design):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DomainError("binary-response models need observations in {0, 1}")

    def prob_at(design, x0=None):
        x0 = _x0_or_max(design, x0)
        c0 = column(design, x0)
        return Estimand(
            f"prob-at(x0={x0:g})", lambda th, g: float(wide_prob(c0, th[0], th[1], g[0]))
        )

    def sampler(theta, gamma, design, rng):
        return (rng.random(design.n) < probs(design, theta, gamma)).astype(float)

    return ModelSpec(
        name, param_names, theta0, gamma0, log_density, score_null, sampler,
        default_design=lambda n: uniform_grid_design(int(n), span),
        null_quadrature=null_quadrature,
        data_check=data_check,
        estimand_factories={"prob-at": prob_at},
    )


def logistic_quadratic(alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Logistic regression in a centered covariate; departure = quadratic term."""
    return _bernoulli(
        "logistic-quadratic",
        ("intercept", "slope", "curvature"),
        _null_point(alpha=alpha, beta=beta),
        (0.0,),
        _centered,
        lambda t, a, b, g: special.expit(a + b * t + g * t * t),
        lambda e, t, p: e * t * t,
        4.0,
    )


def logistic_eta(alpha: float = 0.0, beta: float = 1.0) -> ModelSpec:
    """Logistic regression against the success-probability power family.

    Wide success probability expit(alpha + beta*x)^eta with eta null 1;
    at eta = 1 this is exactly the plain logistic model.
    """
    return _bernoulli(
        "logistic-eta",
        ("intercept", "slope", "power"),
        _null_point(alpha=alpha, beta=beta),
        (1.0,),
        lambda design, x: x,
        lambda x, a, b, g: special.expit(a + b * x) ** g,
        lambda e, x, p: e * np.log(p) / (1.0 - p),
        2.0,
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
