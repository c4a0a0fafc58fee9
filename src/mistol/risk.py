"""Limiting risk of compromise estimators under root-n departures.

Everything here lives in the one-dimensional limit experiment: observe
Z ~ N(a, 1) where a is the departure divided by the tolerance radius, apply
a rule a_hat(z), and score (a_hat(Z) - a)^2 or |a_hat(Z) - a|. The geometry
object maps those unit-free curves back to a concrete model, focus quantity
and sample size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .estimators import AEstimator
from .models import Design, Estimand, ModelSpec, information_at_null
from .numerics import (
    NumericsError,
    _check_finite,
    knot_panels,
    partitioned_inverse,
    point_or_stack,
    row_dots,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)


# ---------------------------------------------------------------------------
# geometry linking the limit experiment to a model and focus


@dataclass(frozen=True)
class LimitGeometry:
    """Constants that translate unit-free risk curves into focus-scale MSE.

    bias_slope is the sensitivity of the focus to the departure after the
    best narrow-model adjustment; tau0_sq and tau_sq are the limiting
    variances of the narrow and wide estimators of the focus. For a stack
    of narrow fits every field is an array over the rows.
    """

    bias_slope: float
    kappa: float
    tau0_sq: float
    tau_sq: float

    @property
    def tau0(self) -> float:
        return point_or_stack(np.sqrt(self.tau0_sq))

    @property
    def tau(self) -> float:
        return point_or_stack(np.sqrt(self.tau_sq))

    @property
    def rho(self) -> float:
        """Bias-to-noise ratio |bias_slope|*kappa/tau0."""
        return abs(self.bias_slope) * self.kappa / self.tau0

    def shift_at(self, delta: float) -> float:
        """Departure measured in tolerance units, a = delta/kappa."""
        return float(delta) / self.kappa


def limit_geometry(
    model: ModelSpec,
    design: Design,
    estimand=None,
    theta=None,
) -> LimitGeometry:
    """Compute the geometry constants for one model/design/focus triple.

    The wide-estimator variance is evaluated along two routes (adjusted
    narrow variance plus bias term, and the full-information sandwich) and
    the two must agree; disagreement signals an inconsistent gradient or
    information matrix and raises NumericsError, as does a bias slope, tau0^2
    or tau^2 that is not finite.

    theta may also be a stack (R, p) of narrow fits, one per replication.
    Every check then runs on every row in one pass, the fields are arrays
    over the rows, and the first row that fails a check raises.
    """
    if estimand is None:
        estimand = model.default_estimand
    if isinstance(estimand, str):
        estimand = model.estimand(estimand, design)
    if not isinstance(estimand, Estimand):
        raise TypeError("estimand must be an Estimand or the name of one")
    single = theta is None or np.ndim(theta) < 2
    thetas = np.atleast_2d(np.asarray(model.theta0 if theta is None else theta, dtype=float))
    info = information_at_null(model, design, theta=thetas)
    if info.q != 1:
        raise ValueError("limit geometry is defined for a scalar departure")
    inv = partitioned_inverse(info)
    gamma0 = np.asarray(model.gamma0, dtype=float)
    grad_theta, grad_gamma = np.empty(thetas.shape), np.empty((len(thetas), 1))
    for r, row in enumerate(thetas):
        grad_theta[r], grad_gamma[r] = estimand.gradients(row, gamma0)
    j11_inv = inv.j11_inv
    narrow_dir = j11_inv @ grad_theta[..., None]
    adjusted = np.swapaxes(info.j12, -1, -2) @ narrow_dir
    b = adjusted[:, 0, 0] - grad_gamma[:, 0]
    tau0_sq = (grad_theta[:, None, :] @ narrow_dir)[:, 0, 0]
    kap_sq = inv.inv22[:, 0, 0]
    tau_sq = tau0_sq + b * b * kap_sq
    broken = np.flatnonzero(~np.isfinite(b) | ~np.isfinite(tau0_sq) | ~np.isfinite(tau_sq))
    if broken.size:
        r = broken[0]
        raise NumericsError(
            f"limit geometry for {model.name}/{estimand.name} is not finite: bias slope "
            f"{float(b[r])!r}, tau0^2 {float(tau0_sq[r])!r}, tau^2 {float(tau_sq[r])!r}"
        )

    full_grad = np.concatenate([grad_theta, grad_gamma], axis=1)[..., None]
    sandwich = (np.swapaxes(full_grad, -1, -2) @ np.linalg.solve(info.matrix, full_grad))[:, 0, 0]
    disagree = np.flatnonzero(np.abs(sandwich - tau_sq) > 1e-6 * (1.0 + np.abs(tau_sq)))
    if disagree.size:
        r = disagree[0]
        raise NumericsError(
            f"variance routes disagree for {model.name}/{estimand.name}: "
            f"{float(tau_sq[r])!r} vs {float(sandwich[r])!r}"
        )
    if single:
        return LimitGeometry(
            bias_slope=float(b[0]), kappa=math.sqrt(kap_sq[0]),
            tau0_sq=float(tau0_sq[0]), tau_sq=float(tau_sq[0]),
        )
    return LimitGeometry(b, np.sqrt(kap_sq), tau0_sq, tau_sq)


# ---------------------------------------------------------------------------
# squared-error risk in the limit experiment


def risk_closed_form(kind: str, a, *, m: float = 1.0, c: float = 0.5):
    """Exact limiting mean squared error for the rules that admit one.

    Kinds: narrow, wide, linear (weight c), pretest, restricted,
    efron_morris (threshold m). Vectorized over a.
    """
    a = np.asarray(a, dtype=float)
    if kind == "narrow":
        out = a * a
    elif kind == "wide":
        out = np.ones_like(a)
    elif kind == "linear":
        out = c * c + (1.0 - c) ** 2 * a * a
    elif kind == "pretest":
        hi, lo = m + a, m - a
        out = (
            1.0
            + (a * a - 1.0) * (std_normal_cdf(hi) + std_normal_cdf(lo) - 1.0)
            + hi * std_normal_pdf(hi)
            + lo * std_normal_pdf(lo)
        )
    elif kind == "restricted":
        hi, lo = m + a, m - a
        out = (
            std_normal_cdf(lo)
            + std_normal_cdf(hi)
            - 1.0
            - lo * std_normal_pdf(lo)
            - hi * std_normal_pdf(hi)
            + lo * lo * (1.0 - std_normal_cdf(lo))
            + hi * hi * (1.0 - std_normal_cdf(hi))
        )
    elif kind == "efron_morris":
        hi, lo = m + a, m - a
        out = (
            1.0
            + m * m
            + (a * a - m * m - 1.0) * (std_normal_cdf(hi) + std_normal_cdf(lo) - 1.0)
            - lo * std_normal_pdf(hi)
            - hi * std_normal_pdf(lo)
        )
    else:
        raise ValueError(f"no closed-form risk for kind {kind!r}")
    return point_or_stack(out)


_WINDOW = 8.0  # a shift integrates over at least [a - 8, a + 8]
_SHIFT_BLOCK = 32  # shifts integrated together
_EVAL_SLICE = 240  # most nodes handed to a rule in one call
_MAX_SHIFT = 2.0**52  # doubles of this size are spaced 1 apart


def _lattice_nodes(est: AEstimator, panels):
    """Nodes, weights and rule values on each lattice panel [2k, 2k + 2]
    (split at the rule's knots) of the sequence panels: a dict k -> (z, w,
    a_fn(z)). a_fn sees at most _EVAL_SLICE nodes per call."""
    built = [knot_panels(2.0 * k, 2.0 * k + 2.0, est.knots) for k in panels]
    if not built:
        return {}
    z = np.concatenate([nodes for nodes, _ in built])
    f = np.concatenate([
        np.asarray(est.a_fn(z[i:i + _EVAL_SLICE]), dtype=float)
        for i in range(0, z.size, _EVAL_SLICE)
    ])
    ends = np.cumsum([nodes.size for nodes, _ in built])
    return {
        k: (nodes, w, part)
        for k, (nodes, w), part in zip(panels, built, np.split(f, ends[:-1]))
    }


def _expected_loss(est: AEstimator, a, loss):
    """E loss(a_hat(Z) - a) with Z ~ N(a, 1) at each a, by quadrature.

    The nodes lie on a fixed lattice of panels [2k, 2k + 2], split at the
    rule's knots, with 60 Gauss-Legendre points each (a rule without knots
    is no exception). A shift a takes the panels that cover [a - 8, a + 8],
    weighted by w*phi(z - a) divided by their sum, so a constant loss is
    integrated exactly and a shift's value does not depend on the other
    shifts. Shifts are taken in ascending order, _SHIFT_BLOCK at a time;
    a_fn is called once per lattice node for all the shifts of a block, and
    the nodes of one block are kept for the next. Raises NumericsError for
    |a| >= 2^52, where the nodes cannot resolve a unit normal.
    """
    a_arr = np.asarray(a, dtype=float)
    flat = np.ravel(a_arr)
    bad = ~(np.abs(flat) < _MAX_SHIFT)  # NaN included
    if bad.any():
        raise NumericsError(
            f"risk quadrature needs finite shifts below 2^52 in magnitude, got "
            f"{float(flat[bad][0])!r}"
        )
    out = np.empty(flat.shape)
    order = np.argsort(flat, kind="stable")
    cache = {}
    for start in range(0, order.size, _SHIFT_BLOCK):
        rows = order[start:start + _SHIFT_BLOCK]
        shifts = flat[rows]
        first = np.floor((shifts - _WINDOW) / 2.0).astype(np.int64)
        stop = np.ceil((shifts + _WINDOW) / 2.0).astype(np.int64)
        needed = sorted(set().union(*map(range, first.tolist(), stop.tolist())))
        cache = {k: cache[k] for k in needed if k in cache}
        cache.update(_lattice_nodes(est, [k for k in needed if k not in cache]))
        z, w, f = (np.concatenate([cache[k][i] for k in needed]) for i in range(3))
        bounds = np.concatenate([[0], np.cumsum([cache[k][0].size for k in needed])])
        begin = bounds[np.searchsorted(needed, first)]
        count = bounds[np.searchsorted(needed, stop)] - begin
        for size in np.unique(count):
            sel = count == size
            at, shift = begin[sel, None] + np.arange(size), shifts[sel, None]
            weight = w[at] * np.exp(-0.5 * (z[at] - shift) ** 2)  # phi(z - a) but its constant
            values = _check_finite(loss(f[at] - shift), "risk quadrature")
            out[rows[sel]] = row_dots(weight, values) / row_dots(weight, np.ones_like(values))
    return point_or_stack(out.reshape(a_arr.shape))


def risk_numeric(est: AEstimator, a):
    """Limiting MSE E{a_hat(Z) - a}^2 with Z ~ N(a, 1), by quadrature."""
    return _expected_loss(est, a, np.square)


# ---------------------------------------------------------------------------
# absolute-error risk


def mean_abs_normal(shift):
    """E|shift + N(0,1)|, even in the shift, sqrt(2/pi) at zero."""
    x = np.asarray(shift, dtype=float)
    return point_or_stack(x * (2.0 * std_normal_cdf(x) - 1.0) + 2.0 * std_normal_pdf(x))


def l1_risk(est: AEstimator, a, rho: float):
    """Limiting mean absolute error, in narrow-standard-deviation units.

    rho is the bias-to-noise ratio of the geometry; the curve is
    E_Z mean_abs_normal(rho*(a_hat(Z) - a)) with Z ~ N(a, 1).
    """
    rho = float(rho)
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    return _expected_loss(est, a, lambda d: mean_abs_normal(rho * d))


def l1_tolerance(rho: float) -> float:
    """Departure size where the narrow fit's absolute error matches the wide fit's.

    Solves mean_abs_normal(rho*a) = sqrt(1+rho^2)*sqrt(2/pi) for a >= 0.
    The rho -> 0 limit is exactly 1; for rho -> infinity the solution
    decreases to sqrt(2/pi).
    """
    rho = float(rho)
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    if rho < 1e-6:
        return 1.0
    target = math.sqrt(1.0 + rho * rho) * math.sqrt(2.0 / math.pi)
    found = crossing_points(
        lambda a: mean_abs_normal(rho * a), lambda a: target, 0.1, 2.0, tol=1e-12
    )
    if len(found) != 1:
        raise NumericsError("absolute-error tolerance bracket failed")
    return found[0]


# ---------------------------------------------------------------------------
# confidence intervals under departure


def ci_coverage(shift: float, halfwidth: float) -> float:
    """P(|N(shift,1)| <= halfwidth): coverage of a studentized interval
    whose center is biased by `shift` standard errors."""
    if halfwidth < 0.0:
        raise ValueError("interval halfwidth must be nonnegative")
    return float(
        std_normal_cdf(halfwidth - shift) - std_normal_cdf(-halfwidth - shift)
    )


def interval_risk(
    geometry: LimitGeometry,
    delta: float,
    *,
    level: float = 0.90,
    length_weight: float = 0.0,
) -> dict:
    """Non-coverage plus weighted expected length for both intervals.

    The narrow interval is shorter but its center carries bias
    bias_slope*delta; the wide interval holds the nominal level at any
    departure. Returns {'narrow': ..., 'wide': ...}.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if length_weight < 0.0:
        raise ValueError("length weight must be nonnegative")
    z = float(std_normal_quantile((1.0 + level) / 2.0))
    shift = geometry.bias_slope * float(delta) / geometry.tau0
    narrow = (1.0 - ci_coverage(shift, z)) + 2.0 * length_weight * z * geometry.tau0
    wide = (1.0 - ci_coverage(0.0, z)) + 2.0 * length_weight * z * geometry.tau
    return {"narrow": narrow, "wide": wide}


# ---------------------------------------------------------------------------
# profiles, tables, crossings


def default_grid() -> np.ndarray:
    return np.linspace(0.0, 5.0, 101)


@dataclass(frozen=True)
class RiskProfile:
    """A risk curve sampled on a grid, with its worst point."""

    name: str
    loss: str
    grid: np.ndarray
    values: np.ndarray

    @property
    def max_risk(self) -> float:
        return float(np.max(self.values))

    @property
    def argmax(self) -> float:
        return float(self.grid[int(np.argmax(self.values))])


def _risk_evaluator(est: AEstimator, loss: str, rho):
    if loss == "l2":
        return lambda a: risk_numeric(est, a)
    if loss == "l1":
        if rho is None:
            raise ValueError("absolute-error risk needs the geometry ratio rho")
        return lambda a: l1_risk(est, a, float(rho))
    raise ValueError(f"unknown loss {loss!r} (use 'l2' or 'l1')")


def risk_profile(
    est: AEstimator,
    grid=None,
    *,
    loss: str = "l2",
    rho: float | None = None,
) -> RiskProfile:
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    values = _risk_evaluator(est, loss, rho)(grid)
    label = loss if loss == "l2" else f"l1:rho={float(rho):g}"
    return RiskProfile(est.spec_string(), label, grid, values)


def limit_mse(geometry: LimitGeometry, est: AEstimator, delta: float) -> float:
    """Scaled limiting MSE of the focus estimate at departure delta.

    Equals tau0^2 + bias_slope^2*kappa^2*R(delta/kappa) where R is the
    unit-free risk curve of the rule.
    """
    a = geometry.shift_at(delta)
    r = float(risk_numeric(est, a))
    return geometry.tau0_sq + geometry.bias_slope**2 * geometry.kappa**2 * r


def risk_table(
    estimators,
    grid=None,
    *,
    loss: str = "l2",
    rho: float | None = None,
):
    """Risk curves for several rules on a common grid.

    Returns (header, matrix) where the header starts with 'a' and the
    matrix has the grid in column 0.
    """
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    names = []
    columns = [grid]
    for est in estimators:
        profile = risk_profile(est, grid, loss=loss, rho=rho)
        names.append(profile.name.replace(",", ";"))
        columns.append(profile.values)
    header = ["a"] + names
    return header, np.column_stack(columns)


def write_csv(fh, header, rows):
    """Write a header line and the rows as CSV to the open file fh: floats
    (numpy's included) at full precision as repr(float(v)), anything else
    as str(v). A field that holds a comma is quoted."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(repr(float(v)) if isinstance(v, float) else str(v) for v in row)


def write_risk_csv(path, estimators, grid=None, *, loss="l2", rho=None):
    """Write a deterministic risk table as CSV (full-precision floats)."""
    with open(path, "w", newline="") as fh:
        write_csv(fh, *risk_table(estimators, grid, loss=loss, rho=rho))
    return path


def crossing_points(f, g, lo: float, hi: float, *, tol: float = 1e-6):
    """Abscissas in (lo, hi) where f - g changes sign, refined by bisection.

    f and g take arrays: each is sampled once on a grid of 501 points (a
    scalar result broadcasts), then called with single floats while a sign
    change is bisected.
    """
    xs = np.linspace(float(lo), float(hi), 501)
    diffs = np.broadcast_to(
        np.asarray(f(xs), dtype=float) - np.asarray(g(xs), dtype=float), xs.shape
    )
    found = []
    for x0, x1, d0, d1 in zip(xs[:-1], xs[1:], diffs[:-1], diffs[1:]):
        if d0 == 0.0:
            found.append(float(x0))
            continue
        if d0 * d1 < 0.0:
            a, b, da = float(x0), float(x1), d0
            while b - a > tol:
                mid = 0.5 * (a + b)
                dm = float(f(mid)) - float(g(mid))
                if dm == 0.0:
                    a = b = mid
                    break
                if da * dm < 0.0:
                    b = mid
                else:
                    a = mid
            found.append(0.5 * (a + b))
    if diffs[-1] == 0.0:
        found.append(float(xs[-1]))
    return found


def risk_crossings(
    est_a: AEstimator,
    est_b: AEstimator,
    lo: float = 0.0,
    hi: float = 5.0,
    *,
    loss: str = "l2",
    rho: float | None = None,
):
    """Departure sizes where two rules' risk curves cross."""
    fa = _risk_evaluator(est_a, loss, rho)
    fb = _risk_evaluator(est_b, loss, rho)
    return crossing_points(fa, fb, lo, hi)


def level_crossings(
    est: AEstimator,
    level: float,
    lo: float = 0.0,
    hi: float = 5.0,
    *,
    loss: str = "l2",
    rho: float | None = None,
):
    """Departure sizes where a rule's risk curve crosses a constant level."""
    fa = _risk_evaluator(est, loss, rho)
    return crossing_points(fa, lambda _a: float(level), lo, hi)
