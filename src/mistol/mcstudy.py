"""Seeded Monte Carlo engines.

Three jobs: estimate the tolerance radius by simulation, measure the
finite-sample mean squared error of compromise estimators against the
limit-experiment prediction, and measure confidence-interval coverage
under root-n departures. Replication r always draws from a stream keyed
by (seed, r). The replications of a study cell are drawn and fitted in
blocks of BLOCK_ROWS consecutive replications, in order, and each block is
dropped once fitted. A model with a closed-form fit fits and certifies a
whole block in one stacked call; a Newton fit runs one replication at a
time. No replication's result depends on the others in its block.
Everything after the fits (the plug-in geometry with its checks, z
statistics, compromise estimates, coverage indicators, plug-in kappas) is
then evaluated once for the whole cell, on arrays over the replication
axis. A replication that fails at any stage is counted and left out. The
workers setting is accepted and recorded in the manifest, but the engine
runs serially, so output is identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimators import (
    AEstimator,
    compromise_estimate,
    debias_estimate,
    fit_narrow,
    fit_rows,
    fit_wide,
    parse_estimator,
    z_statistic,
)
from .models import Design, ModelSpec
from .numerics import (
    NumericsError,
    PartitionedInfo,
    partitioned_inverse,
    replication_rng,
)
from .risk import LimitGeometry, ci_coverage, limit_geometry

KAPPA_METHODS = ("score-cov", "full-ml-cov", "gamma-sd")

# Replications drawn and fitted together. On one pass of the Weibull
# benchmark studies (2-core VM) 32 rows was fastest (1.35 s; 8 rows 2.2 s,
# 64 rows 1.5-1.8 s), and peak RSS grows with the block: 57.4 MB at 1 row,
# 58.8 at 32, 60.9 at 64, 91.1 at a whole 500-replication cell.
BLOCK_ROWS = 32


class StudyError(NumericsError):
    """A Monte Carlo study could not produce trustworthy output."""


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce a study bit-for-bit."""

    model: ModelSpec
    estimand: str | None = None
    delta_grid: tuple = (0.0,)
    n_list: tuple = (500,)
    replications: int = 2000
    seed: int | None = None
    estimators: tuple = ("narrow", "wide")
    kappa_method: str = "score-cov"
    level: float = 0.90
    workers: int = 1  # validated and recorded; the engine runs serially
    design_factory: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("a seed is mandatory for every study")
        if self.replications < 100:
            raise ValueError("studies need at least 100 replications")
        if self.kappa_method not in KAPPA_METHODS:
            raise ValueError(
                f"unknown kappa method {self.kappa_method!r}; pick one of {KAPPA_METHODS}"
            )
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if not self.delta_grid or not self.n_list:
            raise ValueError("delta grid and n list must be nonempty")

    def design_for(self, n: int) -> Design:
        if self.design_factory is not None:
            return self.design_factory(n)
        return self.model.default_design(n)

    def estimand_for(self, design: Design):
        name = self.estimand or self.model.default_estimand
        return self.model.estimand(name, design)

    def resolved_estimators(self):
        """Estimator entries as ('debias', None) or (name, AEstimator)."""
        out = []
        for entry in self.estimators:
            if isinstance(entry, AEstimator):
                out.append((entry.spec_string(), entry))
            elif entry == "debias":
                out.append(("debias", None))
            else:
                est = parse_estimator(entry)
                out.append((est.spec_string(), est))
        return out

    def manifest_lines(self):
        names = [name for name, _ in self.resolved_estimators()]
        yield f"model: {self.model.name}"
        yield f"estimand: {self.estimand or self.model.default_estimand}"
        yield f"theta0: {tuple(float(v) for v in self.model.theta0)!r}"
        yield f"gamma0: {tuple(float(v) for v in self.model.gamma0)!r}"
        yield f"delta_grid: {tuple(float(d) for d in self.delta_grid)!r}"
        yield f"n_list: {tuple(int(n) for n in self.n_list)!r}"
        yield f"replications: {int(self.replications)}"
        yield f"seed: {int(self.seed)}"
        yield f"estimators: {names!r}"
        yield f"kappa_method: {self.kappa_method}"
        yield f"level: {self.level!r}"
        yield f"workers: {int(self.workers)}"


def _checked_failures(config: StudyConfig, failures: int) -> int:
    """The failure count of one cell, unless it is too large to average over."""
    reps = config.replications
    if failures > 0.01 * reps:
        raise StudyError(
            f"{failures} of {reps} replications failed; aborting rather than "
            f"averaging a biased remainder"
        )
    return failures


def _fit_each(config: StudyConfig, gamma, design, fit_block) -> list:
    """fit_block(ys) on each block of replications drawn at gamma, in order.

    ys stacks the draws of up to BLOCK_ROWS consecutive replications, each
    from its own (seed, r) stream; a replication whose sampler raises a
    numerical failure is left out. fit_block returns one entry per row it
    keeps; the entries of all blocks are returned in order.
    """
    reps = config.replications
    out = []
    for start in range(0, reps, BLOCK_ROWS):
        draws = []
        for r in range(start, min(start + BLOCK_ROWS, reps)):
            try:
                draws.append(_draw(config, r, gamma, design))
            except NumericsError:
                pass
        if draws:
            out.extend(fit_block(np.array(draws)))
    if not out:
        _checked_failures(config, reps)  # every one failed: aborts
    return out


def _draw(config: StudyConfig, r: int, gamma, design):
    model = config.model
    rng = replication_rng(config.seed, r)
    return model.sampler(np.asarray(model.theta0, dtype=float), gamma, design, rng)


def _fit_block(fit, model: ModelSpec, ys, design, wide: bool):
    """fit (fit_narrow or fit_wide) on a block of draws through fit_rows,
    and the rows it kept."""
    result = fit_rows(fit, model, ys, design, wide)
    return result, [i for i in range(len(ys)) if i not in result.errors]


# ---------------------------------------------------------------------------
# kappa by simulation


@dataclass(frozen=True)
class KappaStudy:
    method: str
    n: int
    replications: int
    failures: int
    kappa: float
    se: float
    info: PartitionedInfo | None = None
    inverse_info: np.ndarray | None = None


def kappa_by_simulation(config: StudyConfig) -> KappaStudy:
    """Estimate the tolerance radius scale from simulated null data.

    score-cov fits the narrow model and takes the empirical covariance of
    the per-observation wide scores there; full-ml-cov scales the
    empirical covariance of the wide ML estimates by n; gamma-sd is the
    standard deviation of sqrt(n)*(gamma_hat - gamma0). The first two also
    return the matrix they estimated.
    """
    model = config.model
    n = int(config.n_list[0])
    design = config.design_for(n)
    gamma0 = np.asarray(model.gamma0, dtype=float)
    p, q = model.p, model.q
    method = config.kappa_method
    reps = config.replications

    if method == "score-cov":
        def score_covariances(ys):
            narrow, kept = _fit_block(fit_narrow, model, ys, design, wide=False)
            out = []
            for i in kept:
                try:
                    scores = np.column_stack(model.score_null(ys[i], design, narrow.theta[i]))
                except NumericsError:
                    continue
                centered = scores - scores.mean(axis=0)
                out.append(centered.T @ centered / n)
            return out

        infos = np.array(_fit_each(config, gamma0, design, score_covariances))
        inv = partitioned_inverse(PartitionedInfo.from_full(infos, p))
        kept = [r for r in range(len(infos)) if r not in inv.errors]
        failures = _checked_failures(config, reps - len(kept))
        kappas = np.sqrt(inv.inv22[kept, 0, 0]) if q == 1 else inv.inv22[kept]
        return KappaStudy(
            method=method,
            n=n,
            replications=reps,
            failures=failures,
            kappa=float(np.mean(kappas)),
            se=float(np.std(kappas, ddof=1) / math.sqrt(len(kappas))),
            info=PartitionedInfo.from_full(np.mean(infos[kept], axis=0), p),
        )

    def wide_params(ys):
        wide, kept = _fit_block(fit_wide, model, ys, design, wide=True)
        return wide.params[kept]

    params = np.array(_fit_each(config, gamma0, design, wide_params))
    failures = _checked_failures(config, reps - len(params))
    reps_kept = params.shape[0]

    if method == "full-ml-cov":
        cov = np.cov(params.T, ddof=1).reshape(p + q, p + q)
        scaled = n * cov
        kap = math.sqrt(float(scaled[p, p])) if q == 1 else math.sqrt(
            float(np.linalg.det(scaled[p:, p:]) ** (1.0 / q))
        )
        return KappaStudy(
            method=method,
            n=n,
            replications=reps,
            failures=failures,
            kappa=kap,
            se=kap / math.sqrt(2.0 * (reps_kept - 1)),
            inverse_info=scaled,
        )

    root_n_dev = math.sqrt(n) * (params[:, p] - gamma0[0])
    kap = float(np.std(root_n_dev, ddof=1))
    return KappaStudy(
        method=method,
        n=n,
        replications=reps,
        failures=failures,
        kappa=kap,
        se=kap / math.sqrt(2.0 * (reps_kept - 1)),
    )


# ---------------------------------------------------------------------------
# finite-sample mean squared error


@dataclass(frozen=True)
class StudyResult:
    """Aggregated Monte Carlo output, deterministic given the config."""

    header: tuple
    rows: tuple  # tuples matching the header
    crossings: tuple  # (n, delta at which narrow and wide nMSE cross)
    kappa_rows: tuple  # (n, plug-in kappa mean, se)
    replications: int
    failures: int
    manifest: tuple

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in self.rows:
                fh.write(
                    ",".join(
                        repr(float(v)) if isinstance(v, float) else str(v)
                        for v in row
                    )
                    + "\n"
                )
        return path

    def write_manifest(self, path):
        with open(path, "w") as fh:
            for line in self.manifest:
                fh.write(line + "\n")
            fh.write(f"replications_attempted: {self.replications}\n")
            fh.write(f"failures: {self.failures}\n")
            fh.write(f"successes: {self.replications - self.failures}\n")
        return path


@dataclass(frozen=True)
class _Cell:
    """One (n, delta) cell over the replications that survived every check:
    the wide departure estimates, the narrow and wide estimates of the
    focus, and the plug-in geometry at each narrow fit."""

    gamma_hat: np.ndarray
    mu_n: np.ndarray
    mu_w: np.ndarray
    geom: LimitGeometry
    failures: int


def _fit_cell(config: StudyConfig, gamma_true, design, estimand) -> _Cell:
    """Draw the replications at gamma_true and fit both models to them, block
    by block, then evaluate the plug-in geometry at all the narrow fits at
    once. A row whose narrow fit fails gets no wide fit."""
    model = config.model
    gamma0 = np.asarray(model.gamma0, dtype=float)

    def fit_both(ys):
        narrow, kept = _fit_block(fit_narrow, model, ys, design, wide=False)
        if not kept:
            return []
        wide, kept_wide = _fit_block(fit_wide, model, ys[kept], design, wide=True)
        out = []
        for i in kept_wide:
            theta = narrow.theta[kept[i]]
            try:
                out.append((
                    theta,
                    float(wide.gamma[i, 0]),
                    estimand(theta, gamma0),
                    estimand(wide.theta[i], wide.gamma[i]),
                ))
            except NumericsError:
                pass
        return out

    fits = _fit_each(config, gamma_true, design, fit_both)
    thetas, gamma_hat, mu_n, mu_w = map(np.array, zip(*fits))
    geom = limit_geometry(model, design, estimand, theta=thetas)
    kept = [r for r in range(len(thetas)) if r not in geom.errors]
    fields = (geom.bias_slope, geom.kappa, geom.tau0_sq, geom.tau_sq)
    return _Cell(
        gamma_hat=gamma_hat[kept],
        mu_n=mu_n[kept],
        mu_w=mu_w[kept],
        geom=LimitGeometry(*(values[kept] for values in fields)),
        failures=config.replications - len(kept),
    )


def _rows_that_hold(evaluate, count: int):
    """evaluate(rows) on every row index at once, or, if a numerical
    failure stops that, on the rows that do not raise it on their own.

    Returns (values, rows kept)."""
    rows = np.arange(count)
    try:
        return evaluate(rows), rows
    except NumericsError:
        pass

    def holds(r):
        try:
            evaluate(rows[r:r + 1])
        except NumericsError:
            return False
        return True

    rows = rows[[holds(r) for r in range(count)]]
    return evaluate(rows), rows


def finite_sample_mse(config: StudyConfig) -> StudyResult:
    """n*(mu_star - mu_true)^2 averaged over replications, per (delta, n, rule).

    Data are drawn at gamma0 + delta/sqrt(n); the departure statistic uses
    the plug-in radius at the fitted narrow parameters. The debias entry
    applies the first-order bias correction instead of a weight rule.
    """
    model = config.model
    theta0 = np.asarray(model.theta0, dtype=float)
    gamma0 = np.asarray(model.gamma0, dtype=float)
    if model.q != 1:
        raise ValueError("MSE studies support a scalar departure only")
    g0 = float(gamma0[0])
    estimators = config.resolved_estimators()
    rows = []
    crossings = []
    kappa_rows = []
    total_failures = 0

    for n in config.n_list:
        n = int(n)
        design = config.design_for(n)
        estimand = config.estimand_for(design)
        narrow_curve, wide_curve = [], []
        plugin_kappas = []
        for delta in config.delta_grid:
            delta = float(delta)
            gamma_true = gamma0 + delta / math.sqrt(n)
            mu_true = estimand(theta0, gamma_true)
            cell = _fit_cell(config, gamma_true, design, estimand)

            def evaluate(idx):
                gamma_hat, mu_n = cell.gamma_hat[idx], cell.mu_n[idx]
                zn = z_statistic(gamma_hat, g0, cell.geom.kappa[idx], n)
                return np.column_stack([
                    debias_estimate(mu_n, cell.geom.bias_slope[idx], gamma_hat, g0)
                    if est is None else compromise_estimate(mu_n, cell.mu_w[idx], zn, est)
                    for _, est in estimators
                ])

            estimates, kept = _rows_that_hold(evaluate, len(cell.gamma_hat))
            total_failures += _checked_failures(
                config, cell.failures + len(cell.gamma_hat) - len(kept)
            )
            sqerr = n * (estimates - mu_true) ** 2
            means = sqerr.mean(axis=0)
            ses = sqerr.std(axis=0, ddof=1) / math.sqrt(sqerr.shape[0])
            for (name, _), m, s in zip(estimators, means, ses):
                rows.append((delta, n, name, float(m), float(s)))
                if name == "narrow":
                    narrow_curve.append((delta, float(m)))
                elif name == "wide":
                    wide_curve.append((delta, float(m)))
            plugin_kappas.extend(cell.geom.kappa[kept].tolist())
        pk = np.asarray(plugin_kappas)
        kappa_rows.append(
            (n, float(pk.mean()), float(pk.std(ddof=1) / math.sqrt(pk.size)))
        )
        for cross in _curve_crossings(narrow_curve, wide_curve):
            crossings.append((n, cross))

    return StudyResult(
        header=("delta", "n", "estimator", "nmse", "se"),
        rows=tuple(rows),
        crossings=tuple(crossings),
        kappa_rows=tuple(kappa_rows),
        replications=config.replications * len(config.n_list) * len(config.delta_grid),
        failures=total_failures,
        manifest=tuple(config.manifest_lines()),
    )


def _curve_crossings(curve_a, curve_b):
    """Linear-interpolation crossings of two piecewise-linear curves
    sampled at the same abscissas."""
    if len(curve_a) != len(curve_b) or len(curve_a) < 2:
        return []
    out = []
    for (x0, a0), (x1, a1), (_, b0), (_, b1) in zip(
        curve_a[:-1], curve_a[1:], curve_b[:-1], curve_b[1:]
    ):
        d0, d1 = a0 - b0, a1 - b1
        if d0 == 0.0:
            out.append(float(x0))
        elif d0 * d1 < 0.0:
            out.append(float(x0 + (x1 - x0) * d0 / (d0 - d1)))
    return out


# ---------------------------------------------------------------------------
# interval coverage


def coverage_study(config: StudyConfig) -> StudyResult:
    """Empirical coverage of the narrow and wide plug-in intervals at
    config.level.

    Rows carry the prediction from ci_coverage (narrow) or the nominal
    level (wide) alongside the Monte Carlo estimate.
    """
    from .numerics import std_normal_quantile

    model = config.model
    z = std_normal_quantile((1.0 + config.level) / 2.0)
    theta0 = np.asarray(model.theta0, dtype=float)
    gamma0 = np.asarray(model.gamma0, dtype=float)
    if model.q != 1:
        raise ValueError("coverage studies support a scalar departure only")
    rows = []
    total_failures = 0
    for n in config.n_list:
        n = int(n)
        design = config.design_for(n)
        estimand = config.estimand_for(design)
        truth_geom = limit_geometry(model, design, estimand)
        for delta in config.delta_grid:
            delta = float(delta)
            gamma_true = gamma0 + delta / math.sqrt(n)
            mu_true = estimand(theta0, gamma_true)

            cell = _fit_cell(config, gamma_true, design, estimand)
            total_failures += _checked_failures(config, cell.failures)
            half_n = z * cell.geom.tau0 / math.sqrt(n)
            half_w = z * cell.geom.tau / math.sqrt(n)
            kept = np.column_stack([
                np.abs(cell.mu_n - mu_true) <= half_n,
                np.abs(cell.mu_w - mu_true) <= half_w,
            ]).astype(float)
            reps_kept = kept.shape[0]
            for idx, kind in enumerate(("narrow", "wide")):
                cov = float(kept[:, idx].mean())
                se = math.sqrt(max(cov * (1.0 - cov), 1e-12) / reps_kept)
                if kind == "narrow":
                    shift = truth_geom.bias_slope * delta / truth_geom.tau0
                    predicted = ci_coverage(shift, z)
                else:
                    predicted = config.level
                rows.append((delta, n, kind, cov, float(se), float(predicted)))
    return StudyResult(
        header=("delta", "n", "interval", "coverage", "se", "predicted"),
        rows=tuple(rows),
        crossings=(),
        kappa_rows=(),
        replications=config.replications * len(config.n_list) * len(config.delta_grid),
        failures=total_failures,
        manifest=tuple(config.manifest_lines()),
    )
