"""Seeded Monte Carlo engines.

Three jobs: estimate the tolerance radius by simulation, measure the
finite-sample mean squared error of compromise estimators against the
limit-experiment prediction, and measure confidence-interval coverage
under root-n departures. Replication r always draws from a stream keyed
by (seed, r), so results are identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimators import (
    AEstimator,
    compromise_estimate,
    debias_estimate,
    fit_narrow,
    fit_wide,
    parse_estimator,
    z_statistic,
)
from .models import Design, ModelSpec, information_at_null
from .numerics import (
    NumericsError,
    PartitionedInfo,
    partitioned_inverse,
    replication_rng,
)
from .risk import ci_coverage, limit_geometry
from .tolerance import kappa

KAPPA_METHODS = ("score-cov", "full-ml-cov", "gamma-sd")


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
    workers: int = 1
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


def _run_replications(config: StudyConfig, worker):
    """Evaluate worker(r) for each replication index, order-stable.

    Exceptions classed as numerical failures become None entries.
    """

    def guarded(r):
        try:
            return worker(r)
        except NumericsError:
            return None

    reps = config.replications
    if config.workers == 1:
        results = [guarded(r) for r in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(guarded, range(reps)))
    failures = sum(1 for r in results if r is None)
    if failures > 0.01 * reps:
        raise StudyError(
            f"{failures} of {reps} replications failed; aborting rather than "
            f"averaging a biased remainder"
        )
    return results, failures


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
    theta0 = np.asarray(model.theta0, dtype=float)
    gamma0 = np.asarray(model.gamma0, dtype=float)
    p, q = model.p, model.q
    method = config.kappa_method

    def draw(r):
        rng = replication_rng(config.seed, r)
        return model.sampler(theta0, gamma0, design, rng)

    if method == "score-cov":
        def worker(r):
            y = draw(r)
            theta_hat = fit_narrow(model, y, design).theta
            scores = np.column_stack(model.score_null(y, design, theta_hat))
            centered = scores - scores.mean(axis=0)
            info_hat = centered.T @ centered / n
            kap = kappa(PartitionedInfo.from_full(info_hat, p))
            return kap, info_hat

        results, failures = _run_replications(config, worker)
        kept = [r for r in results if r is not None]
        kappas = np.array([k for k, _ in kept])
        mean_info = np.mean([m for _, m in kept], axis=0)
        return KappaStudy(
            method=method,
            n=n,
            replications=config.replications,
            failures=failures,
            kappa=float(np.mean(kappas)),
            se=float(np.std(kappas, ddof=1) / math.sqrt(len(kappas))),
            info=PartitionedInfo.from_full(mean_info, p),
        )

    def worker(r):
        y = draw(r)
        return fit_wide(model, y, design).params

    results, failures = _run_replications(config, worker)
    params = np.array([r for r in results if r is not None])
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
            replications=config.replications,
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
        replications=config.replications,
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


def _replicate(config: StudyConfig, r: int, gamma_true, design, estimand):
    """Draw replication r at gamma_true and fit both models to it.

    Returns the wide fit, the plug-in geometry at the narrow fit, and the
    narrow and wide estimates of the estimand.
    """
    model = config.model
    rng = replication_rng(config.seed, r)
    y = model.sampler(np.asarray(model.theta0, dtype=float), gamma_true, design, rng)
    narrow = fit_narrow(model, y, design)
    wide = fit_wide(model, y, design)
    geom = limit_geometry(model, design, estimand, theta=narrow.theta)
    mu_n = estimand(narrow.theta, np.asarray(model.gamma0, dtype=float))
    mu_w = estimand(wide.theta, wide.gamma)
    return wide, geom, mu_n, mu_w


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

            def worker(r, gamma_true=gamma_true, design=design, estimand=estimand, n=n):
                wide, geom, mu_n, mu_w = _replicate(config, r, gamma_true, design, estimand)
                zn = z_statistic(float(wide.gamma[0]), float(gamma0[0]), geom.kappa, n)
                values = []
                for _, est in estimators:
                    if est is None:
                        values.append(
                            debias_estimate(
                                mu_n, geom.bias_slope, float(wide.gamma[0]), float(gamma0[0])
                            )
                        )
                    else:
                        values.append(compromise_estimate(mu_n, mu_w, zn, est))
                return np.asarray(values), geom.kappa

            results, failures = _run_replications(config, worker)
            total_failures += failures
            kept = [r for r in results if r is not None]
            estimates = np.array([v for v, _ in kept])
            kappas = np.array([k for _, k in kept])
            sqerr = n * (estimates - mu_true) ** 2
            means = sqerr.mean(axis=0)
            ses = sqerr.std(axis=0, ddof=1) / math.sqrt(sqerr.shape[0])
            for (name, _), m, s in zip(estimators, means, ses):
                rows.append((delta, n, name, float(m), float(s)))
                if name == "narrow":
                    narrow_curve.append((delta, float(m)))
                elif name == "wide":
                    wide_curve.append((delta, float(m)))
            plugin_kappas.extend(kappas.tolist())
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


def coverage_study(config: StudyConfig, level: float | None = None) -> StudyResult:
    """Empirical coverage of the narrow and wide plug-in intervals.

    Rows carry the prediction from ci_coverage (narrow) or the nominal
    level (wide) alongside the Monte Carlo estimate.
    """
    from .numerics import std_normal_quantile

    model = config.model
    level = config.level if level is None else float(level)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    z = std_normal_quantile((1.0 + level) / 2.0)
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

            def worker(r, gamma_true=gamma_true, design=design, estimand=estimand, n=n):
                _, geom, mu_n, mu_w = _replicate(config, r, gamma_true, design, estimand)
                half_n = z * geom.tau0 / math.sqrt(n)
                half_w = z * geom.tau / math.sqrt(n)
                return (
                    abs(mu_n - mu_true) <= half_n,
                    abs(mu_w - mu_true) <= half_w,
                )

            results, failures = _run_replications(config, worker)
            total_failures += failures
            kept = np.array([r for r in results if r is not None], dtype=float)
            reps_kept = kept.shape[0]
            for idx, kind in enumerate(("narrow", "wide")):
                cov = float(kept[:, idx].mean())
                se = math.sqrt(max(cov * (1.0 - cov), 1e-12) / reps_kept)
                if kind == "narrow":
                    shift = truth_geom.bias_slope * delta / truth_geom.tau0
                    predicted = ci_coverage(shift, z)
                else:
                    predicted = level
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
