"""Seeded Monte Carlo engines.

Three jobs: estimate the tolerance radius by simulation, measure the
finite-sample mean squared error of compromise estimators against the
limit-experiment prediction, and measure confidence-interval coverage
under root-n departures. A StudyConfig holds every setting of a study
and checks each one when it is built, the estimand and estimators
included (see its docstring), so a bad setting raises ValueError before
any replication runs. Replication r always draws from a stream keyed by
(seed, r). Every (n, delta) cell of a study is prepared (its draw point,
design, estimand and fit function) before any fit. The replications of a
cell are then drawn and fitted in blocks of BLOCK_ROWS consecutive
replications. estimators.fit_rows fits a block and leaves out the
replications that fail: a closed-form fit takes the whole block in one
call, and each replication alone only if that call raises; a Newton fit
runs one replication at a time. No replication's result depends on the
others in its block. With workers > 1 on Linux, the blocks of all cells
are fitted in up to `workers` forked worker processes (_fit_each);
otherwise they are fitted in order in the calling process. Either way the
block results are read in order, and everything after the fits (the
plug-in geometry with its checks, z statistics, compromise estimates,
coverage indicators, plug-in kappas) is evaluated in the calling process,
once per cell, on arrays over the replication axis. So output is
identical for any worker count. A replication that fails at any stage is
counted and left out.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimators import (
    AEstimator,
    compromise_estimate,
    debias_estimate,
    fit_rows,
    parse_estimator,
    z_statistic,
)
from .models import Design, ModelSpec
from .numerics import (
    NumericsError,
    PartitionedInfo,
    each_that_holds,
    partitioned_inverse,
    replication_rng,
    rows_that_hold,
)
from .risk import LimitGeometry, ci_coverage, limit_geometry, write_csv

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
    """Everything needed to reproduce a study bit-for-bit.

    The field defaults are the only study defaults; the CLI's [study]
    reader passes only the keys a config file sets. Construction raises
    ValueError for a missing seed, fewer than 100 replications, an unknown
    kappa method, a level outside (0, 1), fewer than one worker, an empty
    delta grid or n list, an n below 1, an estimand the model does not
    define, an estimator that parse_estimator rejects ("debias" is allowed)
    and a model with more than one departure parameter.

    workers is the most processes a study uses. Above 1, on Linux, a study
    forks the calling process into min(workers, usable CPUs, blocks)
    worker processes, which inherit the model, designs and fit functions
    (nothing of them is pickled), and joins them before it returns or
    raises. The output is the same for any worker count.
    """

    model: ModelSpec
    estimand: str | None = None
    delta_grid: tuple = (0.0,)
    n_list: tuple = (500,)
    replications: int = 2000
    seed: int | None = None
    estimators: tuple = ("narrow", "wide")
    kappa_method: str = "score-cov"
    level: float = 0.90
    workers: int = 1  # the most processes a study uses (see the docstring)
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
        if any(n < 1 for n in self.n_list):
            raise ValueError(f"n must list positive sample sizes, got {self.n_list!r}")
        if self.model.q != 1:
            raise ValueError("Monte Carlo studies support a scalar departure only")
        if self.estimand is not None and self.estimand not in self.model.estimand_names():
            known = ", ".join(sorted(self.model.estimand_names()))
            raise ValueError(
                f"model {self.model.name!r} has no estimand {self.estimand!r} (known: {known})"
            )
        self.resolved_estimators()  # parse_estimator raises for a bad entry

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


def _entries(blocks) -> list:
    """The fit entries of one cell's blocks, in order."""
    return [entry for block in blocks for entry in block]


def _fit_block(config: StudyConfig, job, start: int):
    """fit_block(ys) of job = (gamma, design, fit_block) on the replications
    start, start + 1, ... of one block of BLOCK_ROWS.

    ys stacks their draws at gamma, each from its own (seed, r) stream; a
    replication whose sampler raises a numerical failure is left out.
    fit_block returns one entry per row it keeps.
    """
    gamma, design, fit_block = job
    draws, _ = each_that_holds(
        lambda r: _draw(config, r, gamma, design),
        range(start, min(start + BLOCK_ROWS, config.replications)),
    )
    return fit_block(np.array(draws)) if draws else []


_WORKER_JOBS = None  # (config, jobs), set only in the worker processes of _fit_each


def _adopt_jobs(config, jobs):
    global _WORKER_JOBS
    _WORKER_JOBS = config, jobs


def _worker_block(job: int, start: int):
    config, jobs = _WORKER_JOBS
    return _fit_block(config, jobs[job], start)


def _pool_size(config: StudyConfig, blocks: int) -> int:
    if not sys.platform.startswith("linux"):
        return 1
    return min(config.workers, len(os.sched_getaffinity(0)), blocks)


@contextmanager
def _fit_each(config: StudyConfig, jobs):
    """Yields an iterator over the fit entries of each job, in order.

    A job (gamma, design, fit_block) is one cell's fits; its entries are
    those of its blocks (_fit_block), in order. With one process the
    blocks of a job are fitted when the iterator reaches it. Otherwise
    every block of every job is submitted at once to a pool of forked
    processes, which inherit config and jobs, so that no closure is
    pickled; the results are read in order, so the entries are the same.
    Leaving the context cancels the blocks not yet started and joins the
    workers, also when the caller raises. A worker's exception is raised
    again here, and a worker that dies raises BrokenProcessPool.
    """
    starts = range(0, config.replications, BLOCK_ROWS)
    processes = _pool_size(config, len(jobs) * len(starts))
    if processes == 1:
        yield (_entries(_fit_block(config, job, s) for s in starts) for job in jobs)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        processes, multiprocessing.get_context("fork"),
        initializer=_adopt_jobs, initargs=(config, jobs),
    )
    try:
        with warnings.catch_warnings():
            # The first submit forks every worker. Python 3.12+ warns that a
            # fork of a multi-threaded process may deadlock the child; the
            # threads here are numpy's BLAS pool, which OpenBLAS shuts down
            # around a fork (pthread_atfork).
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            futures = [[pool.submit(_worker_block, j, s) for s in starts] for j in range(len(jobs))]
        yield (_entries(f.result() for f in job) for job in futures)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _draw(config: StudyConfig, r: int, gamma, design):
    model = config.model
    rng = replication_rng(config.seed, r)
    return model.sampler(np.asarray(model.theta0, dtype=float), gamma, design, rng)


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
    the per-observation wide scores there; it also returns their mean as
    info. Its kappa is the mean of the per-replication plug-in kappas and
    its se is their spread over sqrt(replications): se does not bound
    score-cov's finite-n bias, which read +1% to +7% against the analytic
    kappa at n = 400 on every built-in. full-ml-cov and gamma-sd are one
    estimate from the wide ML fits: with one departure parameter
    (StudyConfig rejects more), the gamma entry of n times the empirical
    covariance of the wide estimates is the variance of
    sqrt(n)*(gamma_hat - gamma0), so both report that standard deviation
    as kappa, with the same kappa and se bit for bit; full-ml-cov also
    returns the scaled covariance as inverse_info. The study runs at one
    sample size, so config.n_list must hold exactly one; a longer list
    raises ValueError.
    """
    if len(config.n_list) != 1:
        raise ValueError(
            f"a kappa study runs at one sample size; n lists {len(config.n_list)}"
        )
    model = config.model
    n = int(config.n_list[0])
    design = config.design_for(n)
    gamma0 = np.asarray(model.gamma0, dtype=float)
    p = model.p
    method = config.kappa_method
    reps = config.replications

    if method == "score-cov":
        def score_covariances(ys):
            narrow, kept = fit_rows(model, ys, design, wide=False)

            def covariance(j):
                scores = np.column_stack(model.score_null(ys[kept[j]], design, narrow.theta[j]))
                centered = scores - scores.mean(axis=0)
                return centered.T @ centered / n

            return each_that_holds(covariance, range(len(kept)))[0]

        with _fit_each(config, [(gamma0, design, score_covariances)]) as fitted:
            infos = np.array(next(fitted))
        inv, kept = rows_that_hold(
            lambda rows: partitioned_inverse(PartitionedInfo(infos[rows], p)), len(infos)
        )
        failures = _checked_failures(config, reps - len(kept))
        kappas = np.sqrt(inv.inv22[:, 0, 0])
        return KappaStudy(
            method=method,
            n=n,
            replications=reps,
            failures=failures,
            kappa=float(np.mean(kappas)),
            se=float(np.std(kappas, ddof=1) / math.sqrt(len(kappas))),
            info=PartitionedInfo(np.mean(infos[kept], axis=0), p),
        )

    def wide_params(ys):
        wide, _ = fit_rows(model, ys, design, wide=True)
        return [] if wide is None else wide.params

    with _fit_each(config, [(gamma0, design, wide_params)]) as fitted:
        params = np.array(next(fitted))
    failures = _checked_failures(config, reps - len(params))
    kap = float(np.std(math.sqrt(n) * (params[:, p] - gamma0[0]), ddof=1))
    return KappaStudy(
        method=method,
        n=n,
        replications=reps,
        failures=failures,
        kappa=kap,
        se=kap / math.sqrt(2.0 * (len(params) - 1)),
        inverse_info=(
            n * np.cov(params.T, ddof=1).reshape(p + 1, p + 1) if method == "full-ml-cov" else None
        ),
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
            write_csv(fh, self.header, self.rows)
        return path

    def write_manifest(self, path):
        with open(path, "w") as fh:
            for line in self.manifest:
                fh.write(line + "\n")
            fh.write(f"replications_attempted: {self.replications}\n")
            fh.write(f"failures: {self.failures}\n")
            fh.write(f"successes: {self.replications - self.failures}\n")
        return path


def _study_result(config: StudyConfig, header, rows, failures, crossings=(), kappa_rows=()):
    return StudyResult(
        header=header,
        rows=tuple(rows),
        crossings=tuple(crossings),
        kappa_rows=tuple(kappa_rows),
        replications=config.replications * len(config.n_list) * len(config.delta_grid),
        failures=failures,
        manifest=tuple(config.manifest_lines()),
    )


@dataclass(frozen=True)
class _Cell:
    """One (n, delta) cell over the replications that survived every check:
    the true focus value, the wide departure estimates, the narrow and wide
    estimates of the focus, and the plug-in geometry at each narrow fit."""

    mu_true: float
    gamma_hat: np.ndarray
    mu_n: np.ndarray
    mu_w: np.ndarray
    geom: LimitGeometry
    failures: int


def _draw_point(model: ModelSpec, n: int, delta: float):
    return np.asarray(model.gamma0, dtype=float) + delta / math.sqrt(n)


def _fit_both(model: ModelSpec, design, estimand):
    """The fit function of a cell: the narrow and the wide fit of each row
    of a block, and (theta, gamma_hat, mu_n, mu_w) for each row that both
    hold on. A row whose narrow fit fails gets no wide fit."""
    gamma0 = np.asarray(model.gamma0, dtype=float)

    def fit_both(ys):
        narrow, kept = fit_rows(model, ys, design, wide=False)
        wide, kept_wide = fit_rows(model, ys[kept], design, wide=True)

        def entry(j):
            theta = narrow.theta[kept_wide[j]]
            return (
                theta,
                float(wide.gamma[j, 0]),
                estimand(theta, gamma0),
                estimand(wide.theta[j], wide.gamma[j]),
            )

        return each_that_holds(entry, range(len(kept_wide)))[0]

    return fit_both


def _cell(config: StudyConfig, n: int, delta: float, design, estimand, fits) -> _Cell:
    """One cell from its fit entries: the plug-in geometry at all the
    narrow fits at once, and the rows it holds on. A cell with no entry, or
    with none that the geometry holds on, aborts the study."""
    model = config.model
    thetas, gamma_hat, mu_n, mu_w = (np.array([entry[i] for entry in fits]) for i in range(4))
    geom, kept = rows_that_hold(
        lambda rows: limit_geometry(model, design, estimand, theta=thetas[rows]), len(thetas)
    )
    if geom is None:
        _checked_failures(config, config.replications)  # every one failed: aborts
    return _Cell(
        mu_true=estimand(np.asarray(model.theta0, dtype=float), _draw_point(model, n, delta)),
        gamma_hat=gamma_hat[kept],
        mu_n=mu_n[kept],
        mu_w=mu_w[kept],
        geom=geom,
        failures=config.replications - len(kept),
    )


def _cells(config: StudyConfig, n: int, design, estimand, fitted):
    for delta in config.delta_grid:
        delta = float(delta)
        yield delta, _cell(config, n, delta, design, estimand, next(fitted))


@contextmanager
def _fitted_cells(config: StudyConfig):
    """Yields, for each n of config.n_list, (n, design, estimand, cells);
    cells iterates (delta, _Cell) over config.delta_grid.

    Every cell is prepared before any fit, and the fits of all cells go
    through one _fit_each. A cell's geometry is evaluated when cells
    reaches it, so a study that aborts raises the error of the first cell
    in study order that fails, whatever the worker count.
    """
    model = config.model
    sizes = []
    for n in config.n_list:
        design = config.design_for(int(n))
        sizes.append((int(n), design, config.estimand_for(design)))
    jobs = [
        (_draw_point(model, n, float(delta)), design, _fit_both(model, design, estimand))
        for n, design, estimand in sizes for delta in config.delta_grid
    ]
    with _fit_each(config, jobs) as fitted:
        yield (
            (n, design, estimand, _cells(config, n, design, estimand, fitted))
            for n, design, estimand in sizes
        )


def finite_sample_mse(config: StudyConfig) -> StudyResult:
    """n*(mu_star - mu_true)^2 averaged over replications, per (delta, n, rule).

    Data are drawn at gamma0 + delta/sqrt(n); the departure statistic uses
    the plug-in radius at the fitted narrow parameters. The debias entry
    applies the first-order bias correction instead of a weight rule.
    """
    g0 = float(config.model.gamma0[0])
    estimators = config.resolved_estimators()
    rows = []
    crossings = []
    kappa_rows = []
    total_failures = 0

    with _fitted_cells(config) as sizes:
        for n, _, _, cells in sizes:
            narrow_curve, wide_curve = [], []
            plugin_kappas = []
            for delta, cell in cells:

                def evaluate(idx):
                    gamma_hat, mu_n = cell.gamma_hat[idx], cell.mu_n[idx]
                    zn = z_statistic(gamma_hat, g0, cell.geom.kappa[idx], n)
                    return np.column_stack([
                        debias_estimate(mu_n, cell.geom.bias_slope[idx], gamma_hat, g0)
                        if est is None else compromise_estimate(mu_n, cell.mu_w[idx], zn, est)
                        for _, est in estimators
                    ])

                estimates, kept = rows_that_hold(evaluate, len(cell.gamma_hat))
                total_failures += _checked_failures(
                    config, cell.failures + len(cell.gamma_hat) - len(kept)
                )
                sqerr = n * (estimates - cell.mu_true) ** 2
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

    return _study_result(
        config, ("delta", "n", "estimator", "nmse", "se"), rows, total_failures,
        crossings, kappa_rows,
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
    rows = []
    total_failures = 0
    with _fitted_cells(config) as sizes:
        for n, design, estimand, cells in sizes:
            truth_geom = limit_geometry(model, design, estimand)
            for delta, cell in cells:
                total_failures += _checked_failures(config, cell.failures)
                half_n = z * cell.geom.tau0 / math.sqrt(n)
                half_w = z * cell.geom.tau / math.sqrt(n)
                kept = np.column_stack([
                    np.abs(cell.mu_n - cell.mu_true) <= half_n,
                    np.abs(cell.mu_w - cell.mu_true) <= half_w,
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
    return _study_result(
        config, ("delta", "n", "interval", "coverage", "se", "predicted"), rows, total_failures
    )
