import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import signal
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from mistol.estimators import (
    AEstimator,
    compromise_estimate,
    debias_estimate,
    eb,
    fit_narrow,
    fit_wide,
    z_statistic,
)
from mistol import estimators, mcstudy
from mistol.mcstudy import (
    KAPPA_METHODS,
    KappaStudy,
    StudyConfig,
    StudyError,
    _curve_crossings,
    coverage_study,
    finite_sample_mse,
    kappa_by_simulation,
)
from mistol.models import get_model, information_at_null
from mistol.numerics import (
    DomainError,
    NumericsError,
    PartitionedInfo,
    partitioned_inverse,
    replication_rng,
)
from mistol.risk import limit_geometry
from mistol.tolerance import kappa

WEIBULL_KAPPA = 0.7796968012336761


def weibull_config(**kw):
    base = dict(
        model=get_model("weibull-vs-exp"),
        delta_grid=(0.0,),
        n_list=(200,),
        replications=100,
        seed=314,
    )
    base.update(kw)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            weibull_config(seed=None)
        with pytest.raises(ValueError):
            weibull_config(replications=50)
        with pytest.raises(ValueError):
            weibull_config(kappa_method="bootstrap")
        with pytest.raises(ValueError):
            weibull_config(level=1.0)
        with pytest.raises(ValueError):
            weibull_config(workers=0)
        with pytest.raises(ValueError):
            weibull_config(delta_grid=())
        with pytest.raises(ValueError):
            weibull_config(n_list=())

    @pytest.mark.parametrize("setting, message", [
        ({"n_list": (40, 0)}, r"n must list positive sample sizes, got \(40, 0\)"),
        ({"estimand": "bogus"}, "has no estimand 'bogus'"),
        ({"estimators": ("narrow", "bogus")}, "unknown estimator 'bogus'"),
    ])
    def test_bad_settings_fail_at_construction(self, setting, message):
        with pytest.raises(ValueError, match=message):
            weibull_config(**setting)

    @pytest.mark.parametrize("method", KAPPA_METHODS)
    def test_departure_must_be_scalar(self, method):
        # every study kind reads one departure coordinate
        two = dataclasses.replace(get_model("weibull-vs-exp"), gamma0=(1.0, 1.0))
        with pytest.raises(ValueError, match="scalar departure only"):
            weibull_config(model=two, kappa_method=method)

    def test_resolved_estimators(self):
        config = weibull_config(estimators=("narrow", "debias", eb(), "qhat:eps=0.1"))
        resolved = config.resolved_estimators()
        assert [name for name, _ in resolved] == [
            "narrow", "debias", "eb", "qhat:eps=0.1",
        ]
        assert resolved[1][1] is None
        assert resolved[2][1].name == "eb"

    def test_manifest_lines(self):
        config = weibull_config(estimators=("narrow", "wide"))
        lines = list(config.manifest_lines())
        assert "model: weibull-vs-exp" in lines
        assert "seed: 314" in lines
        assert any(line.startswith("estimators: ") for line in lines)

    def test_design_factory_override(self):
        model = get_model("two-sample")
        config = StudyConfig(
            model=model,
            seed=1,
            design_factory=lambda n: model.default_design(n, m=2 * n),
        )
        design = config.design_for(30)
        assert design.n == 90


class TestKappaBySimulation:
    def test_gamma_sd(self):
        study = kappa_by_simulation(
            weibull_config(kappa_method="gamma-sd", replications=400)
        )
        assert study.method == "gamma-sd"
        assert study.failures == 0
        assert study.info is None and study.inverse_info is None
        assert abs(study.kappa - WEIBULL_KAPPA) < 4.0 * study.se

    def test_score_cov(self):
        config = weibull_config(
            kappa_method="score-cov", n_list=(1000,), replications=300
        )
        study = kappa_by_simulation(config)
        # the plug-in at fitted parameters carries O(1/n) bias, so allow
        # a small systematic term on top of the Monte Carlo band
        assert abs(study.kappa - WEIBULL_KAPPA) < 4.0 * study.se + 0.02
        model = config.model
        closed = information_at_null(model, model.default_design(1000)).matrix
        assert study.info is not None
        assert np.allclose(study.info.matrix, closed, atol=0.1)
        assert float(kappa(study.info)) == pytest.approx(study.kappa, abs=0.05)

    def test_full_ml_cov(self):
        study = kappa_by_simulation(
            weibull_config(kappa_method="full-ml-cov", n_list=(1000,), replications=300)
        )
        assert abs(study.kappa - WEIBULL_KAPPA) < 4.0 * study.se + 0.02
        assert study.inverse_info is not None
        assert study.inverse_info.shape == (2, 2)
        # the departure block of n*Cov should approximate kappa^2
        assert study.inverse_info[1, 1] == pytest.approx(study.kappa**2, rel=1e-9)

    @pytest.mark.parametrize("name", ["weibull-vs-exp", "gamma-vs-exp", "linreg-covariate"])
    def test_full_ml_cov_and_gamma_sd_are_one_estimate(self, name):
        config = StudyConfig(model=get_model(name), n_list=(200,), replications=100, seed=3)
        full, sd = (
            kappa_by_simulation(dataclasses.replace(config, kappa_method=method))
            for method in ("full-ml-cov", "gamma-sd")
        )
        assert (full.failures, full.kappa, full.se) == (sd.failures, sd.kappa, sd.se)
        assert sd.inverse_info is None and full.inverse_info is not None
        k = config.model.p + 1
        assert full.inverse_info.shape == (k, k)
        assert full.inverse_info[-1, -1] == pytest.approx(full.kappa**2, rel=1e-12)

    def test_only_full_ml_cov_returns_inverse_info(self):
        returned = {
            method: kappa_by_simulation(weibull_config(kappa_method=method)).inverse_info
            for method in KAPPA_METHODS
        }
        assert [m for m, inv in returned.items() if inv is not None] == ["full-ml-cov"]

    def test_one_sample_size(self):
        config = weibull_config(kappa_method="gamma-sd", n_list=(60, 120))
        with pytest.raises(ValueError, match="one sample size; n lists 2"):
            kappa_by_simulation(config)

    def test_methods_tuple(self):
        assert KAPPA_METHODS == ("score-cov", "full-ml-cov", "gamma-sd")

    def test_reproducible(self):
        config = weibull_config(kappa_method="gamma-sd", replications=150)
        a = kappa_by_simulation(config)
        b = kappa_by_simulation(config)
        assert a == b


def failing_sampler_model(threshold):
    """Weibull model whose sampler aborts when the replication's first
    uniform draw falls below `threshold` (deterministic per seed)."""
    model = get_model("weibull-vs-exp")
    base_sampler = model.sampler

    def sampler(theta, gamma, design, rng):
        if float(rng.uniform()) < threshold:
            raise DomainError("synthetic sampler failure")
        return base_sampler(theta, gamma, design, rng)

    return dataclasses.replace(model, sampler=sampler)


class TestFailureAccounting:
    def test_exact_failure_count_below_threshold(self):
        seed, reps = 555, 200
        first_draws = np.array(
            [float(replication_rng(seed, r).uniform()) for r in range(reps)]
        )
        # pick a cut-off that fails exactly one replication
        cut = float(np.sort(first_draws)[0]) + 1e-12
        assert int(np.sum(first_draws < cut)) == 1
        config = StudyConfig(
            model=failing_sampler_model(cut),
            kappa_method="gamma-sd",
            n_list=(50,),
            replications=reps,
            seed=seed,
        )
        study = kappa_by_simulation(config)
        assert study.failures == 1
        assert study.replications == reps

    def test_mass_failures_abort(self):
        config = StudyConfig(
            model=failing_sampler_model(0.5),
            kappa_method="gamma-sd",
            n_list=(50,),
            replications=100,
            seed=555,
        )
        with pytest.raises(StudyError):
            kappa_by_simulation(config)

    @pytest.mark.parametrize("study, method", [
        (finite_sample_mse, None), (coverage_study, None),
        *((kappa_by_simulation, method) for method in KAPPA_METHODS),
    ])
    def test_a_cell_without_replications_aborts(self, study, method):
        config = StudyConfig(
            model=failing_sampler_model(1.0), kappa_method=method or "score-cov",
            n_list=(50,), replications=100, seed=555,
        )
        with pytest.raises(StudyError, match="^100 of 100 replications failed; aborting"):
            study(config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_first_failing_cell_aborts(self, workers):
        # every draw away from the null fails, and about half at the null
        base = get_model("weibull-vs-exp")
        seed, reps = 555, 100

        def sampler(theta, gamma, design, rng):
            if float(gamma[0]) != 1.0 or float(rng.uniform()) < 0.5:
                raise DomainError("synthetic sampler failure")
            return base.sampler(theta, gamma, design, rng)

        half = sum(float(replication_rng(seed, r).uniform()) < 0.5 for r in range(reps))
        assert 0 < half < reps
        for grid, failed in (((0.0, 0.5), half), ((0.5, 0.0), reps)):
            config = StudyConfig(
                model=dataclasses.replace(base, sampler=sampler), delta_grid=grid,
                n_list=(50,), replications=reps, seed=seed, workers=workers,
            )
            with pytest.raises(StudyError, match=f"^{failed} of {reps} replications failed"):
                finite_sample_mse(config)

    def test_mse_study_reports_failures(self):
        seed, reps = 777, 150
        first_draws = np.array(
            [float(replication_rng(seed, r).uniform()) for r in range(reps)]
        )
        cut = float(np.sort(first_draws)[0]) + 1e-12
        config = StudyConfig(
            model=failing_sampler_model(cut),
            n_list=(60,),
            delta_grid=(0.0,),
            replications=reps,
            seed=seed,
            estimators=("narrow", "wide"),
        )
        result = finite_sample_mse(config)
        assert result.failures == 1


@pytest.mark.parametrize("study, name, n, delta, seed", [
    (coverage_study, "gamma-vs-exp", 100, 0.0, 21),
    (finite_sample_mse, "logistic-quadratic", 150, 0.5, 7),
])
def test_routine_studies_complete(study, name, n, delta, seed):
    # two Newton wide fits of each stall at the rounding floor of the
    # log-likelihood, just above the gradient bar; they are certified
    config = StudyConfig(
        model=get_model(name), delta_grid=(delta,), n_list=(n,), replications=100, seed=seed,
    )
    assert study(config).failures == 0


def singular_above_model(threshold):
    """Weibull model whose closed information is singular (its Schur block
    vanishes) wherever the plug-in rate exceeds `threshold`."""
    base = get_model("weibull-vs-exp")

    def closed_information(theta, design):
        full = base.closed_information(theta, design)
        if theta[0] > threshold:
            full[1, 1] = full[0, 1] ** 2 / full[0, 0]
        return full

    return dataclasses.replace(base, closed_information=closed_information)


def one_replication_at_a_time(config):
    """(failures, rows) of a one-cell MSE study at delta 0 with every step
    taken per replication, through the single-call forms of the post-fit
    layer."""
    model, n = config.model, config.n_list[0]
    design = config.design_for(n)
    estimand = config.estimand_for(design)
    theta0, gamma0 = np.array(model.theta0), np.array(model.gamma0)
    g0 = float(gamma0[0])
    mu_true = estimand(theta0, gamma0)
    values = []
    for r in range(config.replications):
        try:
            y = model.sampler(theta0, gamma0, design, replication_rng(config.seed, r))
            narrow, wide = fit_narrow(model, y, design), fit_wide(model, y, design)
            geom = limit_geometry(model, design, estimand, theta=narrow.theta)
            mu_n, mu_w = estimand(narrow.theta, gamma0), estimand(wide.theta, wide.gamma)
            g = float(wide.gamma[0])
            zn = z_statistic(g, g0, geom.kappa, n)
            values.append([
                debias_estimate(mu_n, geom.bias_slope, g, g0) if est is None
                else compromise_estimate(mu_n, mu_w, zn, est)
                for _, est in config.resolved_estimators()
            ])
        except NumericsError:
            pass
    sqerr = n * (np.array(values) - mu_true) ** 2
    ses = sqerr.std(axis=0, ddof=1) / math.sqrt(len(values))
    rows = tuple(
        (0.0, n, name, float(m), float(s))
        for (name, _), m, s in zip(config.resolved_estimators(), sqerr.mean(axis=0), ses)
    )
    return config.replications - len(values), rows


class TestRowFailures:
    """A replication that fails after its fits is counted and left out, as
    if each replication had been taken through the single calls alone."""

    def config(self, **kw):
        base = dict(
            model=get_model("weibull-vs-exp"), n_list=(80,), delta_grid=(0.0,),
            replications=150, seed=41, estimators=("narrow", "wide", "eb", "debias"),
        )
        base.update(kw)
        return StudyConfig(**base)

    def narrow_rates(self, config):
        model, n = config.model, config.n_list[0]
        theta0, gamma0 = np.array(model.theta0), np.array(model.gamma0)
        return np.array([
            1.0 / np.mean(model.sampler(
                theta0, gamma0, model.default_design(n), replication_rng(config.seed, r)
            ))
            for r in range(config.replications)
        ])

    def test_failed_geometry_rows(self):
        rates = np.sort(self.narrow_rates(self.config()))
        threshold = 0.5 * (rates[-1] + rates[-2])  # fails the largest rate only
        config = self.config(model=singular_above_model(threshold))
        result = finite_sample_mse(config)
        assert (result.failures, result.rows) == one_replication_at_a_time(config)
        assert result.failures == 1
        assert coverage_study(config).failures == 1

    def test_failed_combine_rows(self):
        config = self.config()
        model, n = config.model, 80
        design = model.default_design(n)
        gammas = np.array([
            fit_wide(model, model.sampler(
                np.array(model.theta0), np.array(model.gamma0), design,
                replication_rng(config.seed, r),
            ), design).gamma[0]
            for r in range(config.replications)
        ])
        z = np.sort(np.abs(math.sqrt(n) * (gammas - 1.0) / WEIBULL_KAPPA))
        cut = 0.5 * (z[-1] + z[-2])

        def fragile(zn):  # fails the whole array when any entry is too far out
            if np.any(np.abs(zn) > cut):
                raise NumericsError("weight undefined this far out")
            return zn

        config = self.config(estimators=("narrow", AEstimator("fragile", fragile, c0=1.0)))
        result = finite_sample_mse(config)
        assert (result.failures, result.rows) == one_replication_at_a_time(config)
        assert result.failures == 1

    def test_off_optimum_fit_fails_its_row_only(self):
        base = get_model("weibull-vs-exp")
        config = self.config()
        design = base.default_design(80)
        firsts = np.sort([
            base.sampler(np.array(base.theta0), np.array(base.gamma0), design,
                         replication_rng(config.seed, r))[0]
            for r in range(config.replications)
        ])
        cut = 0.5 * (firsts[-1] + firsts[-2])

        def off_optimum(y, design):
            # moves the rate of every sample whose first value exceeds cut
            theta, gamma = base.wide_fit_exact(y, design)
            return np.where(y[..., :1] > cut, 1.01, 1.0) * theta, gamma

        config = self.config(model=dataclasses.replace(base, wide_fit_exact=off_optimum))
        result = finite_sample_mse(config)
        assert (result.failures, result.rows) == one_replication_at_a_time(config)
        assert result.failures == 1

    def test_too_many_failed_rows_abort(self):
        rates = self.narrow_rates(self.config())
        threshold = float(np.median(rates))
        count = int(np.sum(rates > threshold))
        with pytest.raises(StudyError, match=f"^{count} of 150 replications failed"):
            finite_sample_mse(self.config(model=singular_above_model(threshold)))


def test_score_cov_failed_rows():
    # a replication whose score covariance has a singular Schur block is
    # counted and left out, as if each replication were taken alone
    base = get_model("weibull-vs-exp")
    n, seed, reps = 80, 41, 150
    design = base.default_design(n)
    theta0, gamma0 = np.array(base.theta0), np.array(base.gamma0)
    draws = [
        base.sampler(theta0, gamma0, design, replication_rng(seed, r)) for r in range(reps)
    ]
    means = np.sort([np.mean(y) for y in draws])
    cut = 0.5 * (means[-1] + means[-2])  # affects the largest mean only

    def score_null(y, design, theta):
        u, v = base.score_null(y, design, theta)
        return u, v * (0.0 if np.mean(y) > cut else 1.0)

    model = dataclasses.replace(base, score_null=score_null)
    config = StudyConfig(
        model=model, n_list=(n,), replications=reps, seed=seed, kappa_method="score-cov"
    )
    result = kappa_by_simulation(config)
    kappas = []
    for y in draws:
        theta = fit_narrow(model, y, design).theta
        scores = np.column_stack(model.score_null(y, design, theta))
        centered = scores - scores.mean(axis=0)
        try:
            inv = partitioned_inverse(PartitionedInfo(centered.T @ centered / n, 1))
        except NumericsError:
            continue
        kappas.append(math.sqrt(inv.inv22[0, 0]))
    assert result.failures == reps - len(kappas) == 1
    assert result.kappa == float(np.mean(kappas))


class TestFiniteSampleMse:
    def test_bitwise_reproducible_and_worker_invariant(self):
        config = weibull_config(
            delta_grid=(0.0, 0.5),
            n_list=(120,),
            replications=120,
            estimators=("narrow", "wide", "eb"),
        )
        first = finite_sample_mse(config)
        second = finite_sample_mse(config)
        assert first == second
        threaded = finite_sample_mse(dataclasses.replace(config, workers=4))
        assert threaded.rows == first.rows
        assert threaded.kappa_rows == first.kappa_rows

    def test_weibull_null_matches_limit_variances(self):
        config = weibull_config(
            n_list=(400,), replications=300, estimators=("narrow", "wide")
        )
        result = finite_sample_mse(config)
        by_name = {row[2]: row for row in result.rows}
        narrow = by_name["narrow"]
        wide = by_name["wide"]
        assert narrow[3] == pytest.approx(0.4804530139182014, abs=5 * narrow[4] + 0.02)
        assert wide[3] == pytest.approx(0.6624162336000172, abs=5 * wide[4] + 0.02)
        assert narrow[3] < wide[3]

    def test_plugin_kappa_rows(self):
        config = weibull_config(
            delta_grid=(0.0, 0.4), n_list=(150,), replications=100
        )
        result = finite_sample_mse(config)
        assert len(result.kappa_rows) == 1
        n, mean, se = result.kappa_rows[0]
        assert n == 150
        # the weibull radius does not depend on theta, so every plug-in
        # evaluation returns the same number
        assert mean == pytest.approx(WEIBULL_KAPPA, abs=1e-9)
        assert se == 0.0

    def test_debias_and_compromise_agree_when_focus_ignores_gamma(self):
        model = get_model("two-sample")
        config = StudyConfig(
            model=model,
            estimand="mean-diff",
            delta_grid=(0.0, 1.0),
            n_list=(80,),
            replications=100,
            seed=99,
            estimators=("narrow", "wide", "debias", "eb"),
        )
        result = finite_sample_mse(config)
        for delta in (0.0, 1.0):
            vals = {
                row[2]: row[3] for row in result.rows if row[0] == delta
            }
            # group means are the same under both fits and the bias slope
            # vanishes, so every rule reproduces the same estimate (up to
            # the roundoff of re-mixing identical endpoints)
            assert vals["wide"] == pytest.approx(vals["narrow"], rel=1e-12)
            assert vals["debias"] == pytest.approx(vals["narrow"], rel=1e-12)
            assert vals["eb"] == pytest.approx(vals["narrow"], rel=1e-12)

    def test_csv_and_manifest_output(self, tmp_path):
        config = weibull_config(n_list=(100,), replications=100)
        result = finite_sample_mse(config)
        csv_path = result.to_csv(tmp_path / "study.csv")
        lines = (tmp_path / "study.csv").read_text().strip().split("\n")
        assert lines[0] == "delta,n,estimator,nmse,se"
        assert len(lines) == 1 + len(result.rows)
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "100" and first[2] == "narrow"
        assert float(first[3]) == result.rows[0][3]
        manifest_path = result.write_manifest(tmp_path / "study-manifest.txt")
        text = (tmp_path / "study-manifest.txt").read_text()
        assert "model: weibull-vs-exp" in text
        assert f"replications_attempted: {result.replications}" in text
        assert "failures: 0" in text
        assert f"successes: {result.replications}" in text
        assert str(csv_path) == str(tmp_path / "study.csv")
        assert str(manifest_path) == str(tmp_path / "study-manifest.txt")


CLOSED_FORM_MODELS = (
    "gamma-vs-exp", "linreg-quadratic", "linreg-covariate", "varhet-regression",
    "transform-constant", "transform-regression", "two-sample",
)


class TestBlocks:
    """Replications are drawn and fitted in blocks of mcstudy.BLOCK_ROWS; no
    output depends on the block size."""

    SIZES = (1, 7, mcstudy.BLOCK_ROWS)

    def test_weibull_outputs_are_byte_identical(self, monkeypatch, tmp_path):
        mse = weibull_config(
            delta_grid=(0.0, 0.6), n_list=(150,), replications=110,
            estimators=("narrow", "wide", "eb", "debias"),
        )
        outputs = []
        for rows in self.SIZES:
            monkeypatch.setattr(mcstudy, "BLOCK_ROWS", rows)
            path = finite_sample_mse(mse).to_csv(tmp_path / f"mse-{rows}.csv")
            kappas = [
                repr(kappa_by_simulation(weibull_config(kappa_method=method, replications=110)))
                for method in KAPPA_METHODS
            ]
            outputs.append((path.read_bytes(), kappas))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("name", CLOSED_FORM_MODELS)
    def test_other_closed_form_models_agree(self, monkeypatch, name):
        # some of these wide fits are Newton fits, which fail on a few
        # replications at this routine setting; an abort must then be the same
        config = StudyConfig(
            model=get_model(name), delta_grid=(0.5,), n_list=(200,), replications=100,
            seed=12, estimators=("narrow", "wide", "eb"),
        )
        outcomes = []
        for rows in self.SIZES:
            monkeypatch.setattr(mcstudy, "BLOCK_ROWS", rows)
            try:
                result = finite_sample_mse(config)
            except StudyError as err:
                mse = str(err)
            else:
                mse = (result.failures, result.rows)
            kap = kappa_by_simulation(dataclasses.replace(config, kappa_method="score-cov"))
            outcomes.append((mse, kap))
        (mse, kap), others = outcomes[0], outcomes[1:]
        for other_mse, other_kap in others:
            if isinstance(mse, str):
                assert other_mse == mse
            else:
                assert other_mse[0] == mse[0]
                for got, want in zip(other_mse[1], mse[1]):
                    assert got[:3] == want[:3]
                    assert got[3:] == pytest.approx(want[3:], rel=1e-12, abs=0.0)
            assert other_kap.failures == kap.failures
            assert other_kap.kappa == pytest.approx(kap.kappa, rel=1e-12, abs=0.0)
            scale = np.max(np.abs(kap.info.matrix))
            assert np.max(np.abs(other_kap.info.matrix - kap.info.matrix)) <= 1e-12 * scale

    def test_closed_fits_take_a_block_newton_fits_a_row(self, monkeypatch):
        calls = []

        def spy(fit):
            def wrapper(model, y, design):
                calls.append((fit.__name__, np.shape(y)))
                return fit(model, y, design)
            return wrapper

        monkeypatch.setattr(estimators, "fit_narrow", spy(fit_narrow))
        monkeypatch.setattr(estimators, "fit_wide", spy(fit_wide))
        finite_sample_mse(weibull_config(n_list=(50,), replications=100))
        blocks = [(32, 50)] * 3 + [(4, 50)]
        assert calls == [(name, shape) for shape in blocks for name in ("fit_narrow", "fit_wide")]
        calls.clear()
        finite_sample_mse(StudyConfig(
            model=get_model("gamma-vs-exp"), n_list=(200,), replications=100, seed=3,
        ))
        # each Newton wide fit warm-starts at its own single-row narrow fit
        narrow_shapes = [shape for name, shape in calls if name == "fit_narrow"]
        assert [shape for shape in narrow_shapes if len(shape) == 2] == [
            (32, 200)] * 3 + [(4, 200)]
        assert [shape for shape in narrow_shapes if len(shape) == 1] == [(200,)] * 100
        assert [shape for name, shape in calls if name == "fit_wide"] == [(200,)] * 100


class TestCurveCrossings:
    def test_single_crossing_interpolated(self):
        a = [(0.0, 0.0), (1.0, 2.0)]
        b = [(0.0, 1.0), (1.0, 1.0)]
        assert _curve_crossings(a, b) == [0.5]

    def test_touching_at_left_endpoint(self):
        a = [(0.0, 1.0), (1.0, 2.0)]
        b = [(0.0, 1.0), (1.0, 1.0)]
        assert _curve_crossings(a, b) == [0.0]

    def test_no_crossing(self):
        a = [(0.0, 0.0), (1.0, 0.5)]
        b = [(0.0, 1.0), (1.0, 1.5)]
        assert _curve_crossings(a, b) == []

    def test_degenerate_input(self):
        assert _curve_crossings([(0.0, 1.0)], [(0.0, 2.0)]) == []
        assert _curve_crossings([], [(0.0, 1.0)]) == []


class TestCoverageStudy:
    def test_null_coverage_near_nominal(self):
        config = weibull_config(n_list=(300,), replications=400, level=0.90)
        result = coverage_study(config)
        assert result.header == ("delta", "n", "interval", "coverage", "se", "predicted")
        by_kind = {row[2]: row for row in result.rows}
        for kind in ("narrow", "wide"):
            _, _, _, cov, se, predicted = by_kind[kind]
            assert predicted == pytest.approx(0.90, abs=1e-12)
            assert abs(cov - 0.90) < 4.0 * se + 0.02

    def test_departure_erodes_narrow_coverage(self):
        config = weibull_config(
            delta_grid=(2.0 * WEIBULL_KAPPA,),
            n_list=(400,),
            replications=400,
            level=0.90,
        )
        result = coverage_study(config)
        by_kind = {row[2]: row for row in result.rows}
        narrow = by_kind["narrow"]
        wide = by_kind["wide"]
        assert narrow[5] < 0.80  # prediction well below nominal
        assert abs(narrow[3] - narrow[5]) < 5.0 * narrow[4] + 0.03
        assert wide[5] == pytest.approx(0.90, abs=1e-12)
        assert abs(wide[3] - 0.90) < 4.0 * wide[4] + 0.02

    def test_level_override_and_validation(self):
        config = weibull_config(n_list=(120,), replications=100, level=0.8)
        result = coverage_study(config)
        wide_rows = [row for row in result.rows if row[2] == "wide"]
        assert wide_rows[0][5] == pytest.approx(0.8, abs=1e-12)
        assert "level: 0.8" in result.manifest
        with pytest.raises(ValueError):
            weibull_config(n_list=(120,), replications=100, level=1.2)


def kappa_bits(study):
    """Every field of a KappaStudy, its matrices as bytes."""
    info = None if study.info is None else study.info.matrix.tobytes()
    inverse = None if study.inverse_info is None else study.inverse_info.tobytes()
    return (study.method, study.n, study.replications, study.failures, study.kappa,
            study.se, info, inverse)


def outcome(study, config):
    """A study's result, or the type and message of what it raised; and
    the worker processes left running after it."""
    try:
        result = study(config)
    except Exception as err:  # the error is the outcome being compared
        result = (type(err), str(err))
    return result, multiprocessing.active_children()


class TestWorkerPool:
    """workers > 1 fits the blocks in forked processes; every output, and
    every error, is the one workers = 1 gives."""

    WORKERS = (1, 2, 3)

    @staticmethod
    def results(result):  # the manifest records the worker count
        return dataclasses.replace(result, manifest=())

    def same_for_every_worker_count(self, study, config, view=results):
        outcomes = []
        for workers in self.WORKERS:
            result, children = outcome(study, dataclasses.replace(config, workers=workers))
            assert children == []
            outcomes.append(result if isinstance(result, tuple) else view(result))
        assert outcomes[1:] == outcomes[:1] * (len(outcomes) - 1)
        return outcomes[0]

    def test_coverage_study(self):
        config = weibull_config(delta_grid=(0.0, 0.8), n_list=(80, 120), replications=100)
        result = self.same_for_every_worker_count(coverage_study, config)
        assert len(result.rows) == 8

    @pytest.mark.parametrize("method", KAPPA_METHODS)
    def test_kappa_methods(self, method):
        config = weibull_config(kappa_method=method, replications=130)
        bits = self.same_for_every_worker_count(kappa_by_simulation, config, kappa_bits)
        assert bits[3] == 0

    def test_newton_model_mse_over_two_sizes_and_two_departures(self):
        config = StudyConfig(
            model=get_model("gamma-vs-exp"), delta_grid=(0.0, 0.5), n_list=(60, 100),
            replications=100, seed=3, estimators=("narrow", "wide", "eb", "debias"),
        )
        result = self.same_for_every_worker_count(finite_sample_mse, config)
        assert len(result.rows) == 16 and len(result.kappa_rows) == 2

    def test_aborting_study(self):
        # the first cell aborts while the blocks of the second are pending
        config = StudyConfig(
            model=failing_sampler_model(0.5), delta_grid=(0.0, 0.5), n_list=(50,),
            replications=200, seed=555,
        )
        error = self.same_for_every_worker_count(finite_sample_mse, config)
        assert error[0] is StudyError
        assert error[1].endswith("replications failed; aborting rather than "
                                 "averaging a biased remainder")

    def test_worker_error_keeps_its_type_and_message(self):
        base = get_model("logistic-quadratic")

        def first_row(y, design, theta, gamma):  # silently row 0 on a stack
            return base.log_density(y, design, np.ravel(theta)[:2], np.ravel(gamma)[:1])

        config = StudyConfig(
            model=dataclasses.replace(base, log_density=first_row), n_list=(100,),
            replications=100, seed=5,
        )
        error = self.same_for_every_worker_count(finite_sample_mse, config)
        assert error[0] is TypeError
        assert "'logistic-quadratic'" in error[1]

    def test_model_built_from_closures(self):
        base = get_model("weibull-vs-exp")
        calls = []

        def sampler(theta, gamma, design, rng):
            calls.append(os.getpid())
            return 2.0 * base.sampler(theta, gamma, design, rng)

        config = weibull_config(
            model=dataclasses.replace(base, sampler=sampler), replications=200,
            delta_grid=(0.0, 0.5),
        )
        serial = finite_sample_mse(config)
        assert set(calls) == {os.getpid()}
        calls.clear()
        pooled, children = outcome(finite_sample_mse, dataclasses.replace(config, workers=2))
        assert self.results(pooled) == self.results(serial) and children == []
        if mcstudy._pool_size(dataclasses.replace(config, workers=2), 14) > 1:
            assert calls == []  # every draw ran in a worker

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the pool forks on Linux")
    def test_a_dead_worker_raises(self):
        parent = os.getpid()
        base = get_model("weibull-vs-exp")

        def sampler(theta, gamma, design, rng):
            if os.getpid() != parent:
                os._exit(1)
            return base.sampler(theta, gamma, design, rng)

        config = weibull_config(model=dataclasses.replace(base, sampler=sampler), workers=2)
        if mcstudy._pool_size(config, 4) == 1:
            pytest.skip("one usable CPU: the study runs in-process")

        def hung(signum, frame):
            raise TimeoutError("the study waited 60 s on a dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                finite_sample_mse(config)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the pool forks on Linux")
    def test_worker_count_is_capped_by_usable_cpus(self, monkeypatch):
        asked = []

        class Started(Exception):
            pass

        def spy(max_workers=None, *args, **kwargs):  # starts no process
            asked.append(max_workers)
            raise Started

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        config = weibull_config(workers=10**6)
        cpus = len(os.sched_getaffinity(0))
        if cpus == 1:
            finite_sample_mse(config)  # in-process: no executor
            assert asked == []
        else:
            with pytest.raises(Started):
                finite_sample_mse(config)
            assert asked == [min(cpus, 4)]  # 100 replications are 4 blocks
