import math
import warnings

import numpy as np
import pytest

from mistol.models import (
    Design,
    MODEL_BUILDERS,
    builtin_catalogue,
    get_model,
    information_at_null,
    information_generic,
    mean_abs_departure_score,
    reparameterised_noise_summaries,
    transformation_constants,
    uniform_grid_design,
)
from mistol.numerics import DomainError, NumericsError, central_gradient, replication_rng
from mistol.tolerance import danger_index


def small_design(model):
    if model.name == "two-sample":
        return model.default_design(4, m=3)
    return model.default_design(7)


class TestDesign:
    def test_validation(self):
        with pytest.raises(ValueError):
            Design(0)
        with pytest.raises(ValueError):
            Design(3, np.zeros((2, 1)))

    def test_column_requires_rows(self):
        with pytest.raises(ValueError):
            Design(3).column(0)

    def test_repeat_interleaving(self):
        d = Design(2, np.array([[1.0], [2.0]]))
        r = d.repeat(3)
        assert r.n == 6
        assert np.array_equal(r.column(0), [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def test_uniform_grid(self):
        d = uniform_grid_design(3, b=1.0)
        assert np.allclose(d.column(0), [0.25, 0.5, 0.75])


class TestCatalogue:
    def test_catalogue_size_and_shapes(self):
        models = builtin_catalogue()
        assert len(models) >= 9
        for model in models:
            assert model.q == 1
            assert len(model.param_names) == model.p + model.q

    def test_unknown_model_lists_names(self):
        with pytest.raises(KeyError) as err:
            get_model("nope")
        assert "weibull-vs-exp" in str(err.value)

    def test_unknown_estimand_lists_names(self):
        model = get_model("weibull-vs-exp")
        with pytest.raises(KeyError) as err:
            model.estimand("nope", small_design(model))
        assert "median" in str(err.value)

    def test_danger_index_at_least_one_everywhere(self):
        for model in builtin_catalogue():
            info = information_at_null(model, small_design(model))
            d, rho2 = danger_index(info)
            assert d >= 1.0 - 1e-9, model.name
            assert 0.0 <= rho2 < 1.0, model.name


class TestInformationRoutes:
    def test_closed_matches_generic_quadrature(self):
        for model in builtin_catalogue():
            design = small_design(model)
            closed = information_at_null(model, design).matrix
            generic = information_generic(model, design).matrix
            scale = np.max(np.abs(closed))
            assert np.allclose(closed, generic, atol=1e-8 * scale), model.name

    def test_null_scores_have_zero_mean_under_quadrature(self):
        for model in builtin_catalogue():
            design = small_design(model)
            theta = np.asarray(model.theta0, dtype=float)
            ymat, wmat = model.null_quadrature(theta, design)
            assert np.allclose(wmat.sum(axis=1), 1.0, atol=1e-9), model.name
            tiled = design.repeat(ymat.shape[1])
            u, v = model.score_null(ymat.ravel(), tiled, theta)
            weights = wmat.ravel() / design.n
            for col in np.column_stack([u, v]).T:
                assert abs(float(col @ weights)) < 1e-7, model.name

    def test_degenerate_design_raises(self):
        model = get_model("linreg-quadratic")
        with pytest.raises(NumericsError):
            information_at_null(model, model.default_design(1))


class TestScoreCovarianceMonteCarlo:
    def test_weibull_empirical_score_covariance(self):
        model = get_model("weibull-vs-exp")
        n = 200_000
        design = model.default_design(n)
        rng = replication_rng(2024, 0)
        y = model.sampler(
            np.asarray(model.theta0, float), np.asarray(model.gamma0, float), design, rng
        )
        u, v = model.score_null(y, design, np.asarray(model.theta0, float))
        scores = np.column_stack([u, v])
        emp = np.cov(scores.T, bias=True)
        closed = information_at_null(model, design).matrix
        # elementwise ~5 sigma at this sample size
        assert np.allclose(emp, closed, atol=0.03), emp - closed

    def test_two_sample_empirical_score_covariance(self):
        model = get_model("two-sample")
        design = model.default_design(60_000, m=120_000)
        rng = replication_rng(2024, 1)
        y = model.sampler(
            np.asarray(model.theta0, float), np.asarray(model.gamma0, float), design, rng
        )
        u, v = model.score_null(y, design, np.asarray(model.theta0, float))
        emp = np.cov(np.column_stack([u, v]).T, bias=True)
        closed = information_at_null(model, design).matrix
        assert np.allclose(emp, closed, atol=0.03)


class TestSamplers:
    def test_weibull_null_is_unit_exponential(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(100_000)
        y = model.sampler(np.array([1.0]), np.array([1.0]), design, replication_rng(3, 0))
        assert float(np.mean(y)) == pytest.approx(1.0, abs=0.02)
        assert float(np.var(y)) == pytest.approx(1.0, abs=0.05)

    def test_gamma_sampler_mean_off_null(self):
        model = get_model("gamma-vs-exp")
        design = model.default_design(100_000)
        y = model.sampler(np.array([2.0]), np.array([1.3]), design, replication_rng(3, 1))
        assert float(np.mean(y)) == pytest.approx(1.3 / 2.0, abs=0.01)

    def test_transform_sampler_median(self):
        lam = 2.0
        model = get_model("transform-constant")
        design = model.default_design(200_000)
        y = model.sampler(np.array([1.0, 0.0]), np.array([lam]), design, replication_rng(3, 2))
        expected = reparameterised_noise_summaries(lam).median_shift
        assert float(np.median(y)) == pytest.approx(expected, abs=0.01)

    def test_logistic_sampler_is_binary(self):
        model = get_model("logistic-quadratic")
        design = model.default_design(500)
        y = model.sampler(np.array([0.0, 1.0]), np.array([0.0]), design, replication_rng(3, 3))
        assert set(np.unique(y)) <= {0.0, 1.0}


class TestTransformationConstants:
    def test_frozen_values(self):
        a, b = transformation_constants()
        assert a == pytest.approx(0.9031972855686256, abs=1e-10)
        assert b == pytest.approx(-0.5956355968473581, abs=1e-10)

    def test_trapezoid_oracle(self):
        # brute-force the two Gaussian integrals on a wide fine grid
        z = np.linspace(-12.0, 12.0, 600_001)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        logcdf = np.log(np.maximum(_ndtr(z), 1e-300))
        a_ref = np.trapezoid(z * logcdf * phi, z)
        b_ref = 1.0 + np.trapezoid(z * z * logcdf * phi, z)
        a, b = transformation_constants()
        assert a == pytest.approx(a_ref, abs=1e-6)
        assert b == pytest.approx(b_ref, abs=1e-6)


def _ndtr(z):
    from scipy.special import ndtr

    return ndtr(z)


class TestNoiseSummaries:
    def test_identity_at_power_one(self):
        s = reparameterised_noise_summaries(1.0)
        assert s.median_shift == pytest.approx(0.0, abs=1e-12)
        assert s.mean_shift == pytest.approx(0.0, abs=1e-9)
        assert s.sd_scale == pytest.approx(1.0, abs=1e-9)
        assert s.iqr_scale == pytest.approx(1.3489795003921634, abs=1e-9)

    def test_frozen_power_two(self):
        s = reparameterised_noise_summaries(2.0)
        assert s.median_shift == pytest.approx(0.5449521356173604, abs=1e-10)
        assert s.iqr_scale == pytest.approx(1.107797702777751, abs=1e-10)
        assert s.mean_shift == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-9)
        assert s.sd_scale == pytest.approx(0.8256452711765563, abs=1e-9)

    def test_trapezoid_oracle_power_three(self):
        lam = 3.0
        z = np.linspace(-13.0, 13.0, 400_001)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        dens = lam * _ndtr(z) ** (lam - 1.0) * phi
        mean_ref = np.trapezoid(z * dens, z)
        sd_ref = math.sqrt(np.trapezoid(z * z * dens, z) - mean_ref**2)
        s = reparameterised_noise_summaries(lam)
        assert s.mean_shift == pytest.approx(mean_ref, abs=1e-7)
        assert s.sd_scale == pytest.approx(sd_ref, abs=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            reparameterised_noise_summaries(0.0)


class TestLogisticReduction:
    def test_eta_one_matches_plain_logistic(self):
        model = get_model("logistic-eta")
        design = model.default_design(40)
        rng = replication_rng(9, 0)
        x = design.column(0)
        theta = np.array([0.2, 0.8])
        p = 1.0 / (1.0 + np.exp(-(theta[0] + theta[1] * x)))
        y = (rng.uniform(size=40) < p).astype(float)
        got = model.loglik(y, design, theta, np.array([1.0]))
        want = float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
        assert got == pytest.approx(want, rel=1e-12)


class TestLogisticSaturation:
    @pytest.mark.parametrize("name", ["logistic-quadratic", "logistic-eta"])
    def test_saturated_loglik_is_finite(self, name):
        # p rounds to 1 (or 0); the log-likelihood of matching y is 0, not nan
        model = get_model(name)
        design = model.default_design(20)
        gamma = np.asarray(model.gamma0, dtype=float)
        ones, zeros = np.ones(20), np.zeros(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert model.loglik(ones, design, np.array([800.0, 0.0]), gamma) == 0.0
            assert model.loglik(zeros, design, np.array([-800.0, 0.0]), gamma) == 0.0
            assert model.loglik(zeros, design, np.array([800.0, 0.0]), gamma) == -math.inf


class TestEstimandGradients:
    def test_closed_gradients_match_finite_differences(self):
        for model in builtin_catalogue():
            design = small_design(model)
            theta = np.asarray(model.theta0, dtype=float)
            gamma = np.asarray(model.gamma0, dtype=float)
            for name in model.estimand_names():
                est = model.estimand(name, design)
                gt, gg = est.gradients(theta, gamma)
                p = theta.size
                fd = central_gradient(
                    lambda x: est(x[:p], x[p:]), np.concatenate([theta, gamma])
                )
                ft, fg = fd[:p], fd[p:]
                assert np.allclose(gt, ft, rtol=1e-5, atol=1e-7), (model.name, name)
                assert np.allclose(gg, fg, rtol=1e-5, atol=1e-7), (model.name, name)


class TestDepartureScoreSize:
    def test_weibull_mean_abs_departure_score(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(10)
        got = float(mean_abs_departure_score(model, design)[0])
        # exact value of E0|1 + log W - W log W| for W ~ Exp(1)
        assert got == pytest.approx(0.924742583657, abs=5e-4)

    def test_exact_fits_two_sample(self):
        model = get_model("two-sample")
        design = model.default_design(30, m=20)
        rng = replication_rng(77, 0)
        y = model.sampler(
            np.asarray(model.theta0, float), np.array([0.4]), design, rng
        )
        theta, gamma = model.wide_fit_exact(y, design)
        g = design.column(0) > 0.5
        assert theta[0] == pytest.approx(float(np.mean(y[~g])), abs=1e-12)
        assert theta[1] == pytest.approx(float(np.mean(y[g])), abs=1e-12)
        s0 = math.sqrt(float(np.mean((y[~g] - theta[0]) ** 2)))
        s1 = math.sqrt(float(np.mean((y[g] - theta[1]) ** 2)))
        assert theta[2] == pytest.approx(s0, abs=1e-12)
        assert gamma[0] == pytest.approx(s1**2 / s0**2 - 1.0, abs=1e-12)


def test_model_builders_accept_parameters():
    model = get_model("weibull-vs-exp", rate=2.0)
    assert model.theta0[0] == 2.0
    model = get_model("two-sample", xi1=1.0, xi2=3.0, sigma=2.0)
    assert model.theta0 == (1.0, 3.0, 2.0)
