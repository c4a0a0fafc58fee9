import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, special

from mistol import estimators
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
            generic = information_generic(model, design)
            scale = np.max(np.abs(closed))
            assert np.allclose(closed, generic, atol=1e-8 * scale), model.name

    @pytest.mark.parametrize("name", ["logistic-quadratic", "logistic-eta"])
    @pytest.mark.parametrize("n", [7, 200])
    @pytest.mark.parametrize("theta", [None, (0.5, -1.2), (-1.0, 2.5)])
    def test_bernoulli_information_is_the_textbook_matrix(self, name, n, theta):
        # mean(p(1-p) d d') with d the derivative of the logit of p at
        # gamma0: (1, t, t^2) for the quadratic, (1, x, log p/(1-p)) for
        # the power; the exact two-point quadrature gives it
        model = get_model(name)
        assert model.closed_information is None
        design = model.default_design(n)
        a, b = model.theta0 if theta is None else theta
        x = design.column(0)
        if name == "logistic-quadratic":
            t = x - float(np.mean(x))
            prob = special.expit(a + b * t)
            d = np.column_stack([np.ones(n), t, t * t])
        else:
            prob = special.expit(a + b * x)
            d = np.column_stack([np.ones(n), x, np.log(prob) / (1.0 - prob)])
        textbook = (d * (prob * (1.0 - prob))[:, None]).T @ d / n
        got = information_at_null(model, design, theta).matrix
        assert np.allclose(got, textbook, rtol=0.0, atol=1e-13 * np.max(np.abs(textbook)))

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

    @pytest.mark.parametrize("name", list(MODEL_BUILDERS))
    def test_null_scores_are_log_density_derivatives(self, name):
        # each observation's hand-written score at (theta0, gamma0) is the
        # central difference of its log density
        model = get_model(name)
        design = model.default_design(40)
        theta = np.asarray(model.theta0, dtype=float)
        gamma = np.asarray(model.gamma0, dtype=float)
        y = model.sampler(theta, gamma, design, replication_rng(23, 0))
        scores = np.column_stack(model.score_null(y, design, theta))
        x, p = np.concatenate([theta, gamma]), theta.size
        for j in range(x.size):
            h = 1e-6 * (1.0 + abs(x[j]))
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            diff = (
                model.log_density(y, design, up[:p], up[p:])
                - model.log_density(y, design, dn[:p], dn[p:])
            ) / (2.0 * h)
            assert np.allclose(scores[:, j], diff, rtol=1e-5, atol=1e-6), (name, j)

    @staticmethod
    def with_information(full):
        """linreg-quadratic (p = 2, q = 1) with a fixed closed information."""
        base = get_model("linreg-quadratic")
        return dataclasses.replace(base, closed_information=lambda theta, design: full)

    def test_wrong_size_information_raises(self):
        model = self.with_information(np.eye(4))
        with pytest.raises(ValueError, match=r"linreg-quadratic.*\(3, 3\), not \(4, 4\)"):
            information_at_null(model, model.default_design(7))

    @pytest.mark.parametrize(
        "full",
        [
            # 1e-7 off symmetric is small against the 1e6 entry, not against 0.5
            [[1.0, 0.5, 0.0], [0.5 + 1e-7, 1.0, 0.0], [0.0, 0.0, 1e6]],
            [[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]],
        ],
        ids=["narrow-block", "cross-block"],
    )
    def test_asymmetric_information_raises(self, full):
        model = self.with_information(np.array(full))
        with pytest.raises(ValueError, match="not symmetric"):
            information_at_null(model, model.default_design(7))

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
        got = float(np.sum(model.log_density(y, design, theta, np.array([1.0]))))
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
            assert float(np.sum(model.log_density(ones, design, np.array([800.0, 0.0]), gamma))) == 0.0
            assert float(np.sum(model.log_density(zeros, design, np.array([-800.0, 0.0]), gamma))) == 0.0
            assert float(np.sum(model.log_density(zeros, design, np.array([800.0, 0.0]), gamma))) == -math.inf



def _centred(x):
    return x - float(np.mean(x))


def _pinned_log_density(name, y, x, th, g):
    """The log density of a Newton-fitted built-in, written out with scalar
    parameters as the benchmark references were recorded with it."""
    if name == "gamma-vs-exp":
        return g * math.log(th[0]) - special.gammaln(g) + (g - 1.0) * np.log(y) - th[0] * y
    if name == "varhet-regression":
        var = th[0] ** 2 * (1.0 + g * x)
        r2 = (y - (th[1] + th[2] * x)) ** 2
        return -0.5 * (np.log(2.0 * math.pi * var) + r2 / var)
    if name in ("transform-constant", "transform-regression"):
        means = th[1] if x is None else th[1] * _centred(x)
        z = (y - means) / th[0]
        return (
            math.log(g) + (g - 1.0) * special.log_ndtr(z) - 0.5 * z * z
            - 0.5 * math.log(2.0 * math.pi) - math.log(th[0])
        )
    p = _pinned_probs(name, x, th, g)
    with np.errstate(divide="ignore"):
        return np.where(y == 1.0, np.log(p), np.log1p(-p))


def _pinned_probs(name, x, th, g):
    if name == "logistic-quadratic":
        t = _centred(x)
        return special.expit(th[0] + th[1] * t + g * t * t)
    return special.expit(th[0] + th[1] * x) ** g


def _pinned_sample(name, x, th, g, n, rng):
    if name == "gamma-vs-exp":
        return rng.gamma(g, 1.0 / th[0], n)
    if name == "varhet-regression":
        var = th[0] ** 2 * (1.0 + g * x)
        return th[1] + th[2] * x + np.sqrt(var) * rng.standard_normal(n)
    if name in ("transform-constant", "transform-regression"):
        means = th[1] if x is None else th[1] * _centred(x)
        return means + th[0] * special.ndtri(rng.random(n) ** (1.0 / g))
    return (rng.random(n) < _pinned_probs(name, x, th, g)).astype(float)


class TestNewtonPathArithmetic:
    """The mc-catalogue references pin Newton line-search stalls that stop
    within 1-1.6 times their gradient bar, so the last bit of these models'
    log densities and samplers decides a study's failure count. Each is
    checked bit for bit against its expression written out here."""

    NEWTON_MODELS = (
        "gamma-vs-exp", "varhet-regression", "transform-constant",
        "transform-regression", "logistic-quadratic", "logistic-eta",
    )

    @staticmethod
    def points(model):
        theta0 = np.asarray(model.theta0, dtype=float)
        gamma0 = float(model.gamma0[0])
        return [
            (theta0, gamma0),
            (1.2 * theta0 + 0.1, gamma0 + 0.3),
            (0.8 * theta0 - 0.1, gamma0 - 0.2),
        ]

    @pytest.mark.parametrize("name", NEWTON_MODELS)
    def test_log_density_bits(self, name):
        model = get_model(name)
        design = model.default_design(200)
        x = None if design.rows is None else design.column(0)
        theta0, gamma0 = self.points(model)[0]
        y = model.sampler(theta0, np.array([gamma0]), design, replication_rng(21, 0))
        for theta, gamma in self.points(model):
            got = model.log_density(y, design, theta, np.array([gamma]))
            want = _pinned_log_density(name, y, x, [float(v) for v in theta], gamma)
            assert np.array_equal(got, want), (name, theta, gamma)

    @pytest.mark.parametrize("name", NEWTON_MODELS)
    def test_sampler_bits(self, name):
        model = get_model(name)
        design = model.default_design(200)
        x = None if design.rows is None else design.column(0)
        for k, (theta, gamma) in enumerate(self.points(model)):
            got = model.sampler(theta, np.array([gamma]), design, replication_rng(21, k))
            want = _pinned_sample(
                name, x, [float(v) for v in theta], gamma, design.n, replication_rng(21, k)
            )
            assert np.array_equal(got, want), (name, theta, gamma)

    @staticmethod
    def sample(model):
        design = model.default_design(200)
        theta0, gamma0 = TestNewtonPathArithmetic.points(model)[0]
        return model.sampler(theta0, np.array([gamma0]), design, replication_rng(21, 0)), design

    @staticmethod
    def probe_stack(f, x):
        """The stack of points on which a Newton iteration at x calls f."""
        stacks = []

        def recording(points):
            stacks.append(points)
            return f(points)

        estimators._fd_derivatives(recording, x, f(x))
        (stack,) = stacks
        return stack

    @pytest.mark.parametrize("name", list(MODEL_BUILDERS))
    def test_stacked_log_density_rows_are_single_calls(self, name):
        model = get_model(name)
        y, design = self.sample(model)
        f = estimators._loglik(model, y, design, wide=True)
        p = model.p
        for theta, gamma in self.points(model):
            stack = self.probe_stack(f, np.append(theta, gamma))
            rows = model.log_density(y, design, stack[:, :p], stack[:, p:])
            assert rows.shape == (len(stack), design.n)
            for row, point in zip(rows, stack):
                one = model.log_density(y, design, point[:p], point[p:])
                assert np.array_equal(row, one, equal_nan=True), (name, point)

    @pytest.mark.parametrize("name", NEWTON_MODELS)
    def test_stacked_derivatives_are_the_single_call_formulas(self, name):
        model = get_model(name)
        y, design = self.sample(model)
        p = model.p

        def f(x):  # the one-point objective, one call of f per point
            return float(np.sum(model.log_density(y, design, x[:p], x[p:])))

        for theta, gamma in self.points(model):
            x = np.append(theta, gamma)
            f0 = f(x)
            grad, hess = estimators._fd_derivatives(
                estimators._loglik(model, y, design, wide=True), x, f0
            )
            assert np.array_equal(grad, central_gradient(f, x)), (name, x)
            assert np.array_equal(hess, four_point_hessian(f, x, f0), equal_nan=True), (name, x)


def four_point_hessian(f, x, f0):
    """Central-difference Hessian of f at x, step 1e-4*(1+|x_i|), from
    single calls of f: 3 points on the diagonal, 4 off it."""
    k = x.size
    h = 1e-4 * (1.0 + np.abs(x))
    hess = np.empty((k, k))

    def at(*moves):
        point = x.copy()
        for i, sign in moves:
            point[i] += sign * h[i]
        return f(point)

    for i in range(k):
        hess[i, i] = (at((i, 1.0)) - 2.0 * f0 + at((i, -1.0))) / h[i] ** 2
        for j in range(i + 1, k):
            hess[i, j] = hess[j, i] = (
                at((i, 1.0), (j, 1.0)) - at((i, 1.0), (j, -1.0))
                - at((i, -1.0), (j, 1.0)) + at((i, -1.0), (j, -1.0))
            ) / (4.0 * h[i] * h[j])
    return hess


class TestEstimandGradients:
    def test_closed_gradients_match_finite_differences(self):
        # at the null point and at two points off it, where a gradient
        # written for the null alone would go wrong
        for model in builtin_catalogue():
            design = small_design(model)
            theta0 = np.asarray(model.theta0, dtype=float)
            gamma0 = np.asarray(model.gamma0, dtype=float)
            points = (
                (theta0, gamma0),
                (1.1 * theta0 + 0.1, gamma0 + 0.5),
                (0.9 * theta0 - 0.05, gamma0 - 0.3),
            )
            for name in model.estimand_names():
                est = model.estimand(name, design)
                for theta, gamma in points:
                    gt, gg = est.gradients(theta, gamma)
                    p = theta.size
                    fd = central_gradient(
                        lambda x: est(x[:p], x[p:]), np.concatenate([theta, gamma])
                    )
                    ft, fg = fd[:p], fd[p:]
                    where = (model.name, name, theta.tolist(), gamma.tolist())
                    assert np.allclose(gt, ft, rtol=1e-5, atol=1e-7), where
                    assert np.allclose(gg, fg, rtol=1e-5, atol=1e-7), where


    def test_every_estimand_but_three_has_a_closed_gradient(self):
        without = {
            (model.name, name)
            for model in builtin_catalogue()
            for name in model.estimand_names()
            if model.estimand(name, small_design(model)).gradient is None
        }
        assert without == {
            ("weibull-vs-exp", "mean"), ("logistic-quadratic", "prob-at"),
            ("logistic-eta", "prob-at"),
        }

    def test_std_diff_has_no_gradient_where_it_is_zero(self):
        model = get_model("two-sample")
        est = model.estimand("std-diff", small_design(model))
        with pytest.raises(DomainError, match="not differentiable where it is zero"):
            est.gradients(np.array([0.5, 0.5, 1.0]), np.array([0.0]))


class TestDepartureScoreSize:
    def test_weibull_mean_abs_departure_score(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(10)
        got = float(mean_abs_departure_score(model, design)[0])
        # exact value of E0|1 + log W - W log W| for W ~ Exp(1)
        assert got == pytest.approx(0.924742583657, abs=5e-4)

    @staticmethod
    def split_quad(f, roots):
        """int_0^inf |f(w)| e^{-w} dw by scipy quad, split at the roots of f."""
        edges = [0.0, *roots, math.inf]
        return sum(
            integrate.quad(lambda w: abs(f(w)) * math.exp(-w), a, b, epsabs=0.0, epsrel=1e-12,
                           limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )

    def test_gamma_mean_abs_departure_score_against_quad(self):
        model = get_model("gamma-vs-exp")
        got = float(mean_abs_departure_score(model, model.default_design(10))[0])
        # V = log W + Euler's gamma for W ~ Exp(1), with its root at exp(-gamma)
        want = self.split_quad(lambda w: math.log(w) + np.euler_gamma, [math.exp(-np.euler_gamma)])
        assert got == pytest.approx(want, rel=1e-5, abs=0.0)

    def test_weibull_mean_abs_departure_score_against_quad(self):
        model = get_model("weibull-vs-exp")
        got = float(mean_abs_departure_score(model, model.default_design(10))[0])

        def v(w):  # V = 1 + log W - W log W for W ~ Exp(1)
            return 1.0 + math.log(w) - w * math.log(w)

        roots = [optimize.brentq(v, 1e-3, 1.0, xtol=1e-15), optimize.brentq(v, 1.0, 10.0, xtol=1e-15)]
        assert got == pytest.approx(self.split_quad(v, roots), rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("name", ["logistic-quadratic", "logistic-eta"])
    def test_bernoulli_mean_abs_departure_score_is_exact(self, name):
        # E|y - p| = 2p(1 - p), so E|V| is 2p(1 - p)t^2 for the quadratic
        # departure e t^2 and 2p|log p| for the power departure e log p/(1 - p)
        model = get_model(name)
        design = model.default_design(40)
        x = design.column(0)
        if name == "logistic-quadratic":
            t = x - np.mean(x)
            p = special.expit(t)
            want = np.mean(2.0 * p * (1.0 - p) * t * t)
        else:
            p = special.expit(x)
            want = np.mean(2.0 * p * np.abs(np.log(p)))
        got = float(mean_abs_departure_score(model, design)[0])
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

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


@pytest.mark.parametrize("name, params, key", [
    ("weibull-vs-exp", {"rate": 0.0}, "rate"),
    ("gamma-vs-exp", {"rate": -2.0}, "rate"),
    ("weibull-vs-exp", {"rate": math.nan}, "rate"),
    ("linreg-quadratic", {"sigma": -1.0}, "sigma"),
    ("two-sample", {"sigma": 0.0}, "sigma"),
    ("varhet-regression", {"sigma": math.nan}, "sigma"),
    ("transform-constant", {"xi": math.inf}, "xi"),
    ("logistic-eta", {"beta": -math.inf}, "beta"),
])
def test_model_builders_reject_parameters_outside_their_range(name, params, key):
    with pytest.raises(ValueError, match=f"model parameter {key} must be"):
        get_model(name, **params)


def test_default_estimand_is_the_first_estimand():
    for model in builtin_catalogue():
        assert model.default_estimand == model.estimand_names()[0], model.name
    assert get_model("two-sample").default_estimand == "std-diff"
    assert "default_estimand" not in {f.name for f in dataclasses.fields(get_model("two-sample"))}
