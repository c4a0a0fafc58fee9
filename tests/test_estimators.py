import dataclasses
import math
import time

import numpy as np
import pytest

from mistol import estimators
from mistol.estimators import (
    AtomPrior,
    DensityPrior,
    FitError,
    PRETEST_PRESETS,
    atan_shrink,
    bayes,
    bayes_estimator,
    bayes_posterior,
    bickel,
    catalogue,
    compromise_estimate,
    debias_estimate,
    eb,
    efron_morris,
    epsilon_bayes,
    estimator_names,
    fit_narrow,
    fit_rows,
    fit_wide,
    harmonic_compromise,
    linear,
    maximize_loglik,
    mlplus,
    parse_estimator,
    pretest,
    qhat,
    qhat_weight,
    qtilde,
    restricted,
    tanh_twopoint,
    uniform_bayes,
    wide_rule,
    z_statistic,
)
from mistol.models import get_model
from mistol.numerics import DomainError, NumericsError, replication_rng, std_normal_pdf

GRID = np.linspace(-4.0, 4.0, 33)


def aval(est, z):
    return float(np.atleast_1d(est.a(z))[0])


class TestRuleStructure:
    def test_catalogue_members(self):
        rules = catalogue()
        assert len(rules) == 16
        names = [r.name for r in rules]
        assert len(set(names)) == 16

    def test_weight_correspondence_and_oddness(self):
        for est in catalogue():
            avals = np.atleast_1d(est.a(GRID))
            cvals = np.atleast_1d(est.c(GRID))
            assert np.allclose(avals, cvals * GRID, atol=1e-10), est.name
            neg = np.atleast_1d(est.a(-GRID))
            assert np.allclose(neg, -avals, atol=1e-10), est.name
            assert aval(est, 0.0) == pytest.approx(0.0, abs=1e-12), est.name

    def test_weight_continuation_at_zero(self):
        for est in catalogue():
            assert float(est.c(0.0)) == est.c0, est.name
            if not est.knots:
                slope = aval(est, 1e-7) / 1e-7
                assert slope == pytest.approx(est.c0, abs=1e-5), est.name

    def test_c0_closed_values(self):
        assert eb().c0 == 0.0
        assert wide_rule().c0 == 1.0
        assert linear(0.25).c0 == 0.25
        assert bayes(2.0).c0 == pytest.approx(4.0 / 5.0, abs=1e-15)
        assert tanh_twopoint(1.5).c0 == pytest.approx(2.25, abs=1e-15)
        assert atan_shrink(0.502).c0 == pytest.approx(1.0 - 2.0 * 0.502 / math.pi, abs=1e-15)
        e, s = 0.05, 3.0
        want = e / (e + (1.0 - e) * math.sqrt(s * s + 1.0)) * s * s / (s * s + 1.0)
        assert epsilon_bayes(e, s).c0 == pytest.approx(want, abs=1e-15)

    def test_knot_values(self):
        p = pretest(1.0)
        assert aval(p, 1.0) == 1.0  # cut-off itself keeps the wide fit
        assert aval(p, 1.0 - 1e-9) == 0.0
        assert aval(p, -1.0) == -1.0
        m = mlplus()
        assert aval(m, 1.0) == 0.0
        assert aval(m, 2.0) == pytest.approx(1.5, abs=1e-15)
        r = restricted(1.0)
        assert aval(r, 5.0) == 1.0
        assert aval(r, -5.0) == -1.0
        assert aval(r, 0.3) == pytest.approx(0.3, abs=1e-15)
        em = efron_morris(0.502)
        assert aval(em, 0.502) == 0.0
        assert aval(em, 1.0) == pytest.approx(0.498, abs=1e-15)
        assert aval(em, -1.0) == pytest.approx(-0.498, abs=1e-15)
        q = qtilde(0.5)
        assert q.knots == (-math.sqrt(0.5), math.sqrt(0.5))
        assert aval(q, math.sqrt(0.5)) == pytest.approx(0.0, abs=1e-15)
        assert qtilde(0.0).knots == ()

    def test_parameter_validation(self):
        for factory, bad in [
            (pretest, 0.0),
            (tanh_twopoint, -1.0),
            (bickel, 0.0),
            (restricted, -2.0),
            (efron_morris, 0.0),
            (atan_shrink, 0.0),
            (uniform_bayes, 0.0),
        ]:
            with pytest.raises(ValueError):
                factory(bad)
        with pytest.raises(ValueError):
            qtilde(1.5)
        with pytest.raises(ValueError):
            bayes(0.0)
        with pytest.raises(ValueError):
            epsilon_bayes(0.0, 3.0)
        with pytest.raises(ValueError):
            epsilon_bayes(1.1, 3.0)


class TestQhat:
    def test_weight_at_zero_closed_form(self):
        # w(0) = tmax / atanh(tmax) with tmax = sqrt(1 - eps)
        for eps in (1e-9, 1e-6, 0.02, 0.05, 0.3, 0.8):
            tmax = math.sqrt(1.0 - eps)
            assert float(qhat_weight(0.0, eps)) == pytest.approx(
                tmax / math.atanh(tmax), abs=1e-12
            )

    def test_frozen_weights(self):
        assert float(qhat_weight(0.0)) == pytest.approx(0.4474552950139628, abs=1e-12)
        assert float(qhat_weight(1.0)) == pytest.approx(0.5015950456339598, abs=1e-12)
        assert float(qhat_weight(3.0)) == pytest.approx(0.8396774186802392, abs=1e-12)

    def test_trapezoid_oracle(self):
        eps = 0.05
        t = np.linspace(0.0, math.sqrt(1.0 - eps), 2_000_001)
        for z in (0.5, 1.0, 2.0, 4.0):
            kernel = np.exp(-0.5 * z * z * t * t)
            want = np.trapezoid(kernel, t) / np.trapezoid(kernel / (1.0 - t * t), t)
            assert float(qhat_weight(z, eps)) == pytest.approx(want, abs=1e-9)

    def test_limits_and_monotonicity(self):
        zs = np.linspace(0.0, 8.0, 30)
        w = np.asarray(qhat_weight(zs, 0.05))
        assert np.all(np.diff(w) > 0.0)
        assert np.all((w > 0.0) & (w < 1.0))
        assert float(qhat_weight(0.0, 0.999999)) == pytest.approx(1.0, abs=1e-5)

    def test_estimator_carries_params(self):
        est = qhat(0.1)
        assert est.spec_string() == "qhat:eps=0.1"
        assert est.c0 == pytest.approx(float(qhat_weight(0.0, 0.1)), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            qhat_weight(1.0, 0.0)
        with pytest.raises(ValueError):
            qhat_weight(1.0, 1.0)


class TestEpsilonBayes:
    def test_frozen_value(self):
        est = epsilon_bayes(0.5, 3.0)
        assert aval(est, 2.0) == pytest.approx(1.1820944361440644, abs=1e-12)

    def test_mixture_density_identity(self):
        # weight = eps f_wide(z) / {eps f_wide(z) + (1-eps) f_null(z)} with
        # f_wide the N(0, sigma^2+1) marginal
        eps, sigma = 0.2, 2.5
        est = epsilon_bayes(eps, sigma)
        s2 = sigma * sigma
        for z in (0.0, 0.7, 1.5, 3.0):
            f_wide = math.exp(-0.5 * z * z / (s2 + 1.0)) / math.sqrt(
                2.0 * math.pi * (s2 + 1.0)
            )
            f_null = float(std_normal_pdf(z))
            w = eps * f_wide / (eps * f_wide + (1.0 - eps) * f_null)
            want = w * s2 / (s2 + 1.0) * z
            assert aval(est, z) == pytest.approx(want, abs=1e-13)

    def test_trapezoid_posterior_oracle(self):
        eps, sigma = 0.5, 3.0
        est = epsilon_bayes(eps, sigma)
        grid = np.linspace(-40.0, 40.0, 800_001)
        prior_density = eps * np.exp(-0.5 * (grid / sigma) ** 2) / (
            sigma * math.sqrt(2.0 * math.pi)
        )
        for z in (0.5, 2.0, 5.0):
            like = np.asarray(std_normal_pdf(z - grid))
            num = np.trapezoid(grid * like * prior_density, grid)
            den = (1.0 - eps) * float(std_normal_pdf(z)) + np.trapezoid(
                like * prior_density, grid
            )
            assert aval(est, z) == pytest.approx(num / den, abs=1e-9)

    def test_full_mass_reduces_to_normal_prior(self):
        full = epsilon_bayes(1.0, 3.0)
        plain = bayes(3.0)
        assert np.allclose(full.a(GRID), plain.a(GRID), atol=1e-14)


class TestPriorRules:
    def test_tanh_matches_two_point_posterior(self):
        m = 1.3
        prior = AtomPrior((-m, m), (0.5, 0.5))
        wrapped = bayes_estimator(prior)
        direct = tanh_twopoint(m)
        assert np.allclose(direct.a(GRID), wrapped.a(GRID), atol=1e-12)
        _, mean = bayes_posterior(prior, 0.8)
        assert mean == pytest.approx(m * math.tanh(m * 0.8), abs=1e-13)
        # bayes_posterior's mean is the rule's value, bit for bit
        cosine = DensityPrior(lambda a: np.cos(math.pi * a / 4.0) ** 2 / 2.0, -2.0, 2.0)
        for each in (prior, cosine):
            rule = bayes_estimator(each)
            for z in np.linspace(-6.0, 6.0, 49):
                assert bayes_posterior(each, z)[1] == rule.a(z), (each.name, z)

    def test_bickel_frozen_values(self):
        est = bickel(2.0)
        assert aval(est, 1.0) == pytest.approx(0.36507939733907785, abs=1e-6)
        assert aval(est, 3.0) == pytest.approx(0.9493372187711547, abs=1e-6)

    def test_bickel_stays_inside_interval(self):
        est = bickel(1.5)
        big = np.linspace(-30.0, 30.0, 61)
        vals = np.atleast_1d(est.a(big))
        assert np.all(np.abs(vals) <= 1.5 + 1e-9)

    def test_uniform_bayes_frozen_and_numeric(self):
        m = 2.0
        est = uniform_bayes(m)
        assert aval(est, 1.0) == pytest.approx(0.7172138892728459, abs=1e-12)
        numeric = bayes_estimator(DensityPrior(lambda a: np.full_like(a, 1.0 / (2 * m)), -m, m))
        for z in (0.0, 0.5, 1.0, 2.5, 6.0):
            assert aval(est, z) == pytest.approx(aval(numeric, z), abs=1e-9)

    def test_uniform_bayes_matches_posterior_quadrature(self):
        for m in (0.5, 2.0, 4.0):
            est = uniform_bayes(m)
            numeric = bayes_estimator(
                DensityPrior(lambda a, m=m: np.full_like(a, 1.0 / (2 * m)), -m, m)
            )
            z = np.linspace(-8.0, 8.0, 161)
            assert np.max(np.abs(est.a(z) - numeric.a(z))) < 1e-12, m

    def test_uniform_bayes_bounded_far_out(self):
        # the posterior mean of a prior on [-m, m] stays inside (-m, m)
        m = 2.0
        z = np.array([10.0, 30.0, 100.0, 1e3, 1e6])
        for sign in (1.0, -1.0):
            vals = uniform_bayes(m).a(sign * z)
            assert np.all(np.isfinite(vals))
            assert np.all(np.abs(vals) < m)
            assert np.all(np.sign(vals) == sign)

    def test_posterior_mean_tweedie_identity(self):
        # posterior mean = z + d/dz log evidence
        prior = DensityPrior(lambda a: np.full_like(a, 0.25), -2.0, 2.0)
        nodes = np.linspace(-2.0, 2.0, 20_001)

        def evidence(z):
            dens = np.asarray(std_normal_pdf(z - nodes)) * 0.25
            return float(np.trapezoid(dens, nodes))

        for z in (0.0, 0.9, 2.2):
            h = 1e-5
            slope = (math.log(evidence(z + h)) - math.log(evidence(z - h))) / (2 * h)
            _, mean = bayes_posterior(prior, z)
            assert mean == pytest.approx(z + slope, abs=1e-7)

    def test_posterior_weights_normalized(self):
        post, mean = bayes_posterior(AtomPrior((0.0, 2.0), (1.0, 3.0)), 1.0)
        assert float(np.sum(post.weights)) == pytest.approx(1.0, abs=1e-12)
        assert mean == post.mean

    def test_atom_prior_validation_and_normalization(self):
        prior = AtomPrior((0.0, 1.0), (2.0, 6.0))
        assert prior.weights == (0.25, 0.75)
        with pytest.raises(ValueError):
            AtomPrior((0.0,), (-1.0,))
        with pytest.raises(ValueError):
            AtomPrior((0.0, 1.0), (0.0, 0.0))

    def test_vanishing_evidence(self):
        with pytest.raises(NumericsError):
            bayes_posterior(AtomPrior((40.0,), (1.0,)), -40.0)


def test_every_rule_works_entry_by_entry():
    # each entry of a(array) is, bit for bit, a of that entry alone, for any
    # batch size: a replication's weight never depends on its batch
    rng = np.random.default_rng(23)
    zs = np.concatenate([rng.normal(0.0, 3.0, 540), np.linspace(-13.0, 13.0, 261), [0.0]])
    rules = catalogue() + [
        qhat(0.1), bickel(0.7), bayes_estimator(AtomPrior((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3))),
    ]
    for est in rules:
        whole = est.a(zs)
        for size in (1, 3, 5, 31, 33):
            assert np.array_equal(est.a(zs[:size]), whole[:size]), (est.name, size)
        assert np.array_equal(whole, [est.a(z) for z in zs]), est.name
        assert np.array_equal(est.c(zs), [est.c(z) for z in zs]), est.name


class TestParsing:
    def test_names_cover_presets(self):
        names = estimator_names()
        assert "pretest-10" in names and "pretest-sqrt2" in names
        assert "efron_morris" in names

    def test_round_trips(self):
        for spec in ("wide", "narrow", "eb", "qhat:eps=0.05", "pretest:m=1.645",
                     "linear:c=0.25", "atan:m=0.502", "qtilde:l=0.5"):
            est = parse_estimator(spec)
            assert est.spec_string() == spec

    def test_presets(self):
        est = parse_estimator("pretest-10")
        assert est.name == "pretest"
        assert est.knots == (-1.645, 1.645)
        est = parse_estimator("pretest-sqrt2")
        assert est.knots[1] == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_parameter_merging_semicolon_or_comma(self):
        a = parse_estimator("epsilon_bayes:eps=0.5,sigma=3")
        b = parse_estimator("epsilon_bayes:eps=0.5;sigma=3")
        assert np.allclose(a.a(GRID), b.a(GRID), atol=0.0)

    def test_errors(self):
        with pytest.raises(ValueError) as err:
            parse_estimator("mystery")
        assert "efron_morris" in str(err.value)
        with pytest.raises(ValueError):
            parse_estimator("pretest:q=1")
        with pytest.raises(ValueError):
            parse_estimator("pretest:m=abc")
        with pytest.raises(ValueError):
            parse_estimator("pretest-10:m=2")


class TestCombining:
    def test_z_statistic(self):
        assert z_statistic(1.2, 1.0, 0.78, 100) == pytest.approx(10.0 * 0.2 / 0.78, abs=1e-12)
        with pytest.raises(ValueError):
            z_statistic(1.2, 1.0, 0.0, 100)

    def test_compromise_endpoints(self):
        assert compromise_estimate(3.0, 7.0, 2.0, parse_estimator("narrow")) == 3.0
        assert compromise_estimate(3.0, 7.0, 2.0, parse_estimator("wide")) == 7.0
        mid = compromise_estimate(3.0, 7.0, 2.0, linear(0.5))
        assert mid == pytest.approx(5.0, abs=1e-12)

    def test_harmonic_properties(self):
        same = harmonic_compromise(4.0, 4.0, 1.3, lambda z: 0.27)
        assert same == pytest.approx(4.0, rel=1e-15)
        mixed = harmonic_compromise(1.0, math.e**2, 0.0, lambda z: 0.5)
        assert mixed == pytest.approx(math.e, rel=1e-12)
        with pytest.raises(DomainError):
            harmonic_compromise(0.0, 1.0, 0.0, lambda z: 0.5)

    def test_debias_is_linear(self):
        assert debias_estimate(2.0, 0.5, 1.4, 1.0) == pytest.approx(1.8, abs=1e-15)
        assert debias_estimate(2.0, 0.0, 9.9, 1.0) == 2.0

    def test_array_forms_equal_scalar_calls(self):
        # a study combines a whole cell of replications in one call; each
        # entry must be bit for bit what the one-replication call gives
        rng = np.random.default_rng(8)
        gamma_hat = 1.0 + rng.normal(0.0, 0.2, 40)
        kappa_hat = rng.uniform(0.5, 1.5, 40)
        mu_n, mu_w, b = rng.normal(size=(3, 40))
        zn = z_statistic(gamma_hat, 1.0, kappa_hat, 150)
        assert zn.shape == (40,)
        single_z = [z_statistic(float(g), 1.0, float(k), 150) for g, k in zip(gamma_hat, kappa_hat)]
        assert all(type(v) is float for v in single_z)
        assert zn.tolist() == single_z
        debiased = debias_estimate(mu_n, b, gamma_hat, 1.0)
        assert debiased.tolist() == [
            debias_estimate(float(m), float(s), float(g), 1.0)
            for m, s, g in zip(mu_n, b, gamma_hat)
        ]
        for name in estimator_names():
            est = parse_estimator(name)
            combined = compromise_estimate(mu_n, mu_w, zn, est)
            one_by_one = [
                compromise_estimate(float(a), float(w), z, est)
                for a, w, z in zip(mu_n, mu_w, single_z)
            ]
            assert all(type(v) is float for v in one_by_one)
            assert combined.tolist() == one_by_one, name
        with pytest.raises(ValueError):
            z_statistic(gamma_hat, 1.0, np.where(np.arange(40) == 7, 0.0, kappa_hat), 150)


class TestFitting:
    def test_exponential_narrow_fit_closed(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(50)
        y = model.sampler(np.array([2.0]), np.array([1.0]), design, replication_rng(1, 0))
        fit = fit_narrow(model, y, design)
        assert fit.theta[0] == pytest.approx(1.0 / float(np.mean(y)), rel=1e-12)
        assert fit.gamma is None
        assert fit.converged

    def test_weibull_wide_fit_against_profile_grid(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(80)
        y = model.sampler(np.array([1.0]), np.array([1.4]), design, replication_rng(1, 1))
        fit = fit_wide(model, y, design)
        assert fit.converged

        def profile(g):
            # theta maximizing the likelihood for fixed shape g
            th = float(np.mean(y**g)) ** (-1.0 / g)
            return model.loglik(y, design, np.array([th]), np.array([g]))

        grid = np.linspace(0.5, 2.5, 4001)
        values = [profile(g) for g in grid]
        best = grid[int(np.argmax(values))]
        assert fit.gamma[0] == pytest.approx(best, abs=6e-4)
        assert fit.loglik >= max(values) - 1e-9

    def test_gamma_wide_fit_against_bisection(self):
        from scipy.special import digamma

        model = get_model("gamma-vs-exp")
        design = model.default_design(60)
        y = model.sampler(np.array([1.0]), np.array([1.6]), design, replication_rng(1, 2))
        fit = fit_wide(model, y, design)
        target = math.log(float(np.mean(y))) - float(np.mean(np.log(y)))

        def f(g):
            return math.log(g) - float(digamma(g)) - target

        lo, hi = 1e-3, 60.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        shape = 0.5 * (lo + hi)
        rate = shape / float(np.mean(y))
        assert fit.gamma[0] == pytest.approx(shape, rel=1e-7)
        assert fit.theta[0] == pytest.approx(rate, rel=1e-7)

    def test_wide_never_below_narrow(self):
        for name in ("weibull-vs-exp", "gamma-vs-exp", "linreg-quadratic",
                      "transform-constant", "two-sample"):
            model = get_model(name)
            design = model.default_design(40)
            theta = np.asarray(model.theta0, dtype=float)
            gamma = np.asarray(model.gamma0, dtype=float)
            y = model.sampler(theta, gamma, design, replication_rng(1, 3))
            narrow = fit_narrow(model, y, design)
            wide = fit_wide(model, y, design)
            assert wide.loglik >= narrow.loglik - 1e-9, name

    def test_closed_fits_certify_with_one_gradient(self):
        # one log-likelihood plus one central-difference gradient per fit
        base = get_model("weibull-vs-exp")
        calls = []

        def counted(*args):
            calls.append(1)
            return base.log_density(*args)

        model = dataclasses.replace(base, log_density=counted)
        design = model.default_design(200)
        y = model.sampler(np.array([1.0]), np.array([1.0]), design, replication_rng(5, 0))
        fit_narrow(model, y, design)
        assert len(calls) == 3
        calls.clear()
        fit_wide(model, y, design)
        assert len(calls) == 5

    def test_closed_fit_off_the_optimum_is_rejected(self):
        base = get_model("weibull-vs-exp")

        def off_optimum(y, design):
            theta, gamma = base.wide_fit_exact(y, design)
            return 1.01 * np.asarray(theta, dtype=float), gamma

        model = dataclasses.replace(base, wide_fit_exact=off_optimum)
        design = model.default_design(200)
        y = model.sampler(np.array([1.0]), np.array([1.0]), design, replication_rng(5, 1))
        with pytest.raises(FitError, match="above tolerance"):
            fit_wide(model, y, design)

    def test_degenerate_data_raises_fit_error(self):
        model = get_model("transform-constant")
        design = model.default_design(10)
        with pytest.raises(FitError):
            fit_narrow(model, np.full(10, 3.0), design)

    @pytest.mark.parametrize(
        "name", ["linreg-covariate", "varhet-regression", "transform-constant", "two-sample"]
    )
    def test_constant_response_is_named_degenerate(self, name):
        model = get_model(name)
        design = model.default_design(60)
        # a constant that its mean does not reproduce exactly: the fitted
        # scale is about 1e-16, not 0, so the log-likelihood stays finite
        y = np.full(design.n, replication_rng(9, 0).standard_normal(60).mean())
        for fit in (fit_narrow, fit_wide):
            with pytest.raises(FitError, match="above tolerance; the sample looks degenerate"):
                fit(model, y, design)

    @pytest.mark.parametrize("fit", [fit_narrow, fit_wide])
    @pytest.mark.parametrize("c", [3.0, 0.1, 1.234567, 2.0 / 3.0])
    @pytest.mark.parametrize("name", ["transform-constant", "two-sample"])
    def test_exactly_constant_sample_is_named_degenerate(self, name, c, fit):
        model = get_model(name)
        design = model.default_design(40)
        # 40 copies of c average to c exactly, so the fitted scale is 0
        y = np.full(design.n, c)
        with pytest.raises(
            FitError,
            match="lands outside the likelihood support; the sample looks degenerate",
        ):
            fit(model, y, design)

    def test_empty_sample(self):
        model = get_model("weibull-vs-exp")
        with pytest.raises(DomainError):
            fit_narrow(model, np.array([]), model.default_design(1))

    def test_domain_checked_data(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(3)
        with pytest.raises(DomainError):
            fit_narrow(model, np.array([1.0, -2.0, 3.0]), design)

    def test_maximizer_on_quadratic(self):
        x, value, iters, trace = maximize_loglik(
            lambda x: -float((x[0] - 3.0) ** 2), np.array([0.0])
        )
        assert x[0] == pytest.approx(3.0, abs=1e-8)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_maximizer_rejects_bad_start(self):
        with pytest.raises(FitError):
            maximize_loglik(lambda x: -math.inf, np.array([0.0]))


CLOSED_FORM_MODELS = (
    "weibull-vs-exp", "gamma-vs-exp", "linreg-quadratic", "linreg-covariate",
    "varhet-regression", "transform-constant", "transform-regression", "two-sample",
)


def single_outcome(fit, model, y, design):
    try:
        return fit(model, y, design)
    except NumericsError as err:
        return err


def raised(fit, model, ys, design):
    with pytest.raises(NumericsError) as info:
        fit(model, ys, design)
    return type(info.value), str(info.value)


def assert_rows_equal_single_calls(fit, model, ys, design, exact):
    """A stack with failing rows raises one of their single-call errors; the
    rows that hold plus any one failing row raise that row's single-call
    error word for word; and the stack of the rows that hold equals their
    single calls. Returns that stacked fit and the rows that hold."""
    ones = [single_outcome(fit, model, y, design) for y in ys]
    held = [r for r, one in enumerate(ones) if not isinstance(one, NumericsError)]
    failures = {r: (type(one), str(one)) for r, one in enumerate(ones) if r not in held}
    if failures:
        assert raised(fit, model, ys, design) in failures.values(), model.name
    for r, want in failures.items():
        assert raised(fit, model, ys[sorted(held + [r])], design) == want, (model.name, r)
    stacked = fit(model, ys[held], design)
    assert stacked.params.shape[0] == len(held)
    for j, r in enumerate(held):
        one = ones[r]
        if exact:
            assert np.array_equal(stacked.params[j], one.params)
            assert stacked.loglik[j] == one.loglik
            assert stacked.grad_norm[j] == one.grad_norm
        else:
            scale = np.max(np.abs(one.params))
            assert np.max(np.abs(stacked.params[j] - one.params)) <= 1e-12 * scale
            assert stacked.loglik[j] == pytest.approx(one.loglik, rel=1e-12, abs=0.0)
        assert np.array_equal(stacked.theta[j], stacked.params[j, :model.p])
        if stacked.gamma is not None:
            assert np.array_equal(stacked.gamma[j], stacked.params[j, model.p:])
    return stacked, held


class TestStackedFits:
    """A stack (B, n) of samples is fitted row by row exactly as each row
    is fitted alone, with every check applied per row: it holds for every
    row or raises a failing row's own error."""

    @pytest.mark.parametrize("name", CLOSED_FORM_MODELS)
    def test_rows_equal_single_calls(self, name):
        model = get_model(name)
        design = model.default_design(60)
        theta = np.asarray(model.theta0, dtype=float)
        gamma = np.asarray(model.gamma0, dtype=float) + 0.1
        ys = np.array([
            model.sampler(theta, gamma, design, replication_rng(9, r)) for r in range(7)
        ])
        ys[3] = ys[3].mean()  # a degenerate row: outside the support, or no shape root
        if name == "transform-regression":
            ys[5] = -1.0  # a constant response fails its data check
        elif model.data_check is not None:
            ys[5, 0] = -1.0  # fails the data check
        exact = name == "weibull-vs-exp"
        for fit in (fit_narrow, fit_wide):
            stacked, held = assert_rows_equal_single_calls(fit, model, ys, design, exact)
            assert stacked.iterations == sum(fit(model, ys[r], design).iterations for r in held)
            closed = (model.wide_fit_exact if fit is fit_wide else model.narrow_fit_exact)
            if closed is not None:
                assert stacked.method == "closed" and stacked.iterations == 0
            if model.data_check is not None:
                assert 5 not in held
                with pytest.raises(DomainError):
                    fit(model, ys[[0, 5]], design)

    def test_weibull_degenerate_row_keeps_its_messages(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(40)
        ys = np.array([
            model.sampler(np.array([1.0]), np.array([1.2]), design, replication_rng(4, r))
            for r in range(5)
        ])
        ys[2] = 2.0  # every shape fits better: the profile equation has no root
        with pytest.raises(NumericsError, match="could not be bracketed"):
            fit_wide(model, ys[2], design)
        with pytest.raises(NumericsError, match="could not be bracketed"):
            fit_wide(model, ys, design)
        assert fit_wide(model, ys[[0, 1, 3, 4]], design).converged.all()
        stacked, kept = fit_rows(model, ys, design, wide=True)
        assert kept.tolist() == [0, 1, 3, 4] and stacked.converged.all()

    @pytest.mark.parametrize("shape", [0.05, 0.3, 1.0, 4.0, 50.0])
    def test_weibull_shape_matches_brentq_oracle(self, shape):
        from scipy.optimize import brentq

        from mistol.models import _weibull_shape_mle

        def oracle(y):
            logy = np.log(y)

            def profile(g):
                yg = y**g
                return 1.0 / g + float(np.mean(logy)) - float(np.sum(yg * logy) / np.sum(yg))

            hi = 4.0
            while profile(hi) > 0.0 and hi < 1e3:
                hi *= 2.0
            if profile(1e-2) < 0.0 or profile(hi) > 0.0:
                return None
            return brentq(profile, 1e-2, hi, xtol=1e-15, rtol=1e-15, maxiter=500)

        rng = np.random.default_rng(int(shape * 100))
        for n in (5, 40, 300, 2000):
            ys = rng.exponential(1.0, (12, n)) ** (1.0 / shape)
            want = [oracle(y) for y in ys]
            kept = [r for r, w in enumerate(want) if w is not None]
            assert len(kept) >= 10, (shape, n)
            got = _weibull_shape_mle(ys[kept])
            assert got == pytest.approx([want[r] for r in kept], rel=1e-12, abs=0.0)
            for r in kept[:3]:
                assert _weibull_shape_mle(ys[r]) == got[kept.index(r)]
            for r in set(range(len(ys))) - set(kept):
                with pytest.raises(NumericsError, match="could not be bracketed"):
                    _weibull_shape_mle(ys[r])
        flat = np.full((2, 30), 3.0)
        flat[0] = rng.exponential(1.0, 30)
        with pytest.raises(NumericsError, match="could not be bracketed"):
            _weibull_shape_mle(flat)

    def test_off_optimum_row_fails_alone(self):
        base = get_model("weibull-vs-exp")
        design = base.default_design(200)
        ys = np.array([
            base.sampler(np.array([1.0]), np.array([1.0]), design, replication_rng(5, r))
            for r in range(6)
        ])
        cut = 0.5 * (np.sort(ys[:, 0])[-1] + np.sort(ys[:, 0])[-2])
        off = int(np.argmax(ys[:, 0]))
        assert off != len(ys) - 1

        def off_optimum(y, design):
            # moves the rate of every sample whose first value exceeds cut
            theta, gamma = base.wide_fit_exact(y, design)
            return np.where(y[..., :1] > cut, 1.01, 1.0) * theta, gamma

        model = dataclasses.replace(base, wide_fit_exact=off_optimum)
        with pytest.raises(FitError, match="above tolerance"):
            fit_wide(model, ys[off], design)
        _, held = assert_rows_equal_single_calls(fit_wide, model, ys, design, exact=True)
        assert held == [r for r in range(len(ys)) if r != off]
        with pytest.raises(FitError, match="above tolerance"):
            fit_wide(model, ys, design)

    def test_row_zero_parameters_are_caught(self):
        base = get_model("weibull-vs-exp")
        design = base.default_design(50)
        ys = np.array([
            base.sampler(np.array([1.0]), np.array([1.0]), design, replication_rng(6, r))
            for r in range(4)
        ])

        def float_first(y, design, theta, gamma):
            return base.log_density(y, design, np.array([float(theta[0])]), gamma)

        def first_row(y, design, theta, gamma):  # silently row 0 on a stack
            return base.log_density(y, design, np.ravel(theta)[:1], np.ravel(gamma)[:1])

        for log_density in (float_first, first_row):
            model = dataclasses.replace(base, log_density=log_density)
            assert fit_narrow(model, ys[1], design).converged
            with pytest.raises(TypeError):
                fit_narrow(model, ys, design)
        with pytest.raises(TypeError, match="weibull-vs-exp"):
            fit_wide(dataclasses.replace(base, log_density=first_row), ys, design)

        def first_sample(y, design):  # not stack-aware: one rate for the stack
            return np.array([1.0 / np.mean(np.atleast_2d(y)[0])])

        model = dataclasses.replace(base, narrow_fit_exact=first_sample)
        with pytest.raises(TypeError, match="'weibull-vs-exp' has shape"):
            fit_narrow(model, ys, design)

    def test_newton_stack_runs_row_by_row(self):
        model = get_model("logistic-quadratic")
        design = model.default_design(80)
        ys = np.array([
            model.sampler(np.array(model.theta0), np.array([0.3]), design, replication_rng(7, r))
            for r in range(3)
        ])
        for fit in (fit_narrow, fit_wide):
            stacked, held = assert_rows_equal_single_calls(fit, model, ys, design, exact=True)
            assert held == [0, 1, 2] and stacked.method == "newton"
            assert stacked.iterations == sum(fit(model, y, design).iterations for y in ys)

        def check_first_value(y, design):  # names the sample by its first value
            if y[0] > 1.0:
                raise DomainError(f"sample starting {y[0]:g} rejected")

        picky = dataclasses.replace(model, data_check=check_first_value)
        bad = ys.copy()
        bad[1, 0], bad[2, 0] = 2.0, 3.0
        for fit in (fit_narrow, fit_wide):  # the first failing row is raised
            with pytest.raises(DomainError, match="^sample starting 2 rejected$"):
                fit(picky, bad, design)


def counted(fit):
    """fit, recording the number of rows of each call."""
    calls = []

    def wrapper(model, y, design):
        calls.append(len(np.atleast_2d(y)))
        return fit(model, y, design)

    return wrapper, calls


class TestFitRows:
    """fit_rows keeps exactly the rows that a fit one at a time keeps, and
    its stacked result equals those single fits."""

    def draws(self, model, n, count, seed):
        design = model.default_design(n)
        theta = np.asarray(model.theta0, dtype=float)
        gamma = np.asarray(model.gamma0, dtype=float) + 0.1
        return design, np.array([
            model.sampler(theta, gamma, design, replication_rng(seed, r)) for r in range(count)
        ])

    @pytest.mark.parametrize("name, bad", [
        ("weibull-vs-exp", -1.0), ("logistic-quadratic", 0.5),
    ])
    def test_one_failing_row_is_left_out(self, monkeypatch, name, bad):
        model = get_model(name)
        design, ys = self.draws(model, 60, 5, 13)
        ys[2, 0] = bad  # fails the data check
        closed = model.narrow_fit_exact is not None
        for fit, wide in ((fit_narrow, False), (fit_wide, True)):
            wrapper, calls = counted(fit)
            monkeypatch.setattr(estimators, fit.__name__, wrapper)
            stacked, kept = fit_rows(model, ys, design, wide)
            assert kept.tolist() == [0, 1, 3, 4]
            assert calls == ([5, 1, 1, 1, 1, 1, 4] if closed else [1] * 5)
            for j, r in enumerate(kept):
                one = fit(model, ys[r], design)
                assert np.array_equal(stacked.params[j], one.params)
                assert stacked.loglik[j] == one.loglik
                assert stacked.grad_norm[j] == one.grad_norm
            assert stacked.iterations == sum(fit(model, ys[r], design).iterations for r in kept)

    @pytest.mark.parametrize("name", ["weibull-vs-exp", "logistic-quadratic"])
    def test_a_block_that_holds_is_one_call_per_fit(self, monkeypatch, name):
        model = get_model(name)
        design, ys = self.draws(model, 60, 4, 17)
        wrapper, calls = counted(fit_narrow)
        monkeypatch.setattr(estimators, "fit_narrow", wrapper)
        stacked, kept = fit_rows(model, ys, design, wide=False)
        assert kept.tolist() == [0, 1, 2, 3] and stacked.params.shape[0] == 4
        assert calls == ([4] if model.narrow_fit_exact is not None else [1] * 4)

    @pytest.mark.parametrize("name", ["weibull-vs-exp", "logistic-quadratic"])
    def test_a_block_in_which_no_row_holds(self, name):
        model = get_model(name)
        design, ys = self.draws(model, 60, 3, 19)
        ys[:, 0] = -1.0
        for fit, wide in ((fit_narrow, False), (fit_wide, True)):
            for y in ys:
                with pytest.raises(DomainError):
                    fit(model, y, design)
            stacked, kept = fit_rows(model, ys, design, wide)
            assert stacked is None and kept.size == 0


class TestNewtonFitPins:
    """Whole fits of the six Newton-fitted built-ins, pinned bit for bit:
    a moved Newton iterate can move a study's failure count (see
    TestNewtonPathArithmetic in test_models.py)."""

    # (model, fit, params, loglik, grad_norm, iterations) for the sample
    # drawn from replication_rng(11, 0) at theta0, gamma0 + 0.5/sqrt(200)
    PINS = (
        ("gamma-vs-exp", "fit_narrow", [0.9131284955046258],
         -218.17573368329272, 0.0, 0),
        ("gamma-vs-exp", "fit_wide", [1.0767822432721457, 1.1792231307847567],
         -216.5466002425683, 6.521064554818925e-09, 4),
        ("varhet-regression", "fit_narrow",
         [0.930637826020703, 0.02807829995644053, 0.9767890589842405],
         -269.4106879447488, 2.057762311590645e-08, 0),
        ("varhet-regression", "fit_wide",
         [0.9004836761133265, 0.024128972489174377, 0.9846877142196062, 0.13645418498112638],
         -269.35569966608136, 3.7358180046058674e-08, 4),
        ("transform-constant", "fit_narrow", [0.975964255923344, -0.05692776954287262],
         -278.9218433871256, 2.6890872062805734e-08, 0),
        ("transform-constant", "fit_wide",
         [1.2281694899438784, -0.8813027197925226, 2.3198793696666344],
         -278.57899806814055, 4.7407170095187057e-07, 9),
        ("transform-regression", "fit_narrow", [0.9724088362538593, 1.351059763590574],
         -278.1919167359678, 1.4409644140706936e-08, 0),
        ("transform-regression", "fit_wide",
         [0.9549551200104411, 1.3476264844529362, 0.9446339325522284],
         -277.92776440293085, 4.384636453366114e-08, 3),
        ("logistic-quadratic", "fit_narrow", [0.3557100040411985, 0.9184337034284632],
         -114.81312791078452, 0.0, 4),
        ("logistic-quadratic", "fit_wide",
         [0.18601634962605326, 0.9540487079670867, 0.16277424587707848],
         -114.22858249551828, 4.6053537145317566e-07, 3),
        ("logistic-eta", "fit_narrow", [0.008351281005191424, 1.171818712396248],
         -105.79259259862535, 2.633544110112367e-07, 3),
        ("logistic-eta", "fit_wide",
         [-2.3905295520658543, 1.7163559180143784, 0.2587987791567279],
         -105.75466663570847, 6.221253302820137e-09, 23),
    )

    @pytest.mark.parametrize("name, fit, params, loglik, grad_norm, iterations", PINS)
    def test_fit_bits(self, name, fit, params, loglik, grad_norm, iterations):
        model = get_model(name)
        design = model.default_design(200)
        gamma = np.asarray(model.gamma0, dtype=float) + 0.5 / math.sqrt(200)
        theta0 = np.asarray(model.theta0, dtype=float)
        y = model.sampler(theta0, gamma, design, replication_rng(11, 0))
        got = {"fit_narrow": fit_narrow, "fit_wide": fit_wide}[fit](model, y, design)
        assert [float(v) for v in got.params] == params
        assert (got.loglik, got.grad_norm, got.iterations) == (loglik, grad_norm, iterations)


@pytest.mark.parametrize("fit", [fit_narrow, fit_wide])
def test_gamma_constant_sample_is_rejected_fast(fit):
    # no gamma MLE exists: the likelihood grows as the shape goes to infinity
    model = get_model("gamma-vs-exp")
    design = model.default_design(40)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="shape goes to infinity at the sample mean"):
        fit(model, np.full(40, 3.0), design)
    assert time.perf_counter() - start < 0.02
    # the exponential narrow model of the Weibull pair has an MLE there
    assert fit_narrow(get_model("weibull-vs-exp"), np.full(40, 3.0), design).converged


CONSTANT = "a constant response has no transform-regression MLE"
AFFINE = r"an exactly affine response \(least-squares residual .* at most 1e-12 of max\|y\|\)"


@pytest.mark.parametrize("fit", [fit_narrow, fit_wide])
@pytest.mark.parametrize("slope, level, message", [
    pytest.param(0.0, 3.0, CONSTANT, id="3.0"),
    pytest.param(0.0, 1.234567, CONSTANT, id="1.234567"),
    pytest.param(0.0, 0.1, CONSTANT, id="0.1"),
    pytest.param(0.0, -3.0, CONSTANT, id="-3.0"),
    pytest.param(2.0, 3.0, AFFINE, id="2c+3"),
    pytest.param(2.0, -3.0, AFFINE, id="2c-3"),
    pytest.param(-1.0, 0.1, AFFINE, id="-c+0.1"),
    pytest.param(0.5, 0.0, AFFINE, id="0.5c"),
])
def test_transform_regression_constant_response_is_rejected_fast(fit, slope, level, message):
    # no wide MLE exists: at the response's own slope the likelihood keeps
    # rising toward sigma = 0, and the model's one data check rejects the
    # narrow fit too (c is the centred covariate)
    model = get_model("transform-regression")
    design = model.default_design(40)
    x = design.column(0)
    y = np.full(40, level) if slope == 0.0 else slope * (x - float(np.mean(x))) + level
    start = time.perf_counter()
    with pytest.raises(DomainError, match=message):
        fit(model, y, design)
    assert time.perf_counter() - start < 0.02
