import csv
import dataclasses
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

import mistol.risk
from mistol.estimators import (
    AEstimator,
    atan_shrink,
    bickel,
    eb,
    estimator_names,
    efron_morris,
    linear,
    mlplus,
    narrow_rule,
    parse_estimator,
    pretest,
    qhat,
    restricted,
    wide_rule,
)
from mistol.models import MODEL_BUILDERS, get_model
from mistol.numerics import (
    NumericsError,
    replication_rng,
    std_normal_quantile,
)
from mistol.risk import (
    ci_coverage,
    crossing_points,
    default_grid,
    interval_risk,
    l1_risk,
    l1_tolerance,
    level_crossings,
    limit_geometry,
    limit_mse,
    mean_abs_normal,
    risk_closed_form,
    risk_crossings,
    risk_numeric,
    risk_profile,
    risk_table,
    write_risk_csv,
)

DATA = pathlib.Path(__file__).parent / "data"
MODEL_NAMES = tuple(MODEL_BUILDERS)


class TestLimitGeometry:
    def test_every_model_and_focus_is_consistent(self):
        # limit_geometry internally checks the adjusted-variance route
        # against the full sandwich and raises on disagreement, so a plain
        # call doubles as the dual-route consistency test
        for model in [get_model(n) for n in MODEL_NAMES]:
            design = model.default_design(60)
            for name in model.estimand_names():
                geom = limit_geometry(model, design, name)
                assert geom.tau_sq >= geom.tau0_sq - 1e-12, (model.name, name)
                assert geom.kappa > 0.0
                assert math.isfinite(geom.bias_slope)

    def test_weibull_median_frozen(self):
        model = get_model("weibull-vs-exp")
        geom = limit_geometry(model, model.default_design(100))
        assert geom.bias_slope == pytest.approx(-0.5470991673983854, abs=1e-10)
        assert geom.kappa == pytest.approx(0.7796968012336761, abs=1e-10)
        assert geom.tau0_sq == pytest.approx(0.4804530139182014, abs=1e-10)
        assert geom.tau_sq == pytest.approx(0.6624162336000172, abs=1e-10)
        assert geom.tau_sq == pytest.approx(
            geom.tau0_sq + geom.bias_slope**2 * geom.kappa**2, rel=1e-12
        )
        assert geom.rho == pytest.approx(
            abs(geom.bias_slope) * geom.kappa / geom.tau0, rel=1e-15
        )
        assert geom.shift_at(geom.kappa) == pytest.approx(1.0, rel=1e-15)

    def test_two_sample_mean_diff_is_departure_free(self):
        model = get_model("two-sample")
        for kw in ({}, {"m": 100}):
            geom = limit_geometry(model, model.default_design(50, **kw), "mean-diff")
            assert geom.bias_slope == pytest.approx(0.0, abs=1e-12)
            assert geom.tau_sq == pytest.approx(geom.tau0_sq, rel=1e-12)

    def test_two_sample_std_diff_slopes(self):
        model = get_model("two-sample")
        balanced = limit_geometry(model, model.default_design(50), "std-diff")
        assert balanced.bias_slope == pytest.approx(0.0, abs=1e-12)
        # with second-group fraction r the slope is 1/4 - r/2 (unit effect,
        # unit scale): positive when the second group is the smaller one
        skewed = limit_geometry(model, model.default_design(50, m=100), "std-diff")
        assert skewed.bias_slope == pytest.approx(1.0 / 12.0, abs=1e-10)
        mirrored = limit_geometry(model, model.default_design(50, m=25), "std-diff")
        assert mirrored.bias_slope == pytest.approx(-1.0 / 12.0, abs=1e-10)

    def test_stacked_rows_equal_single_calls(self):
        # a study evaluates the plug-in geometry of a whole cell in one
        # call; each row must be bit for bit the one-theta call
        for name in MODEL_NAMES:
            model = get_model(name)
            design = model.default_design(60)
            theta0 = np.asarray(model.theta0, dtype=float)
            thetas = np.array([theta0 * (1.0 + s) + s for s in (0.0, 0.05, -0.05, 0.1)])
            for focus in model.estimand_names():
                stacked = limit_geometry(model, design, focus, theta=thetas)
                for r, theta in enumerate(thetas):
                    single = limit_geometry(model, design, focus, theta=theta)
                    assert type(single.kappa) is float
                    got = (stacked.bias_slope[r], stacked.kappa[r],
                           stacked.tau0_sq[r], stacked.tau_sq[r])
                    want = (single.bias_slope, single.kappa, single.tau0_sq, single.tau_sq)
                    assert got == want, (name, focus, r)

    def test_stacked_failure_raises(self):
        base = get_model("weibull-vs-exp")

        def closed_information(theta, design):
            full = base.closed_information(theta, design)
            if theta[0] > 1.5:
                # the departure entry equals what the narrow entry explains
                full[1, 1] = full[0, 1] ** 2 / full[0, 0]
            return full

        model = dataclasses.replace(base, closed_information=closed_information)
        design = model.default_design(60)
        thetas = np.array([[1.0], [2.0], [1.2]])
        with pytest.raises(NumericsError, match="not positive definite"):
            limit_geometry(model, design, theta=thetas[1])
        with pytest.raises(NumericsError, match="not positive definite"):
            limit_geometry(model, design, theta=thetas)
        stacked = limit_geometry(model, design, theta=thetas[[0, 2]])
        for i, r in enumerate((0, 2)):
            assert stacked.tau_sq[i] == limit_geometry(model, design, theta=thetas[r]).tau_sq

    def test_route_check_runs_on_every_row(self, monkeypatch):
        # the two variance routes agree for any consistent inverse, so skew
        # the Schur inverse of the rows at rate 1.3 and watch the check fire
        model = get_model("weibull-vs-exp")
        design = model.default_design(60)
        real = mistol.risk.partitioned_inverse

        def skewed(info):
            inv = real(info)
            hit = np.isclose(info.j11[..., 0, 0], 1.0 / 1.3**2)[..., None, None]
            return dataclasses.replace(inv, inv22=np.where(hit, 1.01 * inv.inv22, inv.inv22))

        monkeypatch.setattr(mistol.risk, "partitioned_inverse", skewed)
        thetas = np.array([[1.0], [1.3], [0.8]])
        with pytest.raises(NumericsError, match="variance routes disagree") as single:
            limit_geometry(model, design, theta=thetas[1])
        with pytest.raises(NumericsError) as stacked:
            limit_geometry(model, design, theta=thetas)
        assert str(stacked.value) == str(single.value)
        limit_geometry(model, design, theta=thetas[[0, 2]])

    def test_estimand_argument_forms(self):
        model = get_model("weibull-vs-exp")
        design = model.default_design(10)
        by_name = limit_geometry(model, design, "median")
        by_object = limit_geometry(model, design, model.estimand("median", design))
        assert by_name == by_object
        with pytest.raises(TypeError):
            limit_geometry(model, design, 3.14)


class TestClosedFormRisks:
    def test_elementary_kinds(self):
        a = np.linspace(0.0, 5.0, 11)
        assert np.allclose(risk_closed_form("narrow", a), a * a, atol=1e-15)
        assert np.allclose(risk_closed_form("wide", a), 1.0, atol=1e-15)
        c = 0.3
        assert np.allclose(
            risk_closed_form("linear", a, c=c), c * c + (1 - c) ** 2 * a * a, atol=1e-14
        )

    def test_quadrature_matches_closed_forms(self):
        a = np.arange(0.0, 5.5, 0.5)
        cases = [
            ("narrow", narrow_rule(), {}),
            ("wide", wide_rule(), {}),
            ("linear", linear(0.3), {"c": 0.3}),
            ("pretest", pretest(1.0), {"m": 1.0}),
            ("pretest", pretest(math.sqrt(2.0)), {"m": math.sqrt(2.0)}),
            ("pretest", pretest(1.645), {"m": 1.645}),
            ("restricted", restricted(1.0), {"m": 1.0}),
            ("efron_morris", efron_morris(0.502), {"m": 0.502}),
            ("efron_morris", efron_morris(1.0), {"m": 1.0}),
        ]
        for kind, est, kw in cases:
            closed = risk_closed_form(kind, a, **kw)
            numeric = np.asarray(risk_numeric(est, a))
            assert np.allclose(closed, numeric, atol=1e-6), kind

    def test_pretest_risk_monte_carlo_anchor(self):
        rng = replication_rng(101, 0)
        a = 1.5
        z = a + rng.standard_normal(4_000_000)
        ahat = np.where(np.abs(z) >= 1.0, z, 0.0)
        mc = float(np.mean((ahat - a) ** 2))
        se = float(np.std((ahat - a) ** 2) / math.sqrt(z.size))
        assert abs(float(risk_closed_form("pretest", a)) - mc) < 5.0 * se

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            risk_closed_form("mystery", 1.0)


class TestRiskCurveTable:
    def estimators(self):
        return [
            wide_rule(), narrow_rule(), eb(), qhat(0.05),
            pretest(1.0), efron_morris(0.502), atan_shrink(0.502),
        ]

    def test_zero_departure_values(self):
        assert risk_numeric(eb(), 0.0) == pytest.approx(0.4670386272794428, abs=1e-10)
        assert risk_numeric(qhat(0.05), 0.0) == pytest.approx(0.3714449153971437, abs=1e-10)
        assert risk_numeric(pretest(1.0), 0.0) == pytest.approx(
            float(risk_closed_form("pretest", 0.0)), abs=1e-10
        )
        assert risk_numeric(atan_shrink(0.502), 0.0) == pytest.approx(
            0.6268412367140878, abs=1e-10
        )

    def test_against_expected_table(self):
        with open(DATA / "risk_table_expected.csv") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        expected = np.array([[float(v) for v in row] for row in rows[1:]])
        assert header == ["a", "wide", "narrow", "eb", "qhat", "pretest",
                          "efron_morris", "atan"]
        assert expected.shape == (101, 8)
        got_header, got = risk_table(self.estimators(), expected[:, 0])
        assert got.shape == expected.shape
        diff = np.abs(got[:, 1:] - expected[:, 1:])
        assert float(np.max(diff)) < 2e-3

    def test_nonfinite_integrand_rejected(self):
        # log is nan on the negative nodes, on either quadrature path
        smooth = AEstimator("log", np.log, c0=0.0)
        knotted = AEstimator("log", np.log, c0=0.0, knots=(0.0,))
        for est in (smooth, knotted):
            with np.errstate(invalid="ignore", divide="ignore"):
                with pytest.raises(NumericsError, match="non-finite"):
                    risk_numeric(est, 0.0)

    def test_symmetry_in_departure_sign(self):
        for est in (eb(), qhat(0.05), pretest(1.0), efron_morris(0.502), mlplus()):
            for a in (0.5, 1.7):
                assert risk_numeric(est, a) == pytest.approx(
                    risk_numeric(est, -a), abs=1e-8
                ), est.name

    def test_profile_summaries(self):
        profile = risk_profile(eb())
        assert profile.name == "eb"
        assert profile.loss == "l2"
        assert profile.values[0] == pytest.approx(0.4670386272794428, abs=1e-10)
        assert profile.argmax == pytest.approx(2.7, abs=1e-12)
        assert profile.max_risk == pytest.approx(1.2517557905477208, abs=1e-10)

    def test_table_header_and_csv_round_trip(self, tmp_path):
        grid = np.linspace(0.0, 2.0, 5)
        ests = [narrow_rule(), pretest(1.645)]
        header, matrix = risk_table(ests, grid)
        assert header == ["a", "narrow", "pretest:m=1.645"]
        path = tmp_path / "table.csv"
        write_risk_csv(path, ests, grid)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        back = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(back, matrix)


def quad_risk(est, a):
    """E (a_hat(Z) - a)^2, Z ~ N(a, 1), by adaptive quadrature over
    [a - 12, a + 12], split at the rule's knots and at the integers."""

    def integrand(z):
        a_hat = float(np.asarray(est.a_fn(np.array([z])))[0])
        return (a_hat - a) ** 2 * math.exp(-0.5 * (z - a) ** 2) / math.sqrt(2.0 * math.pi)

    lo, hi = a - 12.0, a + 12.0
    inner = [k for k in est.knots if lo < k < hi] + list(range(math.ceil(lo), math.ceil(hi)))
    edges = sorted({lo, hi, *map(float, inner)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return math.fsum(
            integrate.quad(integrand, left, right, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
            for left, right in zip(edges[:-1], edges[1:])
        )


class TestSharedQuadratureNodes:
    """A risk curve integrates every shift on one lattice of knot-split
    Gauss-Legendre panels and calls its rule once per lattice node."""

    @pytest.mark.parametrize("name", estimator_names())
    def test_matches_adaptive_quadrature(self, name):
        est = parse_estimator(name)
        for a in (0.0, 1.4, 3.0, 5.0):
            assert abs(risk_numeric(est, a) - quad_risk(est, a)) <= 1e-12, (name, a)

    @pytest.mark.parametrize("name", ["eb", "qhat", "pretest", "bickel"])
    def test_each_lattice_node_is_evaluated_once(self, name):
        est = parse_estimator(name)
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return est.a_fn(z)

        risk_profile(dataclasses.replace(est, a_fn=counted))
        # [-8, 14] in 11 panels of 60 nodes, plus one panel per knot inside
        assert sum(sizes) == 60 * (11 + len(est.knots))
        assert max(sizes) <= 500

    @pytest.mark.parametrize("name", ["eb", "qhat", "pretest-10", "mlplus", "bickel"])
    def test_a_shift_does_not_depend_on_the_grid(self, name):
        est = parse_estimator(name)
        grid = np.concatenate([default_grid(), [-3.3, 40.0, 7.25, 0.0, -0.05, 1e4]])
        order = np.random.default_rng(5).permutation(grid.size)
        single = np.array([risk_numeric(est, a) for a in grid])
        assert np.allclose(risk_profile(est, grid).values, single, rtol=1e-13, atol=0.0)
        assert np.allclose(risk_numeric(est, grid[order]), single[order], rtol=1e-13, atol=0.0)
        single = np.array([l1_risk(est, a, 0.7) for a in grid])
        profile = risk_profile(est, grid, loss="l1", rho=0.7)
        assert np.allclose(profile.values, single, rtol=1e-13, atol=0.0)

    def test_memory_does_not_grow_with_the_grid(self):
        tracemalloc.start()
        try:
            risk_profile(bickel(), np.linspace(0.0, 2000.0, 20001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_shifts_too_large_to_resolve_are_rejected(self):
        for a in (2.0**52, -1e20, math.inf, math.nan):
            with pytest.raises(NumericsError, match="2\\^52"):
                risk_numeric(pretest(1.0), np.array([0.0, a]))


class TestTailBehaviour:
    def test_soft_threshold_tail_reaches_its_limit(self):
        m = 0.502
        value = float(risk_numeric(efron_morris(m), 50.0))
        assert abs(value - (1.0 + m * m)) < 1e-3

    def test_smooth_threshold_tail_at_a50(self):
        # For z - m(2/pi)arctan z, Stein's identity gives
        # R(a) = 1 + m^2 - 4m^2/(pi*a) + O(1/a^2): at a = 50 the rule is still
        # ~6.4e-3 short of its limit 1 + m^2 (R(50) = 1.24537007859885, as a
        # scipy quad oracle confirms to 1e-15), so a = 50 is checked against
        # the asymptote and the bare limit at a = 500.
        m = 0.502
        rule = atan_shrink(m)
        at_50 = float(risk_numeric(rule, 50.0))
        assert abs(at_50 - (1.0 + m * m - 4.0 * m * m / (math.pi * 50.0))) < 1e-3
        at_500 = float(risk_numeric(rule, 500.0))
        assert abs(at_500 - (1.0 + m * m)) < 1e-3

    def test_eb_risk_crosses_one_exactly_once(self):
        crossings = level_crossings(eb(), 1.0)
        assert len(crossings) == 1


class TestCrossings:
    def test_polynomial_crossing(self):
        found = crossing_points(lambda x: x * x - 1.0, lambda x: 0.0, 0.0, 5.0)
        assert len(found) == 1
        assert found[0] == pytest.approx(1.0, abs=2e-6)

    def test_narrow_wide_cross_at_one(self):
        found = risk_crossings(narrow_rule(), wide_rule())
        assert len(found) == 1
        assert found[0] == pytest.approx(1.0, abs=1e-5)

    def test_frozen_crossings(self):
        found = risk_crossings(narrow_rule(), eb())
        assert len(found) == 1
        assert found[0] == pytest.approx(0.8397134399414061, abs=2e-6)
        found = level_crossings(eb(), 1.0)
        assert found[0] == pytest.approx(1.449441223144531, abs=2e-6)


class TestAbsoluteError:
    def test_mean_abs_normal_values(self):
        assert mean_abs_normal(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-14)
        assert mean_abs_normal(0.0) == pytest.approx(0.7978845608028654, abs=1e-14)
        assert mean_abs_normal(8.0) == pytest.approx(8.0, abs=1e-13)
        x = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(mean_abs_normal(x), mean_abs_normal(-x), atol=1e-14)

    def test_narrow_rule_reduces_to_shifted_mean(self):
        for rho in (0.3, 1.0, 2.0):
            for a in (0.0, 0.7, 2.2):
                assert l1_risk(narrow_rule(), a, rho) == pytest.approx(
                    mean_abs_normal(rho * a), abs=1e-12
                )

    def test_wide_rule_is_constant(self):
        for rho in (0.5, 1.0, 3.0):
            want = math.sqrt(1.0 + rho * rho) * math.sqrt(2.0 / math.pi)
            for a in (0.0, 1.0, 3.0):
                assert l1_risk(wide_rule(), a, rho) == pytest.approx(want, abs=1e-9)

    def test_tolerance_frozen_values(self):
        assert l1_tolerance(0.5) == pytest.approx(0.9813981288753668, abs=1e-9)
        assert l1_tolerance(1.0) == pytest.approx(0.942786679392134, abs=1e-9)
        assert l1_tolerance(2.0) == pytest.approx(0.8759654536206426, abs=1e-9)
        assert l1_tolerance(5.0) == pytest.approx(0.8136836831173014, abs=1e-9)
        assert l1_tolerance(50.0) == pytest.approx(0.7980441217605175, abs=1e-9)

    def test_tolerance_limits(self):
        assert l1_tolerance(0.0) == 1.0
        assert abs(l1_tolerance(1e-3) - 1.0) < 1e-5
        floor = math.sqrt(2.0 / math.pi)
        values = [l1_tolerance(r) for r in (0.5, 1.0, 2.0, 5.0, 50.0)]
        assert all(v > floor for v in values)
        assert all(x > y for x, y in zip(values[:-1], values[1:]))

    def test_tolerance_satisfies_defining_equation(self):
        for rho in (0.5, 2.0, 10.0):
            a0 = l1_tolerance(rho)
            target = math.sqrt(1.0 + rho * rho) * math.sqrt(2.0 / math.pi)
            assert mean_abs_normal(rho * a0) == pytest.approx(target, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            l1_risk(eb(), 1.0, -0.5)
        with pytest.raises(ValueError):
            l1_tolerance(-1.0)
        with pytest.raises(ValueError):
            risk_profile(eb(), loss="l1")  # rho is required
        with pytest.raises(ValueError):
            risk_profile(eb(), loss="huber")


class TestIntervals:
    def test_coverage_values(self):
        z90 = float(std_normal_quantile(0.95))
        assert ci_coverage(0.0, z90) == pytest.approx(0.90, abs=1e-12)
        assert ci_coverage(0.54, z90) == pytest.approx(0.8509387001948489, abs=1e-12)
        assert ci_coverage(0.77, z90) == pytest.approx(0.8013024559819973, abs=1e-12)
        assert ci_coverage(-0.54, z90) == pytest.approx(ci_coverage(0.54, z90), abs=1e-14)
        shifts = np.linspace(0.0, 3.0, 7)
        covs = [ci_coverage(s, z90) for s in shifts]
        assert all(x > y for x, y in zip(covs[:-1], covs[1:]))
        with pytest.raises(ValueError):
            ci_coverage(0.0, -1.0)

    def test_interval_risk_structure(self):
        model = get_model("weibull-vs-exp")
        geom = limit_geometry(model, model.default_design(100))
        at_null = interval_risk(geom, 0.0)
        assert at_null["narrow"] == pytest.approx(0.10, abs=1e-12)
        assert at_null["wide"] == pytest.approx(0.10, abs=1e-12)
        assert isinstance(at_null["narrow"], float)
        at_border = interval_risk(geom, geom.kappa)
        assert at_border["narrow"] == pytest.approx(0.16353859447813912, abs=1e-10)
        assert at_border["wide"] == pytest.approx(0.10, abs=1e-12)
        far = interval_risk(geom, 5.0 * geom.kappa)
        assert far["narrow"] > at_border["narrow"] > at_null["narrow"]

    def test_interval_risk_length_penalty(self):
        model = get_model("weibull-vs-exp")
        geom = limit_geometry(model, model.default_design(100))
        w = 0.25
        z90 = float(std_normal_quantile(0.95))
        bare = interval_risk(geom, 1.0)
        priced = interval_risk(geom, 1.0, length_weight=w)
        assert priced["narrow"] - bare["narrow"] == pytest.approx(
            2.0 * w * z90 * geom.tau0, rel=1e-12
        )
        assert priced["wide"] - bare["wide"] == pytest.approx(
            2.0 * w * z90 * geom.tau, rel=1e-12
        )

    def test_validation(self):
        model = get_model("weibull-vs-exp")
        geom = limit_geometry(model, model.default_design(10))
        with pytest.raises(ValueError):
            interval_risk(geom, 0.0, level=1.0)
        with pytest.raises(ValueError):
            interval_risk(geom, 0.0, length_weight=-0.1)


class TestLimitMse:
    def test_narrow_and_wide_reduce_to_geometry(self):
        model = get_model("weibull-vs-exp")
        geom = limit_geometry(model, model.default_design(100))
        for delta in (0.0, 0.4, 1.1):
            narrow = limit_mse(geom, narrow_rule(), delta)
            assert narrow == pytest.approx(
                geom.tau0_sq + geom.bias_slope**2 * delta**2, rel=1e-9
            )
            wide = limit_mse(geom, wide_rule(), delta)
            assert wide == pytest.approx(geom.tau_sq, rel=1e-9)

    def test_compromise_sits_between_at_null(self):
        model = get_model("weibull-vs-exp")
        geom = limit_geometry(model, model.default_design(100))
        value = limit_mse(geom, eb(), 0.0)
        assert geom.tau0_sq < value < geom.tau_sq

    def test_grid_default(self):
        grid = default_grid()
        assert grid[0] == 0.0 and grid[-1] == 5.0 and grid.size == 101


def test_parse_estimator_integrates_with_risk():
    est = parse_estimator("efron_morris:m=0.502")
    direct = efron_morris(0.502)
    a = np.linspace(0.0, 3.0, 7)
    assert np.allclose(risk_numeric(est, a), risk_numeric(direct, a), atol=0.0)
