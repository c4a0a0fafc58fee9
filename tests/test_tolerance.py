import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ncx2

from mistol.models import get_model, information_at_null
from mistol.numerics import PartitionedInfo, std_normal_cdf
from mistol.tolerance import (
    POWER_LEVELS,
    aic_narrow_prob,
    border_distances,
    danger_index,
    detection_power,
    kappa,
    kappa_squared_block,
    narrow_better,
    schwarz_narrow_prob,
    tolerance_report,
)


def info_for(name, n=100, **design_kw):
    model = get_model(name)
    return model, information_at_null(model, model.default_design(n, **design_kw))


def weibull_kappa_by_quadrature():
    """kappa for the shape departure from scratch, via adaptive quadrature.

    Narrow score U = 1 - w and departure score V = 1 + log w - w log w
    under the unit exponential; kappa^-2 is the Schur complement.
    """

    def v(w):
        return 1.0 + math.log(w) - w * math.log(w)

    j11 = quad(lambda w: (1.0 - w) ** 2 * math.exp(-w), 0, np.inf, limit=200)[0]
    j12 = quad(lambda w: (1.0 - w) * v(w) * math.exp(-w), 0, np.inf, limit=200)[0]
    j22 = quad(lambda w: v(w) ** 2 * math.exp(-w), 0, np.inf, limit=200)[0]
    return 1.0 / math.sqrt(j22 - j12 * j12 / j11)


class TestKappaGoldens:
    def test_weibull_against_quadrature_oracle(self):
        _, info = info_for("weibull-vs-exp")
        assert float(kappa(info)) == pytest.approx(weibull_kappa_by_quadrature(), abs=1e-9)

    def test_weibull_frozen(self):
        _, info = info_for("weibull-vs-exp")
        assert float(kappa(info)) == pytest.approx(0.7796968012336761, abs=1e-10)

    def test_gamma_closed_form(self):
        # kappa^-2 = psi'(1) - 1 = pi^2/6 - 1 for the shape departure
        _, info = info_for("gamma-vs-exp")
        assert float(kappa(info)) == pytest.approx(
            1.0 / math.sqrt(math.pi**2 / 6.0 - 1.0), abs=1e-12
        )
        assert float(kappa(info)) == pytest.approx(1.2452092582094105, abs=1e-10)

    def test_transform_constant_frozen(self):
        _, info = info_for("transform-constant")
        assert float(kappa(info)) == pytest.approx(12.087930127865954, abs=1e-9)

    def test_transform_regression_frozen(self):
        # centering the design zeroes the slope cross-information, so
        # kappa depends only on the sigma-power constant b
        from mistol.models import transformation_constants

        _, b = transformation_constants()
        _, info = info_for("transform-regression")
        assert float(kappa(info)) == pytest.approx(1.0 / math.sqrt(1.0 - b * b / 2.0), abs=1e-12)
        assert float(kappa(info)) == pytest.approx(1.1025625589167878, abs=1e-10)

    def test_two_sample_balanced(self):
        _, info = info_for("two-sample", n=50)
        assert float(kappa(info)) ** 2 == pytest.approx(8.0, abs=1e-12)

    def test_two_sample_unbalanced(self):
        # r = 50/150: kappa^2 = 2 / (r (1-r)) = 9
        _, info = info_for("two-sample", n=50, m=100)
        assert float(kappa(info)) ** 2 == pytest.approx(9.0, abs=1e-12)

    def test_kappa_is_scale_free_in_rate(self):
        for rate in (0.25, 1.0, 4.0):
            model = get_model("weibull-vs-exp", rate=rate)
            info = information_at_null(model, model.default_design(10))
            assert float(kappa(info)) == pytest.approx(0.7796968012336761, abs=1e-10)


class TestDangerIndex:
    def test_frozen_values(self):
        _, info = info_for("weibull-vs-exp")
        d, rho2 = danger_index(info)
        assert d == pytest.approx(1.108664898859527, abs=1e-10)
        assert rho2 == pytest.approx(0.09801419614827656, abs=1e-10)
        _, info = info_for("gamma-vs-exp")
        d, rho2 = danger_index(info)
        assert d == pytest.approx(2.5505460967304305, abs=1e-10)
        assert rho2 == pytest.approx(0.6079271018540267, abs=1e-10)

    def test_rho2_is_max_squared_correlation(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((6, 4))
        full = base.T @ base + 4.0 * np.eye(4)
        info = PartitionedInfo(full, 3)
        d, rho2 = danger_index(info)
        # squared correlation of V with the best linear combination t'U,
        # which is t* = J11^{-1} J12
        t = np.linalg.solve(info.j11, info.j12[:, 0])
        cov = float(t @ info.j12[:, 0])
        var_t = float(t @ info.j11 @ t)
        corr2 = cov**2 / (var_t * float(info.j22[0, 0]))
        assert rho2 == pytest.approx(corr2, abs=1e-12)
        assert d == pytest.approx(1.0 / (1.0 - rho2), abs=1e-12)

    def test_needs_scalar_departure(self):
        full = np.eye(4) * 2.0
        info = PartitionedInfo(full, 2)
        with pytest.raises(ValueError):
            danger_index(info)


class TestNarrowBetter:
    def test_scalar_boundary_inclusive(self):
        _, info = info_for("weibull-vs-exp")
        k = float(kappa(info))
        assert narrow_better(info, k)
        assert narrow_better(info, -k)
        assert narrow_better(info, 0.0)
        assert not narrow_better(info, k + 1e-9)
        assert not narrow_better(info, -(k + 1e-9))

    def test_ellipsoid_boundary(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((7, 5))
        full = base.T @ base + 5.0 * np.eye(5)
        info = PartitionedInfo(full, 3)
        block = kappa_squared_block(info)
        direction = np.array([1.0, -2.0])
        scale = math.sqrt(float(direction @ np.linalg.solve(block, direction)))
        boundary = direction / scale
        assert narrow_better(info, boundary)
        assert narrow_better(info, 0.999999 * boundary)
        assert not narrow_better(info, 1.000001 * boundary)

    def test_band_with_estimand_direction(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((7, 5))
        full = base.T @ base + 5.0 * np.eye(5)
        info = PartitionedInfo(full, 3)
        block = kappa_squared_block(info)
        b = np.array([0.7, -0.3])
        width = math.sqrt(float(b @ block @ b))
        along = b * width / float(b @ b)
        assert narrow_better(info, along * (1.0 - 1e-9), estimand_gradient_b=b)
        assert not narrow_better(info, along * 1.000001, estimand_gradient_b=b)
        # sliding far along the orthogonal direction stays inside the band
        perp = np.array([0.3, 0.7])
        assert narrow_better(info, 50.0 * perp, estimand_gradient_b=b)

    def test_shape_errors(self):
        _, info = info_for("weibull-vs-exp")
        with pytest.raises(ValueError):
            narrow_better(info, [1.0, 2.0])


class TestBorderDistances:
    def test_leading_order_identities(self):
        model, info = info_for("weibull-vs-exp")
        n = 100
        k = float(kappa(info))
        d, _ = danger_index(info)
        kl, l1, wl2 = border_distances(model, info, n, k)
        # at the border, delta^2 J22 equals the danger index
        assert kl == pytest.approx(d / (2.0 * n), rel=1e-12)
        assert wl2 == pytest.approx(2.0 * kl, rel=1e-12)
        assert l1 == pytest.approx(k / math.sqrt(n) * 0.924742583657, rel=5e-4)
        # E0|V| itself is close to 0.923
        assert abs(l1 / (k / math.sqrt(n)) - 0.923) < 2e-3

    def test_scaling_in_n(self):
        model, info = info_for("weibull-vs-exp")
        kl1, l11, wl21 = border_distances(model, info, 100, 0.5)
        kl2, l12, wl22 = border_distances(model, info, 400, 0.5)
        assert kl2 == pytest.approx(kl1 / 4.0, rel=1e-9)
        assert wl22 == pytest.approx(wl21 / 4.0, rel=1e-9)
        assert l12 == pytest.approx(l11 / 2.0, rel=1e-9)

    def test_validation(self):
        model, info = info_for("weibull-vs-exp")
        with pytest.raises(ValueError):
            border_distances(model, info, 0, 1.0)


class TestDetectionPower:
    def test_frozen_border_values(self):
        assert detection_power(1.0, 0.01) == pytest.approx(0.05770713327902777, abs=1e-12)
        assert detection_power(1.0, 0.05) == pytest.approx(0.1700750457530873, abs=1e-12)
        assert detection_power(1.0, 0.10) == pytest.approx(0.26359733590147705, abs=1e-12)
        assert detection_power(1.0, 0.20) == pytest.approx(0.4004016061579698, abs=1e-12)

    def test_matches_two_sided_normal_test(self):
        for a in (0.0, 0.5, 1.0, 2.0, 3.5):
            for level in (0.01, 0.05, 0.10, 0.20):
                cut = -float(std_normal_quantile_half(level))
                direct = float(std_normal_cdf(-cut + a)) + float(std_normal_cdf(-cut - a))
                assert detection_power(a, level) == pytest.approx(direct, abs=1e-11)

    def test_multidirection_against_scipy(self):
        assert detection_power(1.0, 0.05, q=2) == pytest.approx(
            0.13271001423251672, abs=1e-10
        )
        assert detection_power(1.0, 0.05, q=3) == pytest.approx(
            0.11565883736603588, abs=1e-10
        )
        for q in (2, 3, 5):
            for a in (0.5, 1.0, 2.0):
                cut = float(ncx2.ppf(0.95, q, 0.0))
                assert detection_power(a, 0.05, q=q) == pytest.approx(
                    float(ncx2.sf(cut, q, a * a)), abs=1e-9
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            detection_power(1.0, 0.0)
        with pytest.raises(ValueError):
            detection_power(1.0, 1.0)
        with pytest.raises(ValueError):
            detection_power(-0.5, 0.05)


def std_normal_quantile_half(level):
    from mistol.numerics import std_normal_quantile

    return std_normal_quantile(level / 2.0)


class TestSelectionProbabilities:
    def test_aic_null_closed_forms(self):
        assert aic_narrow_prob(0.0, 1) == pytest.approx(math.erf(1.0), abs=1e-13)
        assert aic_narrow_prob(0.0, 2) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-13)
        q3 = 2.0 * float(std_normal_cdf(math.sqrt(6.0))) - 1.0
        q3 -= math.sqrt(12.0 / math.pi) * math.exp(-3.0)
        assert aic_narrow_prob(0.0, 3) == pytest.approx(q3, abs=1e-13)
        assert aic_narrow_prob(0.0, 4) == pytest.approx(
            1.0 - 5.0 * math.exp(-4.0), abs=1e-13
        )

    def test_aic_border_frozen(self):
        assert aic_narrow_prob(1.0, 1) == pytest.approx(0.6527565366822701, abs=1e-12)
        assert aic_narrow_prob(1.0, 2) == pytest.approx(0.7309879399640898, abs=1e-12)
        assert aic_narrow_prob(1.0, 3) == pytest.approx(0.7876251082686699, abs=1e-12)
        assert aic_narrow_prob(1.0, 4) == pytest.approx(0.8300423468332151, abs=1e-12)

    def test_aic_border_q1_normal_oracle(self):
        # Pr{chi2_1(1) <= 2} = Pr{|Z + 1| <= sqrt(2)}
        want = float(std_normal_cdf(math.sqrt(2.0) - 1.0)) - float(
            std_normal_cdf(-math.sqrt(2.0) - 1.0)
        )
        assert aic_narrow_prob(1.0, 1) == pytest.approx(want, abs=1e-13)

    def test_schwarz_frozen_and_oracle(self):
        got = schwarz_narrow_prob(1.0, 1, 100)
        assert got == pytest.approx(0.8732676990448652, abs=1e-12)
        c = math.sqrt(math.log(100.0))
        want = float(std_normal_cdf(c - 1.0)) - float(std_normal_cdf(-c - 1.0))
        assert got == pytest.approx(want, abs=1e-13)

    def test_schwarz_keeps_more_than_aic_for_large_n(self):
        assert schwarz_narrow_prob(1.0, 1, 1000) > aic_narrow_prob(1.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            aic_narrow_prob(-1.0, 1)
        with pytest.raises(ValueError):
            schwarz_narrow_prob(1.0, 1, 1)


class TestToleranceReport:
    def test_weibull_report_values(self):
        model = get_model("weibull-vs-exp")
        report = tolerance_report(model, model.default_design(100))
        assert report.model == "weibull-vs-exp"
        assert report.n == 100
        assert report.radius == pytest.approx(report.kappa / 10.0, rel=1e-15)
        assert report.kappa == pytest.approx(0.7796968012336761, abs=1e-10)
        assert report.danger == pytest.approx(1.108664898859527, abs=1e-10)
        assert report.power_at_border == {
            level: detection_power(1.0, level) for level in POWER_LEVELS
        }
        assert report.aic_null == aic_narrow_prob(0.0, 1)
        assert report.aic_border == aic_narrow_prob(1.0, 1)

    def test_lines_render_plain_floats(self):
        model = get_model("weibull-vs-exp")
        report = tolerance_report(model, model.default_design(50))
        lines = list(report.lines())
        assert lines[0] == "model: weibull-vs-exp"
        assert lines[1] == "n: 50"
        assert any(line.startswith("tolerance radius kappa/sqrt(n): ") for line in lines)
        for line in lines:
            assert "np.float64" not in line
            assert "numpy" not in line

    def test_rejects_multidirection_models(self):
        model = get_model("weibull-vs-exp")
        # fake a two-direction model by reusing the builder with a patched
        # information routine is overkill; the guard is on info.q
        design = model.default_design(20)
        report = tolerance_report(model, design)
        assert report.n == 20

