"""Acceptance gate.

One test per numbered criterion. Every test prints a single verdict line
(run pytest with -s to watch them stream) and then asserts that all of its
clauses hold inside the stated runtime budget.

Two targets are closed forms or oracle values rather than rounded table
entries:

* Weibull-vs-exponential kappa (criterion 01). At shape 1 the profile
  information for the Weibull shape is pi^2/6, so kappa^2 = 6/pi^2 and
  kappa = sqrt(6)/pi = 0.7796968...; the same information gives the
  danger index d = 1 + 6(1 - gamma_E)^2/pi^2 of criterion 02.
* The level-1 crossing of the empirical-Bayes risk (criterion 07). An
  independent oracle (scipy quad for E(Z^3/(1+Z^2) - a)^2 with
  Z ~ N(a, 1), then brentq) puts it at a = 1.4494411. On the default
  0.05 grid it lies between 1.40 (risk 0.97825) and 1.45 (risk 1.00024).
"""

import csv
import math
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mistol import mcstudy, risk, tolerance
from mistol.estimators import parse_estimator
from mistol.models import get_model, information_at_null, uniform_grid_design

WEIBULL_KAPPA = 0.7796968012336761
WEIBULL_TAU_SQ = 0.6624162336000172


def model_kappa(name, design_n=100, design=None, **params):
    model = get_model(name, **params)
    if design is None:
        design = model.default_design(design_n)
    return float(tolerance.kappa(information_at_null(model, design)))


def verdict(number, clauses, started, budget):
    elapsed = time.perf_counter() - started
    failing = [label for label, ok in clauses if not ok]
    if elapsed >= budget:
        failing.append(f"runtime {elapsed:.2f}s over {budget:g}s budget")
    status = "PASS" if not failing else "FAIL"
    detail = f"{len(clauses)} clauses in {elapsed:.2f}s"
    if failing:
        detail += "; failing: " + "; ".join(failing)
    print(f"[criterion {number:02d}] {status} ({detail})")
    assert not failing, detail


def test_criterion_01_kappa_golden_values():
    t0 = time.perf_counter()
    kap_w = model_kappa("weibull-vs-exp")
    kap_g = model_kappa("gamma-vs-exp")
    kap_tc = model_kappa("transform-constant")
    kap_tr = model_kappa("transform-regression")
    ts = get_model("two-sample")
    ksq_even = model_kappa("two-sample", design=ts.default_design(50)) ** 2
    ksq_skew = model_kappa("two-sample", design=ts.default_design(50, m=100)) ** 2
    r = 100.0 / 150.0
    clauses = [
        (
            f"weibull kappa {kap_w:.6f} = sqrt(6)/pi",
            abs(kap_w - math.sqrt(6.0) / math.pi) <= 1e-10,
        ),
        (f"gamma kappa {kap_g:.6f} = 1.2450 +/- 5e-4", abs(kap_g - 1.2450) <= 5e-4),
        ("two-sample even split kappa^2 = 8", abs(ksq_even - 8.0) <= 1e-10),
        (
            "two-sample 100/50 kappa^2 = 2/(r(1-r))",
            abs(ksq_skew - 2.0 / (r * (1.0 - r))) <= 1e-10,
        ),
        (
            f"transform constant-mean kappa {kap_tc:.4f} = 12.090 +/- 0.01",
            abs(kap_tc - 12.090) <= 0.01,
        ),
        (
            f"transform regression kappa {kap_tr:.4f} = 1.103 +/- 1e-3",
            abs(kap_tr - 1.103) <= 1e-3,
        ),
    ]
    verdict(1, clauses, t0, budget=1.0)


def test_criterion_02_danger_indices():
    t0 = time.perf_counter()
    clauses = []
    for name, want_d, want_rho2 in (
        ("weibull-vs-exp", 1.109, 0.098),
        ("gamma-vs-exp", 2.551, 0.608),
    ):
        model = get_model(name)
        d, rho2 = tolerance.danger_index(
            information_at_null(model, model.default_design(100))
        )
        clauses.append((f"{name} d {d:.4f} = {want_d} +/- 1e-3", abs(d - want_d) <= 1e-3))
        clauses.append(
            (f"{name} rho^2 {rho2:.4f} = {want_rho2} +/- 1e-3", abs(rho2 - want_rho2) <= 1e-3)
        )
    verdict(2, clauses, t0, budget=1.0)


def test_criterion_03_regression_asymptotics():
    t0 = time.perf_counter()
    n = 10**4
    clauses = []
    for sigma, b in ((1.0, 1.0), (1.5, 2.0)):
        kap = model_kappa(
            "linreg-quadratic", sigma=sigma, design=uniform_grid_design(n, b)
        )
        want = math.sqrt(80.0) * sigma / b**2
        clauses.append(
            (
                f"quadratic-term kappa (sigma={sigma}, b={b}) {kap:.4f} vs {want:.4f}",
                abs(kap - want) <= 0.005 * want,
            )
        )
    for b in (1.0, 3.0):
        kap = model_kappa("varhet-regression", design=uniform_grid_design(n, b))
        want = math.sqrt(24.0) / b
        clauses.append(
            (
                f"variance-heterogeneity kappa (b={b}) {kap:.4f} vs {want:.4f}",
                abs(kap - want) <= 0.005 * want,
            )
        )
    verdict(3, clauses, t0, budget=5.0)


def test_criterion_04_risk_table_matches_recorded_values():
    t0 = time.perf_counter()
    specs = (
        "wide", "narrow", "eb", "qhat:eps=0.05",
        "pretest:m=1", "efron_morris:m=0.502", "atan:m=0.502",
    )
    ests = [parse_estimator(s) for s in specs]
    grid = risk.default_grid()
    header, matrix = risk.risk_table(ests, grid)
    with open(Path(__file__).parent / "data" / "risk_table_expected.csv") as fh:
        rows = list(csv.reader(fh))
    expected = np.array([[float(v) for v in row] for row in rows[1:]])
    computed = np.asarray(matrix)
    assert computed.shape == expected.shape == (101, 8)
    worst = float(np.max(np.abs(computed - expected)))
    eb_col = computed[:, 3]
    at_max = int(np.argmax(eb_col))
    clauses = [
        (
            f"all {expected[:, 1:].size} table entries within 2e-3 (worst {worst:.2e})",
            worst <= 2e-3,
        ),
        (f"max eb risk {eb_col[at_max]:.5f} = 1.2518 +/- 2e-3",
         abs(eb_col[at_max] - 1.2518) <= 2e-3),
        (f"eb risk peaks at a = {grid[at_max]:.2f}", abs(grid[at_max] - 2.70) <= 1e-9),
        (f"eb risk at 0 {eb_col[0]:.5f} = 0.4670 +/- 2e-3",
         abs(eb_col[0] - 0.4670) <= 2e-3),
    ]
    verdict(4, clauses, t0, budget=30.0)


def test_criterion_05_closed_form_matches_quadrature():
    t0 = time.perf_counter()
    cases = (
        ("pretest", "pretest:m=1"),
        ("restricted", "restricted:m=1"),
        ("efron_morris", "efron_morris:m=0.502"),
    )
    clauses = []
    for kind, spec in cases:
        est = parse_estimator(spec)
        m = dict(est.params)["m"]
        worst = max(
            abs(risk.risk_closed_form(kind, a, m=m) - risk.risk_numeric(est, a))
            for a in np.linspace(0.0, 5.0, 11)
        )
        clauses.append(
            (f"{spec} closed vs quadrature worst gap {worst:.2e}", worst <= 1e-6)
        )
    verdict(5, clauses, t0, budget=5.0)


def test_criterion_06_selection_and_power_constants():
    t0 = time.perf_counter()
    clauses = []
    for level, want in ((0.01, 0.057), (0.05, 0.170), (0.10, 0.264), (0.20, 0.400)):
        got = tolerance.detection_power(1.0, level, 1)
        clauses.append(
            (f"power(a=1, {level:g}) {got:.4f} = {want} +/- 1e-3", abs(got - want) <= 1e-3)
        )
    for q, at_null, at_border in (
        (1, 0.843, 0.653),
        (2, 0.865, 0.731),
        (3, 0.888, 0.788),
        (4, 0.908, 0.830),
    ):
        got0 = tolerance.aic_narrow_prob(0.0, q)
        got1 = tolerance.aic_narrow_prob(1.0, q)
        clauses.append(
            (f"aic narrow prob (q={q}, a=0) {got0:.4f} = {at_null}", abs(got0 - at_null) <= 1e-3)
        )
        clauses.append(
            (f"aic narrow prob (q={q}, border) {got1:.4f} = {at_border}",
             abs(got1 - at_border) <= 1e-3)
        )
    for q, want in ((2, 0.133), (3, 0.116)):
        got = tolerance.detection_power(1.0, 0.05, q)
        clauses.append(
            (f"border power (q={q}, 5%) {got:.4f} = {want} +/- 1e-3", abs(got - want) <= 1e-3)
        )
    verdict(6, clauses, t0, budget=1.0)


def test_criterion_07_crossing_points():
    t0 = time.perf_counter()
    narrow = parse_estimator("narrow")
    wide = parse_estimator("wide")
    eb = parse_estimator("eb")
    nw = risk.risk_crossings(narrow, wide)
    ne = risk.risk_crossings(narrow, eb)
    eb_one = risk.level_crossings(eb, 1.0)
    # the default-grid points 1.40 and 1.45 bracket the level-1 crossing
    eb_below, eb_above = risk.risk_numeric(eb, risk.default_grid()[28:30])
    clauses = [
        ("narrow/wide risks cross exactly once", len(nw) == 1),
        (f"narrow/wide crossing {nw[0]:.4f} = 1.000 +/- 1e-3", abs(nw[0] - 1.0) <= 1e-3),
        (f"narrow/eb crossing {ne[0]:.4f} = 0.84 +/- 0.01", abs(ne[0] - 0.84) <= 0.01),
        ("eb risk reaches 1 exactly once", len(eb_one) == 1),
        (f"eb risk crosses 1 at {eb_one[0]:.4f} = 1.4494 +/- 1e-3",
         abs(eb_one[0] - 1.4494) <= 1e-3),
        (f"eb risk {eb_below:.5f} at 1.40 below 1 and {eb_above:.5f} at 1.45 above 1",
         eb_below < 1.0 < eb_above),
    ]
    verdict(7, clauses, t0, budget=10.0)


def test_criterion_08_absolute_error_analysis():
    t0 = time.perf_counter()
    l0 = risk.mean_abs_normal(0.0)
    a0 = [risk.l1_tolerance(r) for r in (0.0, 1.0, 5.0, 50.0)]
    clauses = [
        (f"mean absolute error at 0 {l0:.5f} = 0.7979 +/- 1e-4", abs(l0 - 0.7979) <= 1e-4),
        (f"a0(0) {a0[0]:.4f} = 1.000 +/- 1e-3", abs(a0[0] - 1.0) <= 1e-3),
        ("a0 strictly decreasing over rho in (0, 1, 5, 50)",
         a0[0] > a0[1] > a0[2] > a0[3]),
        (f"a0(50) {a0[3]:.4f} approaches 0.798", abs(a0[3] - 0.798) <= 1e-3),
    ]
    verdict(8, clauses, t0, budget=5.0)


def test_criterion_09_coverage_thresholds():
    t0 = time.perf_counter()
    halfwidth = 1.6448536269514722  # 90% two-sided normal interval
    c85 = risk.ci_coverage(0.54, halfwidth)
    c80 = risk.ci_coverage(0.77, halfwidth)
    clauses = [
        (f"coverage at shift 0.54 {c85:.4f} = 0.85 +/- 5e-3", abs(c85 - 0.85) <= 5e-3),
        (f"coverage at shift 0.77 {c80:.4f} = 0.80 +/- 5e-3", abs(c80 - 0.80) <= 5e-3),
    ]
    verdict(9, clauses, t0, budget=1.0)


def test_criterion_10_monte_carlo_verification():
    t0 = time.perf_counter()
    model = get_model("weibull-vs-exp")
    fractions = (0.0, 0.3, 0.6, 0.8, 0.95, 1.1, 1.3, 1.5)
    cross_cfg = mcstudy.StudyConfig(
        model=model,
        delta_grid=tuple(round(WEIBULL_KAPPA * f, 10) for f in fractions),
        n_list=(500,),
        replications=2000,
        seed=7,
        estimators=("narrow", "wide"),
        workers=4,
    )
    cross_res = mcstudy.finite_sample_mse(cross_cfg)
    (n_at, crossing), = cross_res.crossings

    kappa_cfg = mcstudy.StudyConfig(
        model=model, n_list=(200,), replications=2000, seed=7,
        kappa_method="gamma-sd",
    )
    ks = mcstudy.kappa_by_simulation(kappa_cfg)

    debias_cfg = mcstudy.StudyConfig(
        model=model, delta_grid=(0.0,), n_list=(1000,), replications=2000,
        seed=7, estimators=("debias",), workers=4,
    )
    debias_res = mcstudy.finite_sample_mse(debias_cfg)
    row = next(r for r in debias_res.rows if r[2] == "debias")
    nmse, se = row[3], row[4]

    clauses = [
        ("crossing study ran at n=500", n_at == 500),
        (
            f"empirical nMSE crossing {crossing:.4f} inside "
            f"[{0.8 * WEIBULL_KAPPA:.4f}, {1.2 * WEIBULL_KAPPA:.4f}]",
            0.8 * WEIBULL_KAPPA <= crossing <= 1.2 * WEIBULL_KAPPA,
        ),
        (
            f"simulated kappa {ks.kappa:.4f} within 3 SE ({3 * ks.se:.4f}) of 0.779",
            abs(ks.kappa - 0.779) <= 3.0 * ks.se,
        ),
        (
            f"debias nMSE at delta=0 {nmse:.4f} within 3 SE ({3 * se:.4f}) "
            f"of tau^2 {WEIBULL_TAU_SQ:.4f}",
            abs(nmse - WEIBULL_TAU_SQ) <= 3.0 * se,
        ),
        ("no worker process outlives the studies", multiprocessing.active_children() == []),
    ]
    verdict(10, clauses, t0, budget=300.0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()

    def simulate(tag, body, *extra):
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(body + f"out = {tmp_path / tag}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mistol", "simulate", "--config", str(cfg), *extra],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return (tmp_path / f"{tag}.csv").read_bytes()

    mse = (
        "[study]\nkind = mse\nmodel = weibull-vs-exp\ndelta = 0,0.5\nn = 150\n"
        "replications = 100\nseed = 13\nestimators = narrow,wide,eb\n"
    )
    kap = (
        "[study]\nkind = kappa\nmodel = weibull-vs-exp\nkappa_method = score-cov\n"
        "n = 150\nreplications = 100\nseed = 29\n"
    )
    mse_a = simulate("mse-a", mse)
    mse_b = simulate("mse-b", mse)
    mse_c = simulate("mse-c", mse, "--workers", "3")
    kap_a = simulate("kap-a", kap)
    kap_b = simulate("kap-b", kap, "--workers", "4")
    clauses = [
        ("mse study byte-identical across repeat runs", mse_a == mse_b),
        ("mse study byte-identical at a different worker count", mse_a == mse_c),
        ("kappa study byte-identical across repeat runs and workers",
         kap_a == kap_b),
    ]
    verdict(11, clauses, t0, budget=120.0)
