import csv
import importlib.metadata
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mistol import cli, mcstudy
from mistol.estimators import compromise_estimate, estimator_names, parse_estimator
from mistol.models import get_model


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mistol", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def value_of(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + ": "):
            return line.partition(": ")[2]
    raise AssertionError(f"no line {key!r} in output:\n{stdout}")


class TestToleranceCommand:
    def test_weibull_radius(self):
        code, out, err = run_cli("tolerance", "--model", "weibull-vs-exp", "--n", "100")
        assert code == 0
        assert out.splitlines()[0] == "model: weibull-vs-exp"
        radius = float(value_of(out, "tolerance radius kappa/sqrt(n)"))
        assert radius == pytest.approx(0.07796968012336761, abs=1e-12)
        assert float(value_of(out, "kappa")) == pytest.approx(0.7796968012336761, abs=1e-12)
        assert "config: n=100" in err

    def test_two_sample_group_sizes(self):
        code, out, _ = run_cli(
            "tolerance", "--model", "two-sample", "--n", "50", "--m", "50"
        )
        assert code == 0
        radius = float(value_of(out, "tolerance radius kappa/sqrt(n)"))
        assert radius == pytest.approx(2.0 / math.sqrt(50.0), abs=1e-12)

    def test_m_rejected_elsewhere(self):
        code, _, err = run_cli(
            "tolerance", "--model", "weibull-vs-exp", "--n", "50", "--m", "10"
        )
        assert code == 2
        assert "two-sample" in err

    def test_estimand_geometry_lines(self):
        code, out, _ = run_cli(
            "tolerance", "--model", "weibull-vs-exp", "--n", "100",
            "--estimand", "median",
        )
        assert code == 0
        assert float(value_of(out, "bias slope b")) == pytest.approx(
            -0.5470991673983854, abs=1e-10
        )
        assert float(value_of(out, "narrow sd tau0")) == pytest.approx(
            math.sqrt(0.4804530139182014), abs=1e-10
        )
        assert float(value_of(out, "wide sd tau")) == pytest.approx(
            math.sqrt(0.6624162336000172), abs=1e-10
        )

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            "tolerance", "--model", "weibull-vs-exp", "--n", "25", "--out", str(path)
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert table["model"] == "weibull-vs-exp"
        assert table["n"] == "25"
        assert float(table["tolerance radius kappa/sqrt(n)"]) == pytest.approx(
            0.7796968012336761 / 5.0, abs=1e-12
        )

    def test_unknown_model_lists_names(self):
        code, _, err = run_cli("tolerance", "--model", "nope", "--n", "10")
        assert code == 2
        assert "weibull-vs-exp" in err

    @pytest.mark.parametrize("args, key", [
        (("--model", "two-sample", "--n", "50", "--m", "-3"), "--m"),
        (("--model", "two-sample", "--n", "50", "--m", "0"), "--m"),
        (("--model", "weibull-vs-exp", "--n", "0"), "--n"),
        (("--model", "two-sample", "--n", "-5"), "--n"),
    ])
    def test_non_positive_sizes_are_usage_errors(self, args, key):
        code, out, err = run_cli("tolerance", *args)
        assert code == 2
        assert f"argument {key}: must be a positive integer" in err
        assert "Traceback" not in err
        assert out == ""

    def test_model_config_file(self, tmp_path):
        cfg = tmp_path / "model.ini"
        cfg.write_text("[model]\nfamily = weibull-vs-exp\nrate = 2.0\n")
        code, out, _ = run_cli("tolerance", "--model-config", str(cfg), "--n", "100")
        assert code == 0
        # the radius is free of the rate parameter
        assert float(value_of(out, "kappa")) == pytest.approx(
            0.7796968012336761, abs=1e-10
        )
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nrate = 2.0\n")
        code, _, err = run_cli("tolerance", "--model-config", str(bad), "--n", "10")
        assert code == 2
        assert "family" in err


class TestRiskCommand:
    def test_default_table(self):
        code, out, _ = run_cli("risk")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "a,wide,narrow,eb,qhat:eps=0.05,pretest:m=1,"
            "efron_morris:m=0.502,atan:m=0.502"
        )
        assert len(lines) == 102
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[1] == pytest.approx(1.0, abs=1e-12)  # wide risk
            assert vals[2] == pytest.approx(vals[0] ** 2, abs=1e-12)  # narrow

    def test_absolute_error_wide_constant(self):
        code, out, _ = run_cli(
            "risk", "--estimator", "wide", "--grid", "0:2:0.5", "--loss", "l1:1.0"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,wide"
        want = math.sqrt(2.0) * math.sqrt(2.0 / math.pi)
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(want, abs=1e-9)

    def test_out_file(self, tmp_path):
        path = tmp_path / "risk.csv"
        code, out, _ = run_cli(
            "risk", "--estimator", "narrow", "--grid", "0:1:0.5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "a,narrow"
        assert [float(r.split(",")[1]) for r in rows[1:]] == [0.0, 0.25, 1.0]

    def test_bickel_far_from_its_prior(self, capsys):
        # the rule stays below its prior's bound 2, so the risk lies
        # between (a - 2)^2 and a^2
        assert cli.main(["risk", "--estimator", "bickel", "--grid", "50:60:5"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        for a, r in (map(float, row.split(",")) for row in rows):
            assert (a - 2.0) ** 2 < r < a * a

    def test_shift_beyond_the_quadrature_is_a_numerical_failure(self, capsys):
        # a knotted rule here ended in a ValueError traceback from the panel builder
        code = cli.main(["risk", "--estimator", "pretest", "--grid", "1e20:1e20:1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_NUMERIC
        assert "numerical failure: risk quadrature needs finite shifts below 2^52" in err
        assert out == ""

    def test_usage_errors(self):
        assert run_cli("risk", "--grid", "0:5")[0] == 2
        assert run_cli("risk", "--loss", "l3")[0] == 2
        code, _, err = run_cli("risk", "--estimator", "nope")
        assert code == 2
        assert "efron_morris" in err


@pytest.mark.parametrize("loss", ["l2", "l1:1.0"])
@pytest.mark.parametrize("name", estimator_names())
def test_risk_every_rule_runs_clean(name, loss, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["risk", "--estimator", name, "--loss", loss])
    assert code == 0, capsys.readouterr().err
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime


@pytest.fixture
def weibull_data(tmp_path):
    path = tmp_path / "obs.dat"
    path.write_text("1.2\n0.7\n# a comment\n\n2.3\n0.4\n1.1\n")
    return path


@pytest.mark.parametrize("argv, name", [
    (("select", "--a", "-1"), "--a"),
    (("select", "--a", "nan"), "--a"),
    (("select", "--level", "2"), "--level"),
    (("select", "--level", "0.05,nan"), "--level"),
    (("risk", "--loss", "l1:nan"), "--loss"),
    (("risk", "--loss", "l1:inf"), "--loss"),
    (("risk", "--grid", "0:nan:0.1"), "--grid"),
    (("risk", "--grid", "0:1e9:1e-9"), "1e+18 points"),
    (("risk", "--grid", "0:1e6:1"), "1000001 points"),
    (("select", "--n", "1"), "--n"),
])
def test_numbers_outside_their_range_are_usage_errors(argv, name, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert any("error:" in line and name in line for line in err.splitlines()), err
    assert out == ""


@pytest.mark.parametrize("family, key, value", [
    ("weibull-vs-exp", "rate", "0"),
    ("weibull-vs-exp", "rate", "-2"),
    ("weibull-vs-exp", "rate", "nan"),
    ("linreg-quadratic", "sigma", "-1"),
])
@pytest.mark.parametrize("command", ["tolerance", "estimate", "simulate"])
def test_model_parameters_outside_their_range_are_usage_errors(
    family, key, value, command, tmp_path, capsys
):
    cfg = tmp_path / "model.ini"
    study = f"[study]\nkind = mse\nn = 20\nreplications = 10\nseed = 1\nout = {tmp_path / 's'}\n"
    cfg.write_text((study if command == "simulate" else "") + f"[model]\nfamily = {family}\n"
                   f"{key} = {value}\n")
    data = tmp_path / "obs.dat"
    data.write_text("0.5 1.2\n1.5 0.7\n")
    argv = {
        "tolerance": ["tolerance", "--model-config", str(cfg), "--n", "50"],
        "estimate": ["estimate", "--model-config", str(cfg), "--data", str(data)],
        "simulate": ["simulate", "--config", str(cfg)],
    }[command]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert any("error:" in line and key in line for line in err.splitlines()), err
    assert out == ""
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("family, params, extra", [
    ("logistic-eta", {"beta": "1e6"}, ()),  # the information is not finite
    ("weibull-vs-exp", {"rate": "1e-320"}, ()),  # 1/rate^2 divides by zero
    ("linreg-covariate", {"sigma": "1e300"}, ()),  # sigma^2 overflows
    ("two-sample", {"xi1": "1e300", "xi2": "-1e300"}, ("--estimand", "std-diff")),  # NaN geometry
])
def test_extreme_finite_model_parameters_are_numerical_failures(family, params, extra, tmp_path):
    cfg = tmp_path / "model.ini"
    cfg.write_text(f"[model]\nfamily = {family}\n"
                   + "".join(f"{key} = {value}\n" for key, value in params.items()))
    code, out, err = run_cli("tolerance", "--model-config", str(cfg), "--n", "50", *extra)
    assert code == cli.EXIT_NUMERIC == 3
    assert "numerical failure:" in err
    assert "Traceback" not in err
    assert "nan" not in out


@pytest.mark.parametrize("family, params, extra", [
    ("logistic-eta", {"beta": "1e6"}, ()),  # saturated probabilities: a NaN score
    ("two-sample", {"xi1": "1e300", "xi2": "-1e300"}, ("--estimand", "std-diff")),  # d overflows
])
def test_extreme_parameters_fail_in_process_without_a_numpy_warning(
        family, params, extra, tmp_path, capsys):
    # pytest turns every RuntimeWarning into an error (pyproject.toml), so a
    # numpy warning on the way would escape main instead of the exit code
    cfg = tmp_path / "model.ini"
    cfg.write_text(f"[model]\nfamily = {family}\n"
                   + "".join(f"{key} = {value}\n" for key, value in params.items()))
    code = cli.main(["tolerance", "--model-config", str(cfg), "--n", "50", *extra])
    assert code == cli.EXIT_NUMERIC == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_closed_stdout_pipe_ends_without_a_traceback():
    # 5,001 rows are far more than a pipe buffers, so the writes after the
    # reader has gone fail with EPIPE
    argv = [sys.executable, "-m", "mistol", "risk", "--grid", "0:5:0.001"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=300)
    assert first.startswith(b"a,wide,narrow,")
    assert "Traceback" not in err
    assert code == cli.EXIT_BROKEN_PIPE == 141


class TestEstimateCommand:
    def test_weibull_fit_and_compromises(self, weibull_data):
        code, out, _ = run_cli(
            "estimate", "--model", "weibull-vs-exp", "--data", str(weibull_data),
            "--estimator", "eb", "--estimator", "pretest:m=1",
        )
        assert code == 0
        ybar = (1.2 + 0.7 + 2.3 + 0.4 + 1.1) / 5.0
        assert float(value_of(out, "n")) == 5
        mu_n = float(value_of(out, "mu_narrow"))
        assert mu_n == pytest.approx(math.log(2.0) * ybar, rel=1e-9)
        narrow_ll = float(value_of(out, "narrow loglik"))
        wide_ll = float(value_of(out, "wide loglik"))
        assert wide_ll >= narrow_ll - 1e-9
        # the printed compromises agree with recombining the printed pieces
        mu_w = float(value_of(out, "mu_wide"))
        zn = float(value_of(out, "z_statistic"))
        for spec in ("eb", "pretest:m=1"):
            printed = float(value_of(out, f"mu[{spec}]"))
            want = compromise_estimate(mu_n, mu_w, zn, parse_estimator(spec))
            assert printed == pytest.approx(want, rel=1e-12)
        assert "verdict: estimated departure" in out
        assert ("inside" in out) or ("outside" in out)

    def test_two_sample_design_columns(self, tmp_path):
        path = tmp_path / "groups.dat"
        path.write_text("0 1.2\n0 0.8\n1 2.0\n1 2.6\n")
        code, out, _ = run_cli(
            "estimate", "--model", "two-sample", "--data", str(path),
            "--estimand", "mean-diff",
        )
        assert code == 0
        assert float(value_of(out, "mu_narrow")) == pytest.approx(1.3, rel=1e-12)

    def test_numerical_failure_exit_code(self, tmp_path):
        path = tmp_path / "flat.dat"
        path.write_text("3.0\n" * 6)
        code, _, err = run_cli(
            "estimate", "--model", "transform-constant", "--data", str(path)
        )
        assert code == 3
        assert "numerical failure" in err

    def test_data_file_errors(self, tmp_path, capsys):
        code, _, err = run_cli(
            "estimate", "--model", "weibull-vs-exp", "--data", str(tmp_path / "void.dat")
        )
        assert code == 2
        bad = tmp_path / "bad.dat"
        bad.write_text("1.0\ntwo\n")
        code, _, err = run_cli(
            "estimate", "--model", "weibull-vs-exp", "--data", str(bad)
        )
        assert code == 2
        assert "line 2" in err
        ragged = tmp_path / "ragged.dat"
        ragged.write_text("1.0 2.0\n3.0\n")
        code, _, err = run_cli(
            "estimate", "--model", "weibull-vs-exp", "--data", str(ragged)
        )
        assert code == 2
        assert "inconsistent" in err

        def estimate(model, data):  # in-process: exit code, stdout, stderr
            code = cli.main(["estimate", "--model", model, "--data", str(data)])
            return (code, *capsys.readouterr())

        for line in ("0.2 nan", "inf 1.5"):
            odd = tmp_path / "odd.dat"
            odd.write_text(f"0.1 1.0\n# comment\n{line}\n0.3 2.0\n0.4 0.5\n")
            code, out, err = estimate("linreg-quadratic", odd)
            assert (code, out) == (2, "")
            assert "line 3: non-finite number" in err
        # a file whose covariate columns are not the model's names both counts
        one_column = tmp_path / "one.dat"
        one_column.write_text("0\n1\n1\n0\n1\n0\n")
        two_columns = tmp_path / "two.dat"
        two_columns.write_text("0.1 1.2\n0.5 0.7\n0.9 2.3\n1.3 0.4\n")
        for model, data, has, takes in (
            ("logistic-quadratic", one_column, 0, 1),
            ("linreg-covariate", two_columns, 1, 2),
            ("weibull-vs-exp", two_columns, 1, 0),
        ):
            code, out, err = estimate(model, data)
            assert (code, out) == (2, ""), (model, err)
            assert f"has {has} covariate column(s)" in err, err
            assert f"model {model!r} takes {takes}" in err, err


def study_ini(tmp_path, text, name="study.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSimulateCommand:
    def test_kappa_study(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = kappa\nmodel = weibull-vs-exp\nkappa_method = gamma-sd\n"
            "n = 120\nreplications = 100\nseed = 4\n"
            f"out = {tmp_path / 'kap'}\n",
        )
        code, out, _ = run_cli("simulate", "--config", str(cfg))
        assert code == 0
        assert "kappa (gamma-sd, n=120):" in out
        rows = (tmp_path / "kap.csv").read_text().strip().split("\n")
        assert rows[0] == "method,n,replications,failures,kappa,se"
        method, n, reps, failures, kap, se = rows[1].split(",")
        assert (method, n, reps, failures) == ("gamma-sd", "120", "100", "0")
        assert abs(float(kap) - 0.7796968012336761) < 6.0 * float(se)

    def test_mse_study_deterministic_and_worker_invariant(self, tmp_path):
        base = (
            "[study]\nkind = mse\nmodel = weibull-vs-exp\ndelta = 0,0.6\nn = 150\n"
            "replications = 100\nseed = 11\nestimators = narrow,wide,eb,debias\n"
        )
        cfg = study_ini(tmp_path, base + f"out = {tmp_path / 'a'}\n")
        code, out_a, _ = run_cli("simulate", "--config", str(cfg))
        assert code == 0
        assert "plug-in kappa at n=150:" in out_a
        cfg_b = study_ini(tmp_path, base + f"out = {tmp_path / 'b'}\n", name="b.ini")
        assert run_cli("simulate", "--config", str(cfg_b))[0] == 0
        bytes_a = (tmp_path / "a.csv").read_bytes()
        assert bytes_a == (tmp_path / "b.csv").read_bytes()
        cfg_c = study_ini(tmp_path, base + f"out = {tmp_path / 'c'}\n", name="c.ini")
        assert run_cli("simulate", "--config", str(cfg_c), "--workers", "4")[0] == 0
        assert bytes_a == (tmp_path / "c.csv").read_bytes()
        manifest = (tmp_path / "a-manifest.txt").read_text()
        assert "seed: 11" in manifest
        assert "successes: 200" in manifest

    def test_coverage_study(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = coverage\nmodel = weibull-vs-exp\nn = 100\n"
            f"replications = 100\nseed = 21\nout = {tmp_path / 'cov'}\n",
        )
        code, _, _ = run_cli("simulate", "--config", str(cfg))
        assert code == 0
        rows = (tmp_path / "cov.csv").read_text().strip().split("\n")
        assert rows[0] == "delta,n,interval,coverage,se,predicted"
        kinds = {row.split(",")[2] for row in rows[1:]}
        assert kinds == {"narrow", "wide"}

    def test_config_errors_are_collected(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = mystery\nmodel = nope\nbogus = 1\nseed = 3\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "config errors:" in err
        assert "unknown key 'bogus'" in err
        assert "kind must be mse, kappa or coverage" in err
        assert "unknown model 'nope'" in err

    def test_unknown_estimand_is_a_config_error(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = mse\nmodel = weibull-vs-exp\nestimand = bogus\nn = 60\n"
            f"replications = 100\nseed = 3\nout = {tmp_path / 'eb'}\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "config errors:" in err and "has no estimand 'bogus'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "eb.csv").exists()

    def test_unset_keys_take_study_config_defaults(self, tmp_path, capsys):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = coverage\nmodel = weibull-vs-exp\nseed = 5\n"
            f"out = {tmp_path / 'd'}\n",
        )
        assert cli.main(["simulate", "--config", str(cfg)]) == 0, capsys.readouterr().err
        config = mcstudy.StudyConfig(model=get_model("weibull-vs-exp"), seed=5)
        expected = list(config.manifest_lines())
        written = (tmp_path / "d-manifest.txt").read_text().splitlines()
        assert written[:len(expected)] == expected

    def test_seed_required_but_flag_rescues(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = kappa\nmodel = weibull-vs-exp\nkappa_method = gamma-sd\n"
            f"n = 60\nreplications = 100\nout = {tmp_path / 'k2'}\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "seed" in err
        assert run_cli("simulate", "--config", str(cfg), "--seed", "9")[0] == 0

    def test_model_section_parameters(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = kappa\nkappa_method = gamma-sd\nn = 60\n"
            f"replications = 100\nseed = 2\nout = {tmp_path / 'k3'}\n"
            "[model]\nfamily = weibull-vs-exp\nrate = 0.5\n",
        )
        assert run_cli("simulate", "--config", str(cfg))[0] == 0

    def test_bad_model_keyword_is_a_config_error(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = kappa\nkappa_method = gamma-sd\nn = 60\n"
            f"replications = 100\nseed = 2\nout = {tmp_path / 'k4'}\n"
            "[model]\nfamily = weibull-vs-exp\nbogus = 0.5\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "config errors:" in err and "'bogus'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "k4.csv").exists()

    def test_missing_config_file(self, tmp_path):
        code, _, err = run_cli("simulate", "--config", str(tmp_path / "none.ini"))
        assert code == 2

    def test_group_size_must_be_an_integer(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = mse\nmodel = two-sample\nm = abc\nn = 40\n"
            f"replications = 100\nseed = 3\nout = {tmp_path / 'ts'}\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "config errors:" in err
        assert "m must be an integer, got 'abc'" in err
        assert "Traceback" not in err

    def test_group_size_rejected_for_other_models(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = kappa\nmodel = weibull-vs-exp\nkappa_method = gamma-sd\n"
            f"m = 10\nn = 60\nreplications = 100\nseed = 3\nout = {tmp_path / 'wb'}\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "m sets the first group size of the two-sample model only" in err
        assert not (tmp_path / "wb.csv").exists()

    def test_kappa_study_takes_one_sample_size(self, tmp_path):
        cfg = study_ini(
            tmp_path,
            "[study]\nkind = kappa\nmodel = weibull-vs-exp\nkappa_method = gamma-sd\n"
            f"n = 60,120\nreplications = 100\nseed = 3\nout = {tmp_path / 'kn'}\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "config errors:" in err
        assert "a kappa study runs at one sample size; n lists 2" in err
        assert not (tmp_path / "kn.csv").exists()


    @pytest.mark.parametrize("key, value, message", [
        ("m", "0", "m must be a positive integer, got 0"),
        ("m", "-3", "m must be a positive integer, got -3"),
        ("n", "40,0", "n must list positive sample sizes, got (40, 0)"),
    ])
    def test_non_positive_sizes_are_config_errors(self, tmp_path, key, value, message):
        sizes = {"m": "40", "n": "40", key: value}
        cfg = study_ini(
            tmp_path,
            f"[study]\nkind = mse\nmodel = two-sample\nm = {sizes['m']}\n"
            f"n = {sizes['n']}\nreplications = 100\nseed = 3\nout = {tmp_path / 'ts'}\n",
        )
        code, _, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert "config errors:" in err and message in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "ts.csv").exists()


class TestSelectCommand:
    def test_border_values(self):
        code, out, _ = run_cli(
            "select", "--a", "1", "--q", "1,2", "--level", "0.05", "--n", "100"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "departure size a: 1.0 (noncentrality 1.0)"
        assert "narrow_prob_aic=0.6527565366822697" in lines[1]
        assert "narrow_prob_schwarz=0.873267699044865" in lines[1]
        assert "power@0.05=0.17007504575308752" in lines[1]
        assert "narrow_prob_aic=0.73098793996409" in lines[2]
        assert "power@0.05=0.13271001423251683" in lines[2]

    def test_defaults_at_null(self):
        code, out, _ = run_cli("select")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # header + q = 1..4
        assert "narrow_prob_aic=0.8427007929497149" in lines[1]
        assert "narrow_prob_schwarz" not in out  # no --n given

    def test_large_departure(self):
        code, out, _ = run_cli("select", "--a", "40")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        for q, line in enumerate(lines[1:], start=1):
            fields = line.split()
            assert fields[0] == f"q={q}"
            assert fields[1] == "narrow_prob_aic=0.0"
            powers = [f for f in fields[2:] if f.startswith("power@")]
            assert len(powers) == 4
            assert all(f.endswith("=1.0") for f in powers)

    def test_validation(self):
        assert run_cli("select", "--q", "0")[0] == 2
        assert run_cli("select", "--q", "x")[0] == 2

    def test_non_positive_n_is_a_usage_error(self):
        code, out, err = run_cli("select", "--a", "1", "--n", "0")
        assert code == 2
        assert "argument --n: must be a positive integer, got 0" in err
        assert "Traceback" not in err
        assert out == ""


@pytest.mark.skipif(
    not importlib.metadata.packages_distributions().get("mistol"),
    reason="the package is not installed, so no mistol console script is on PATH",
)
def test_console_script_installed():
    exe = shutil.which("mistol")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run(
        [exe, "select", "--a", "0", "--q", "1", "--level", "0.05"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "narrow_prob_aic" in proc.stdout


def test_console_script_entry_point_target(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mistol"]
    assert target == "mistol.cli:main"
    module, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert main(["select", "--a", "0", "--q", "1", "--level", "0.05"]) == 0
    assert "narrow_prob_aic" in capsys.readouterr().out


def test_import_starts_no_process_machinery():
    # a study imports multiprocessing only when it starts a worker pool
    code = "import sys, mistol.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tolerance_out_reads_back_as_key_value_pairs(tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        "tolerance", "--model", "weibull-vs-exp", "--n", "100", "--out", str(path)
    )
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    keys = [line.partition(": ")[0] for line in out.splitlines()]
    assert [row[0] for row in rows[1:]] == keys
    assert any("," in key for key in keys)  # the keys that need quoting


def test_gamma_constant_sample_is_a_usage_error(tmp_path):
    path = tmp_path / "flat.dat"
    path.write_text("3.0\n" * 40)
    code, _, err = run_cli("estimate", "--model", "gamma-vs-exp", "--data", str(path))
    assert code == 2
    assert "a constant sample has no gamma MLE" in err


def test_transform_regression_constant_response_is_a_usage_error(tmp_path):
    path = tmp_path / "flat.dat"
    path.write_text("".join(f"{x} 3.0\n" for x in range(40)))
    code, _, err = run_cli("estimate", "--model", "transform-regression", "--data", str(path))
    assert code == 2
    assert "a constant response has no transform-regression MLE" in err
