"""Command-line front end.

Subcommands: tolerance (radius and danger diagnostics), risk (CSV risk
curves), estimate (fits and compromise estimates on a data file), simulate
(Monte Carlo studies from a config file), select (model-selection
probabilities and detection power). Exit codes: 0 success, 2 usage or
config error, 3 numerical failure, 141 standard output closed early.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import estimators as rules
from . import mcstudy, risk, tolerance
from .models import Design, get_model
from .numerics import NumericsError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed

DEFAULT_RISK_SPECS = (
    "wide",
    "narrow",
    "eb",
    "qhat:eps=0.05",
    "pretest:m=1",
    "efron_morris:m=0.502",
    "atan:m=0.502",
)


class UsageError(Exception):
    pass


def _echo_config(ns: argparse.Namespace):
    skip = {"func"}
    for key in sorted(vars(ns)):
        if key in skip:
            continue
        print(f"config: {key}={getattr(ns, key)}", file=sys.stderr)


def _build_model(family: str, section) -> "object":
    """The built-in model family with the parameters of a [model] section
    (every key but family); an unknown name or a bad parameter (not a
    number, unknown, or out of range) is a UsageError."""
    kwargs = {}
    for key, raw in section.items():
        if key == "family":
            continue
        try:
            kwargs[key] = float(raw)
        except ValueError:
            raise UsageError(f"model parameter {key}={raw!r} is not numeric") from None
    try:
        return get_model(family, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(exc.args[0]) from None


def _model_from_args(ns) -> "object":
    """Resolve the model from --model or a [model] config section."""
    path = getattr(ns, "model_config", None)
    if path:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise UsageError(f"cannot read model config {path!r}")
        if "model" not in parser:
            raise UsageError("model config needs a [model] section")
        section = parser["model"]
        if "family" not in section:
            raise UsageError("model config needs family= inside [model]")
        return _build_model(section["family"], section)
    if not getattr(ns, "model", None):
        raise UsageError("a model is required (--model or --model-config)")
    return _build_model(ns.model, {})


def _positive_int(text: str) -> int:
    """argparse type for a sample or group size."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _departure_size(text: str) -> float:
    """argparse type for select's --a: a number a >= 0 (inf allowed)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative number, got {text}")
    return value


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"non-numeric grid endpoint in {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(f"--grid needs finite numbers, got {text!r}")
    if step <= 0.0 or stop < start:
        raise UsageError("grid needs step > 0 and stop >= start")
    span = (stop - start) / step
    if span >= 1e6 - 0.5:  # more than 10^6 points, or a span too large to count
        raise UsageError(f"--grid {text!r} asks for {span + 1.0:.7g} points, more than 1e6")
    return np.linspace(start, stop, int(round(span)) + 1)


def _parse_estimators(specs) -> list:
    out = []
    for spec in specs:
        try:
            out.append(rules.parse_estimator(spec))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return out


def _design_factory(model, m, flag: str):
    """n -> the model's default design on n observations, with a first group
    of m if m is not None; only the two-sample model has one."""
    if m is None:
        return model.default_design
    if model.name != "two-sample":
        raise UsageError(f"{flag} sets the first group size of the two-sample model only")
    return lambda n: model.default_design(n, m=m)


# ---------------------------------------------------------------------------
# tolerance


def cmd_tolerance(ns) -> int:
    model = _model_from_args(ns)
    design = _design_factory(model, ns.m, "--m")(ns.n)
    report = tolerance.tolerance_report(model, design)
    lines = list(report.lines())
    if ns.estimand is not None:
        try:
            geom = risk.limit_geometry(model, design, ns.estimand)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        lines.append(f"estimand: {ns.estimand}")
        lines.append(f"bias slope b: {geom.bias_slope!r}")
        lines.append(f"narrow sd tau0: {geom.tau0!r}")
        lines.append(f"wide sd tau: {geom.tau!r}")
        lines.append(f"bias-to-noise rho: {geom.rho!r}")
    for line in lines:
        print(line)
    if ns.out:
        with open(ns.out, "w", newline="") as fh:
            risk.write_csv(fh, ("key", "value"), (line.partition(": ")[::2] for line in lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# risk curves


def _parse_loss(text: str):
    if text == "l2":
        return "l2", None
    if text.startswith("l1:"):
        try:
            rho = float(text[3:])
        except ValueError:
            raise UsageError(f"bad rho in loss spec {text!r}") from None
        if not 0.0 <= rho < math.inf:
            raise UsageError(f"--loss needs a finite rho >= 0, got {text!r}")
        return "l1", rho
    raise UsageError(f"loss must be l2 or l1:<rho>, got {text!r}")


def cmd_risk(ns) -> int:
    grid = _parse_grid(ns.grid)
    specs = ns.estimator or list(DEFAULT_RISK_SPECS)
    ests = _parse_estimators(specs)
    loss, rho = _parse_loss(ns.loss)
    header, matrix = risk.risk_table(ests, grid, loss=loss, rho=rho)
    if ns.out:
        with open(ns.out, "w", newline="") as fh:
            risk.write_csv(fh, header, matrix)
    else:
        risk.write_csv(sys.stdout, header, matrix)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimation on a data file


def _read_data(path: str):
    ys = []
    rows = []
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot open data file: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            pieces = text.replace(",", " ").split()
            try:
                values = [float(p) for p in pieces]
            except ValueError:
                raise UsageError(
                    f"data file line {lineno}: could not parse {text!r}"
                ) from None
            if not all(math.isfinite(v) for v in values):
                raise UsageError(f"data file line {lineno}: non-finite number in {text!r}")
            ys.append(values[-1])
            rows.append(values[:-1])
    if not ys:
        raise UsageError("data file holds no observations")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise UsageError("data file rows have inconsistent column counts")
    y = np.asarray(ys, dtype=float)
    if width == {0}:
        return y, Design(len(ys))
    return y, Design(len(ys), np.asarray(rows, dtype=float))


def cmd_estimate(ns) -> int:
    model = _model_from_args(ns)
    ests = _parse_estimators(ns.estimator or ["eb"])
    estimand_name = ns.estimand or model.default_estimand
    y, design = _read_data(ns.data)
    width = 0 if design.rows is None else design.rows.shape[1]
    default = model.default_design(design.n).rows
    wanted = 0 if default is None else default.shape[1]
    if width != wanted:
        raise UsageError(
            f"data file has {width} covariate column(s) before the response, "
            f"but model {model.name!r} takes {wanted}"
        )
    try:
        estimand = model.estimand(estimand_name, design)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    try:
        narrow = rules.fit_narrow(model, y, design)
        wide = rules.fit_wide(model, y, design)
    except rules.FitError as exc:
        trail = "; ".join(f"loglik={l!r} grad={g!r}" for l, g in exc.trace[-3:])
        raise NumericsError(f"fit failed: {exc} [{trail}]") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    geom = risk.limit_geometry(model, design, estimand, theta=narrow.theta)
    n = design.n
    gamma0 = float(np.asarray(model.gamma0, dtype=float)[0])
    gamma_hat = float(wide.gamma[0])
    zn = rules.z_statistic(gamma_hat, gamma0, geom.kappa, n)
    mu_n = estimand(narrow.theta, model.gamma0)
    mu_w = estimand(wide.theta, wide.gamma)
    radius = geom.kappa / math.sqrt(n)
    inside = abs(gamma_hat - gamma0) <= radius
    print(f"model: {model.name}")
    print(f"estimand: {estimand_name}")
    print(f"n: {n}")
    print(f"narrow theta: {tuple(float(v) for v in narrow.theta)!r}")
    print(f"narrow loglik: {narrow.loglik!r}")
    print(f"wide theta: {tuple(float(v) for v in wide.theta)!r}")
    print(f"wide gamma: {gamma_hat!r}")
    print(f"wide loglik: {wide.loglik!r}")
    print(f"kappa_hat: {geom.kappa!r}")
    print(f"tolerance radius kappa_hat/sqrt(n): {radius!r}")
    print(f"z_statistic: {zn!r}")
    print(f"mu_narrow: {mu_n!r}")
    print(f"mu_wide: {mu_w!r}")
    for est in ests:
        value = rules.compromise_estimate(mu_n, mu_w, zn, est)
        print(f"mu[{est.spec_string()}]: {value!r}")
    verdict = "inside" if inside else "outside"
    print(
        f"verdict: estimated departure {abs(gamma_hat - gamma0)!r} is {verdict} "
        f"the tolerance region"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulation studies


# [study] key -> (StudyConfig field, type of one value, whether the value is
# a comma list). An absent or empty key leaves the field at its default.
# kind, model, out and m (the first group size of the two-sample model) are
# simulate's own settings.
_STUDY_FIELDS = {
    "estimand": ("estimand", str, False),
    "delta": ("delta_grid", float, True),
    "n": ("n_list", int, True),
    "replications": ("replications", int, False),
    "seed": ("seed", int, False),
    "estimators": ("estimators", str, True),
    "kappa_method": ("kappa_method", str, False),
    "level": ("level", float, False),
    "workers": ("workers", int, False),
}
_OWN_KEYS = ("kind", "model", "out", "m")


def _parse_setting(key: str, raw: str, cast, listed: bool):
    try:
        if listed:
            return tuple(cast(part.strip()) for part in raw.split(",") if part.strip())
        return cast(raw)
    except ValueError:
        what = "a comma list" if listed else "an integer" if cast is int else "a number"
        raise UsageError(f"{key} must be {what}, got {raw!r}") from None


def _study_config_from_file(ns) -> tuple:
    parser = configparser.ConfigParser()
    read = parser.read(ns.config)
    if not read:
        raise UsageError(f"cannot read config file {ns.config!r}")
    if "study" not in parser:
        raise UsageError("config needs a [study] section")
    section = parser["study"]
    problems = [
        f"unknown key {key!r} in [study]"
        for key in section
        if key not in _STUDY_FIELDS and key not in _OWN_KEYS
    ]
    kind = section.get("kind", "")
    if kind not in {"mse", "kappa", "coverage"}:
        problems.append(f"kind must be mse, kappa or coverage, got {kind!r}")
    model_section = parser["model"] if "model" in parser else {}
    model_name = model_section.get("family", section.get("model", ""))
    model = None
    if not model_name:
        problems.append("a model name is required ([study] model= or [model] family=)")
    else:
        try:
            model = _build_model(model_name, model_section)
        except UsageError as exc:
            problems.append(str(exc))

    # --seed and --workers override the file
    settings = {name: getattr(ns, name) for name in ("seed", "workers")
                if getattr(ns, name) is not None}
    for key, (name, cast, listed) in _STUDY_FIELDS.items():
        if section.get(key) and name not in settings:
            try:
                settings[name] = _parse_setting(key, section[key], cast, listed)
            except UsageError as exc:
                problems.append(str(exc))
    n_count = len(settings.get("n_list", ()))
    if kind == "kappa" and n_count > 1:
        problems.append(f"a kappa study runs at one sample size; n lists {n_count}")
    if section.get("m"):
        try:
            first = _parse_setting("m", section["m"], int, False)
            if first < 1:
                raise UsageError(f"m must be a positive integer, got {first}")
            if model is not None:
                settings["design_factory"] = _design_factory(model, first, "m")
        except UsageError as exc:
            problems.append(str(exc))
    if model is not None:
        try:
            config = mcstudy.StudyConfig(model=model, **settings)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise UsageError("config errors: " + "; ".join(problems))
    return kind, config, ns.out or section.get("out", "study")


def cmd_simulate(ns) -> int:
    kind, config, out = _study_config_from_file(ns)
    if kind == "kappa":
        study = mcstudy.kappa_by_simulation(config)
        path = out + ".csv"
        header = ("method", "n", "replications", "failures", "kappa", "se")
        with open(path, "w", newline="") as fh:
            risk.write_csv(fh, header, [[getattr(study, key) for key in header]])
        print(f"kappa ({study.method}, n={study.n}): {study.kappa!r} +/- {study.se!r}")
        print(f"written: {path}")
        return EXIT_OK
    if kind == "mse":
        result = mcstudy.finite_sample_mse(config)
    else:
        result = mcstudy.coverage_study(config)
    csv_path = result.to_csv(out + ".csv")
    manifest_path = result.write_manifest(out + "-manifest.txt")
    for n, cross in result.crossings:
        print(f"narrow/wide nMSE crossing at n={n}: delta={cross!r}")
    for n, kap, se in result.kappa_rows:
        print(f"plug-in kappa at n={n}: {kap!r} +/- {se!r}")
    print(f"written: {csv_path}")
    print(f"written: {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selection probabilities


def cmd_select(ns) -> int:
    try:
        qs = [int(part) for part in ns.q.split(",") if part.strip()]
        levels = [float(part) for part in ns.level.split(",") if part.strip()]
    except ValueError:
        raise UsageError("q must be comma-separated integers, level comma floats") from None
    if any(q < 1 for q in qs):
        raise UsageError("q must be at least 1")
    if not all(0.0 < level < 1.0 for level in levels):
        raise UsageError(f"--level must list levels in (0, 1), got {ns.level!r}")
    if ns.n is not None and ns.n < 2:
        raise UsageError(f"--n must be at least 2 for the log(n) penalty, got {ns.n}")
    a = float(ns.a)
    ncp = a * a
    print(f"departure size a: {a!r} (noncentrality {ncp!r})")
    for q in qs:
        parts = [f"q={q}"]
        parts.append(f"narrow_prob_aic={tolerance.aic_narrow_prob(ncp, q)!r}")
        if ns.n is not None:
            parts.append(
                f"narrow_prob_schwarz={tolerance.schwarz_narrow_prob(ncp, q, ns.n)!r}"
            )
        for level in levels:
            parts.append(f"power@{level:g}={tolerance.detection_power(a, level, q)!r}")
        print(" ".join(parts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mistol",
        description="Tolerance radii, compromise estimators and risk curves "
        "for narrow-versus-wide parametric models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tol = sub.add_parser("tolerance", help="radius and danger diagnostics")
    tol.add_argument("--model")
    tol.add_argument("--model-config")
    tol.add_argument("--n", type=_positive_int, required=True)
    tol.add_argument("--m", type=_positive_int, help="first group size (two-sample only)")
    tol.add_argument("--estimand")
    tol.add_argument("--out")
    tol.set_defaults(func=cmd_tolerance)

    rk = sub.add_parser("risk", help="risk curves as CSV")
    rk.add_argument("--estimator", action="append")
    rk.add_argument(
        "--grid", default="0:5:0.05",
        help="start:stop:step, at most 10^6 points; at step 0.01 a point costs "
        "0.1-0.2 ms for the default table and 0.03-0.04 ms for bickel alone, at "
        "step 20 or more (no quadrature nodes shared) 15 and 2.5 ms (2-core VM)",
    )
    rk.add_argument("--loss", default="l2")
    rk.add_argument("--out")
    rk.set_defaults(func=cmd_risk)

    est = sub.add_parser("estimate", help="fits and compromises on a data file")
    est.add_argument("--model")
    est.add_argument("--model-config")
    est.add_argument("--data", required=True)
    est.add_argument("--estimand")
    est.add_argument("--estimator", action="append")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="Monte Carlo study from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int)
    sim.add_argument(
        "--workers", type=int,
        help="the most processes the study uses (at least 1): above 1, on Linux, "
        "its replications are fitted in up to that many forked worker processes, "
        "capped at the usable CPUs; its output is the same for any value",
    )
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    sel = sub.add_parser("select", help="model-selection probabilities and power")
    sel.add_argument("--a", type=_departure_size, default=0.0)
    sel.add_argument("--q", default="1,2,3,4")
    sel.add_argument("--level", default="0.01,0.05,0.1,0.2")
    sel.add_argument("--n", type=_positive_int)
    sel.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    _echo_config(ns)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:
        # The reader closed stdout (`mistol risk | head`). As the signal
        # module's note on SIGPIPE advises, point stdout at devnull so that
        # flushing it at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
