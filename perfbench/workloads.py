"""The three workloads: inputs built from the seed, and one pass of each.

A pass is the unit that is timed. Every pass returns its outcome as plain
JSON-ready data keyed by operation, so that it can be digested, compared
with the references and counted.

mc-weibull and mc-catalogue draw their study seeds from a pool of
MC_POOL recorded slots: pass i of a run with seed s uses slot (s + i) mod
MC_POOL, and the slot number is the study seed. analytic writes its
`estimate` data sets from a pool of ANALYTIC_POOL recorded slots: a run
with seed s uses the ANALYTIC_WINDOW slots s, s + 1, ... (mod the pool) and
pass i reads the data set of the i-th slot of that window. References for
every slot of each pool sit in reference/.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mistol import cli, mcstudy
from mistol.estimators import estimator_names
from mistol.models import MODEL_BUILDERS, get_model

WORKLOADS = ("mc-weibull", "mc-catalogue", "analytic")

MC_POOL = 16
ANALYTIC_POOL = 32
ANALYTIC_WINDOW = 16

# Acceptance criterion 10 (tests/test_acceptance.py) at 500 replications per
# study instead of 2000, with its workers=4 capped at the 2 cores measured.
WEIBULL_KAPPA = 0.7796968012336761
CROSS_FRACTIONS = (0.0, 0.3, 0.6, 0.8, 0.95, 1.1, 1.3, 1.5)
WEIBULL_REPLICATIONS = 500
WEIBULL_WORKERS = 2

# Routine settings of a user's `simulate` run on each built-in model.
CATALOGUE_N = 200
CATALOGUE_DELTA = 0.5
CATALOGUE_REPLICATIONS = 100
CATALOGUE_ESTIMATORS = ("narrow", "wide", "eb")

ESTIMATE_N = 200
ESTIMATE_DELTA = 0.5

_STUDY_ABORT = re.compile(r"(\d+) of (\d+) replications failed")


@dataclass(frozen=True)
class Study:
    name: str
    kind: str  # "mse" or "kappa"
    config: mcstudy.StudyConfig

    @property
    def replications(self) -> int:
        cfg = self.config
        cells = len(cfg.n_list) * (len(cfg.delta_grid) if self.kind == "mse" else 1)
        return cfg.replications * cells


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple


@dataclass(frozen=True)
class PassInput:
    """Everything one pass runs: the slot it reads and its operations."""

    slot: int
    ops: tuple  # of Study or Command

    @property
    def attempted(self) -> int:
        return sum(op.replications if isinstance(op, Study) else 1 for op in self.ops)


def mc_slots(seed: int) -> list[int]:
    return [(seed + i) % MC_POOL for i in range(MC_POOL)]


def analytic_window(seed: int) -> list[int]:
    return [(seed + j) % ANALYTIC_POOL for j in range(ANALYTIC_WINDOW)]


# ---------------------------------------------------------------------------
# inputs


def weibull_studies(slot: int, model) -> tuple:
    deltas = tuple(round(WEIBULL_KAPPA * f, 10) for f in CROSS_FRACTIONS)
    reps = WEIBULL_REPLICATIONS
    return (
        Study("crossing", "mse", mcstudy.StudyConfig(
            model=model, delta_grid=deltas, n_list=(500,), replications=reps,
            seed=slot, estimators=("narrow", "wide"), workers=WEIBULL_WORKERS,
        )),
        Study("gamma-sd", "kappa", mcstudy.StudyConfig(
            model=model, n_list=(200,), replications=reps, seed=slot,
            kappa_method="gamma-sd",
        )),
        Study("debias", "mse", mcstudy.StudyConfig(
            model=model, delta_grid=(0.0,), n_list=(1000,), replications=reps,
            seed=slot, estimators=("debias",), workers=WEIBULL_WORKERS,
        )),
    )


def catalogue_studies(slot: int, models) -> tuple:
    return tuple(
        Study(model.name, "mse", mcstudy.StudyConfig(
            model=model, delta_grid=(CATALOGUE_DELTA,), n_list=(CATALOGUE_N,),
            replications=CATALOGUE_REPLICATIONS, seed=slot,
            estimators=CATALOGUE_ESTIMATORS, workers=1,
        ))
        for model in models
    )


def fixed_commands() -> list[Command]:
    """The analytic commands whose output does not depend on the seed."""
    cmds = [
        Command(f"tolerance/{name}", ("tolerance", "--model", name, "--n", "100"))
        for name in MODEL_BUILDERS
    ]
    cmds.append(Command("risk/default", ("risk",)))
    cmds.append(Command("risk/l1", ("risk", "--loss", "l1:1.0")))
    cmds.extend(
        Command(f"risk/{name}", ("risk", "--estimator", name)) for name in estimator_names()
    )
    cmds.append(Command("select/a1", ("select", "--a", "1", "--n", "100")))
    cmds.append(Command("select/a40", ("select", "--a", "40")))
    return cmds


def write_estimate_data(slot: int, directory: Path) -> list[Command]:
    """Draw one data set per built-in model and return its estimate commands.

    Data come from the model's own sampler at theta0 and a routine departure
    gamma0 + 0.5/sqrt(n), on the default design, one stream per (slot, model).
    """
    directory.mkdir(parents=True, exist_ok=True)
    cmds = []
    for index, name in enumerate(MODEL_BUILDERS):
        model = get_model(name)
        design = model.default_design(ESTIMATE_N)
        gamma = np.asarray(model.gamma0, float) + ESTIMATE_DELTA / math.sqrt(ESTIMATE_N)
        rng = np.random.default_rng([slot, index])
        y = model.sampler(np.asarray(model.theta0, float), gamma, design, rng)
        path = directory / f"{slot}-{name}.txt"
        with open(path, "w") as fh:
            for i in range(design.n):
                row = [] if design.rows is None else list(design.rows[i])
                fh.write(" ".join(repr(float(v)) for v in row + [y[i]]) + "\n")
        cmds.append(Command(f"estimate/{name}", ("estimate", "--model", name, "--data", str(path))))
    return cmds


def build_inputs(workload: str, seed: int, workdir: Path, model_hook=None) -> list[PassInput]:
    """The run's pass inputs in order; pass i runs entry i modulo their count.

    model_hook, when given, maps each ModelSpec to the copy the studies use.
    """
    hook = model_hook or (lambda model: model)
    if workload == "mc-weibull":
        model = hook(get_model("weibull-vs-exp"))
        return [PassInput(s, weibull_studies(s, model)) for s in mc_slots(seed)]
    if workload == "mc-catalogue":
        models = [hook(get_model(name)) for name in MODEL_BUILDERS]
        return [PassInput(s, catalogue_studies(s, models)) for s in mc_slots(seed)]
    if workload == "analytic":
        fixed = fixed_commands()
        return [
            PassInput(s, tuple(fixed + write_estimate_data(s, workdir)))
            for s in analytic_window(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass


def _study_outcome(study: Study) -> dict:
    try:
        if study.kind == "kappa":
            ks = mcstudy.kappa_by_simulation(study.config)
            return {"status": "ok", "failures": ks.failures, "kappa": ks.kappa, "se": ks.se}
        res = mcstudy.finite_sample_mse(study.config)
    except Exception as exc:  # an abort or a crash is an outcome too; the checks judge it
        match = _STUDY_ABORT.search(str(exc)) if isinstance(exc, mcstudy.StudyError) else None
        return {
            "status": "error",
            "error": error_stem(exc),
            "failures": int(match.group(1)) if match else study.replications,
        }
    return {
        "status": "ok",
        "failures": res.failures,
        "rows": [list(row) for row in res.rows],
        "crossings": [list(c) for c in res.crossings],
        "kappa_rows": [list(k) for k in res.kappa_rows],
    }


def run_command(cmd: Command, on_call=None) -> dict:
    """Run one CLI command in-process; stdout and the exit code are the output."""
    out, err = io.StringIO(), io.StringIO()
    call = on_call or (lambda command, fn: fn())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(cmd.argv[0], lambda: cli.main(list(cmd.argv)))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is an output too; the check rejects it
            code = f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue()}


def run_pass(pass_input: PassInput, on_call=None) -> dict:
    """Run every operation of one pass; returns {operation name: outcome}."""
    outcomes = {}
    for op in pass_input.ops:
        if isinstance(op, Study):
            outcomes[op.name] = _study_outcome(op)
        else:
            outcomes[op.name] = run_command(op, on_call)
    return outcomes


def library_failures(pass_input: PassInput, outcomes: dict) -> int:
    """Replications that failed plus commands that exited nonzero."""
    total = 0
    for op in pass_input.ops:
        got = outcomes[op.name]
        if isinstance(op, Study):
            total += got["failures"]
        elif got["exit"] != 0:
            total += 1
    return total


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")


def error_stem(exc: BaseException) -> str:
    """Exception class and message with numbers and quoted names masked."""
    text = str(exc).split("[", 1)[0].strip()
    text = _NUMBER.sub("<n>", _QUOTED.sub("<q>", text))
    return f"{type(exc).__name__}: {text}"
