"""Per-model fit census: time, Newton iterations and failures by class.

    PYTHONPATH=src python3 tools/census.py --models logistic-eta --n 200 \
        --delta 0.5 --seeds 0-15 --reps 100 [--estimate] [--out FILE] [--against FILE]

For each model and seed, replication r is the sample that a
`finite_sample_mse` study with that seed draws for its replication r at n
and gamma0 + delta/sqrt(n), on the model's default design. The census fits
the narrow model to it, then the wide one, one sample at a time, as a
study does for a Newton-fitted model. --estimate also fits the data sets
of the 32 slots of perfbench's analytic `estimate` commands (n 200,
gamma0 + 0.5/sqrt(200), one stream per (slot, model index)).

One table row per model and kind gives the milliseconds of fitting per
replication, the mean Newton iterations per replication (narrow plus wide;
a failed fit counts the length of its trace) and the failures by exception
class. --out writes every outcome as JSON: a digest of both fits (params,
loglik, gradient norm and iterations, bit for bit) or the fit that failed.
--against reads such a file and adds the number of outcomes that differ
from it; a failure that changes only its exception class does not differ.
The tool imports whichever mistol is on the path, so the same command run
with PYTHONPATH=<other checkout>/src takes the census of that checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from mistol.estimators import fit_narrow, fit_wide
from mistol.models import MODEL_BUILDERS, get_model
from mistol.numerics import NumericsError, replication_rng

ESTIMATE_SLOTS = 32
ESTIMATE_N = 200
ESTIMATE_DELTA = 0.5


def seed_list(text: str) -> list[int]:
    """'0-15' or '0,3,7' (or a mix) as a list of seeds."""
    seeds = []
    for part in filter(None, text.split(",")):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def digest(*fits) -> str:
    h = hashlib.sha256()
    for fit in fits:
        for value in (fit.params, fit.loglik, fit.grad_norm, fit.iterations):
            h.update(np.asarray(value, dtype=float).tobytes())
    return h.hexdigest()[:16]


def fit_one(model, y, design, tally) -> str:
    """Fit y narrow, then wide; add time, iterations and any failure to
    tally and return the outcome."""
    iterations, outcome, fits = 0, None, []
    start = time.perf_counter()
    for stage, fit in (("narrow", fit_narrow), ("wide", fit_wide)):
        try:
            fits.append(fit(model, y, design))
        except NumericsError as exc:
            iterations += len(getattr(exc, "trace", ()))
            tally["failures"][type(exc).__name__] += 1
            outcome = f"{stage} failed"
            break
        iterations += fits[-1].iterations
    tally["seconds"] += time.perf_counter() - start
    tally["iterations"] += iterations
    tally["reps"] += 1
    return outcome or f"ok {digest(*fits)}"


def new_tally() -> dict:
    return {"reps": 0, "seconds": 0.0, "iterations": 0, "failures": collections.Counter()}


def mse_census(model, n, delta, seeds, reps):
    """(tally, outcomes) over the study draws of every seed and replication."""
    design = model.default_design(n)
    theta0 = np.asarray(model.theta0, dtype=float)
    gamma = np.asarray(model.gamma0, dtype=float) + delta / math.sqrt(n)
    tally, outcomes = new_tally(), {}
    for seed in seeds:
        for r in range(reps):
            try:
                y = model.sampler(theta0, gamma, design, replication_rng(seed, r))
            except NumericsError:
                outcomes[f"{seed}/{r}"] = "draw failed"
                continue
            outcomes[f"{seed}/{r}"] = fit_one(model, y, design, tally)
    return tally, outcomes


def estimate_census(model, index):
    """(tally, outcomes) over the 32 analytic `estimate` data sets."""
    design = model.default_design(ESTIMATE_N)
    theta0 = np.asarray(model.theta0, dtype=float)
    gamma = np.asarray(model.gamma0, dtype=float) + ESTIMATE_DELTA / math.sqrt(ESTIMATE_N)
    tally, outcomes = new_tally(), {}
    for slot in range(ESTIMATE_SLOTS):
        y = model.sampler(theta0, gamma, design, np.random.default_rng([slot, index]))
        outcomes[str(slot)] = fit_one(model, y, design, tally)
    return tally, outcomes


def row(label, tally, changed) -> str:
    reps = max(tally["reps"], 1)
    failures = ", ".join(f"{k} {v}" for k, v in sorted(tally["failures"].items())) or "0"
    cells = [label, str(tally["reps"]), f"{1e3 * tally['seconds'] / reps:.2f}",
             f"{tally['iterations'] / reps:.1f}", failures]
    if changed is not None:
        cells.append(str(changed))
    return "| " + " | ".join(cells) + " |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--models", default="all", help="comma-separated names, or all")
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--delta", type=float, default=0.5)
    parser.add_argument("--seeds", default="0-15", help="for example 0-15 or 0,3,7")
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--estimate", action="store_true",
                        help="also fit the 32 analytic estimate data sets")
    parser.add_argument("--out", help="write every outcome to this JSON file")
    parser.add_argument("--against", help="count outcomes that differ from this --out file")
    args = parser.parse_args(argv)
    names = list(MODEL_BUILDERS) if args.models == "all" else args.models.split(",")
    unknown = [name for name in names if name not in MODEL_BUILDERS]
    if unknown:
        parser.error(f"unknown model(s) {', '.join(unknown)}; known: {', '.join(MODEL_BUILDERS)}")
    seeds = seed_list(args.seeds)
    if not seeds or args.reps < 1 or args.n < 1:
        parser.error("--seeds, --reps and --n must give at least one replication")
    before = json.loads(Path(args.against).read_text())["outcomes"] if args.against else None

    header = ["model", "reps", "ms/rep", "iterations/rep", "failures"]
    if before is not None:
        header.append("changed")
    print(f"n {args.n}, delta {args.delta}, seeds {args.seeds}, {args.reps} replications each")
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    runs = [(f"mse/{name}", lambda name=name: mse_census(
        get_model(name), args.n, args.delta, seeds, args.reps)) for name in names]
    if args.estimate:
        runs += [(f"estimate/{name}", lambda name=name: estimate_census(
            get_model(name), list(MODEL_BUILDERS).index(name))) for name in names]
    record, changed_total = {}, 0
    for key, census in runs:
        tally, outcomes = census()
        record[key] = outcomes
        changed = None
        if before is not None:
            old = before.get(key, {})
            changed = sum(old.get(k) != v for k, v in outcomes.items())
            changed_total += changed
        print(row(key, tally, changed), flush=True)
    if before is not None:
        print(f"changed outcomes: {changed_total}")
    if args.out:
        settings = {k: getattr(args, k) for k in ("models", "n", "delta", "seeds", "reps")}
        Path(args.out).write_text(json.dumps({"settings": settings, "outcomes": record}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
