"""A/B comparison of the working tree against a parent revision.

    python3 tools/compare.py --parent HEAD~1 --pairs 6 \
        --workloads mc-catalogue,analytic,mc-weibull --seconds 25 --out BENCH_name.json

Run it from the root of a git checkout. It copies REV (`git archive`) and
the working tree (every tracked and untracked, not ignored file) into a
temporary directory, then, for each workload and each of --pairs pairs,
runs `perfbench/run.py --seed 3 --trace 0` once in each copy, alternating
which copy goes first. The JSON written to --out holds every run's result
and, per end-to-end metric of BENCHMARK.json, the medians and quartiles of
both copies and the number of pairs in which the change is better.

It then runs every pool outcome of both copies once, with perfbench's own
`workloads.run_pass` and `checks.digest` (mc pools at seed 0, analytic
windows at seeds 0 and 16), and lists every outcome whose digest differs.
perfbench is only imported, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_SEED = 3
DIGEST_SEEDS = {"mc-weibull": (0,), "mc-catalogue": (0,), "analytic": (0, 16)}


def git(*args, cwd) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def copy_revision(repo: Path, rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"compare: git archive {rev} failed")


def copy_working_tree(repo: Path, dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
    dest.mkdir()
    for name in filter(None, listed.split("\0")):
        source = repo / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(source.read_bytes())


def clean_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def bench_run(tree: Path, workload: str, seconds: float) -> dict:
    """One `perfbench/run.py` run in tree: its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(RUN_SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, env=clean_env(),
    )
    if proc.returncode != 0:
        raise SystemExit(f"compare: run.py failed in {tree.name}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(runs, declared) -> dict:
    """Per end-to-end metric: both copies' medians and quartiles, and in
    how many pairs the change is better."""
    out = {}
    for entry in declared:
        name, lower = entry["name"], entry["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p, c = quartiles(parent), quartiles(change)
        gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
        out[name] = {
            "unit": entry["unit"],
            "better": entry["better"],
            "parent": p,
            "change": c,
            "median_change_rel": c["median"] / p["median"] - 1.0 if p["median"] else None,
            "change_better_in": f"{better} of {len(runs)}",
            "median_gain_beyond_parent_iqr": gain > p["q3"] - p["q1"],
        }
    return out


def digest_tree(tree: Path, workload: str) -> dict:
    """Digest of every pool outcome of workload in tree, run in a fresh
    interpreter so that each copy imports its own mistol."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--digest-worker", str(tree), workload],
        capture_output=True, text=True, env=clean_env(),
    )
    if proc.returncode != 0:
        raise SystemExit(f"compare: digesting {workload} in {tree.name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def digest_worker(tree: Path, workload: str) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import checks
    import workloads

    digests = {}
    with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
        for seed in DIGEST_SEEDS[workload]:
            for pass_input in workloads.build_inputs(workload, seed, Path(workdir)):
                for name, outcome in workloads.run_pass(pass_input).items():
                    digests[f"slot {pass_input.slot} {name}"] = checks.digest(outcome)
    print(json.dumps(digests))


def compare_digests(parent: dict, change: dict) -> dict:
    differing = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    return {
        "outcomes": len(parent),
        "identical": len(parent) - len(differing),
        "differing": differing,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--digest-worker"]:  # the child process of digest_tree
        digest_worker(Path(argv[1]), argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seconds", type=float, required=True, help="run.py --seconds")
    parser.add_argument("--out", required=True, help="the BENCH_<name>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in names if w not in DIGEST_SEEDS]
    if not names or unknown:
        parser.error(f"--workloads takes names from {', '.join(DIGEST_SEEDS)}")

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    parent_rev = git("rev-parse", args.parent, cwd=repo)
    declared = json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]
    result = {
        "parent": parent_rev,
        "change": f"working tree on {git('rev-parse', 'HEAD', cwd=repo)}",
        "command": ["tools/compare.py", *argv],
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run": {"seed": RUN_SEED, "seconds": args.seconds, "trace": 0, "pairs": args.pairs},
        "workloads": {},
        "digests": {},
    }
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        copy_revision(repo, parent_rev, trees["parent"])
        copy_working_tree(repo, trees["change"])
        for workload in names:
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench_run(trees[side], workload, args.seconds)
                    wall = pair[side]["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: wall_s {wall:.4g}, "
                          f"correct {pair[side]['correct']}, failed {pair[side]['failed']}",
                          flush=True)
                runs.append(pair)
            result["workloads"][workload] = {"runs": runs, "metrics": summarize(runs, declared)}
        for workload in names:
            result["digests"][workload] = compare_digests(
                digest_tree(trees["parent"], workload), digest_tree(trees["change"], workload)
            )
            d = result["digests"][workload]
            print(f"{workload} digests: {d['identical']} of {d['outcomes']} identical", flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for workload, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<13} {name:<12} parent {m['parent']['median']:.4g} "
                  f"change {m['change']['median']:.4g} ({m['change_better_in']} better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
