"""mistol benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload mc-weibull --seed 3 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the library from src/. It
sets up (the median of several fresh interpreters is setup_s), then runs
passes of the workload until --seconds have gone by, at least one. Every
pass is checked against reference/<workload>.json. With --trace 0 the
passes run untraced and the end-to-end metrics are reported; with --trace 1
each untraced pass is followed by a traced pass on the same input, and the
per-layer metrics are reported, with the spans written to
perfbench/.work/trace-<workload>.jsonl. The last line of stdout is the JSON
result; the lines above it say the same for a reader. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
WARMUP_PASSES = {"analytic": 1}


class Checker:
    """Checks each pass against the references and keeps the counts."""

    def __init__(self, workload: str):
        self.ref = json.loads((HERE / "reference" / f"{workload}.json").read_text())
        self.attempted = 0
        self.library_failures = 0
        self.failed = 0
        self.verdicts = {}  # verdict -> count
        self.mismatches = []
        self.digests = {}  # (slot, op) -> digest seen first in this run

    def _reference(self, slot, name):
        if name in self.ref.get("fixed", {}):
            return self.ref["fixed"][name]
        pool = "dataset" if "fixed" in self.ref else "slot"
        return self.ref[f"{pool} {slot}"][name]

    def check(self, pass_input, outcomes) -> None:
        import workloads

        self.attempted += pass_input.attempted
        self.library_failures += workloads.library_failures(pass_input, outcomes)
        for op in pass_input.ops:
            got = outcomes[op.name]
            ref = self._reference(pass_input.slot, op.name)
            if isinstance(op, workloads.Study):
                verdict = checks.check_study(got, ref)
            else:
                verdict = checks.check_command(got, ref)
            got_digest = checks.digest(got)
            if self.digests.setdefault((pass_input.slot, op.name), got_digest) != got_digest:
                verdict = "output differs between two passes on the same input"
            if verdict not in ("identical", "match", "improved"):
                self.failed += op.replications if isinstance(op, workloads.Study) else 1
                self.mismatches.append(f"slot {pass_input.slot} {op.name}: {verdict}")
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1

    @property
    def correct(self) -> bool:
        return not self.mismatches


def probe(workload: str, seed: int, importtime: bool = False) -> tuple[float, str]:
    """Run setup_probe.py in a fresh interpreter; (wall seconds, stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed),
            "--workdir", str(WORK)]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def import_breakdown(stderr: str) -> dict:
    """Milliseconds importing numpy and scipy (outermost entries, cumulative)
    and mistol's own modules (self time), from -X importtime output."""
    pending = []  # (depth, name, self_us, cumulative_us, children), post-order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, field.strip(), int(own), int(cumulative), children))
    totals = {"numpy": 0, "scipy": 0, "mistol": 0}

    def visit(node, inside):
        _, name, own, cumulative, children = node
        package = name.split(".")[0]
        if package in ("numpy", "scipy") and package not in inside:
            totals[package] += cumulative
            inside = inside | {package}
        if package == "mistol":
            totals["mistol"] += own
        for child in children:
            visit(child, inside)

    for node in pending:
        visit(node, frozenset())
    return {f"cli.import_ms.{k}": v / 1000.0 for k, v in totals.items()}


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine so far (Linux /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_passes(seconds, one_pass) -> None:
    """Call one_pass(0), one_pass(1), ... until the deadline, at least once."""
    count = 0
    deadline = perf_counter() + seconds
    while count == 0 or perf_counter() < deadline:
        one_pass(count)
        count += 1


def timed_pass(pass_input, on_call=None):
    import workloads

    start = perf_counter()
    outcomes = workloads.run_pass(pass_input, on_call)
    return perf_counter() - start, outcomes


def end_to_end(args, inputs, checker) -> dict:
    setup = sorted(probe(args.workload, args.seed)[0] for _ in range(SETUP_PROBES))
    times = []

    def one_pass(i):
        pass_input = inputs[i % len(inputs)]
        elapsed, outcomes = timed_pass(pass_input)
        checker.check(pass_input, outcomes)
        times.append(elapsed)

    steal = steal_seconds()
    run_passes(args.seconds, one_pass)
    steal = steal_seconds() - steal
    print(f"passes: {len(times)}, slots {sorted({p.slot for p in inputs[:len(times)]})}")
    print(f"hypervisor steal during the passes: {steal:.3g} CPU s in {sum(times):.4g} s")
    print(f"pass wall times (s): {' '.join(f'{t:.4g}' for t in times)}")
    print(f"set-up probe times (s): {' '.join(f'{t:.4g}' for t in setup)}")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times) / len(times),
        "ops_per_s": checker.attempted / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"pass_s_p50: {statistics.median(times):.6g} s, pass_s_p90: "
          f"{percentile(times, 90):.6g} s (from {len(times)} passes)")
    if args.workload.startswith("mc-"):
        print(f"reps_per_s: {metrics['ops_per_s']:.6g} 1/s")
    return metrics


def per_layer(args, inputs, checker) -> dict:
    import spans
    import workloads
    from mistol.estimators import estimator_names, parse_estimator

    imports = [import_breakdown(probe(args.workload, args.seed, importtime=True)[1])
               for _ in range(IMPORT_PROBES)]
    tracer = spans.Tracer()
    traced_inputs = workloads.build_inputs(args.workload, args.seed, args.workdir,
                                           model_hook=tracer.model)
    untraced_times, traced_times, traced_reps = [], [], 0

    def pair(i):
        nonlocal traced_reps
        pass_input, twin = inputs[i % len(inputs)], traced_inputs[i % len(inputs)]
        elapsed, outcomes = timed_pass(pass_input)
        checker.check(pass_input, outcomes)
        untraced_times.append(elapsed)
        tracer.install()
        try:
            elapsed, outcomes = timed_pass(
                twin, lambda command, fn: tracer.span("cli.command", command, fn)
            )
        finally:
            tracer.uninstall()
        checker.check(twin, outcomes)
        traced_times.append(elapsed)
        traced_reps += sum(op.replications for op in twin.ops if isinstance(op, workloads.Study))

    run_passes(args.seconds, pair)
    recorded = tracer.spans()
    rule_names = {parse_estimator(n).spec_string(): n for n in estimator_names()}
    metrics = spans.layer_metrics(
        recorded, sum(tracer.log_density_in_fits.values()), len(traced_times),
        traced_reps, rule_names,
    )
    for key in imports[0]:
        metrics[key] = statistics.median(i[key] for i in imports)
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(untraced_times)
    )
    metrics["op_fail_frac"] = checker.library_failures / checker.attempted
    print(f"traced passes: {len(traced_times)}; spans: {len(recorded)}")
    print("failure ledger (per traced pass, where the exception arose):")
    for (name, stem), count in sorted(spans.ledger(recorded).items()):
        print(f"  {count / len(traced_times):10.4g}  {name}  {stem}")
    tracer.write(WORK / f"trace-{args.workload}.jsonl")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mistol" / "__init__.py").is_file():
        print(f"perfbench: no mistol package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    args.workdir = WORK / f"{args.workload}-{args.seed}-run"
    try:
        inputs = workloads.build_inputs(args.workload, args.seed, args.workdir)
        checker = Checker(args.workload)
        for pass_input in inputs[: WARMUP_PASSES.get(args.workload, 0)]:
            workloads.run_pass(pass_input)
        if args.trace:
            values, declared = per_layer(args, inputs, checker), spec["per_layer"]
        else:
            values, declared = end_to_end(args, inputs, checker), spec["end_to_end"]
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {checker.attempted} operations, "
          f"{checker.library_failures} failed inside the library "
          f"(op_fail_frac {checker.library_failures / checker.attempted:.4g})")
    print(f"checks against the references: {checker.verdicts}")
    for line in checker.mismatches[:20]:
        print(f"  MISMATCH {line}")
    metrics = {}
    for entry in declared:
        # a layer the workload never calls has no spans and reads 0
        value = float(values.get(entry["name"], 0.0) if args.trace else values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<44} {value:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
