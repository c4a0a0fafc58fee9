"""Record the reference outputs for every slot of a workload's pool.

    python3 perfbench/record_reference.py mc-weibull mc-catalogue analytic

Writes perfbench/reference/<workload>.json. The committed references were
recorded at the commit that introduced the benchmark; re-record only when
a change of output is intended, and say so in CHANGES.md.
"""

import json
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _dump(ref: dict) -> str:
    """JSON with one line per operation, so that diffs stay readable."""
    lines = ["{"]
    items = list(ref.items())
    for i, (key, value) in enumerate(items):
        tail = "," if i < len(items) - 1 else ""
        if isinstance(value, dict) and all(isinstance(v, dict) for v in value.values()):
            lines.append(f"{json.dumps(key)}: {{")
            inner = list(value.items())
            for j, (k, v) in enumerate(inner):
                sep = "," if j < len(inner) - 1 else ""
                lines.append(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}{sep}")
            lines.append("}" + tail)
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}{tail}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def record(workload: str, workdir: Path) -> dict:
    ref = {
        "workload": workload,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if workload == "analytic":
        ref["fixed"] = {
            cmd.name: checks.command_reference(workloads.run_command(cmd))
            for cmd in workloads.fixed_commands()
        }
        for slot in range(workloads.ANALYTIC_POOL):
            ref[f"dataset {slot}"] = {
                cmd.name: checks.command_reference(workloads.run_command(cmd))
                for cmd in workloads.write_estimate_data(slot, workdir)
            }
        return ref
    for pass_input in workloads.build_inputs(workload, 0, workdir):
        outcomes = workloads.run_pass(pass_input)
        ref[f"slot {pass_input.slot}"] = {
            name: checks.study_reference(outcome) for name, outcome in outcomes.items()
        }
        print(f"{workload} slot {pass_input.slot} recorded", file=sys.stderr)
    return ref


def main(names):
    for workload in names or workloads.WORKLOADS:
        workdir = HERE / ".work" / f"record-{workload}"
        try:
            ref = record(workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        (HERE / "reference").mkdir(exist_ok=True)
        (HERE / "reference" / f"{workload}.json").write_text(_dump(ref))


if __name__ == "__main__":
    main(sys.argv[1:])
