"""Output checks against the references recorded with the benchmark.

Every operation's outcome is digested exactly (sha256 of its canonical
JSON). A digest equal to the reference's makes the outcome identical.
Otherwise it is compared field by field, and a match is within tolerance:

- Monte Carlo studies: strings, integers and failure counts exactly; every
  float within RTOL_MC. Fits that converge to the same optimum by another
  route move nMSE by about 1e-6 relative; a changed draw stream or a changed
  estimator moves it by 1e-3 or more.
- CLI commands: the exit code exactly, the text with its numbers masked
  exactly, and every number within RTOL_CLI/ATOL_CLI. Quadrature that agrees
  with closed forms to 1e-6 passes; a changed rule parameter does not.

A known failure that is fixed is accepted as an improvement: a study with
fewer failed replications than its reference (its nMSE must stay within
three reference standard errors when both completed), or a command that
exits 0 where its reference exited nonzero. More failures, a new failure,
or any other difference is a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

RTOL_MC = 1e-4
ATOL_MC = 1e-10
RTOL_CLI = 1e-5
ATOL_CLI = 1e-8

_NUMBER = re.compile(
    r"(?<![A-Za-z_])(?:nan|inf)(?![A-Za-z_])|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
)


def digest(outcome) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def split_numbers(text: str):
    """(text with every number replaced by '#', list of the numbers)."""
    numbers = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), numbers


def command_reference(outcome: dict) -> dict:
    skeleton, numbers = split_numbers(outcome["stdout"])
    return {
        "digest": digest(outcome),
        "exit": outcome["exit"],
        "skeleton": hashlib.sha256(skeleton.encode()).hexdigest()[:20],
        "numbers": [float(f"{v:.12g}") for v in numbers],
    }


def study_reference(outcome: dict) -> dict:
    return {"digest": digest(outcome), "outcome": outcome}


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def _same_values(got, ref, rtol, atol) -> bool:
    if isinstance(ref, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and isinstance(ref, (int, float))
            and _close(float(got), float(ref), rtol, atol)
        )
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(got) == len(ref)
            and all(_same_values(g, r, rtol, atol) for g, r in zip(got, ref))
        )
    if isinstance(ref, dict):
        return (
            isinstance(got, dict)
            and got.keys() == ref.keys()
            and all(_same_values(got[k], ref[k], rtol, atol) for k in ref)
        )
    return got == ref


def _rows_within_se(got_rows, ref_rows) -> bool:
    if len(got_rows) != len(ref_rows):
        return False
    for got, ref in zip(got_rows, ref_rows):
        if got[:3] != ref[:3] or abs(got[3] - ref[3]) > 3.0 * ref[4] + ATOL_MC:
            return False
    return True


def check_study(got: dict, ref: dict) -> str:
    """'identical', 'match', 'improved' or a description of the mismatch."""
    if digest(got) == ref["digest"]:
        return "identical"
    want = ref["outcome"]
    if got["failures"] == want["failures"] and got["status"] == want["status"]:
        if _same_values(got, want, RTOL_MC, ATOL_MC):
            return "match"
        return "values differ beyond tolerance"
    if got["failures"] < want["failures"]:
        if got["status"] == "error" or want["status"] == "error":
            return "improved"
        if "rows" not in got or _rows_within_se(got["rows"], want["rows"]):
            return "improved"
        return "fewer failures but nMSE moved beyond 3 standard errors"
    return f"{got['status']} with {got['failures']} failures, reference " \
           f"{want['status']} with {want['failures']}"


def check_command(got: dict, ref: dict) -> str:
    """'identical', 'match', 'improved' or a description of the mismatch."""
    if digest(got) == ref["digest"]:
        return "identical"
    if got["exit"] != ref["exit"]:
        if got["exit"] == 0:
            return "improved"
        return f"exit {got['exit']!r}, reference {ref['exit']!r}"
    skeleton, numbers = split_numbers(got["stdout"])
    if hashlib.sha256(skeleton.encode()).hexdigest()[:20] != ref["skeleton"]:
        return "output text differs"
    if len(numbers) != len(ref["numbers"]) or not all(
        _close(g, r, RTOL_CLI, ATOL_CLI) for g, r in zip(numbers, ref["numbers"])
    ):
        return "numbers differ beyond tolerance"
    return "match"
