"""Spans and a failure ledger recorded from outside the library.

Tracer.install() replaces each traced public function with a wrapper in
every mistol module that binds it, so that callers inside the library (for
example mcstudy's own `fit_narrow`) reach the wrapper too. Each wrapper
records a span: name, key, parent, thread, start and end. Spans stay in
memory in one list per thread and are aggregated, or written out, at the
end. A thread with no open span adopts the open root span as parent, so
the replications a study hands to its thread pool nest under the study.

Every span an exception ends carries its stem (class and masked message);
the ledger counts it once, at the innermost wrapped call it passed through.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

from workloads import error_stem

# (module, function name, span name); the span name's first part is the layer
TRACED = (
    ("mistol.models", "information_at_null", "models.information_at_null"),
    ("mistol.estimators", "fit_narrow", "estimators.fit_narrow"),
    ("mistol.estimators", "fit_wide", "estimators.fit_wide"),
    ("mistol.estimators", "z_statistic", "estimators.combine"),
    ("mistol.estimators", "compromise_estimate", "estimators.combine"),
    ("mistol.estimators", "debias_estimate", "estimators.combine"),
    ("mistol.risk", "limit_geometry", "risk.limit_geometry"),
    ("mistol.risk", "risk_profile", "risk.risk_profile"),
    ("mistol.tolerance", "tolerance_report", "tolerance.tolerance_report"),
    ("mistol.tolerance", "aic_narrow_prob", "tolerance.selection"),
    ("mistol.tolerance", "schwarz_narrow_prob", "tolerance.selection"),
    ("mistol.tolerance", "detection_power", "tolerance.selection"),
    ("mistol.mcstudy", "finite_sample_mse", "mcstudy.study"),
    ("mistol.mcstudy", "kappa_by_simulation", "mcstudy.study"),
)

FITS = ("estimators.fit_narrow", "estimators.fit_wide")


def _risk_key(args, kwargs):
    return f"{kwargs.get('loss', 'l2')}/{args[0].spec_string()}"


KEYS = {
    "risk.risk_profile": _risk_key,
    "tolerance.tolerance_report": lambda args, kwargs: args[0].name,
}


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    key: str | None
    ident: int
    parent: int | None
    thread: int
    start: float
    end: float
    error: str | None  # stem of the exception that ended the span
    origin: bool  # the exception arose here, so the ledger counts it here
    info: int | None  # Newton iterations of a successful fit


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.fit_depth = 0
        self.last_exc = None
        self.spans = None


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._ids = itertools.count()
        self._span_lists = []
        self._root = None
        self._patched = []
        self.log_density_in_fits = Counter()  # per thread id

    # -- recording -------------------------------------------------------

    def _thread_spans(self):
        st = self._state
        if st.spans is None:
            st.spans = []
            with self._lock:
                self._span_lists.append(st.spans)
        return st.spans

    def wrap(self, fn, name, key_fn=None):
        state = self._state
        is_fit = name in FITS

        def traced(*args, **kwargs):
            stack = state.stack
            span = Span(
                name,
                key_fn(args, kwargs) if key_fn else None,
                next(self._ids),
                stack[-1].ident if stack else (self._root.ident if self._root else None),
                threading.get_ident(),
                0.0, 0.0, None, False, None,
            )
            if not stack and self._root is None:
                self._root = span
            stack.append(span)
            if is_fit:
                state.fit_depth += 1
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = error_stem(exc)
                if exc is not state.last_exc:
                    state.last_exc = exc
                    span.origin = True
                raise
            else:
                if is_fit:
                    span.info = int(result.iterations)
                return result
            finally:
                span.end = perf_counter()
                if is_fit:
                    state.fit_depth -= 1
                stack.pop()
                if self._root is span:
                    self._root = None
                self._thread_spans().append(span)

        traced.__wrapped__ = fn
        return traced

    def span(self, name, key, call):
        """Run call() inside a span named by the caller (a CLI command)."""
        return self.wrap(call, name, lambda args, kwargs: key)()

    def model(self, model):
        """A copy of the ModelSpec whose sampler is traced and whose
        log_density counts the calls made inside fits."""
        state = self._state
        counter = self.log_density_in_fits
        log_density = model.log_density

        def counted(*args, **kwargs):
            if state.fit_depth:
                counter[threading.get_ident()] += 1
            return log_density(*args, **kwargs)

        return dataclasses.replace(
            model,
            sampler=self.wrap(model.sampler, "models.sampler"),
            log_density=counted,
        )

    # -- patching ---------------------------------------------------------

    def install(self):
        import mistol.cli

        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, KEYS.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mistol" or mod_name.startswith("mistol."):
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        original_get_model = mistol.cli.get_model
        mistol.cli.get_model = lambda *a, **k: self.model(original_get_model(*a, **k))
        self._patched.append((mistol.cli, "get_model", original_get_model))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def spans(self) -> list:
        with self._lock:
            return sorted(itertools.chain.from_iterable(self._span_lists), key=lambda s: s.ident)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans():
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def self_times(spans) -> dict:
    """Span ident -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in sorted(children.get(s.ident, ())):
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.ident] = (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# (layer prefix of the span name, ledger metric prefix, (message part, reason))
LEDGER_REASONS = (
    ("estimators.fit_", "estimators.fit.fail", (
        ("line search stalled", "line_search_stalled"),
        ("maximum Newton iterations", "iteration_cap"),
        ("outside the likelihood support", "outside_support"),
        ("above tolerance", "gradient_above_tolerance"),
    )),
    ("risk.", "risk.fail", (
        ("non-finite", "non_finite_integrand"),
        ("did not stabilize", "quadrature_unstable"),
    )),
    ("tolerance.", "tolerance.fail", (("noncentrality too large", "ncp_too_large"),)),
    ("mcstudy.", "mcstudy.fail", (("replications failed", "study_aborted"),)),
)


def ledger_metric(span_name: str, stem: str) -> str:
    for prefix, metric, reasons in LEDGER_REASONS:
        if span_name.startswith(prefix):
            for part, reason in reasons:
                if part in stem:
                    return f"{metric}.{reason}"
            return f"{metric}.other"
    return "ledger.other"


def ledger(spans) -> Counter:
    """(span name, exception stem) -> count, at the span where it arose."""
    return Counter((s.name, s.error) for s in spans if s.origin)


def _mean_ms(values) -> float:
    return 1000.0 * sum(values) / len(values) if values else 0.0


def layer_metrics(spans, log_density_calls: int, passes: int, replications: int,
                  rule_names: dict) -> dict:
    """Per-layer metrics from the spans of `passes` traced passes.

    Times are mean milliseconds per call; a layer the workload never calls
    reads 0. Ledger counts are per pass. rule_names maps an estimator's
    spec string to its catalogue name.
    """
    by_id = {s.ident: s for s in spans}
    own = self_times(spans)
    dur = defaultdict(list)
    self_ms = defaultdict(list)
    for s in spans:
        name = s.name if s.key is None else f"{s.name}.{s.key}"
        dur[name].append(s.end - s.start)
        self_ms[name].append(own[s.ident])

    fits = [s for s in spans if s.name in FITS]
    outer = [s for s in fits if by_id.get(s.parent) is None or by_id[s.parent].name not in FITS]
    wide_iters = [s.info for s in spans if s.name == "estimators.fit_wide" and s.info is not None]
    study_self = sum(own[s.ident] for s in spans if s.name == "mcstudy.study")

    out = {
        "models.sampler.ms": _mean_ms(dur["models.sampler"]),
        "models.log_density.calls_per_fit": log_density_calls / len(outer) if outer else 0.0,
        "models.information_at_null.ms": _mean_ms(dur["models.information_at_null"]),
        "estimators.fit_narrow.self_ms": _mean_ms(self_ms["estimators.fit_narrow"]),
        "estimators.fit_wide.self_ms": _mean_ms(self_ms["estimators.fit_wide"]),
        "estimators.fit_wide.newton_iters_mean":
            sum(wide_iters) / len(wide_iters) if wide_iters else 0.0,
        "estimators.fit.fail_frac":
            sum(s.error is not None for s in outer) / len(outer) if outer else 0.0,
        "estimators.combine.ms": _mean_ms(dur["estimators.combine"]),
        "risk.limit_geometry.self_ms": _mean_ms(self_ms["risk.limit_geometry"]),
        "tolerance.selection.ms": _mean_ms(dur["tolerance.selection"]),
        "mcstudy.self_ms_per_rep": 1000.0 * study_self / replications if replications else 0.0,
    }
    for name, values in dur.items():
        if name.startswith("risk.risk_profile."):
            loss, spec = name[len("risk.risk_profile."):].split("/", 1)
            out[f"risk.risk_profile.ms.{loss}.{rule_names.get(spec, spec)}"] = _mean_ms(values)
        elif name.startswith("tolerance.tolerance_report."):
            model = name[len("tolerance.tolerance_report."):]
            out[f"tolerance.tolerance_report.ms.{model}"] = _mean_ms(values)
        elif name.startswith("cli.command."):
            out[f"cli.self_ms.{name[len('cli.command.'):]}"] = _mean_ms(self_ms[name])
    for (span_name, stem), count in ledger(spans).items():
        metric = ledger_metric(span_name, stem)
        out[metric] = out.get(metric, 0.0) + count / passes
    return out
