"""Per-layer metrics of a traced run, named after baryflow's modules.

``TARGETS`` lists the module attributes the traced run wraps.  Each request
(one top-level ``solve`` or ``cli.main`` call) is reduced to a value per
metric; a metric is the median of those values over the traced requests.  A
metric with no value on any request (its function is missing, or this
workload never calls it) is absent.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

TARGETS = {
    "baryflow.solver": ("build_couplings", "median_heuristic_bandwidth", "evaluate",
                        "constraint_parts", "objective_value", "lambda_update",
                        "step_explicit", "step_implicit"),
    "baryflow.objective": ("cost_parts", "kernel_cross_matrix", "lf_kde", "lf_features"),
    "baryflow.couplings": ("kernel_matrix", "sinkhorn_bistochastic"),
    "baryflow.cli": ("solve", "load_series"),
}

# What each span keeps from its call's result.
NOTES = {
    "solver.solve": lambda result: result,
    "objective.evaluate": lambda result: getattr(result, "hess_diag", None) is not None,
    "solver.step_implicit": lambda result: bool(result[1]),
}

EVALUATE = "objective.evaluate"
SOLVE = "solver.solve"
MS = 1e3


class Request:
    """The spans of one top-level call, grouped by name, plus its outcome."""

    def __init__(self, spans, outcome):
        self.outcome = outcome
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
        self.top = spans[0]
        solves = self.by_name.get(SOLVE, [])
        self.solve = solves[0] if solves else None
        self.history = getattr(self.solve.note, "history", None) if self.solve else None
        self.iterations = outcome.iterations

    def count(self, name, note=None):
        return len(self._select(name, note))

    def _select(self, name, note):
        spans = self.by_name.get(name, [])
        return spans if note is None else [s for s in spans if s.note == note]

    def total(self, name, note=None):
        """Summed duration in seconds; None when there were no calls."""
        spans = self._select(name, note)
        return sum(s.duration for s in spans) if spans else None

    def per_call_ms(self, name, note=None, self_time=False):
        spans = self._select(name, note)
        if not spans:
            return None
        return MS * sum(s.self_time if self_time else s.duration for s in spans) / len(spans)

    def per_iter(self, name):
        calls = self.count(name)
        return calls / self.iterations if calls and self.iterations else None

    def lambda0_s(self):
        """solve's own time before its first evaluate: the lambda0 estimate."""
        if self.solve is None or not self.by_name.get(EVALUATE):
            return None
        first = min(s.start for s in self.by_name[EVALUATE])
        children = sum(s.duration for spans in self.by_name.values() for s in spans
                       if s.parent == self.solve.index and s.end <= first)
        return first - self.solve.start - children

    def loop_self_ms_per_iter(self):
        """solve's own time after the lambda0 estimate, per iteration."""
        lambda0 = self.lambda0_s()
        if lambda0 is None or not self.iterations:
            return None
        return MS * (self.solve.self_time - lambda0) / self.iterations

    def history_mean(self, field):
        if not self.history or not hasattr(self.history[0], field):
            return None
        return sum(float(getattr(h, field)) for h in self.history) / len(self.history)

    def final_eta(self):
        return float(self.history[-1].eta) if self.history else None

    def accept_ratio(self):
        attempts = self.count("solver.step_explicit") + self.count("solver.step_implicit")
        return self.iterations / attempts if attempts else None

    def fallback_frac(self):
        calls = self.count("solver.step_implicit")
        return self.count("solver.step_implicit", note=True) / calls if calls else None

    def cli_io_s(self):
        if self.top.name != "cli.main" or self.solve is None:
            return None
        return self.top.duration - self.solve.duration

    def bytes_written(self):
        return self.outcome.bytes_written if self.top.name == "cli.main" else None


# name, unit, better, value of one request (None when it has none).
REQUEST_METRICS = [
    ("couplings.build_s", "s", "lower", lambda r: r.total("couplings.build_couplings")),
    ("couplings.sinkhorn_s", "s", "lower", lambda r: r.total("couplings.sinkhorn_bistochastic")),
    ("couplings.bandwidth_s", "s", "lower",
     lambda r: r.total("couplings.median_heuristic_bandwidth")),
    ("costs.calls_per_iter", "count", "lower", lambda r: r.per_iter("costs.cost_parts")),
    ("costs.ms", "ms", "lower", lambda r: r.per_call_ms("costs.cost_parts", self_time=True)),
    ("objective.kernel_builds_per_iter", "count", "lower",
     lambda r: r.per_iter("couplings.kernel_cross_matrix")),
    ("objective.kernel_ms", "ms", "lower",
     lambda r: r.per_call_ms("couplings.kernel_cross_matrix", self_time=True)),
    ("objective.value_calls_per_iter", "count", "lower",
     lambda r: r.per_iter("objective.objective_value")),
    ("objective.value_ms", "ms", "lower", lambda r: r.per_call_ms("objective.objective_value")),
    ("objective.evaluate_ms", "ms", "lower", lambda r: r.per_call_ms(EVALUATE, note=False)),
    ("objective.evaluate_hess_ms", "ms", "lower", lambda r: r.per_call_ms(EVALUATE, note=True)),
    ("objective.features_ms", "ms", "lower", lambda r: r.per_call_ms("objective.lf_features")),
    ("objective.hess_setup_s", "s", "lower", lambda r: r.total("objective.constraint_parts")),
    ("solver.lambda0_s", "s", "lower", Request.lambda0_s),
    ("solver.step_implicit_ms", "ms", "lower", lambda r: r.per_call_ms("solver.step_implicit")),
    ("solver.implicit_fallback_frac", "ratio", "lower", Request.fallback_frac),
    ("solver.accept_ratio", "ratio", "higher", Request.accept_ratio),
    ("solver.halvings_per_iter", "count", "lower", lambda r: r.history_mean("eta_halvings")),
    ("solver.final_eta", "1", "higher", Request.final_eta),
    ("solver.lambda_clamped_frac", "ratio", "lower", lambda r: r.history_mean("lambda_clamped")),
    ("solver.self_ms_per_iter", "ms", "lower", Request.loop_self_ms_per_iter),
    ("cli.io_s", "s", "lower", Request.cli_io_s),
    ("cli.bytes_written", "B", "lower", Request.bytes_written),
]

# Metrics of the whole traced run, computed by the caller.
RUN_METRICS = [
    ("solver.fail_frac", "ratio", "lower"),
    ("solver.lf_gap_decades", "decades", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

PER_LAYER = [m[:3] for m in REQUEST_METRICS] + RUN_METRICS


def requests(tracer, outcomes):
    """Group finished spans by top-level call, paired with each call's outcome.

    ``outcomes`` has one entry per top-level call; a call that failed has
    None and is left out.
    """
    tracer.finish()
    groups = defaultdict(list)
    for span in tracer.spans:
        groups[span.root].append(span)
    tops = sorted(groups)
    if len(tops) != len(outcomes):
        raise ValueError(f"{len(tops)} traced requests but {len(outcomes)} outcomes")
    return [Request(groups[root], outcome)
            for root, outcome in zip(tops, outcomes) if outcome is not None]


def request_metrics(reqs):
    """``{name: median over requests}``, with None for absent metrics."""
    values = {}
    for name, _, _, fn in REQUEST_METRICS:
        seen = [v for v in (fn(r) for r in reqs) if v is not None]
        values[name] = statistics.median(seen) if seen else None
    return values


def kernel_identity(reqs):
    """(kernel builds, evaluate calls, lf_kde calls, requests) summed over requests.

    With the current call graph every kde solve builds one kernel per
    evaluate, one per lf_kde and one for the lambda0 Hessian, so the first
    number equals the sum of the other three.
    """
    kernels = sum(r.count("couplings.kernel_cross_matrix") for r in reqs)
    evaluates = sum(r.count(EVALUATE) for r in reqs)
    lf_kde = sum(r.count("objective.lf_kde") for r in reqs)
    return kernels, evaluates, lf_kde, len(reqs)
