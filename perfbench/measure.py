"""Measurement of one workload: timed calls, their checks, and the traced run."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
import tracemalloc
import traceback
from collections import Counter

import numpy as np

import layers
import workloads
from tracer import Tracer

MIB = 2.0**20
CAL_REF_S = 0.21  # calibrate() time at the reference machine speed
_CAL_RNG = np.random.default_rng(0)
_CAL_POINTS = _CAL_RNG.standard_normal((150, 2))  # kernel work that stays in cache
_CAL_BLOCKS = _CAL_RNG.standard_normal((400, 400, 2, 2))  # 5 MB of Hessian blocks


def calibrate():
    """Wall time of fixed numpy work of the two kinds baryflow does.

    Small kernel matrices that stay in cache, and matrix-vector products
    with a dense (N, N, d, d) block array that streams from memory.
    """
    started = time.perf_counter()
    for _ in range(120):
        diff = _CAL_POINTS[:, None, :] - _CAL_POINTS[None, :, :]
        kernel = np.exp(-(diff * diff).sum(axis=-1))
        float((kernel @ _CAL_POINTS).sum())
    v = _CAL_POINTS[:1].repeat(400, axis=0)
    for _ in range(6):
        v = np.einsum("ikab,kb->ia", _CAL_BLOCKS, v)
        v /= np.linalg.norm(v)
    return time.perf_counter() - started


class Speed:
    """Scale factors from wall time to the reference machine speed.

    ``calibrate`` runs once before the first call and once after each call;
    a call's factor is CAL_REF_S over the mean of the two calibrations
    around it.
    """

    def __init__(self):
        self.last = calibrate()
        self.factors = []

    def next_factor(self):
        after = calibrate()
        factor = CAL_REF_S / (0.5 * (self.last + after))
        self.last = after
        self.factors.append(factor)
        return factor


def rounds(count, seconds):
    """Instance indices: each of ``count`` once, then cycling until ``seconds`` pass."""
    started = time.perf_counter()
    k = 0
    while k < count or time.perf_counter() - started < seconds:
        yield k % count
        k += 1


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    if len(values) < 11:
        return None
    k = len(values) - 11
    return 100.0 * (k + 1) / len(values), sorted(values)[k]


class Calls:
    """Makes the workload's calls, checks each one and counts what went wrong.

    ``failed`` counts calls that raised; ``incorrect`` counts calls whose
    output failed a check.  Either makes the run incorrect.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems = Counter()

    @property
    def correct(self):
        return self.failed == 0 and self.incorrect == 0

    def run(self, instance, niter, invoke=workloads.plain_call):
        """One checked call: (seconds, outcome, ok); seconds and outcome are None if it raised."""
        self.attempted += 1
        try:
            seconds, outcome = self.workload.call(instance, niter, invoke)
        except Exception:  # a raising call is a failed operation; keep measuring the rest
            self.failed += 1
            self.problems[traceback.format_exc(limit=4)] += 1
            return None, None, False
        problems = self.workload.check(instance, outcome, full=niter == self.workload.config.niter)
        if problems:
            self.flag(problems)
        return seconds, outcome, not problems

    def flag(self, problems):
        self.incorrect += 1
        self.problems.update(problems)

    def same_result(self, first, second):
        """Two solves of the same inputs must give bitwise-equal y_final."""
        if first is not None and second is not None and not (
                first.y.shape == second.y.shape and (first.y == second.y).all()):
            self.flag(["two solves of the same inputs gave different y_final"])


def solve_quality(wl, full_calls, first_by_instance):
    """fail_frac, lf_gap_decades and stop classes of a run's full solves."""
    config = wl.config
    failures = sum(1 for outcome, ok in full_calls if outcome is None or not ok
                   or workloads.stop_class(outcome, config) in workloads.FAILING_STOPS)
    outcomes = [o for o in first_by_instance if o is not None]
    gaps = [workloads.lf_gap_decades(o, config) for o in outcomes]
    return {
        "fail_frac": failures / len(full_calls),
        "full_calls": len(full_calls),
        "lf_gap_decades": statistics.median(gaps) if gaps else float("inf"),
        "stops": Counter(workloads.stop_class(o, config) for o in outcomes),
        "iters_to_tol": [workloads.iters_to_tol(o, config) for o in outcomes],
        "pole_overshoot": max((o.pole_overshoot for o in outcomes), default=0.0),
    }


def measure(wl, instances, seconds):
    """Tracing off: one tracemalloc call, then rounds of a set-up call and a full solve.

    The set-up call (niter=1) and the full solve of one instance run back to
    back, so ``iter_ms`` takes the difference of two calls made under nearly
    the same machine conditions.
    """
    calls = Calls(wl)
    niter = wl.config.niter
    tracemalloc.start()
    try:
        _, reference, ok = calls.run(instances[0], niter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full_calls = [(reference, ok)]

    speed = Speed()
    raw, raw_setup, setup, times, iter_ms = [], [], [], [], []
    first_by_instance = [None] * len(instances)
    for k in rounds(len(instances), seconds):
        u, _, _ = calls.run(instances[k], 1)
        u_factor = speed.next_factor()
        t, outcome, ok = calls.run(instances[k], niter)
        t_factor = speed.next_factor()
        full_calls.append((outcome, ok))
        if u is not None:
            raw_setup.append(u)
            setup.append(u * u_factor)
        if outcome is None:
            continue
        if k == 0 and first_by_instance[0] is None:
            calls.same_result(reference, outcome)
        if first_by_instance[k] is None:
            first_by_instance[k] = outcome
        raw.append(t)
        times.append(t * t_factor)
        if u is not None:
            iter_ms.append(1e3 * (t * t_factor - u * u_factor) / max(outcome.iterations - 1, 1))

    quality = solve_quality(wl, full_calls, first_by_instance)
    if not (setup and times and iter_ms and quality["iters_to_tol"]):
        return calls, None, quality
    setup_s = statistics.median(setup)
    metrics = {
        "solve_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "iter_ms": (statistics.median(iter_ms), "ms"),
        "iters_to_tol": (statistics.fmean(quality["iters_to_tol"]), "count"),
        "peak_mb": (peak / MIB, "MiB"),
    }
    lines = [
        f"solve_s          {metrics['solve_s'][0]:.6g} s  "
        f"median of {len(times)} solves; {_tail_text(times)}",
        f"setup_s          {setup_s:.6g} s  median of {len(setup)} calls with niter=1",
        f"iter_ms          {metrics['iter_ms'][0]:.6g} ms  "
        "median over rounds of (solve - set-up) / (iterations - 1)",
        f"iters_to_tol     {metrics['iters_to_tol'][0]:g} count  "
        f"mean over instances {quality['iters_to_tol']} (niter + 1 = never)",
        f"lf_gap_decades   {quality['lf_gap_decades']:.4g} decades  median over instances",
        f"fail_frac        {quality['fail_frac']:.4g} ratio  of {quality['full_calls']} full solves",
        f"peak_mb          {peak / MIB:.6g} MiB  tracemalloc peak of one solve",
        f"(times are scaled by the machine speed factor, median {statistics.median(speed.factors):.4g}; "
        f"unscaled medians: solve {statistics.median(raw):.6g} s, "
        f"setup {statistics.median(raw_setup):.6g} s)",
    ]
    return calls, (metrics, lines), quality


def _tail_text(times):
    found = tail(times)
    if found is None:
        return "no tail percentile (needs >= 11 samples)"
    pct, value = found
    return f"p{pct:.0f} = {value:.6g} s (10 samples beyond it)"


def measure_traced(wl, instances, seconds, spans_path, header):
    """Untraced and traced solves of each instance, alternating which goes first.

    Span times are unscaled; the overhead compares speed-scaled call times.
    """
    calls = Calls(wl)
    tracer = Tracer(layers.NOTES)
    speed = Speed()
    niter = wl.config.niter
    plain, traced, traced_outcomes, full_calls = [], [], [], []
    first_by_instance = [None] * len(instances)

    def run_once(k, with_trace):
        if with_trace:
            with tracer.installed(layers.TARGETS):
                seconds, outcome, ok = calls.run(instances[k], niter, tracer.call)
        else:
            seconds, outcome, ok = calls.run(instances[k], niter)
        return seconds, speed.next_factor(), outcome, ok

    for j, k in enumerate(rounds(len(instances), seconds)):
        order = (False, True) if j % 2 == 0 else (True, False)
        runs = {with_trace: run_once(k, with_trace) for with_trace in order}
        (t_plain, f_plain, o_plain, ok_plain) = runs[False]
        (t_traced, f_traced, o_traced, ok_traced) = runs[True]
        full_calls += [(o_plain, ok_plain), (o_traced, ok_traced)]
        traced_outcomes.append(o_traced)
        calls.same_result(o_plain, o_traced)
        if o_plain is not None:
            plain.append(t_plain * f_plain)
            if first_by_instance[k] is None:
                first_by_instance[k] = o_plain
        if o_traced is not None:
            traced.append(t_traced * f_traced)
    tracer.write(spans_path, header)

    quality = solve_quality(wl, full_calls, first_by_instance)
    reqs = layers.requests(tracer, traced_outcomes)
    values = layers.request_metrics(reqs)
    values["solver.fail_frac"] = quality["fail_frac"]
    gap = quality["lf_gap_decades"]
    values["solver.lf_gap_decades"] = gap if math.isfinite(gap) else None
    values["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0
                                     if plain and traced else None)
    metrics, lines, absent = {}, [], []
    for name, unit, _ in layers.PER_LAYER:
        value = values[name]
        if value is None:
            absent.append(name)
            lines.append(f"{name:34s} absent")
            value = 0.0
        else:
            lines.append(f"{name:34s} {value:.6g} {unit}")
        metrics[name] = (value, unit)
    lines.append(f"traced solve_s median {_median(traced)} s over {len(traced)}, "
                 f"untraced {_median(plain)} s over {len(plain)}")
    if tracer.missing:
        lines.append("missing wrapped functions: " + ", ".join(tracer.missing))
    if absent:
        lines.append("absent metrics read 0 in the JSON: " + ", ".join(absent))
    if wl.config.problem == "kde" and reqs:
        kernels, evaluates, lf_kde, solves = layers.kernel_identity(reqs)
        status = "holds" if kernels == evaluates + lf_kde + solves else "DOES NOT HOLD"
        lines.append(f"kernel builds {kernels} = evaluate {evaluates} + lf_kde {lf_kde} "
                     f"+ lambda0 {solves}: {status}")
    lines.append(f"spans written to {os.path.relpath(spans_path)}")
    return calls, (metrics, lines), quality


def _median(values):
    return f"{statistics.median(values):.6g}" if values else "n/a"


def run_workload(wl, seed, seconds, trace, out):
    """Measure and report one workload; returns (calls, metrics or None).

    Inputs and outputs of the calls live in a directory under ``out`` that
    is removed afterwards; the traced run leaves its spans in ``out``.
    """
    out.mkdir(exist_ok=True)
    workdir = out / f"tmp-{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        instances = wl.make(seed, str(workdir))
        if trace:
            spans = out / f"spans-{wl.name}-seed{seed}.json.gz"
            header = {"workload": wl.name, "seed": seed, "seconds": seconds}
            calls, measured, quality = measure_traced(wl, instances, seconds, spans, header)
        else:
            calls, measured, quality = measure(wl, instances, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"== {wl.name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    if measured is not None:
        for line in measured[1]:
            print("  " + line)
    if quality["pole_overshoot"] > 0:
        print(f"  past the pole    {quality['pole_overshoot']:.3g} rad  largest latitude beyond "
              f"pi/2 over instances; the geodesic cost's domain slack is {workloads.LATITUDE_SLACK:g}")
    stops = ", ".join(f"{name} x{n}" for name, n in sorted(quality["stops"].items()))
    print(f"  stop classes     {stops or 'none'}")
    print(f"  checks           {calls.attempted} calls: {calls.incorrect} failed a check, "
          f"{calls.failed} raised")
    for problem, times in calls.problems.most_common(5):
        print(f"    x{times}: " + problem.strip().replace("\n", "\n    "))
    return calls, measured[0] if measured else None
