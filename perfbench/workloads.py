"""The benchmark's workloads: inputs from a seed, the measured call, its checks.

One ``--seed`` yields a fixed number of problems per workload (its
``instances``), drawn with the package's own generators; workloads with
fewer instances get a prefix of the same instance seeds.  A call returns its wall time and an ``Outcome``
read through the public API only: the ``BarycenterResult`` of ``solve``, or
the files ``cli.main`` writes.  ``check`` lists what is wrong with an
outcome; an empty list means the call passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from baryflow import cli, datagen
from baryflow.costs import parse_cost_spec
from baryflow.solver import SolverConfig, solve

STALL_FACTOR = 1e-12  # a last accepted eta below STALL_FACTOR * eta0 is a stall
FAILING_STOPS = ("stalled", "backtrack_exhausted")
# The geodesic cost accepts latitudes up to pi/2 + 1e-9 and the solver rejects
# any step past that, so this is the domain every output must lie in.
LATITUDE_SLACK = 1e-9


def plain_call(name, fn, *args):
    """Call-site hook used when tracing is off."""
    return fn(*args)


def instance_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Outcome:
    """What one call left behind."""

    y: np.ndarray
    converged: bool
    iterations: int
    lf: list  # L_F of every accepted iteration
    last_eta: float  # eta of the last accepted iteration; nan when none was
    bytes_written: int = 0
    pole_overshoot: float = 0.0  # largest |latitude| - pi/2, when positive (geodesic only)


def stop_class(outcome, config):
    """Why a solve stopped, judged from its outcome alone."""
    if outcome.converged:
        return "converged"
    if outcome.iterations < config.niter:
        return "backtrack_exhausted"
    if outcome.last_eta < STALL_FACTOR * config.eta0:
        return "stalled"
    return "max_iter"


def iters_to_tol(outcome, config):
    """First iteration (1-based) with L_F < tol_lf; niter + 1 when never."""
    for k, lf in enumerate(outcome.lf, start=1):
        if lf < config.tol_lf:
            return k
    return config.niter + 1


def lf_gap_decades(outcome, config):
    """Decades by which the final L_F misses tol_lf; 0 when it is met."""
    if not outcome.lf:
        return math.inf
    final = outcome.lf[-1]
    return max(0.0, math.log10(final / config.tol_lf)) if final > 0 else 0.0


def class_spreads(y, labels):
    """Largest gap between class means and between class covariances."""
    classes = np.unique(labels)
    means = np.array([y[labels == c].mean(axis=0) for c in classes])
    covs = np.array([np.cov(y[labels == c].T) for c in classes])
    return float(np.ptp(means, axis=0).max()), float(np.ptp(covs, axis=0).max())


def _shape_problems(y, n, d):
    if y.shape != (n, d):
        return [f"y_final has shape {y.shape}, expected {(n, d)}"]
    if not np.isfinite(y).all():
        return ["y_final is not finite"]
    return []


class EllipseWorkload:
    """``solve`` on three ellipse clusters with categorical labels and the l2 cost.

    ``check`` is "class-stats" (per-class means and covariances of y_final
    agree within ``tolerance``) or "lf-drop" (the final L_F is at most
    ``tolerance`` times the first iteration's).
    """

    cost = parse_cost_spec("l2")

    def __init__(self, name, n_per_class, config, check, tolerance, instances):
        self.name = name
        self.instances = instances
        self.n_per_class = n_per_class
        self.config = config
        self.check_kind = check
        self.tolerance = tolerance

    def make(self, seed, workdir):
        return [datagen.gen_ellipses(s, n_per_class=self.n_per_class)
                for s in instance_seeds(seed, self.instances)]

    def call(self, dataset, niter, invoke=plain_call):
        config = replace(self.config, niter=niter)
        started = time.perf_counter()
        result = invoke("solver.solve", solve, dataset.x, dataset.covariates, self.cost, config)
        elapsed = time.perf_counter() - started
        history = result.history
        return elapsed, Outcome(
            y=np.asarray(result.y_final),
            converged=bool(result.converged),
            iterations=int(result.iterations),
            lf=[float(h.L_F) for h in history],
            last_eta=float(history[-1].eta) if history else math.nan,
        )

    def check(self, dataset, outcome, full):
        problems = _shape_problems(outcome.y, *dataset.x.shape)
        if problems or not full:
            return problems
        if self.check_kind == "class-stats":
            mean_gap, cov_gap = class_spreads(outcome.y, np.asarray(dataset.covariates.labels))
            mean_tol, cov_tol = self.tolerance
            if not (mean_gap <= mean_tol and cov_gap <= cov_tol):
                problems.append(f"class means/covariances differ by {mean_gap:.3g}/{cov_gap:.3g}, "
                                f"tolerance {mean_tol:g}/{cov_tol:g}")
        elif not outcome.lf:
            problems.append("no iteration was accepted")
        elif not outcome.lf[-1] <= self.tolerance * outcome.lf[0]:
            problems.append(f"final L_F {outcome.lf[-1]:.4g} is not below "
                            f"{self.tolerance:g} x first L_F {outcome.lf[0]:.4g}")
        return problems


@dataclass
class SeriesFiles:
    """One hidden-signal instance: its series CSV and the CLI's output paths."""

    series: str
    result: str
    history: str
    summary: str
    rows: int


class HiddenSignalWorkload:
    """``cli.main filter-timeseries`` on a hidden-signal series, geodesic cost."""

    def __init__(self, name, steps, config, instances):
        self.name = name
        self.instances = instances
        self.steps = steps
        self.config = config

    def make(self, seed, workdir):
        instances = []
        for k, s in enumerate(instance_seeds(seed, self.instances)):
            folder = os.path.join(workdir, f"{self.name}-{k}")
            os.makedirs(folder)
            files = SeriesFiles(*(os.path.join(folder, f) for f in
                                  ("series.csv", "result.csv", "history.csv", "summary.json")),
                                rows=self.steps - 1)
            code = cli.main(["gen", "hidden-signal", "--steps", str(self.steps),
                             "--seed", str(s), "--output", files.series])
            if code != 0:
                raise RuntimeError(f"generating {files.series} failed with exit code {code}")
            instances.append(files)
        return instances

    def call(self, files, niter, invoke=plain_call):
        argv = [
            "filter-timeseries", "--input", files.series, "--lag-space", "cartesian",
            "--cost", "geodesic-sphere", "--niter", str(niter),
            "--eta0", repr(self.config.eta0), "--tol-lf", repr(self.config.tol_lf),
            "--seed", str(self.config.seed), "--output", files.result,
            "--history", files.history, "--summary", files.summary,
        ]
        started = time.perf_counter()
        code = invoke("cli.main", cli.main, argv)
        elapsed = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"cli.main exited with code {code}")
        with open(files.result, newline="") as fh:
            rows = list(csv.reader(fh))
        y_cols = [k for k, col in enumerate(rows[0]) if col.startswith("y")]
        y = np.array([[float(row[k]) for k in y_cols] for row in rows[1:]]).reshape(-1, len(y_cols))
        with open(files.history, newline="") as fh:
            history = list(csv.DictReader(fh))
        with open(files.summary) as fh:
            summary = json.load(fh)
        return elapsed, Outcome(
            y=y,
            converged=bool(summary["converged"]),
            iterations=int(summary["iterations"]),
            lf=[float(row["L_F"]) for row in history],
            last_eta=float(history[-1]["eta"]) if history else math.nan,
            bytes_written=sum(os.path.getsize(p) for p in (files.result, files.history, files.summary)),
            pole_overshoot=max(0.0, float(np.abs(y[:, 1]).max()) - 0.5 * np.pi)
            if y.size and y.shape[1] == 2 else 0.0,
        )

    def check(self, files, outcome, full):
        problems = _shape_problems(outcome.y, files.rows, 2)
        if problems:
            return problems
        if float(np.abs(outcome.y[:, 1]).max()) > 0.5 * np.pi + LATITUDE_SLACK:
            problems.append(f"a latitude lies {outcome.pole_overshoot:.3g} beyond the pole, "
                            f"past the geodesic cost's domain slack of {LATITUDE_SLACK:g}")
        if outcome.iterations != len(outcome.lf):
            problems.append(f"summary.json says {outcome.iterations} iterations, "
                            f"history.csv has {len(outcome.lf)} rows")
        return problems


# More instances where the work per solve varies most between instances.
WORKLOADS = {w.name: w for w in (
    EllipseWorkload("ellipses-kde", 50, SolverConfig(), "class-stats", (0.01, 0.02), instances=12),
    EllipseWorkload("ellipses-implicit", 50, SolverConfig(update="implicit", niter=100),
                    "lf-drop", 0.1, instances=5),
    HiddenSignalWorkload("hidden-signal", 151, SolverConfig(niter=400), instances=15),
    EllipseWorkload("ellipses-features", 50, SolverConfig(problem="features"),
                    "class-stats", (1e-4, 1e-4), instances=5),
)}
