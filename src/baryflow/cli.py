"""Command-line interface: dataset generation, solving, time-series filtering.

Subcommands:

* ``gen {ellipses,sphere-patches,hidden-signal}`` writes a dataset CSV (or a
  time-series CSV for ``hidden-signal``).
* ``solve`` reads a dataset CSV and writes the mapped points, the iteration
  history and a run summary.
* ``filter-timeseries`` turns a time-series CSV into a lagged-covariate
  dataset and solves it.

Dataset CSV format: header row, numeric columns ``x1..xd``, and either a
single ``z`` column (categorical labels, read as strings) or numeric columns
``z1..zm`` (continuous covariates).  Numbers are serialized with 17
significant digits, so re-running with the same configuration and seed
reproduces outputs byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .costs import parse_cost_spec
from .couplings import Covariates
from .datagen import (
    Dataset,
    TimeSeriesSample,
    cart2sph,
    gen_ellipses,
    gen_hidden_signal,
    gen_sphere_patches,
    lagged_dataset,
    sph2cart,
)
from .errors import BaryflowError, InvalidInputError
from .solver import SolverConfig, solve

__all__ = ["load_dataset", "main", "save_dataset"]

_X_COL = re.compile(r"^x(\d+)$")
_Z_COL = re.compile(r"^z(\d+)$")


def _fmt(value):
    return format(float(value), ".17g")


@contextlib.contextmanager
def _opened(target, mode):
    """Yield a file for a path, ``-`` (stdin or stdout) or an open file object.

    Only a file opened here is closed here.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield target
    elif os.fspath(target) == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(target, mode, newline="") as fileobj:
            yield fileobj


def load_dataset(source):
    """Parse a dataset CSV from a path, ``-`` (stdin), or a file object."""
    with _opened(source, "r") as fileobj:
        reader = csv.reader(fileobj)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError("missing header row") from None
        header = [h.strip() for h in header]
        x_cols, z_num_cols = {}, {}
        z_cat_col = None
        for pos, name in enumerate(header):
            m = _X_COL.match(name)
            if m:
                x_cols[int(m.group(1))] = pos
                continue
            m = _Z_COL.match(name)
            if m:
                z_num_cols[int(m.group(1))] = pos
                continue
            if name == "z":
                z_cat_col = pos
                continue
            raise InvalidInputError(f"unexpected column {name!r} in dataset header")
        if not x_cols or sorted(x_cols) != list(range(1, len(x_cols) + 1)):
            raise InvalidInputError("dataset needs contiguous columns x1..xd")
        if z_cat_col is not None and z_num_cols:
            raise InvalidInputError("ambiguous covariates: both 'z' and 'z1..' present")
        if z_cat_col is None and not z_num_cols:
            raise InvalidInputError("dataset needs a 'z' column or columns z1..zm")
        if z_num_cols and sorted(z_num_cols) != list(range(1, len(z_num_cols) + 1)):
            raise InvalidInputError("continuous covariates need contiguous columns z1..zm")

        x_positions = [x_cols[i] for i in sorted(x_cols)]
        z_positions = [z_num_cols[i] for i in sorted(z_num_cols)]
        rows_x, rows_z, labels = [], [], []
        for row in reader:
            if not row:
                continue
            try:
                rows_x.append([float(row[pos]) for pos in x_positions])
            except (ValueError, IndexError):
                raise InvalidInputError(
                    f"non-numeric or missing x value in row {reader.line_num}"
                ) from None
            if z_cat_col is not None:
                try:
                    labels.append(row[z_cat_col].strip())
                except IndexError:
                    raise InvalidInputError(
                        f"missing covariate in row {reader.line_num}"
                    ) from None
            else:
                try:
                    rows_z.append([float(row[pos]) for pos in z_positions])
                except (ValueError, IndexError):
                    raise InvalidInputError(
                        f"non-numeric or missing z value in row {reader.line_num}"
                    ) from None
        if len(rows_x) < 2:
            raise InvalidInputError("dataset needs at least 2 rows")
        x = np.asarray(rows_x, dtype=float)
        if z_cat_col is not None:
            covariates = Covariates.categorical(np.asarray(labels))
        else:
            covariates = Covariates.continuous(np.asarray(rows_z, dtype=float))
        return Dataset(x=x, covariates=covariates)


def _covariate_header_and_rows(covariates):
    if covariates.kind == "categorical":
        return ["z"], [[str(v)] for v in covariates.labels]
    m = covariates.values.shape[1]
    return [f"z{j + 1}" for j in range(m)], [
        [_fmt(v) for v in row] for row in covariates.values
    ]


def save_dataset(dataset, fileobj, y=None):
    """Write a dataset CSV; with mapped points ``y``, columns y1..yd follow (the result CSV)."""
    writer = csv.writer(fileobj, lineterminator="\n")
    d = dataset.dim
    z_header, z_rows = _covariate_header_and_rows(dataset.covariates)
    y_header = [] if y is None else [f"y{j + 1}" for j in range(d)]
    writer.writerow([f"x{j + 1}" for j in range(d)] + z_header + y_header)
    y_rows = [[]] * dataset.n if y is None else [[_fmt(v) for v in yi] for yi in y]
    for xi, zi, yi in zip(dataset.x, z_rows, y_rows):
        writer.writerow([_fmt(v) for v in xi] + zi + yi)


def _write_series_csv(series, fileobj):
    _, phi_x, theta_x = cart2sph(series.x)
    _, phi_w, theta_w = cart2sph(series.w_hidden)
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["t", "x_theta", "x_phi", "w_theta", "w_phi"])
    for k in range(series.x.shape[0]):
        writer.writerow([
            str(k),
            _fmt(theta_x[k]), _fmt(phi_x[k]),
            _fmt(theta_w[k]), _fmt(phi_w[k]),
        ])


def load_series(source):
    """Read a time-series CSV (columns t, x_theta, x_phi[, w_theta, w_phi])."""
    with _opened(source, "r") as fileobj:
        reader = csv.DictReader(fileobj)
        if reader.fieldnames is None or not {"x_theta", "x_phi"} <= set(reader.fieldnames):
            raise InvalidInputError("time-series CSV needs columns x_theta and x_phi")
        has_w = {"w_theta", "w_phi"} <= set(reader.fieldnames)
        theta, phi, w_theta, w_phi = [], [], [], []
        for row in reader:
            try:
                theta.append(float(row["x_theta"]))
                phi.append(float(row["x_phi"]))
                if has_w:
                    w_theta.append(float(row["w_theta"]))
                    w_phi.append(float(row["w_phi"]))
            except (ValueError, TypeError):  # TypeError: a short row leaves None
                raise InvalidInputError(
                    f"non-numeric or missing value in row {reader.line_num}"
                ) from None
        if len(theta) < 2:
            raise InvalidInputError("time series needs at least 2 steps")
        x = sph2cart(1.0, np.asarray(phi), np.asarray(theta))
        if has_w:
            w = sph2cart(1.0, np.asarray(w_phi), np.asarray(w_theta))
        else:
            w = np.full_like(x, np.nan)
        return TimeSeriesSample(x=x, w_hidden=w)


def _write_history_csv(history, fileobj):
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["iter", "L", "L_C", "L_F", "lambda", "eta", "eta_halvings"])
    for rec in history:
        writer.writerow([
            str(rec.n), _fmt(rec.L), _fmt(rec.L_C), _fmt(rec.L_F),
            _fmt(rec.lam), _fmt(rec.eta), str(rec.eta_halvings),
        ])


def _resolve_seed(args):
    """The --seed flag, else $BARYFLOW_SEED, else 0; a negative seed is rejected."""
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get("BARYFLOW_SEED", "0")
        source = "BARYFLOW_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise InvalidInputError(f"BARYFLOW_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise InvalidInputError(f"{source} must be >= 0, got {seed}")
    return seed


def _positive_or_auto(text):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _cost_spec(text):
    """Check a --cost value; the text itself is kept, for the summary echo."""
    try:
        parse_cost_spec(text)
    except InvalidInputError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def _add_solver_flags(parser):
    cfg = SolverConfig  # its fields' defaults are the flags' defaults, kept in one place
    parser.add_argument("--cost", type=_cost_spec, default="l2",
                        help="l2 | pnorm:<p> | geodesic-sphere | distortion:<omega>")
    parser.add_argument("--problem", choices=("kde", "features"), default=cfg.problem)
    parser.add_argument("--feature-degree", type=int, default=cfg.feature_degree)
    parser.add_argument("--bandwidth-a", type=_positive_or_auto, default=cfg.bandwidth_a)
    parser.add_argument("--bandwidth-b", type=_positive_or_auto, default="auto")
    parser.add_argument("--update", choices=("explicit", "implicit"), default=cfg.update)
    parser.add_argument("--eta0", type=float, default=cfg.eta0)
    parser.add_argument("--niter", type=int, default=cfg.niter)
    parser.add_argument("--lambda0", type=_positive_or_auto, default=cfg.lambda0)
    parser.add_argument("--lambda-max", type=float, default=cfg.lambda_max)
    parser.add_argument("--omega-alpha", type=float, default=cfg.omega_alpha)
    parser.add_argument("--tol-y", type=float, default=cfg.tol_y)
    parser.add_argument("--tol-lf", type=float, default=cfg.tol_lf)
    parser.add_argument("--precondition", action="store_true", default=cfg.precondition)
    parser.add_argument("--seed", type=int, default=None,
                        help="defaults to $BARYFLOW_SEED, else 0")
    parser.add_argument("--output", default="result.csv",
                        help="result CSV path ('-' for stdout)")
    parser.add_argument("--history", default="history.csv",
                        help="history CSV path ('-' for stdout)")
    parser.add_argument("--summary", default="summary.json",
                        help="run summary JSON path ('-' for stdout)")


def _run_solve(args, dataset):
    seed = _resolve_seed(args)
    if dataset.covariates.kind == "continuous" and args.bandwidth_b != "auto":
        covariates = dataclasses.replace(dataset.covariates, bandwidth_b=args.bandwidth_b)
        dataset = dataclasses.replace(dataset, covariates=covariates)
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)}
    config = SolverConfig(**dict(flags, seed=seed))
    started = time.perf_counter()
    result = solve(dataset.x, dataset.covariates, parse_cost_spec(args.cost), config)
    wall = time.perf_counter() - started

    echo = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    summary = {
        "config": dict(echo, seed=seed),  # every flag of the run, with the seed used
        "converged": result.converged,
        "iterations": result.iterations,
        "final_L_C": result.final_L_C,
        "final_L_F": result.final_L_F,
        "final_lambda": result.final_lambda,
        "lambda0": result.lambda0,
        "bandwidth_a": result.bandwidth_a,
        "wall_time_s": wall,
        "version": __version__,
    }

    writers = (
        (args.output, lambda fh: save_dataset(dataset, fh, y=result.y_final)),
        (args.history, lambda fh: _write_history_csv(result.history, fh)),
        (args.summary, lambda fh: fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")),
    )
    created = []
    try:
        for target, write in writers:
            with _opened(target, "w") as fh:
                if target != "-":
                    created.append(target)
                write(fh)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise
    return 0


def _given(args, name):
    """``{name: value}`` for a flag that was given, else ``{}``: the generator's default applies."""
    value = getattr(args, name)
    return {} if value is None else {name: value}


def _cmd_gen(args):
    seed = _resolve_seed(args)
    if args.what == "ellipses":
        data, write = gen_ellipses(seed, **_given(args, "n_per_class")), save_dataset
    elif args.what == "sphere-patches":
        data = gen_sphere_patches(seed, antipodal=not args.same_hemisphere,
                                  **_given(args, "n_per_class"))
        write = save_dataset
    else:
        data, write = gen_hidden_signal(seed, **_given(args, "steps")), _write_series_csv
    with _opened(args.output, "w") as out:  # opened once the data exist: a bad argument writes no file
        write(data, out)
    return 0


def _cmd_solve(args):
    dataset = load_dataset(args.input)
    return _run_solve(args, dataset)


def _cmd_filter_timeseries(args):
    series = load_series(args.input)
    return _run_solve(args, lagged_dataset(series, space=args.lag_space))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="baryflow",
        description="Distributional barycenters of conditional samples via penalized gradient flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("what", choices=("ellipses", "sphere-patches", "hidden-signal"))
    gen.add_argument("--n-per-class", type=int, default=None)
    gen.add_argument("--same-hemisphere", action="store_true",
                     help="sphere-patches: place both patches in one hemisphere")
    gen.add_argument("--steps", type=int, default=None, help="hidden-signal length")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--output", default="-", help="output CSV path ('-' for stdout)")
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="solve a dataset CSV")
    slv.add_argument("--input", default="-", help="dataset CSV path ('-' for stdin)")
    _add_solver_flags(slv)
    slv.set_defaults(func=_cmd_solve)

    flt = sub.add_parser("filter-timeseries",
                         help="build lagged covariates from a time-series CSV and solve")
    flt.add_argument("--input", default="-", help="time-series CSV path ('-' for stdin)")
    flt.add_argument("--lag-space", choices=("spherical", "cartesian"), default="spherical")
    _add_solver_flags(flt)
    flt.set_defaults(func=_cmd_filter_timeseries)
    return parser


def main(argv=None):
    """Entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BaryflowError, OSError) as err:
        print(f"baryflow: error: {err}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
