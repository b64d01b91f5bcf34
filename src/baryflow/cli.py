"""Command-line interface: dataset generation, solving, time-series filtering.

Subcommands:

* ``gen {ellipses,sphere-patches,hidden-signal}`` writes a dataset CSV (or a
  time-series CSV for ``hidden-signal``).  Each generator is a subcommand
  of its own that takes ``--seed``, ``--output`` and only its own options;
  an option left out takes the generator's default.
* ``solve`` reads a dataset CSV and writes the mapped points, the iteration
  history and a run summary.
* ``filter-timeseries`` turns a time-series CSV into a lagged-covariate
  dataset and solves it.

The solving commands take one flag per :class:`~baryflow.solver.SolverConfig`
field, with that field's default, plus their input, output, history,
summary and cost (and ``filter-timeseries`` its lag space).

Dataset CSV format: header row, numeric columns ``x1..xd``, and either a
single ``z`` column (categorical labels, read as strings) or numeric columns
``z1..zm`` (continuous covariates).  Every number the CLI writes goes
through one formatter with 17 significant digits, which reads back to the
same float, so re-running with the same configuration and seed reproduces
outputs byte for byte.
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

_NUMBERED_COL = re.compile(r"^([xz])(\d+)$")


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


def _read_csv(fileobj):
    """The header row of a CSV file (None when it is empty) and its non-blank rows.

    Each row comes as ``(line, cells)``, ``line`` the line it ends on, blank lines counted.
    """
    reader = csv.reader(fileobj)
    header = next(reader, None)
    return header, [(reader.line_num, row) for row in reader if row]


def _float_table(rows, columns, label=None):
    """The cells of ``columns``, (position, what) pairs, as a len(rows) x len(columns) float array.

    Reads every form ``float`` reads, in one pass.  With a ``label``
    position it returns each row's stripped label too.  At a non-numeric or
    missing cell, or a missing label, it rescans the rows in order and
    raises InvalidInputError naming the first bad one, what it is and its line.
    """
    try:
        cells = [row[pos] for _, row in rows for pos, _ in columns]
        table = np.fromiter(map(float, cells), float, len(cells)).reshape(len(rows), len(columns))
        return table if label is None else (table, [row[label].strip() for _, row in rows])
    except (ValueError, IndexError):
        for line, row in rows:  # the first bad line raises
            for pos, what in columns:
                try:
                    float(row[pos])
                except (ValueError, IndexError):
                    raise InvalidInputError(f"non-numeric or missing {what} in row {line}") from None
            if label is not None and len(row) <= label:
                raise InvalidInputError(f"missing covariate in row {line}") from None
        raise


def _numbered(columns, message):
    """Positions of columns numbered 1..k in number order; ``message`` if k = 0 or one is missing."""
    if not columns or sorted(columns) != list(range(1, len(columns) + 1)):
        raise InvalidInputError(message)
    return [columns[i] for i in sorted(columns)]


def load_dataset(source):
    """Parse a dataset CSV from a path, ``-`` (stdin), or a file object."""
    with _opened(source, "r") as fileobj:
        header, rows = _read_csv(fileobj)
    if header is None:
        raise InvalidInputError("missing header row")
    numbered = {"x": {}, "z": {}}
    z_cat_col = None
    for pos, name in enumerate(h.strip() for h in header):
        m = _NUMBERED_COL.match(name)
        if m:
            numbered[m.group(1)][int(m.group(2))] = pos
        elif name == "z":
            z_cat_col = pos
        else:
            raise InvalidInputError(f"unexpected column {name!r} in dataset header")
    if len(numbered["x"]) + len(numbered["z"]) + (z_cat_col is not None) < len(header):
        raise InvalidInputError("dataset header names a column twice")  # x1 and x01 included
    x_columns = [(pos, "x value")
                 for pos in _numbered(numbered["x"], "dataset needs contiguous columns x1..xd")]
    if z_cat_col is not None and numbered["z"]:
        raise InvalidInputError("ambiguous covariates: both 'z' and 'z1..' present")
    if z_cat_col is None and not numbered["z"]:
        raise InvalidInputError("dataset needs a 'z' column or columns z1..zm")
    if numbered["z"]:
        z_columns = [(pos, "z value") for pos in _numbered(
            numbered["z"], "continuous covariates need contiguous columns z1..zm")]
        table = _float_table(rows, x_columns + z_columns)
        x, z = (np.ascontiguousarray(part) for part in np.hsplit(table, [len(x_columns)]))
    else:
        x, labels = _float_table(rows, x_columns, label=z_cat_col)
    if len(rows) < 2:
        raise InvalidInputError("dataset needs at least 2 rows")
    covariates = Covariates.continuous(z) if numbered["z"] else Covariates.categorical(labels)
    return Dataset(x=x, covariates=covariates)


def _number_lines(columns, integer=()):
    """One CSV line of text per row of the numbers in ``columns``, side by side.

    ``columns`` are 1-D (one column) or 2-D (several) arrays of one length.
    Every value prints as ``format(float(v), ".17g")`` does, which reads back
    to the same float; the column positions in ``integer`` print as integers.
    """
    table = np.column_stack(columns).astype(float, copy=False)
    line = ",".join("%d" if j in integer else "%.17g" for j in range(table.shape[1]))
    return [line % tuple(row) for row in table.tolist()]


def _write_csv(fileobj, header, lines):
    fileobj.write("".join(f"{text}\n" for text in [",".join(header), *lines]))


def save_dataset(dataset, fileobj, y=None):
    """Write a dataset CSV; with mapped points ``y``, columns y1..yd follow (the result CSV)."""
    d = dataset.dim
    covariates = dataset.covariates
    x_header = [f"x{j + 1}" for j in range(d)]
    y_header = [] if y is None else [f"y{j + 1}" for j in range(d)]
    if covariates.kind == "continuous":
        z_header = [f"z{j + 1}" for j in range(covariates.values.shape[1])]
        blocks = [dataset.x, covariates.values] + ([] if y is None else [y])
        _write_csv(fileobj, x_header + z_header + y_header, _number_lines(blocks))
        return
    # a label may need csv quoting; the numbers beside it never do
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(x_header + ["z"] + y_header)
    x_cells = [text.split(",") for text in _number_lines([dataset.x])]
    y_cells = [[]] * dataset.n if y is None else [text.split(",") for text in _number_lines([y])]
    writer.writerows([*xc, str(label), *yc]
                     for xc, label, yc in zip(x_cells, covariates.labels, y_cells))


def _write_series_csv(series, fileobj):
    _, phi_x, theta_x = cart2sph(series.x)
    _, phi_w, theta_w = cart2sph(series.w_hidden)
    steps = np.arange(series.x.shape[0])
    _write_csv(fileobj, ["t", "x_theta", "x_phi", "w_theta", "w_phi"],
               _number_lines([steps, theta_x, phi_x, theta_w, phi_w], integer=(0,)))


def load_series(source):
    """Read a time-series CSV (columns t, x_theta, x_phi[, w_theta, w_phi])."""
    with _opened(source, "r") as fileobj:
        header, rows = _read_csv(fileobj)
    positions = {name.strip(): pos for pos, name in enumerate(header or [])}
    if len(positions) < len(header or []):
        raise InvalidInputError("time-series CSV header names a column twice")
    if not {"x_theta", "x_phi"} <= positions.keys():
        raise InvalidInputError("time-series CSV needs columns x_theta and x_phi")
    has_w = {"w_theta", "w_phi"} <= positions.keys()
    names = ("x_theta", "x_phi", "w_theta", "w_phi")[:4 if has_w else 2]
    table = _float_table(rows, [(positions[name], "value") for name in names])
    if len(rows) < 2:
        raise InvalidInputError("time series needs at least 2 steps")
    theta, phi, *w_angles = table.T
    x = sph2cart(1.0, phi, theta)
    w = sph2cart(1.0, w_angles[1], w_angles[0]) if has_w else np.full_like(x, np.nan)
    return TimeSeriesSample(x=x, w_hidden=w)


_HISTORY_COLUMNS = (("iter", "n"), ("L", "L"), ("L_C", "L_C"), ("L_F", "L_F"),  # (header, field)
                    ("lambda", "lam"), ("eta", "eta"), ("eta_halvings", "eta_halvings"))


def _write_history_csv(history, fileobj):
    """One row per accepted step, read column by column from the solver's history."""
    columns = [history.column(name) for _, name in _HISTORY_COLUMNS]
    integer = [j for j, column in enumerate(columns) if column.dtype.kind == "i"]
    _write_csv(fileobj, [header for header, _ in _HISTORY_COLUMNS],
               _number_lines(columns, integer=integer))


def _positive_or_auto(text):
    """A number or "auto"; :class:`SolverConfig` checks that the number is positive."""
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _add_solver_flags(parser):
    parser.add_argument("--cost", default="l2",
                        help="l2 | pnorm:<p> | geodesic-sphere | distortion:<omega>")
    for f in dataclasses.fields(SolverConfig):  # one flag per setting, in field order
        if f.name in SolverConfig.CHOICES:
            kind = {"choices": SolverConfig.CHOICES[f.name]}
        elif isinstance(f.default, bool):
            kind = {"action": "store_true"}
        else:
            kind = {"type": _positive_or_auto if f.default == "auto" else type(f.default)}
        parser.add_argument("--" + f.name.replace("_", "-"), default=f.default, **kind)
    parser.add_argument("--output", default="result.csv",
                        help="result CSV path ('-' for stdout)")
    parser.add_argument("--history", default="history.csv",
                        help="history CSV path ('-' for stdout)")
    parser.add_argument("--summary", default="summary.json",
                        help="run summary JSON path ('-' for stdout)")


def _run_solve(args, dataset):
    config = SolverConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)})
    started = time.perf_counter()
    result = solve(dataset.x, dataset.covariates, parse_cost_spec(args.cost), config)
    wall = time.perf_counter() - started

    echo = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    summary = {
        "config": echo,  # every flag of the run
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


_GENERATORS = {  # gen subcommand: (generator, writer)
    "ellipses": (gen_ellipses, save_dataset),
    "sphere-patches": (gen_sphere_patches, save_dataset),
    "hidden-signal": (gen_hidden_signal, _write_series_csv),
}


def _cmd_gen(args):
    generate, write = _GENERATORS[args.what]
    # --seed and the generator's own flags that were given; its defaults fill in the rest
    options = {k: v for k, v in vars(args).items() if k not in ("command", "what", "func", "output")}
    data = generate(**options)
    with _opened(args.output, "w") as out:  # opened once the data exist: a bad argument writes no file
        write(data, out)
    return 0


def _cmd_solve(args):
    dataset = load_dataset(args.input)
    return _run_solve(args, dataset)


def _cmd_filter_timeseries(args):
    series = load_series(args.input)
    return _run_solve(args, lagged_dataset(series, space=args.lag_space))


def _add_gen_flags(cmd):
    # flags that every generator takes are added once, to a parent whose objects they share
    gen_flags = argparse.ArgumentParser(add_help=False)
    gen_flags.add_argument("--seed", type=int, default=0)
    gen_flags.add_argument("--output", default="-", help="output CSV path ('-' for stdout)")
    gen_flags.set_defaults(func=_cmd_gen)
    generators = cmd.add_subparsers(dest="what", required=True)
    # a generator's own flags are left out unless given, so that its defaults apply
    ellipses, patches, signal = (
        generators.add_parser(what, parents=[gen_flags], argument_default=argparse.SUPPRESS)
        for what in _GENERATORS)
    ellipses.add_argument("--n-per-class", type=int)
    patches.add_argument("--n-per-class", type=int)
    patches.add_argument("--same-hemisphere", dest="antipodal", action="store_false",
                         help="place both patches in one hemisphere")
    signal.add_argument("--steps", type=int, help="series length")


def _add_solve_flags(cmd):
    _add_solver_flags(cmd)
    cmd.add_argument("--input", default="-", help="dataset CSV path ('-' for stdin)")
    cmd.set_defaults(func=_cmd_solve)


def _add_filter_flags(cmd):
    _add_solver_flags(cmd)
    cmd.add_argument("--input", default="-", help="time-series CSV path ('-' for stdin)")
    cmd.add_argument("--lag-space", choices=("spherical", "cartesian"), default="spherical")
    cmd.set_defaults(func=_cmd_filter_timeseries)


_COMMANDS = {  # command: (help, adds its flags)
    "gen": ("generate a synthetic dataset", _add_gen_flags),
    "solve": ("solve a dataset CSV", _add_solve_flags),
    "filter-timeseries": ("build lagged covariates from a time-series CSV and solve",
                          _add_filter_flags),
}


def _build_parser(command=None):
    """The CLI's parser, with the flags of ``command`` only, or of every command if it names none.

    The other commands stay bare entries, so help and errors still list them.
    """
    parser = argparse.ArgumentParser(
        prog="baryflow",
        description="Distributional barycenters of conditional samples via penalized gradient flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        if command not in _COMMANDS or command == name:
            add_flags(cmd)
    return parser


def _parse(argv):
    """Parsed arguments, from a parser built for the command that ``argv`` names first.

    Once this returns nothing refers to the parser; its reference cycles go
    at the next automatic collection (a forced one costs more than the whole
    set-up of a small solve).
    """
    argv = sys.argv[1:] if argv is None else argv
    return _build_parser(argv[0] if argv else None).parse_args(argv)


def main(argv=None):
    """Entry point; returns the process exit status."""
    args = _parse(argv)
    try:
        return args.func(args)
    except (BaryflowError, OSError) as err:
        print(f"baryflow: error: {err}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
