import csv
import dataclasses
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

from baryflow import cli
from baryflow.cli import (
    _build_parser, _number_lines, _write_series_csv, load_dataset, load_series, main, save_dataset,
)
from baryflow.costs import parse_cost_spec
from baryflow.couplings import Covariates
from baryflow.datagen import Dataset, gen_ellipses, gen_hidden_signal, gen_sphere_patches
from baryflow.errors import InvalidInputError
from baryflow.solver import SolverConfig


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def reference_dataset_csv(dataset, y=None):
    """save_dataset's text, one ``format(float(v), ".17g")`` cell at a time through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cov, d = dataset.covariates, dataset.dim
    cells = lambda row: [format(float(v), ".17g") for v in row]
    if cov.kind == "categorical":
        z_header, z_rows = ["z"], [[str(v)] for v in cov.labels]
    else:
        z_header = [f"z{j + 1}" for j in range(cov.values.shape[1])]
        z_rows = [cells(row) for row in cov.values]
    y_header = [] if y is None else [f"y{j + 1}" for j in range(d)]
    writer.writerow([f"x{j + 1}" for j in range(d)] + z_header + y_header)
    y_rows = [[]] * dataset.n if y is None else [cells(row) for row in y]
    for xi, zi, yi in zip(dataset.x, z_rows, y_rows):
        writer.writerow(cells(xi) + zi + yi)
    return buf.getvalue()


EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16, 1e17, 123456789012345678.0,
               np.inf, -np.inf, np.nan]
EDGE_INTS = [0, -1, 10**16, 10**17, 123456789012345678, 2**53 + 1, -2**63, 2**63 - 1]


# a non-default value for every SolverConfig field, in field order: (flag text, parsed value)
SOLVER_FLAG_VALUES = {
    "problem": ("features", "features"),
    "feature_degree": ("3", 3),
    "bandwidth_a": ("0.5", 0.5),
    "bandwidth_b": ("2", 2.0),
    "update": ("implicit", "implicit"),
    "eta0": ("0.25", 0.25),
    "niter": ("7", 7),
    "lambda0": ("3", 3.0),
    "lambda_max": ("1e5", 1e5),
    "omega_alpha": ("0.25", 0.25),
    "tol_y": ("1e-4", 1e-4),
    "tol_lf": ("1e-5", 1e-5),
    "precondition": (None, True),
    "seed": ("4", 4),
}


class TestNumberFormat:
    @pytest.mark.parametrize("values", [
        np.array(EDGE_FLOATS, dtype=np.float64),
        np.array(EDGE_FLOATS, dtype=np.float32),
        np.array(EDGE_INTS, dtype=np.int64),
    ], ids=lambda v: v.dtype.name)
    def test_edge_values_print_as_format_and_read_back(self, values):
        lines = _number_lines([values, values[::-1]])
        for line, v, w in zip(lines, values, values[::-1]):
            texts = line.split(",")
            assert texts == [format(float(v), ".17g"), format(float(w), ".17g")]
            assert np.array_equal([float(t) for t in texts], [float(v), float(w)], equal_nan=True)

    def test_integer_columns_print_as_integers(self):
        assert _number_lines([np.arange(3), np.full(3, 0.5), np.array([0, 7, 12])],
                             integer=(0, 2)) == ["0,0.5,0", "1,0.5,7", "2,0.5,12"]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("covariates", [
        Covariates.categorical(["a", "b,c", 'say "hi"', "", "a"]),
        Covariates.continuous(np.linspace(-1.0, 1.0, 10).reshape(5, 2)),
    ], ids=["categorical", "continuous"])
    def test_save_dataset_matches_per_cell_writer(self, covariates, dtype):
        x = (np.random.default_rng(3).standard_normal((5, 2)) * 1e3).astype(dtype)
        dataset = Dataset(x=x, covariates=covariates)
        for y in (None, x[::-1] / 7):
            buf = io.StringIO()
            save_dataset(dataset, buf, y=y)
            assert buf.getvalue() == reference_dataset_csv(dataset, y)


class TestLoadDataset:
    def test_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,x2,z\n0.0,1.0,a\n2.0,3.0,a\n4.0,5.0,b\n")
        ds = load_dataset(path)
        assert ds.x.shape == (3, 2)
        assert ds.covariates.kind == "categorical"
        assert list(ds.covariates.labels) == ["a", "a", "b"]

    def test_continuous(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,z1,z2\n0.0,1.0,2.0\n1.0,3.0,4.0\n")
        ds = load_dataset(path)
        assert ds.covariates.kind == "continuous"
        assert ds.covariates.values.shape == (2, 2)

    def test_cells_read_as_float_reads_them(self, tmp_path):
        # csv quoting, spaces, signs, exponents, underscores and the special values
        text = 'x1,x2,z1\n"1.5", 2e1 ,1_000\n-0.0,+.5,"3.5e-1"\ninf,-Infinity, 7 \n'
        ds = load_dataset(write(tmp_path, "d.csv", text))
        got = np.column_stack([ds.x, ds.covariates.values])
        want = np.array([[1.5, 20.0, 1000.0], [-0.0, 0.5, 0.35], [np.inf, -np.inf, 7.0]])
        assert got.tobytes() == want.tobytes()

    def test_ambiguous_covariates(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,z,z1\n0.0,a,1.0\n1.0,b,2.0\n")
        with pytest.raises(InvalidInputError, match="ambiguous"):
            load_dataset(path)

    def test_missing_header(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_dataset(write(tmp_path, "d.csv", ""))

    def test_non_numeric_x(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,z\nfoo,a\n1.0,b\n")
        with pytest.raises(InvalidInputError, match="non-numeric"):
            load_dataset(path)

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,z\n1.0,a\n")
        with pytest.raises(InvalidInputError, match="at least 2"):
            load_dataset(path)

    @pytest.mark.parametrize("header,message", [
        ("x2,z", "dataset needs contiguous columns x1..xd"),
        ("z", "dataset needs contiguous columns x1..xd"),
        ("x1", "dataset needs a 'z' column or columns z1..zm"),
        ("x1,z1,z3", "continuous covariates need contiguous columns z1..zm"),
    ])
    def test_header_errors(self, header, message, tmp_path):
        with pytest.raises(InvalidInputError) as err:
            load_dataset(write(tmp_path, "d.csv", header + "\n"))
        assert str(err.value) == message

    def test_unknown_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "x1,z,extra\n1.0,a,9\n2.0,b,9\n")
        with pytest.raises(InvalidInputError, match="unexpected column"):
            load_dataset(path)

    def test_round_trip(self):
        ds = gen_ellipses(seed=1, n_per_class=5)
        buf = io.StringIO()
        save_dataset(ds, buf)
        buf.seek(0)
        loaded = load_dataset(buf)
        assert np.array_equal(loaded.x, ds.x)
        assert list(loaded.covariates.labels) == [str(z) for z in ds.covariates.labels]


class TestLoadSeries:
    def test_spaced_header_loads_as_unspaced(self):
        # header names are stripped, as load_dataset strips them
        buf = io.StringIO()
        _write_series_csv(gen_hidden_signal(0, steps=20), buf)
        header, body = buf.getvalue().split("\n", 1)
        spaced = " " + header.replace(",", " , ") + " \n" + body
        plain, loaded = load_series(io.StringIO(buf.getvalue())), load_series(io.StringIO(spaced))
        assert loaded.x.tobytes() == plain.x.tobytes()
        assert loaded.w_hidden.tobytes() == plain.w_hidden.tobytes()

    def test_blank_lines_are_skipped(self):
        buf = io.StringIO()
        _write_series_csv(gen_hidden_signal(0, steps=5), buf)
        gapped = buf.getvalue().replace("\n", "\n\n", 2)
        plain, loaded = load_series(io.StringIO(buf.getvalue())), load_series(io.StringIO(gapped))
        assert loaded.x.tobytes() == plain.x.tobytes()
        assert loaded.w_hidden.tobytes() == plain.w_hidden.tobytes()


class TestCli:
    def test_gen_ellipses_to_file(self, tmp_path):
        out = str(tmp_path / "e.csv")
        assert main(["gen", "ellipses", "--seed", "0", "--n-per-class", "10",
                     "--output", out]) == 0
        ds = load_dataset(out)
        assert ds.n == 30

    def test_gen_deterministic(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["gen", "ellipses", "--seed", "5", "--output", a])
        main(["gen", "ellipses", "--seed", "5", "--output", b])
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("what", ["ellipses", "hidden-signal"])
    def test_negative_seed_is_error(self, what, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["gen", what, "--seed", "-1", "--output", str(out)]) == 1
        # the generator checks its seed; the CLI passes it on unchecked
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_end_to_end(self, tmp_path):
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "0", "--n-per-class", "20", "--output", data])
        out = str(tmp_path / "r.csv")
        hist = str(tmp_path / "h.csv")
        summ = str(tmp_path / "s.json")
        code = main(["solve", "--input", data, "--cost", "pnorm:2", "--problem", "features",
                     "--feature-degree", "2", "--niter", "300",
                     "--output", out, "--history", hist, "--summary", summ])
        assert code == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "x1,x2,z,y1,y2"
        assert len(rows) == 61
        hrows = open(hist).read().strip().splitlines()
        assert hrows[0] == "iter,L,L_C,L_F,lambda,eta,eta_halvings"
        lams = [float(r.split(",")[4]) for r in hrows[1:]]
        assert all(a <= b for a, b in zip(lams, lams[1:]))
        summary = json.load(open(summ))
        assert summary["config"]["cost"] == "pnorm:2"
        assert summary["config"]["seed"] == 0  # the default, echoed as parsed
        assert "final_L_F" in summary and "wall_time_s" in summary

    def test_result_rows_follow_input_order(self, tmp_path):
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "2", "--n-per-class", "5", "--output", data])
        out = str(tmp_path / "r.csv")
        main(["solve", "--input", data, "--niter", "5",
              "--output", out, "--history", str(tmp_path / "h.csv"),
              "--summary", str(tmp_path / "s.json")])
        in_rows = open(data).read().strip().splitlines()[1:]
        out_rows = open(out).read().strip().splitlines()[1:]
        for src, dst in zip(in_rows, out_rows):
            assert dst.startswith(src)

    def test_rerun_byte_identical(self, tmp_path):
        # two runs in one process, each to its own files, with a usage error after each
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "3", "--n-per-class", "10", "--output", data])
        outs = []
        for tag in ("1", "2"):
            files = [str(tmp_path / f"{stem}{tag}.{ext}")
                     for stem, ext in (("r", "csv"), ("h", "csv"), ("s", "json"))]
            assert main(["solve", "--input", data, "--niter", "50", "--seed", "0",
                         "--output", files[0], "--history", files[1], "--summary", files[2]]) == 0
            summary = json.load(open(files[2]))
            del summary["wall_time_s"]
            for key, path in zip(("output", "history", "summary"), files):
                assert summary["config"].pop(key) == path
            outs.append([open(files[0]).read(), open(files[1]).read(), summary])
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--input", data, "--niter", "many", "--update", "sideways"])
            assert exc.value.code == 2
        assert outs[0] == outs[1]

    def test_invalid_cost_is_input_error(self, tmp_path, capsys):
        # --cost is plain text; parse_cost_spec in the solve is its one parse
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "0", "--n-per-class", "5", "--output", data])
        with pytest.raises(InvalidInputError) as exc:
            parse_cost_spec("l3")
        code = main(["solve", "--cost", "l3", "--input", data, "--output", str(tmp_path / "r.csv"),
                     "--history", str(tmp_path / "h.csv"), "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert f"baryflow: error: {exc.value}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.csv")

    @pytest.mark.parametrize("cost_args", [
        ["--cost", "l2", "--cost", "pnorm:3"],  # the last occurrence wins
        ["--cos", "pnorm:3"],  # argparse abbreviation
        ["--cost=pnorm:3"],
    ])
    def test_summary_echoes_the_cost_that_ran(self, cost_args, tmp_path):
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "0", "--n-per-class", "5", "--output", data])
        results = {}
        for tag, args in (("ref", ["--cost", "pnorm:3"]), ("run", cost_args)):
            out, summ = tmp_path / f"r{tag}.csv", tmp_path / f"s{tag}.json"
            assert main(["solve", "--input", data, "--niter", "5", *args,
                         "--output", str(out), "--history", str(tmp_path / f"h{tag}.csv"),
                         "--summary", str(summ)]) == 0
            assert json.loads(summ.read_text())["config"]["cost"] == "pnorm:3"
            results[tag] = out.read_text()
        assert results["run"] == results["ref"]

    def test_nan_eta0_is_error(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "0", "--n-per-class", "5", "--output", data])
        code = main(["solve", "--input", data, "--eta0", "nan",
                     "--output", str(tmp_path / "r.csv"),
                     "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert "eta0" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.csv")

    @pytest.mark.parametrize("flag,value,field", [
        ("--lambda0", "0", "lambda0"), ("--bandwidth-a", "-1", "bandwidth_a"),
        ("--bandwidth-b", "0", "bandwidth_b"), ("--seed", "-1", "seed"),
    ])
    def test_non_positive_auto_flag_is_config_error(self, flag, value, field, tmp_path, capsys):
        # the flag parses any number; SolverConfig alone checks its range
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "0", "--n-per-class", "5", "--output", data])
        code = main(["solve", "--input", data, flag, value, "--output", str(tmp_path / "r.csv"),
                     "--history", str(tmp_path / "h.csv"), "--summary", str(tmp_path / "s.json")])
        assert code == 1
        message = "seed must be >= 0" if field == "seed" else f"{field} must be positive or 'auto'"
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.csv")

    def test_non_numeric_auto_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "--lambda0", "abc"])
        assert exit_.value.code == 2
        assert "expected a number or 'auto', got 'abc'" in capsys.readouterr().err

    def test_missing_input_is_error(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "r.csv"),
                     "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_hidden_signal_and_filter(self, tmp_path):
        series = str(tmp_path / "ts.csv")
        assert main(["gen", "hidden-signal", "--seed", "0", "--steps", "60",
                     "--output", series]) == 0
        rows = open(series).read().strip().splitlines()
        assert rows[0] == "t,x_theta,x_phi,w_theta,w_phi"
        assert len(rows) == 61
        out = str(tmp_path / "r.csv")
        code = main(["filter-timeseries", "--input", series, "--cost", "geodesic-sphere",
                     "--niter", "30", "--output", out,
                     "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "x1,x2,z1,z2,y1,y2"
        assert len(rows) == 60  # first step has no lag

    def test_one_step_hidden_signal_is_error(self, tmp_path, capsys):
        # a 1-row series has no lagged pair, so filter-timeseries could not read it
        series = tmp_path / "ts.csv"
        assert main(["gen", "hidden-signal", "--steps", "1", "--output", str(series)]) == 1
        assert "steps must be >= 2" in capsys.readouterr().err
        assert not series.exists()

    def test_filter_bandwidth_b_takes_effect(self, tmp_path):
        series = str(tmp_path / "ts.csv")
        main(["gen", "hidden-signal", "--seed", "0", "--steps", "30", "--output", series])
        results = []
        for b in ("auto", "0.05"):
            out = tmp_path / f"r{b}.csv"
            assert main(["filter-timeseries", "--input", series, "--cost", "geodesic-sphere",
                         "--bandwidth-b", b, "--niter", "5", "--output", str(out),
                         "--history", str(tmp_path / "h.csv"),
                         "--summary", str(tmp_path / "s.json")]) == 0
            results.append(out.read_text())
        assert results[0] != results[1]

    def test_tiny_bandwidth_b_is_error(self, tmp_path, capsys):
        series = str(tmp_path / "ts.csv")
        main(["gen", "hidden-signal", "--seed", "0", "--steps", "30", "--output", series])
        capsys.readouterr()
        code = main(["filter-timeseries", "--input", series, "--bandwidth-b", "1e-200",
                     "--output", str(tmp_path / "r.csv"), "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert "baryflow: error: bandwidth_b" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["ts.csv"]

    def test_bandwidth_b_on_categorical_covariates_is_error(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "0", "--n-per-class", "5", "--output", data])
        capsys.readouterr()
        code = main(["solve", "--input", data, "--bandwidth-b", "0.5", "--niter", "5",
                     "--output", str(tmp_path / "r.csv"), "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert "baryflow: error: bandwidth_b applies only" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["d.csv"]

    @pytest.mark.parametrize("rows,line", [
        ("1,0.5,abc,0.1,0.2\n", 3),
        ("1,0.5\n", 3),
        ("\n1,0.5,abc,0.1,0.2\n", 4),
        ("1,0.5,0.6,0.1,0.2\n2,0.5\n3,x,0.6,0.1,0.2\n", 4),
    ], ids=["1,0.5,abc,0.1,0.2", "1,0.5", "blank-line-then-1,0.5,abc,0.1,0.2", "two-bad-rows"])
    def test_malformed_series_row_is_error(self, rows, line, tmp_path, capsys):
        # a blank line is skipped by the reader but still counts as a line
        series = write(tmp_path, "ts.csv",
                       "t,x_theta,x_phi,w_theta,w_phi\n0,0.1,0.2,0.3,0.4\n" + rows)
        code = main(["filter-timeseries", "--input", series,
                     "--output", str(tmp_path / "r.csv"),
                     "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert f"baryflow: error: non-numeric or missing value in row {line}" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("x1,x2,z\n1,2,a\n\n3,4,b\n5,x,a\n", "non-numeric or missing x value in row 5"),
        ("x1,x2,z\n1,2,a\n\n3,4,b\n5,6\n", "missing covariate in row 5"),
        ("x1,z1\n1,0.5\n\n2,0.1\n3,abc\n", "non-numeric or missing z value in row 5"),
        ("x1,z1\n1,0.5\n2,abc\n\nx,0.1\n", "non-numeric or missing z value in row 3"),
        ("x1,x2,z\n1,2,a\n3,4\n5,x,b\n", "missing covariate in row 3"),
    ], ids=["x", "label", "z", "two-bad-rows-z-first", "two-bad-rows-label-first"])
    def test_malformed_dataset_row_names_its_line(self, text, message, tmp_path, capsys):
        # the blank line 3 is skipped by the reader but still counts as a line
        data = write(tmp_path, "d.csv", text)
        code = main(["solve", "--input", data, "--output", str(tmp_path / "r.csv"),
                     "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert f"baryflow: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "filter-timeseries"])
    def test_every_solver_field_is_a_flag(self, command):
        args = _build_parser().parse_args([command])
        assert [f.name for f in dataclasses.fields(SolverConfig) if not hasattr(args, f.name)] == []

    @pytest.mark.parametrize("command", ["solve", "filter-timeseries"])
    def test_every_flag_is_a_solver_field_or_io(self, command):
        # settings come from SolverConfig alone; the rest say where data go
        args = _build_parser().parse_args([command])
        io_flags = {"input", "output", "history", "summary", "cost", "lag_space"}
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert set(vars(args)) - {"command", "func"} - io_flags - fields == set()

    def test_parser_builds_the_named_command_only(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            _build_parser("filter-timeseries").parse_args(["solve", "--niter", "3"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --niter 3" in capsys.readouterr().err

    def test_parser_is_unreferenced_while_the_command_runs(self, monkeypatch):
        built, alive = [], []
        build = cli._build_parser

        def tracked_build(command=None):
            parser = build(command)
            built.append(weakref.ref(parser))
            return parser

        def command(args):
            gc.collect()  # what only reference cycles hold goes
            alive.append(built[0]() is not None)
            return 0

        monkeypatch.setattr(cli, "_build_parser", tracked_build)
        monkeypatch.setattr(cli, "_cmd_solve", command)
        assert main(["solve"]) == 0
        assert alive == [False]

    def test_solver_flag_defaults_are_the_config_defaults(self):
        args = _build_parser().parse_args(["solve"])
        flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)}
        assert SolverConfig(**flags) == SolverConfig()

    @pytest.mark.parametrize("command,gen_args", [
        ("solve", ["ellipses", "--n-per-class", "3"]),
        ("filter-timeseries", ["hidden-signal", "--steps", "8"]),
    ])
    def test_every_solver_flag_reaches_the_config(self, command, gen_args, tmp_path, monkeypatch):
        # a non-default value per field, of each kind: choices, switch, auto-or-positive, int, float
        assert list(SOLVER_FLAG_VALUES) == [f.name for f in dataclasses.fields(SolverConfig)]
        data = str(tmp_path / "in.csv")
        assert main(["gen", *gen_args, "--output", data]) == 0
        argv = [command, "--input", data]
        for name, (text, _) in SOLVER_FLAG_VALUES.items():
            argv += ["--" + name.replace("_", "-")] + ([] if text is None else [text])
        configs = []

        def recording_solve(x, covariates, cost_model, config):
            configs.append(config)
            raise InvalidInputError("recorded")

        monkeypatch.setattr(cli, "solve", recording_solve)
        assert main(argv) == 1
        default = SolverConfig()
        for name, (_, value) in SOLVER_FLAG_VALUES.items():
            got = getattr(configs[0], name)
            assert got == value and type(got) is type(value) and got != getattr(default, name)

    @pytest.mark.parametrize("name", sorted(SolverConfig.CHOICES))
    def test_a_choice_the_flag_rejects_the_config_rejects(self, name, capsys):
        with pytest.raises(SystemExit) as exit_:
            _build_parser("solve").parse_args(["solve", "--" + name, "bogus"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        allowed = " or ".join(map(repr, SolverConfig.CHOICES[name]))
        with pytest.raises(InvalidInputError, match=f"^{name} must be {allowed}$"):
            SolverConfig(**{name: "bogus"})

    @pytest.mark.parametrize("what,generate", [
        ("ellipses", gen_ellipses), ("sphere-patches", gen_sphere_patches),
        ("hidden-signal", gen_hidden_signal),
    ])
    def test_gen_sizes_default_to_the_generators(self, what, generate, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["gen", what, "--seed", "0", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + len(generate(0).x)

    @pytest.mark.parametrize("what,flag", [
        ("hidden-signal", ["--n-per-class", "3"]),
        ("ellipses", ["--steps", "7"]),
        ("ellipses", ["--steps", "0"]),
        ("sphere-patches", ["--steps", "7"]),
        ("ellipses", ["--same-hemisphere"]),
        ("hidden-signal", ["--same-hemisphere"]),
    ], ids=lambda v: v if isinstance(v, str) else "=".join(v))
    def test_gen_flag_of_another_generator_is_error(self, what, flag, tmp_path, capsys):
        # each generator's parser knows only its own flags, --seed and --output
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_:
            main(["gen", what, "--seed", "0", *flag, "--output", str(out)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_dash_history_and_summary_go_to_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        main(["gen", "ellipses", "--seed", "1", "--n-per-class", "5", "--output", "d.csv"])
        capsys.readouterr()
        code = main(["solve", "--input", "d.csv", "--niter", "5", "--output", "out.csv",
                     "--history", "-", "--summary", "-"])
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "out.csv"]
        stdout = capsys.readouterr().out
        history, brace, rest = stdout.partition("{")
        assert history.splitlines()[0] == "iter,L,L_C,L_F,lambda,eta,eta_halvings"
        assert len(history.splitlines()) == 6
        assert json.loads(brace + rest)["iterations"] == 5

    def test_partial_outputs_removed_on_error(self, tmp_path):
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "1", "--n-per-class", "5", "--output", data])
        out = str(tmp_path / "r.csv")
        hist = str(tmp_path / "sub" / "h.csv")  # directory does not exist
        code = main(["solve", "--input", data, "--niter", "5", "--output", out,
                     "--history", hist, "--summary", str(tmp_path / "s.json")])
        assert code != 0
        assert not os.path.exists(out)


def test_module_entry_point_exits_with_mains_status():
    # python -m baryflow.cli runs main in a process of its own and exits with its status
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    golden = pathlib.Path(__file__).parent / "golden" / "gen" / "ellipses.csv"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = lambda *flags: subprocess.run(
        [sys.executable, "-m", "baryflow.cli", "gen", "ellipses", *flags], capture_output=True, env=env)
    done = run("--seed", "0", "--n-per-class", "3")
    assert done.returncode == 0
    assert done.stdout == golden.read_bytes()
    assert run("--seed", "-1").returncode == 1
