import dataclasses
import io
import json
import os

import numpy as np
import pytest

from baryflow.cli import _build_parser, load_dataset, main, save_dataset
from baryflow.datagen import gen_ellipses, gen_hidden_signal, gen_sphere_patches
from baryflow.errors import InvalidInputError
from baryflow.solver import SolverConfig


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        monkeypatch.setenv("BARYFLOW_SEED", "17")
        main(["gen", "ellipses", "--output", a])
        main(["gen", "ellipses", "--seed", "17", "--output", b])
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("what", ["ellipses", "hidden-signal"])
    def test_negative_seed_is_error(self, what, tmp_path, monkeypatch, capsys):
        out = tmp_path / "a.csv"
        assert main(["gen", what, "--seed", "-1", "--output", str(out)]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err
        monkeypatch.setenv("BARYFLOW_SEED", "-3")
        assert main(["gen", what, "--output", str(out)]) == 1
        assert "BARYFLOW_SEED must be >= 0" in capsys.readouterr().err
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
        data = str(tmp_path / "d.csv")
        main(["gen", "ellipses", "--seed", "3", "--n-per-class", "10", "--output", data])
        outs = []
        for tag in ("1", "2"):
            out = str(tmp_path / f"r{tag}.csv")
            main(["solve", "--input", data, "--niter", "50", "--seed", "0",
                  "--output", out, "--history", str(tmp_path / f"h{tag}.csv"),
                  "--summary", str(tmp_path / f"s{tag}.json")])
            outs.append(open(out).read())
        assert outs[0] == outs[1]

    def test_invalid_cost_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--cost", "l3", "--input", "whatever.csv"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

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

    @pytest.mark.parametrize("row", ["1,0.5,abc,0.1,0.2", "1,0.5"])
    def test_malformed_series_row_is_error(self, row, tmp_path, capsys):
        series = write(tmp_path, "ts.csv",
                       "t,x_theta,x_phi,w_theta,w_phi\n0,0.1,0.2,0.3,0.4\n" + row + "\n")
        code = main(["filter-timeseries", "--input", series,
                     "--output", str(tmp_path / "r.csv"),
                     "--history", str(tmp_path / "h.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 1
        assert "baryflow: error: non-numeric or missing value in row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("x1,x2,z\n1,2,a\n\n3,4,b\n5,x,a\n", "non-numeric or missing x value in row 5"),
        ("x1,x2,z\n1,2,a\n\n3,4,b\n5,6\n", "missing covariate in row 5"),
        ("x1,z1\n1,0.5\n\n2,0.1\n3,abc\n", "non-numeric or missing z value in row 5"),
    ], ids=["x", "label", "z"])
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

    def test_solver_flag_defaults_are_the_config_defaults(self):
        args = _build_parser().parse_args(["solve"])
        flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)}
        assert SolverConfig(**dict(flags, seed=0)) == SolverConfig()

    @pytest.mark.parametrize("what,generate", [
        ("ellipses", gen_ellipses), ("sphere-patches", gen_sphere_patches),
        ("hidden-signal", gen_hidden_signal),
    ])
    def test_gen_sizes_default_to_the_generators(self, what, generate, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["gen", what, "--seed", "0", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + len(generate(0).x)

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
