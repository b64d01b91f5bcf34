"""Golden CLI outputs: small fixed runs must reproduce committed files byte for byte.

Each solve case generates a dataset with ``baryflow gen`` and solves it in a
fresh working directory with relative file names, so the paths echoed in
summary.json are the same everywhere.  ``wall_time_s`` is the only field
dropped before comparing.  The ``gen/*`` cases pin the CSV a ``gen`` call
writes, and the ``help/*`` cases the help text (or usage error) that
argparse prints with ``COLUMNS=100``.

Regenerate the files of the named cases (only when an output change is
intended for them) with::

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

Run with no case, it lists them all; naming them all rewrites every CLI
golden in one command.  For each solve case it prints the old and the
new final history row and the largest change in y, relative to the largest
|y| of the old result.

The one-line digests of ``solve_digest.py``'s solves are checked here too,
against ``golden/solve_digest.txt``; that script's docstring says how to
regenerate the listing.
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from baryflow.cli import main

import solve_digest

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = ("result.csv", "history.csv", "summary.json")

CASES = {
    "ellipses-kde": (
        ["gen", "ellipses", "--seed", "0", "--n-per-class", "10"],
        ["solve", "--eta0", "5", "--niter", "40"],
    ),
    "ellipses-implicit": (
        ["gen", "ellipses", "--seed", "0", "--n-per-class", "10"],
        ["solve", "--update", "implicit", "--eta0", "50", "--niter", "15"],
    ),
    "ellipses-features": (
        ["gen", "ellipses", "--seed", "0", "--n-per-class", "10"],
        ["solve", "--problem", "features", "--eta0", "2", "--niter", "60"],
    ),
    "ellipses-features-cubic": (
        ["gen", "ellipses", "--seed", "0", "--n-per-class", "10"],
        ["solve", "--problem", "features", "--feature-degree", "3", "--eta0", "2",
         "--niter", "60"],
    ),
    "ellipses-features-implicit": (
        ["gen", "ellipses", "--seed", "0", "--n-per-class", "10"],
        ["solve", "--problem", "features", "--update", "implicit", "--feature-degree", "3",
         "--eta0", "50", "--niter", "30"],
    ),
    "ellipses-distortion-implicit": (
        ["gen", "ellipses", "--seed", "0", "--n-per-class", "10"],
        ["solve", "--cost", "distortion:0.01", "--update", "implicit", "--eta0", "5",
         "--niter", "15"],
    ),
    "sphere-patches": (
        ["gen", "sphere-patches", "--seed", "1", "--n-per-class", "12"],
        ["solve", "--cost", "geodesic-sphere", "--eta0", "5", "--niter", "30"],
    ),
    "hidden-signal": (
        ["gen", "hidden-signal", "--seed", "2", "--steps", "40"],
        ["filter-timeseries", "--lag-space", "cartesian", "--cost", "geodesic-sphere",
         "--niter", "30"],
    ),
}


GEN_CASES = {  # golden/gen/<name>.csv: the gen call that writes it
    "gen/ellipses": ["gen", "ellipses", "--seed", "0", "--n-per-class", "3"],
    "gen/sphere-patches": ["gen", "sphere-patches", "--seed", "1", "--n-per-class", "3"],
    "gen/hidden-signal": ["gen", "hidden-signal", "--seed", "2", "--steps", "8"],
}

HELP_CASES = {  # golden/help/<name>.txt: the argv whose printed text it holds, and the exit code
    "help/baryflow": (["-h"], 0),
    "help/gen": (["gen", "-h"], 0),
    "help/gen-hidden-signal": (["gen", "hidden-signal", "-h"], 0),
    "help/solve": (["solve", "-h"], 0),
    "help/filter-timeseries": (["filter-timeseries", "-h"], 0),
    "help/invalid-choice": (["no-such-command"], 2),
}


def run_case(name, cwd):
    """Run one case inside ``cwd``; returns {output name: bytes}."""
    gen_argv, solve_argv = CASES[name]
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        assert main(gen_argv + ["--output", "data.csv"]) == 0
        assert main(solve_argv + ["--input", "data.csv"]) == 0
        outputs = {out: Path(out).read_bytes() for out in OUTPUTS}
    finally:
        os.chdir(previous)
    summary = json.loads(outputs["summary.json"])
    del summary["wall_time_s"]
    outputs["summary.json"] = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
    return outputs


def run_gen_case(name, cwd):
    """The bytes of the CSV that ``name``'s gen call writes inside ``cwd``."""
    out = Path(cwd) / "data.csv"
    assert main(GEN_CASES[name] + ["--output", str(out)]) == 0
    return out.read_bytes()


def help_text(name):
    """(exit code, stdout + stderr) of ``name``'s argv; set COLUMNS=100 first."""
    argv, _ = HELP_CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exit_:
            return exit_.code, out.getvalue() + err.getvalue()
    raise AssertionError(f"{argv} did not exit")


def y_columns(result_csv):
    """The y1, y2, ... columns of a result.csv, as one float array."""
    rows = list(csv.reader(io.StringIO(result_csv.decode())))
    cols = [k for k, name in enumerate(rows[0]) if name.startswith("y")]
    return np.array([[float(row[k]) for k in cols] for row in rows[1:]])


def report_change(name, old, new):
    """Old and new final history rows, and max |y_new - y_old| / max |y_old|."""
    last = lambda files: files["history.csv"].decode().splitlines()[-1]
    y_old, y_new = y_columns(old["result.csv"]), y_columns(new["result.csv"])
    change = (f"{np.abs(y_new - y_old).max() / np.abs(y_old).max():.3g}"
              if y_old.shape == y_new.shape else "shape changed")
    return f"{name}\n  old: {last(old)}\n  new: {last(new)}\n  y change: {change}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    outputs = run_case(name, tmp_path)
    for out in OUTPUTS:
        assert outputs[out] == (GOLDEN / name / out).read_bytes(), f"{name}/{out} changed"


@pytest.mark.parametrize("name", sorted(GEN_CASES))
def test_gen_output_matches_golden(name, tmp_path):
    assert run_gen_case(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_text_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    code, text = help_text(name)
    assert code == HELP_CASES[name][1]
    assert text == (GOLDEN / f"{name}.txt").read_text()


def test_solve_digest_matches_listing():
    listed = (GOLDEN / "solve_digest.txt").read_text().splitlines()
    assert dict(solve_digest.listing()) == dict(line.split(" ", 1) for line in listed if line)


if __name__ == "__main__":
    import tempfile

    everything = sorted(CASES) + sorted(GEN_CASES) + sorted(HELP_CASES)
    names = sys.argv[1:]
    unknown = [name for name in names if name not in everything]
    if unknown:
        sys.exit(f"unknown cases: {' '.join(unknown)}; cases: {' '.join(everything)}")
    if not names:
        sys.exit(f"name the cases to regenerate: {' '.join(everything)}")
    os.environ["COLUMNS"] = "100"
    for case in dict.fromkeys(names):
        if case in HELP_CASES:
            target = GOLDEN / f"{case}.txt"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(help_text(case)[1])
        elif case in GEN_CASES:
            target = GOLDEN / f"{case}.csv"
            target.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory() as tmp:
                target.write_bytes(run_gen_case(case, tmp))
        else:
            target = GOLDEN / case
            old = {out: (target / out).read_bytes() for out in OUTPUTS if (target / out).exists()}
            with tempfile.TemporaryDirectory() as tmp:
                new = run_case(case, tmp)
            target.mkdir(parents=True, exist_ok=True)
            for out, data in new.items():
                (target / out).write_bytes(data)
            if len(old) == len(OUTPUTS):
                print(report_change(case, old, new))
        print(f"wrote {target}", file=sys.stderr)
