import ast
import importlib
import io
import pathlib
import pkgutil

import numpy as np
import pytest

import baryflow
from baryflow import CostModel, Covariates, InvalidInputError, SolverConfig
from baryflow.cli import load_dataset, load_series
from baryflow.datagen import (
    TimeSeriesSample,
    gen_ellipses,
    gen_hidden_signal,
    gen_sphere_patches,
    lagged_dataset,
)


def test_every_export_resolves():
    # a name deleted from a module but left in its __all__ breaks star imports only
    submodules = [importlib.import_module(f"baryflow.{info.name}")
                  for info in pkgutil.iter_modules(baryflow.__path__)]
    assert submodules
    missing = [f"{module.__name__}.{name}" for module in [baryflow, *submodules]
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _names_loaded_in_src():
    """Every name that src/ loads, or reads as an attribute."""
    used = set()
    for source in pathlib.Path(baryflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_submodule_export_is_used():
    # a submodule's export is public (in baryflow.__all__) or used somewhere in
    # src/; one that only tests reach belongs in the tests
    used = _names_loaded_in_src()
    unused = [f"{info.name}.{name}" for info in pkgutil.iter_modules(baryflow.__path__)
              for name in getattr(importlib.import_module(f"baryflow.{info.name}"), "__all__", ())
              if name not in baryflow.__all__ and name not in used]
    assert unused == []


def test_every_package_export_is_used():
    # the public API is what callers use: a name in baryflow.__all__ that
    # nothing in src/ loads is one only tests reach, and belongs in the tests
    used = _names_loaded_in_src()
    assert [name for name in baryflow.__all__ if name not in used] == []


def _solve(x, covariates=None):
    if covariates is None:
        covariates = Covariates.categorical(np.arange(6) % 2)
    return baryflow.solve(x, covariates, CostModel("sq_euclidean"), SolverConfig(niter=1))


_SERIES_ROWS = "0,0.1,0.2,0.3\n1,0.4,0.5,0.6\n"


@pytest.mark.parametrize("enter", [
    pytest.param(lambda: _solve(np.zeros((6, 0))), id="solve-no-columns"),
    pytest.param(lambda: _solve(np.full((6, 2), "a")), id="solve-strings"),
    pytest.param(lambda: _solve(np.zeros((6, 2)), Covariates.continuous(np.zeros((6, 0)))),
                 id="covariates-no-columns"),
    pytest.param(lambda: load_dataset(io.StringIO("x1,x1,z\n1,2,a\n3,4,b\n")), id="load-x1-twice"),
    pytest.param(lambda: load_dataset(io.StringIO("x1,x01,z\n1,2,a\n3,4,b\n")),
                 id="load-x1-and-x01"),
    pytest.param(lambda: load_dataset(io.StringIO("x1,z,z\n1,a,b\n3,c,d\n")), id="load-z-twice"),
    pytest.param(lambda: load_series(io.StringIO("x_theta,x_phi,x_phi,t\n" + _SERIES_ROWS)),
                 id="series-x_phi-twice"),
    pytest.param(lambda: Covariates.continuous(np.full((6, 1), "a")), id="covariates-strings"),
    pytest.param(lambda: Covariates.continuous([[1.0], [1.0, 2.0]]), id="covariates-ragged"),
    pytest.param(lambda: gen_ellipses(seed=-1), id="ellipses-negative-seed"),
    pytest.param(lambda: gen_hidden_signal(seed=-1, steps=5), id="hidden-signal-negative-seed"),
    pytest.param(lambda: gen_sphere_patches(seed=1.5), id="sphere-patches-float-seed"),
    pytest.param(lambda: gen_ellipses(seed=True, n_per_class=2), id="ellipses-bool-seed"),
    pytest.param(lambda: gen_ellipses(seed=0, n_per_class=2.5), id="ellipses-float-count"),
    *(pytest.param(lambda width=width: gen_hidden_signal(seed=0, steps=5, cap_width=width),
                   id=f"hidden-signal-cap-width-{width}")
      for width in (float("nan"), float("inf"), -1.0, 3.5, "a", True)),
    *(pytest.param(lambda flag=flag: SolverConfig(precondition=flag), id=f"precondition-{flag}")
      for flag in ("no", 0, None)),
    pytest.param(lambda: lagged_dataset(TimeSeriesSample(x=np.full((4, 3), "a"), w_hidden=None)),
                 id="lagged-strings"),
    pytest.param(lambda: lagged_dataset(TimeSeriesSample(x=np.ones((4, 2)), w_hidden=None)),
                 id="lagged-two-columns"),
    pytest.param(lambda: lagged_dataset(gen_hidden_signal(seed=0, steps=4), space="polar"),
                 id="lagged-polar-space"),
    pytest.param(lambda: CostModel("nope"), id="cost-unknown-family"),
    pytest.param(lambda: baryflow.solve(np.zeros((6, 3)), Covariates.categorical(np.arange(6) % 2),
                                        CostModel("geodesic_sphere"), SolverConfig(niter=1)),
                 id="geodesic-three-columns"),
    pytest.param(lambda: load_series(io.StringIO("t,theta,phi\n" + _SERIES_ROWS)),
                 id="series-no-x-columns"),
    pytest.param(lambda: load_series(io.StringIO("t,x_theta,x_phi\n0,0.1,0.2\n")),
                 id="series-one-step"),
])
def test_entry_points_reject_bad_input(enter):
    # each input is checked where it enters, as InvalidInputError, never a
    # raw numpy error or a silent result
    with pytest.raises(InvalidInputError):
        enter()
