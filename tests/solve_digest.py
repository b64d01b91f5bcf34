"""One sha256 per small solve, over y_final, every HistoryRecord and lambda0.

The listing of the committed code is ``tests/golden/solve_digest.txt``;
``test_golden.py::test_solve_digest_matches_listing`` compares every line
against it in tier-1.  A change that claims its outputs are bitwise
unchanged leaves it as it is; a change meant to move some solves
regenerates it and names them::

    PYTHONPATH=src python tests/solve_digest.py > tests/golden/solve_digest.txt

A listing saved elsewhere, of the parent commit say, checks a change
against it::

    PYTHONPATH=src python tests/solve_digest.py parent.txt

With a saved listing as its argument the script still prints every line,
then names on stderr each solve whose line differs from the listing (or is
missing from one side) and exits 1 if there is any; it exits 0 when all
lines match.  With no argument it prints the lines and exits 0.
The solves cover every cost family, both constraint modes, both updates,
categorical and Sinkhorn couplings, preconditioning, fixed and automatic
lambda0, and runs whose learning rate is halved.  Each line reads
``name iterations halvings sha256``.  The name does not start with ``test_``,
so pytest does not collect this file.  CHANGES.md records which solves
each regeneration of the listing moved, and why.
"""

import dataclasses
import hashlib
import sys

import numpy as np

from baryflow.costs import CostModel
from baryflow.couplings import Covariates
from baryflow.datagen import (
    Dataset, gen_ellipses, gen_hidden_signal, gen_sphere_patches, lagged_dataset,
)
from baryflow.solver import SolverConfig, solve

ELLIPSES = gen_ellipses(seed=0, n_per_class=10)
PATCHES = gen_sphere_patches(seed=1, n_per_class=12)
SIGNAL = lagged_dataset(gen_hidden_signal(seed=2, steps=40), space="cartesian")
SIGNAL_SPHERICAL = lagged_dataset(gen_hidden_signal(seed=3, steps=30))


def shuffled_strings():
    """Ellipses of 12, 5 and 2 points, labelled "upper", "left" and "right", in shuffled order."""
    data = gen_ellipses(seed=4, n_per_class=12)
    keep = np.concatenate([np.arange(12), np.arange(12, 17), np.arange(24, 26)])
    order = np.random.default_rng(4).permutation(keep)
    names = np.array(["upper", "left", "right"])[data.covariates.index]
    return Dataset(x=data.x[order], covariates=Covariates.categorical(names[order]))


SHUFFLED_STRINGS = shuffled_strings()

# name: (dataset, cost, config)
SOLVES = {
    "l2-kde-explicit": (ELLIPSES, CostModel("sq_euclidean"), SolverConfig(eta0=5.0, niter=40)),
    "l2-kde-explicit-eta50": (ELLIPSES, CostModel("sq_euclidean"),
                              SolverConfig(eta0=50.0, niter=20)),
    "pnorm-kde-explicit-lambda1": (ELLIPSES, CostModel("p_norm", p=1.5),
                                   SolverConfig(lambda0=1.0, eta0=2.0, niter=30)),
    "l2-kde-implicit": (ELLIPSES, CostModel("sq_euclidean"),
                        SolverConfig(update="implicit", eta0=50.0, niter=10)),
    "distortion-kde-implicit": (ELLIPSES, CostModel("distortion"),
                                SolverConfig(update="implicit", eta0=5.0, niter=10)),
    "pnorm-kde-implicit": (ELLIPSES, CostModel("p_norm", p=1.5),
                           SolverConfig(update="implicit", eta0=5.0, niter=10)),
    "geodesic-kde-sinkhorn": (SIGNAL, CostModel("geodesic_sphere"), SolverConfig(niter=20)),
    "l2-kde-sinkhorn-precondition": (SIGNAL_SPHERICAL, CostModel("sq_euclidean"),
                                     SolverConfig(precondition=True, eta0=1.0, niter=20)),
    "geodesic-kde-patches": (PATCHES, CostModel("geodesic_sphere"),
                             SolverConfig(eta0=5.0, niter=20)),
    "l2-kde-shuffled-strings": (SHUFFLED_STRINGS, CostModel("sq_euclidean"),
                                SolverConfig(eta0=5.0, niter=30)),
    "l2-features-explicit": (ELLIPSES, CostModel("sq_euclidean"),
                             SolverConfig(problem="features", eta0=2.0, niter=40)),
    "distortion-features-explicit-lambda1": (
        ELLIPSES, CostModel("distortion"),
        SolverConfig(problem="features", lambda0=1.0, eta0=2.0, niter=20)),
    "l2-features-implicit-precondition": (
        ELLIPSES, CostModel("sq_euclidean"),
        SolverConfig(problem="features", update="implicit", feature_degree=3,
                     precondition=True, eta0=50.0, niter=15)),
    "pnorm-features-sinkhorn": (SIGNAL, CostModel("p_norm", p=1.5),
                                SolverConfig(problem="features", eta0=1.0, niter=20)),
    "geodesic-features-implicit-sinkhorn": (
        SIGNAL, CostModel("geodesic_sphere"),
        SolverConfig(problem="features", update="implicit", eta0=1.0, niter=10)),
}


def digest(result):
    """sha256 of the final points' bytes, each history record's field reprs and lambda0."""
    h = hashlib.sha256()
    y = np.ascontiguousarray(result.y_final, dtype=float)
    h.update(repr(y.shape).encode())
    h.update(y.tobytes())
    for record in result.history:
        h.update(repr(dataclasses.astuple(record)).encode())
    h.update(repr(float(result.lambda0)).encode())
    return h.hexdigest()


def listing():
    """Run the solves in order; yields ``(name, "iterations halvings sha256")`` for each."""
    for name, (data, cost, config) in SOLVES.items():
        result = solve(data.x, data.covariates, cost, config)
        halvings = sum(rec.eta_halvings for rec in result.history)
        yield name, f"{result.iterations} {halvings} {digest(result)}"


def main(argv):
    if len(argv) > 1:
        sys.exit("usage: solve_digest.py [SAVED_LISTING]")
    expected = None
    if argv:
        with open(argv[0]) as fh:
            expected = dict(line.rstrip("\n").split(" ", 1) for line in fh if line.strip())
    differing = []
    for name, line in listing():
        print(name, line, flush=True)
        if expected is not None and expected.pop(name, None) != line:
            differing.append(name)
    if expected is None:
        return 0
    differing += list(expected)  # listed solves that no longer run
    for name in differing:
        print(f"differs from {argv[0]}: {name}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
