"""Build a workload's seeded input files with the library (benchmark set-up).

Usage: python linebench/make_inputs.py WORKLOAD SEED OUTDIR

Runs as its own process during set-up, with ``src`` on PYTHONPATH, so every
set-up repetition pays the same cold import and construction cost.

certify-deep writes three line sets, each moved by a seeded Haar-random
global unitary, per-line phases and a line permutation.  None of these
changes an angle, so the verdicts do not depend on the seed, while the
floats the program reads do.  cli-small writes the d = 8 fiducial that the
``--fiducial file:`` job reads.  A workload without a builder (mub-build)
writes nothing; its set-up still pays this process's import.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from linekit import (
    LineSet,
    appleby_candidates,
    builtin_fiducial,
    diffset_lines,
    lineset_to_json,
    singer_difference_set,
    wf_mubs,
    wh_orbit,
)


def scramble(X, rng):
    """X moved by a random unitary, rephased line by line and permuted."""
    d, n = X.dim, X.n
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    r = np.diagonal(R)
    U = Q * (r / np.abs(r))
    phases = np.exp(2j * np.pi * rng.random(n))
    perm = rng.permutation(n)
    V = ((X.vectors @ U.T) * phases[:, None])[perm]
    labels = None if X.basis_labels is None else [X.basis_labels[i] for i in perm]
    return LineSet(d, V, field=X.field, basis_labels=labels, tol=X.tol)


def certify_deep(seed, out):
    G, D = singer_difference_set(31)
    sic = next(c for c in appleby_candidates(19) if c["verdict"]["is_sic"])
    sets = {
        "mub27.json": wf_mubs(27).to_lineset(),
        "singer31.json": diffset_lines(G, D),
        "sic19.json": wh_orbit(sic["candidate"]),
    }
    for k, (name, X) in enumerate(sets.items()):
        lineset_to_json(scramble(X, np.random.default_rng([seed, k])), path=str(out / name))


def cli_small(seed, out):
    v = builtin_fiducial(8).vector
    (out / "fid8.json").write_text(json.dumps([[z.real, z.imag] for z in v]))


BUILDERS = {"certify-deep": certify_deep, "cli-small": cli_small}


def main(argv):
    workload, seed, out = argv
    if workload in BUILDERS:
        BUILDERS[workload](int(seed), Path(out))


if __name__ == "__main__":
    main(sys.argv[1:])
