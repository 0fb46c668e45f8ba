"""Scheme closure, zonal idempotents, Gram algebras, and Seidel spectra."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from linekit import linesets, schemes
from linekit.groupcodes import (
    _distance_labels,
    cover_graph,
    diffset_lines,
    field_rds,
    singer_difference_set,
)
from linekit.jacobi import JacobiFamily, dim_harm, jacobi_poly
from linekit.linesets import (
    LineSet,
    design_strength,
    gap_clusters,
    gram_degree_set,
    real_doubling,
)
from linekit.mubs import alltop_mubs, tensor_mubs, wf_mubs
from linekit.schemes import (
    _angle_labels,
    association_scheme,
    gram_algebra_check,
    idempotent_residuals,
    jacobi_idempotents,
    scheme_from_lineset,
    scheme_to_json,
    seidel_analysis,
)
from linekit.sics import appleby_candidates, builtin_fiducial, wh_orbit
from linekit.tolerance import certify_tol, float_error

PHI = (1 + 5**0.5) / 2


def icosahedron_lines():
    v = np.array(
        [(0, 1, PHI), (0, 1, -PHI), (1, PHI, 0), (1, -PHI, 0), (PHI, 0, 1), (-PHI, 0, 1)],
        dtype=float,
    )
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return LineSet(3, v, field="real")


def sic_lines():
    return wh_orbit(builtin_fiducial(2))


def random_lines(n=5, d=3, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return LineSet(d, v)


class TestSchemeFromLineset:
    def test_equiangular_lines_give_complete_graph_scheme(self):
        rep = scheme_from_lineset(sic_lines())
        assert rep.closed and rep.classes == 1
        assert rep.closure_residual <= 1e-12
        assert np.allclose(rep.P, [[1, 3], [1, -1]])
        assert np.allclose(rep.Q, [[1, 3], [1, -1]])
        assert np.allclose(rep.valencies, [1, 3])
        assert rep.multiplicities == [1, 3]

    def test_complete_graph_intersection_numbers(self):
        # in K_4 adjacent vertices have two common neighbours
        rep = scheme_from_lineset(sic_lines())
        assert abs(rep.intersection_numbers[1, 1, 0] - 3) <= 1e-9
        assert abs(rep.intersection_numbers[1, 1, 1] - 2) <= 1e-9

    def test_mub_lines_give_multipartite_scheme(self):
        rep = scheme_from_lineset(wf_mubs(3).to_lineset())
        assert rep.closed and rep.classes == 2 and rep.n == 12
        assert np.allclose(rep.P, [[1, 2, 9], [1, 2, -3], [1, -1, 0]], atol=1e-8)
        assert rep.multiplicities == [1, 3, 8]
        assert np.allclose(rep.valencies, [1, 2, 9])

    def test_mub_q2_eigenmatrix(self):
        rep = scheme_from_lineset(wf_mubs(2).to_lineset())
        assert np.allclose(rep.P, [[1, 1, 4], [1, 1, -2], [1, -1, 0]], atol=1e-8)
        assert rep.multiplicities == [1, 2, 3]

    @pytest.mark.parametrize("q", [2, 3])
    def test_scheme_invariants_on_mub_lines(self, q):
        rep = scheme_from_lineset(wf_mubs(q).to_lineset())
        assert rep.pq_residual <= 1e-8 * rep.n
        assert rep.krein_min >= -1e-8
        assert rep.reconstruction_residual <= 1e-8

    def test_singer_lines_scheme(self):
        rep = scheme_from_lineset(diffset_lines(*singer_difference_set(2)))
        assert rep.closed and rep.classes == 1
        assert np.allclose(rep.P, [[1, 6], [1, -1]])
        assert rep.pq_residual <= 1e-8 * 7 and rep.krein_min >= -1e-8

    def test_orthonormal_basis_is_complete_graph_scheme(self):
        rep = scheme_from_lineset(LineSet(3, np.eye(3), field="real"))
        assert rep.closed and rep.classes == 1
        assert np.allclose(rep.P, [[1, 2], [1, -1]])

    def test_generic_lines_do_not_close(self):
        rep = scheme_from_lineset(random_lines())
        assert not rep.closed
        assert rep.closure_residual > 0.1
        assert rep.classes == 10  # all pair angles distinct
        assert rep.P is None and rep.Q is None and rep.valencies is None

    def test_angles_ascending(self):
        rep = scheme_from_lineset(random_lines())
        assert rep.angles == sorted(rep.angles)

    def test_deterministic_eigenspace_order(self):
        X = wf_mubs(3).to_lineset()
        a = scheme_from_lineset(X)
        b = scheme_from_lineset(X)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)

    def test_json_export_closed(self, tmp_path):
        rep = scheme_from_lineset(wf_mubs(2).to_lineset())
        path = tmp_path / "scheme.json"
        text = scheme_to_json(rep, path=path)
        payload = json.loads(text)
        assert payload == json.loads(path.read_text())
        assert payload["classes"] == 2 and payload["closed"] is True
        assert np.allclose(payload["P"], rep.P)
        assert len(payload["krein"]) == 3

    def test_json_export_open(self):
        payload = json.loads(scheme_to_json(scheme_from_lineset(random_lines())))
        assert payload["closed"] is False and payload["P"] is None


def dense_scheme_oracle(X):
    """P, Q and Krein parameters from dense n x n eigenprojectors.

    The projectors come from one eigh of the fixed combination
    A_1 + sqrt(2) A_2 + sqrt(3) A_3 + ... of the angle masks; the rows of P
    are ordered like the kernel's: the all-ones space first, then the rest
    by descending rows rounded to 6 places.
    """
    report, L = _angle_labels(X)
    masks = [np.where(L == k, 1.0, 0.0) for k in range(report.s + 1)]
    n, m = X.n, len(masks)
    vals, vecs = np.linalg.eigh(sum(np.sqrt(i) * A for i, A in enumerate(masks)))
    spaces = []
    for v, col in zip(vals, vecs.T):
        if spaces and abs(v - spaces[-1][0]) <= 1e-7 * n:
            spaces[-1][1].append(col)
        else:
            spaces.append((v, [col]))
    E = [np.array(cols).T @ np.array(cols) for _, cols in spaces]
    assert len(E) == m
    rows = [[np.trace(A @ Ej) / np.trace(Ej) for A in masks] for Ej in E]
    first = int(np.argmax([np.sum(Ej) for Ej in E]))  # 1^T E 1 = n only on J/n
    rest = sorted(
        (r for r in range(m) if r != first),
        key=lambda r: [round(x, 6) for x in rows[r]],
        reverse=True,
    )
    E = [E[r] for r in [first] + rest]
    P = np.array([rows[r] for r in [first] + rest])
    Q = np.array([[n * np.sum(A * Ej) / np.sum(A) for Ej in E] for A in masks])
    mults = [np.trace(Ej) for Ej in E]
    krein = np.array(
        [[[n * np.sum(Ek * Ei * Ej) / mk for Ek, mk in zip(E, mults)] for Ej in E] for Ei in E]
    )
    return masks, P, Q, krein


def exact_intersection_numbers(masks):
    """p_ij^k as exact integer counts, asserting each is constant on its class."""
    A = [M.astype(np.int64) for M in masks]
    m = len(A)
    p = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            prod = A[i] @ A[j]
            for k in range(m):
                values = np.unique(prod[A[k] == 1])
                assert values.size == 1, (i, j, k, values)
                p[i, j, k] = values[0]
    return p


ORACLE_CASES = {
    "wf2": lambda: wf_mubs(2).to_lineset(),
    "wf3": lambda: wf_mubs(3).to_lineset(),
    "wf4": lambda: wf_mubs(4).to_lineset(),
    "sic2": sic_lines,
    "singer2": lambda: diffset_lines(*singer_difference_set(2)),
    "eye3": lambda: LineSet(3, np.eye(3), field="real"),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_kernel_matches_dense_eigenprojectors(name):
    X = ORACLE_CASES[name]()
    rep = scheme_from_lineset(X)
    masks, P, Q, krein = dense_scheme_oracle(X)
    assert rep.closed
    assert np.abs(rep.P - P).max() <= 1e-8
    assert np.abs(rep.Q - Q).max() <= 1e-8
    assert np.abs(rep.krein - krein).max() <= 1e-8
    assert np.issubdtype(rep.intersection_numbers.dtype, np.integer)
    assert np.array_equal(rep.intersection_numbers, exact_intersection_numbers(masks))
    assert rep.valencies == [int(np.sum(A[0])) for A in masks]
    assert all(type(k) is int for k in rep.valencies)


def appleby_sic(d):
    return wh_orbit(next(c["candidate"] for c in appleby_candidates(d) if c["verdict"]["is_sic"]))


# complete MUB sets (t = 2, s = 2), SICs (t = 2, s = 1) and Singer sets (s = 1)
DESIGN_CASES = {
    **{f"wf{q}": (lambda q=q: wf_mubs(q).to_lineset())
       for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27)},
    "alltop13": lambda: alltop_mubs(13).to_lineset(),
    **{f"sic{d}": (lambda d=d: wh_orbit(builtin_fiducial(d))) for d in (2, 3, 8)},
    **{f"sic{d}": (lambda d=d: appleby_sic(d)) for d in (7, 19)},
    **{f"singer{q}": (lambda q=q: diffset_lines(*singer_difference_set(q)))
       for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 31)},
}


@pytest.mark.parametrize("name", list(DESIGN_CASES))
def test_design_route_matches_the_kernel(name):
    X = DESIGN_CASES[name]()
    rep = scheme_from_lineset(X)
    assert rep.route == "design" and X._labels is None  # no label pass
    ref = association_scheme(_angle_labels(X)[1])
    assert ref.route == "labels" and rep.closed and ref.closed
    assert rep.classes == ref.classes and rep.closure_residual == ref.closure_residual == 0
    assert rep.witness is None
    assert np.abs(rep.P - ref.P).max() <= 1e-12
    assert np.abs(rep.Q - ref.Q).max() <= 1e-12
    assert rep.multiplicities == ref.multiplicities
    assert rep.valencies == ref.valencies and all(type(k) is int for k in rep.valencies)
    assert rep.intersection_numbers.dtype == np.int64
    assert np.array_equal(rep.intersection_numbers, ref.intersection_numbers)
    assert np.abs(rep.krein - ref.krein).max() <= 1e-12 * np.abs(ref.krein).max()
    for key in ("pq_residual", "reconstruction_residual"):
        assert getattr(rep, key) <= 1e-12 * rep.n**2
    assert rep.krein_min >= -1e-12 * np.abs(ref.krein).max()


@pytest.mark.parametrize("make", [
    lambda: LineSet(8, wf_mubs(8).to_lineset().vectors[:24]),  # 3 bases: a 1-design
    lambda: tensor_mubs(wf_mubs(2), wf_mubs(2)).to_lineset(),  # 3 bases of C^4
    lambda: random_lines(),
    lambda: real_doubling(wf_mubs(3).to_lineset()),
    lambda: perturbed_wf(3, 1e-6),  # every cluster splits
], ids=["wf8-three-bases", "tensor-2x2", "random", "real-doubling-wf3", "perturbed-wf3"])
def test_sets_short_of_the_design_hypothesis_take_the_labels(make):
    X = make()
    rep = scheme_from_lineset(X)
    assert rep.route == "labels" and X._labels is not None
    assert design_strength(X).strength < 2 * rep.classes - 2 or rep.classes > 3


def test_counts_that_miss_the_angles_leave_the_design_route():
    # wf5: 60 zero pairs and 375 at 1/5 give valencies 4 and 25
    X = wf_mubs(5).to_lineset()
    report = gram_degree_set(X)
    assert schemes._design_scheme(X, report).valencies == [1, 4, 25]
    moved = dataclasses.replace(report, multiplicities=[75, 360])  # valencies 5 and 24
    assert schemes._design_scheme(X, moved) is None
    odd = dataclasses.replace(report, multiplicities=[61, 374])  # 2 m / n is not an integer
    assert schemes._design_scheme(X, odd) is None
    tilted = dataclasses.replace(report, angles=[0.0, 0.21])  # angles that miss the counts
    assert schemes._design_scheme(X, tilted) is None


def test_a_tol_too_loose_to_tell_integers_apart_takes_the_labels():
    V = wf_mubs(4).to_lineset().vectors
    rep = scheme_from_lineset(LineSet(4, V, tol=1e-3))  # count_tol(20, 1e-3) = 0.2
    X = LineSet(4, V, tol=5e-3)  # count_tol(20, 5e-3) = 1
    ref = scheme_from_lineset(X)
    assert rep.route == "design" and ref.route == "labels" and X._labels is not None
    assert np.abs(rep.P - ref.P).max() <= 1e-12 and rep.multiplicities == ref.multiplicities


def scrambled_rows(X, seed=11):
    """The rows of X permuted, rephased and rotated by a seeded unitary."""
    rng = np.random.default_rng(seed)
    d, V = X.dim, X.vectors
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    phases = np.exp(2j * np.pi * rng.random(len(V)))[:, None]
    return (V * phases)[rng.permutation(len(V))] @ U.T


def scrambled(X, seed=11):
    """X with its lines permuted, rephased and rotated by a seeded unitary."""
    return LineSet(X.dim, scrambled_rows(X, seed))


@pytest.mark.parametrize("make", [
    lambda: wf_mubs(3).to_lineset(),
    lambda: wf_mubs(27).to_lineset(),
    lambda: diffset_lines(*singer_difference_set(31)),
    lambda: LineSet(7, wf_mubs(7).to_lineset().vectors[:21]),
    lambda: tensor_mubs(wf_mubs(2), wf_mubs(8)).to_lineset(),
], ids=["wf3", "wf27", "singer31", "partial-wf7", "tensor-2x8"])
def test_scrambled_rows_are_kept_bit_for_bit(make):
    # a unitary moves each norm by a few ulp, within float_error(dim) of 1
    V = scrambled_rows(make())
    kept = LineSet(V.shape[1], V).vectors
    assert np.array_equal(np.ascontiguousarray(kept).view(np.uint64), V.view(np.uint64))


LABEL_CASES = {
    **{f"wf{q}": (lambda q=q: wf_mubs(q).to_lineset()) for q in (2, 3, 4, 5)},
    "sic2": sic_lines,
    "sic2-three-lines": lambda: LineSet(2, sic_lines().vectors[:3]),  # one class, not closed
    "singer2": lambda: diffset_lines(*singer_difference_set(2)),
    "singer3": lambda: diffset_lines(*singer_difference_set(3)),
    "scrambled-wf3": lambda: scrambled(wf_mubs(3).to_lineset()),
    "random": random_lines,
    "random-6x4": lambda: random_lines(n=6, d=4, seed=3),
    "random-3x2": lambda: random_lines(n=3, d=2, seed=1),  # worst residual off the diagonal
}


@pytest.mark.parametrize("name", list(LABEL_CASES))
def test_labels_are_the_degree_set_clusters(name):
    X = LABEL_CASES[name]()
    report, L = _angle_labels(X)
    iu = np.triu_indices(X.n, k=1)
    counts = np.bincount(L[iu], minlength=report.s + 1)
    assert counts[0] == 0 and list(counts[1:]) == report.multiplicities
    assert np.array_equal(np.diag(L), np.zeros(X.n)) and np.array_equal(L, L.T)
    # the nearest-centre rule the labels used to follow
    sq = X.angle_matrix()
    nearest = np.argmin(np.abs(sq[:, :, None] - np.array(report.angles)), axis=2) + 1
    np.fill_diagonal(nearest, 0)
    assert np.array_equal(L, nearest)


def _span_residual(product, basis):
    """Relative Frobenius distance from `product` to the span of `basis`.

    The basis matrices are assumed to have pairwise disjoint supports, hence
    orthogonal under the Frobenius inner product, so the least-squares
    projection is one coefficient per matrix, and taking one matrix's part
    out leaves the other coefficients alone.  A 1-D entry stands for the
    diagonal matrix holding it.  `product` must be complex and C-contiguous;
    it is overwritten with the residual.
    """
    norm = np.linalg.norm(product)
    if norm == 0:
        return 0.0
    for B in basis:
        if B.ndim == 1:
            c = np.vdot(B, np.diagonal(product)) / np.vdot(B, B)
            product.reshape(-1)[:: len(B) + 1] -= c * B
        else:
            product -= np.vdot(B, product) / np.vdot(B, B) * B
    return float(np.linalg.norm(product) / norm)


def square_fit_residual(Gsq, G):
    """||G^2 - (a I + b G)|| / ||G^2|| with (a, b) the least-squares fit on
    the n^2 x 2 design [vec I, vec G] (by SVD, not the normal equations,
    which square the condition number)."""
    n = len(G)
    design = np.stack([np.eye(n, dtype=complex).ravel(), G.ravel()], axis=1)
    coef = np.linalg.lstsq(design, Gsq.ravel())[0]
    return float(np.linalg.norm(Gsq.ravel() - design @ coef) / np.linalg.norm(Gsq))


def dense_gram_algebra_check(X):
    """The Gram-weighted closure test on dense n x n classes (reference).

    Every class but the zero angle of the degree set is kept.  Every
    unordered pair of kept weighted classes is one dense product, and its
    residual comes from `_span_residual` over diag(G) and the kept classes;
    G^2 comes from the rank-d factor.
    """
    report, L = _angle_labels(X)
    V = X.vectors
    G = X.gram()
    diag = np.diagonal(G).copy()
    Gsq = (V.conj() @ (V.T @ V.conj())) @ V.T
    gsq_norm = np.linalg.norm(Gsq)
    square_residual = square_fit_residual(Gsq, G)
    mub_residual = None
    if (report.zero_present and report.s == 2
            and abs(report.angles[1] - 1.0 / X.dim) <= X.tol and X.n % X.dim == 0):
        mub_residual = float(np.linalg.norm(Gsq - X.n // X.dim * G) / gsq_norm)
    keep = [np.where(L == k, G, 0) for k in range(1 + report.zero_present, report.s + 1)]
    closure = max((_span_residual(keep[i] @ keep[j], [diag, *keep])
                   for i in range(len(keep)) for j in range(i, len(keep))), default=0.0)
    return {
        "closed": closure <= certify_tol(X.tol),
        "closure_residual": float(closure),
        "span_dimension": len(keep) + 1,
        "zero_class_dropped": bool(report.zero_present),
        "gram_square_residual": square_residual,
        "mub_identity_residual": mub_residual,
    }


def ordered_pair_closure(X):
    """Gram-algebra residual over every ordered pair of weighted classes,
    A'_0 included and the zero angle of the degree set left out."""
    report, L = _angle_labels(X)
    G = X.gram()
    keep = [G * np.where(L == k, 1.0, 0.0) for k in range(report.s + 1)
            if k != 1 or not report.zero_present]
    return max(_span_residual(A @ B, keep) for A in keep for B in keep)


@pytest.mark.parametrize("name", list(LABEL_CASES))
def test_gram_algebra_unordered_pairs_match_all_ordered_pairs(name):
    X = LABEL_CASES[name]()
    out = gram_algebra_check(X)
    full = ordered_pair_closure(X)
    assert out["closed"] == (full <= certify_tol(X.tol))
    assert abs(out["closure_residual"] - full) <= 1e-12


def test_labels_are_shared_uint8_and_independent_of_the_row_blocks(monkeypatch):
    X = wf_mubs(4).to_lineset()
    report, L = _angle_labels(X)
    assert L.dtype == np.uint8 and _angle_labels(X)[1] is L
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", 64)  # 3-row blocks at n = 20
    Y = wf_mubs(4).to_lineset()
    assert np.array_equal(_angle_labels(Y)[1], L)


def test_many_classes_widen_the_label_type():
    X = random_lines(n=24, d=3, seed=5)  # 276 distinct angles
    report, L = _angle_labels(X)
    assert report.s == 276 and L.dtype == np.uint16 and L.max() == 276


@pytest.mark.parametrize("dtype, s", [(np.uint8, 2), (np.uint8, 3), (np.uint8, 255), (np.uint16, 300)])
def test_cut_matches_searchsorted_on_and_between_the_cuts(dtype, s):
    rng = np.random.default_rng(s)
    cuts = np.sort(rng.random(s - 1))
    # every cut itself, the floats on either side of it, and random angles
    A = np.concatenate([cuts, np.nextafter(cuts, 0), np.nextafter(cuts, 1),
                        rng.random(3 * s), [0.0, 0.5, 1.0]]).reshape(3, -1)
    out = schemes._cut(np.empty(A.shape, dtype), A, cuts.tolist())
    assert out.dtype == dtype and np.array_equal(out, np.searchsorted(cuts, A) + 1)


@pytest.mark.parametrize("n, d, tol, seed", [(120, 3, 3e-3, 2), (200, 4, 1e-4, 1)])
def test_labels_of_chained_clusters_match_searchsorted(n, d, tol, seed, monkeypatch):
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", 3 * n)  # 3-row blocks
    X = LineSet(d, random_lines(n, d, seed).vectors, tol=tol)
    report, L = _angle_labels(X)
    assert max(report.multiplicities) > n  # clusters chain across the blocks
    cuts = [(hi + lo) / 2 for (_, hi), (lo, _) in zip(report.spans, report.spans[1:])]
    ref = np.vstack([np.searchsorted(cuts, A) + 1 for _, A in linesets._angle_blocks(X)])
    np.fill_diagonal(ref, 0)
    assert L.dtype == (np.uint8 if report.s < 256 else np.uint16) and np.array_equal(L, ref)


def old_span_residual(product, basis):
    """The span residual on a fresh complex copy (reference)."""
    norm = np.linalg.norm(product)
    if norm == 0:
        return 0.0
    residual = product.astype(complex)
    for B in basis:
        residual = residual - np.vdot(B, product) / np.vdot(B, B) * B
    return float(np.linalg.norm(residual) / norm)


def exact_span_residual(product, L, m):
    """The span residual from exact integer class sums (reference): the
    squared distance sum_k S2_k - S1_k^2 / |k| as a Fraction, one rounding
    for the ratio and one for the root."""
    P = product.astype(np.int64)
    s1, s2 = [int(P[L == k].sum()) for k in range(m)], [int((P[L == k] ** 2).sum()) for k in range(m)]
    dist = sum(Fraction(b * int((L == k).sum()) - a * a, int((L == k).sum()))
               for k, (a, b) in enumerate(zip(s1, s2)))
    return math.sqrt(dist / sum(s2))


def dense_association_scheme(L):
    """The scheme kernel with one float64 GEMM per class pair (reference).

    Returns p, witness, closure residual and, when closed, P, Q and Krein.
    The residual is exact (`exact_span_residual`); it agrees with the
    projection on a complex copy (`old_span_residual`) to 1e-12.
    """
    L = np.asarray(L)
    n = L.shape[0]
    m = int(L.max()) + 1
    flat = L.ravel()
    reps = np.array([np.argmax(flat == k) for k in range(m)])
    A = [np.where(L == i, 1.0, 0.0) for i in range(m)]
    p = np.zeros((m, m, m), dtype=np.int64)
    p[0] = p[:, 0] = np.eye(m, dtype=np.int64)
    closure, witness = 0.0, None
    for i in range(1, m):
        for j in range(i, m):
            prod = A[i] @ A[j]
            p[i, j] = p[j, i] = prod.ravel()[reps]
            bad = prod != p[i, j][L]
            if bad.any():
                if witness is None:
                    x, y = np.unravel_index(np.argmax(bad), bad.shape)
                    witness = (int(x), int(y), int(L[x, y]))
                exact = exact_span_residual(prod, L, m)
                assert abs(exact - old_span_residual(prod, A)) <= 1e-12
                closure = max(closure, exact)
    if witness is not None:
        return p, witness, float(closure), None, None, None
    k = p[np.arange(m), np.arange(m), 0]
    root = np.sqrt(k)
    S = p.transpose(0, 2, 1) * root[:, None] / root[None, :]
    spaces = [np.eye(m)]
    for Si in S[1:]:
        refined = []
        for U in spaces:
            if U.shape[1] == 1:
                refined.append(U)
                continue
            vals, vecs = np.linalg.eigh(U.T @ Si @ U)
            refined += [U @ vecs[:, g] for g in gap_clusters(vals, 1e-7 * max(1.0, n))]
        spaces = refined
    rows = [root * U[:, 0] / U[0, 0] for U in spaces]
    first = int(np.argmin([np.abs(r - k).max() for r in rows]))
    rest = sorted((r for r in range(m) if r != first),
                  key=lambda r: [round(x, 6) for x in rows[r]], reverse=True)
    P = np.array([rows[r] for r in [first] + rest])
    mults = [int(round(n / x)) for x in (P**2 / k).sum(axis=1)]
    Q = P.T * np.array(mults) / k[:, None]
    krein = np.einsum("li,lj,kl->ijk", Q, Q, P) / n
    return p, None, 0.0, P, Q, krein


def random_labels(seed):
    """A symmetric label matrix, 0 on the diagonal, every class 1..s present."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 31))
    s = int(rng.integers(1, 6))
    L = np.triu(rng.integers(1, s + 1, size=(n, n)), 1)
    L = L + L.T
    _, L = np.unique(L, return_inverse=True)  # classes 0..s' without gaps
    return L.reshape(n, n)


def sparse_labels(seed):
    """Random labels whose classes 1 and 2 hold about 2 and 1 pairs per row,
    few enough to be counted; some rows have none of them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 71))
    L = np.triu(rng.integers(3, 6, size=(n, n)), 1)
    u = rng.random((n, n))
    L[np.triu(u < 2 / n, 1)] = 1
    L[np.triu((u >= 2 / n) & (u < 3 / n), 1)] = 2
    L = L + L.T
    _, L = np.unique(L, return_inverse=True)
    return L.reshape(n, n)


SCHEME_LABELS = {
    **{f"lines-{name}": (lambda make=make: _angle_labels(make())[1])
       for name, make in LABEL_CASES.items()},
    "lines-wf16": lambda: _angle_labels(wf_mubs(16).to_lineset())[1],  # the zero class is counted
    **{f"sparse{seed}": (lambda seed=seed: sparse_labels(seed)) for seed in range(8)},
    **{f"cover-rds{q}": (lambda q=q: _distance_labels(cover_graph(*field_rds(q)).adjacency))
       for q in (3, 4, 5, 7)},
    **{f"random{seed}": (lambda seed=seed: random_labels(seed)) for seed in range(60)},
}


@pytest.mark.parametrize("name", list(SCHEME_LABELS))
def test_kernel_matches_dense_float64_kernel_bit_for_bit(name):
    L = SCHEME_LABELS[name]()
    rep = association_scheme(L)
    p, witness, closure, P, Q, krein = dense_association_scheme(L)
    assert rep.witness == witness and rep.closed == (witness is None)
    assert rep.closure_residual == closure  # bit-identical, also when the span is open
    if rep.closed:
        assert np.array_equal(rep.intersection_numbers, p)
        assert rep.P.tobytes() == P.tobytes() and rep.Q.tobytes() == Q.tobytes()
        assert rep.krein.tobytes() == krein.tobytes()


def assert_kernel_matches_dense_over_row_blocks(name, rows, monkeypatch):
    L = SCHEME_LABELS[name]()
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", rows * L.shape[0])
    blocks = linesets._row_blocks(L.shape[0], linesets.BLOCK_ENTRIES)
    assert max(r1 - r0 for r0, r1 in blocks) <= rows + 1  # uneven: edges n k // count
    rep = association_scheme(L)
    p, witness, closure, *_ = dense_association_scheme(L)
    assert rep.witness == witness and rep.closure_residual == closure
    if rep.closed:
        assert np.array_equal(rep.intersection_numbers, p)


@pytest.mark.parametrize("name", ["lines-wf4", "lines-wf16", "cover-rds3", "sparse0", "sparse5",
                                  *(f"random{seed}" for seed in range(0, 60, 6))])
def test_kernel_matches_dense_kernel_over_small_row_blocks(name, monkeypatch):
    assert_kernel_matches_dense_over_row_blocks(name, 2, monkeypatch)


@pytest.mark.parametrize("name", ["lines-wf16", "cover-rds7", "sparse2", "random3", "random33"])
def test_kernel_matches_dense_kernel_over_uneven_row_blocks(name, monkeypatch):
    assert_kernel_matches_dense_over_row_blocks(name, 5, monkeypatch)


def test_sparse_labels_are_counted_and_irregular():
    for L in map(sparse_labels, range(8)):
        n = L.shape[0]
        sizes = np.bincount(L.ravel())
        assert all(16 * sizes[k] <= n * n for k in (1, 2))
        assert ((L == 1).sum(axis=1) == 0).any() and np.ptp((L == 1).sum(axis=1)) >= 3
    assert sum(not association_scheme(sparse_labels(seed)).closed for seed in range(8)) == 8


def test_kernel_holds_nothing_n_by_n_beyond_the_labels(monkeypatch):
    for L, rows in ((_angle_labels(scrambled(wf_mubs(27).to_lineset()))[1], 8),  # counted
                    (_distance_labels(cover_graph(*field_rds(13)).adjacency), 2)):  # GEMM and counted
        monkeypatch.setattr(linesets, "BLOCK_ENTRIES", rows * L.shape[0])
        rep, peak = traced_peak(association_scheme, L)
        assert rep.closed
        assert peak <= L.size / 2  # half the bytes of the uint8 labels


def test_random_labels_cover_open_irregular_spans():
    reps = [association_scheme(random_labels(seed)) for seed in range(60)]
    assert sum(not r.closed for r in reps) >= 50
    irregular = [L for L in map(random_labels, range(60))
                 if any(np.ptp((L == k).sum(axis=1)) for k in range(1, L.max() + 1))]
    assert len(irregular) >= 50


class CountingNumpy:
    """numpy, with every np.matmul call recorded as (dtype, shape, shape)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b):
        self.calls.append((np.result_type(a, b), a.shape, b.shape))
        return np.matmul(a, b)


@pytest.mark.parametrize("make, gemms", [
    (lambda: wf_mubs(5).to_lineset(), 1),       # complete MUBs: 2 classes
    (lambda: diffset_lines(*singer_difference_set(4)), 0),  # one class
    (sic_lines, 0),
    (lambda: _distance_labels(cover_graph(*field_rds(5)).adjacency), 9),  # 3 x 3 ordered pairs
    pytest.param(lambda: wf_mubs(16).to_lineset(), 0, id="wf16-counted"),  # 15 <= 272/16 per row
])
def test_kernel_multiplies_only_the_classes_left_after_the_largest(make, gemms, monkeypatch):
    made = make()
    L = _angle_labels(made)[1] if isinstance(made, LineSet) else made
    counting = CountingNumpy()
    monkeypatch.setattr(schemes, "np", counting)
    rep = association_scheme(L)
    assert rep.closed
    n = L.shape[0]
    assert len(counting.calls) == gemms
    assert all(dt == np.float32 and a == b == (n, n) for dt, a, b in counting.calls)


def test_kernel_rejects_labels_off_the_diagonal_convention():
    L = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        association_scheme(L + np.eye(3, dtype=int))
    L[0, 1] = L[1, 0] = 0
    with pytest.raises(ValueError, match="diagonal"):
        association_scheme(L)
    with pytest.raises(ValueError, match="every class"):
        association_scheme(np.array([[0, 2], [2, 0]]))  # class 1 has no pair


GRAM_SETS = {
    **{f"wf{q}": (lambda q=q: wf_mubs(q).to_lineset()) for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"singer{q}": (lambda q=q: diffset_lines(*singer_difference_set(q)))
       for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"sic{d}": (lambda d=d: wh_orbit(builtin_fiducial(d))) for d in (2, 3, 8)},
    "partial-wf3": lambda: LineSet(3, wf_mubs(3).to_lineset().vectors[:9]),
    "partial-wf7": lambda: LineSet(7, wf_mubs(7).to_lineset().vectors[:21]),  # 3 bases
    "tensor-2x8": lambda: tensor_mubs(wf_mubs(2), wf_mubs(8)).to_lineset(),  # 3 bases in C^16
    "random": random_lines,
    "random-6x4": lambda: random_lines(n=6, d=4, seed=3),
    "random-9x3": lambda: random_lines(n=9, d=3, seed=11),
}


def dense_gram_square(X):
    """The Gram-square residuals with G @ G and a complex identity (reference)."""
    report = _angle_labels(X)[0]
    G = X.gram()
    Gsq = G @ G
    square = square_fit_residual(Gsq, G)
    nonzero = [a for a in report.angles if a > 1e-9]
    mub = None
    if (report.zero_present and len(nonzero) == 1 and abs(nonzero[0] - 1 / X.dim) <= 1e-9
            and X.n % X.dim == 0):
        mub = np.linalg.norm(Gsq - X.n // X.dim * G) / np.linalg.norm(Gsq)
    return square, mub


@pytest.mark.parametrize("name", list(GRAM_SETS))
def test_gram_square_matches_dense_product(name):
    X = GRAM_SETS[name]()
    out = gram_algebra_check(X)
    square, mub = dense_gram_square(X)
    assert abs(out["gram_square_residual"] - square) <= 1e-12
    assert (out["mub_identity_residual"] is None) == (mub is None)
    if mub is not None:
        assert abs(out["mub_identity_residual"] - mub) <= 1e-12


def sic_and_mercedes(seed=None):
    """The 4-line SIC in C^2 and the 3 Mercedes lines of R^2 in orthogonal C^2
    blocks of C^4 (angles 0, 1/4 and 1/3), turned by a seeded unitary.

    The product of the two kept classes is exactly 0, while the square of the
    SIC class is the identity on its block only, so the span is not closed.
    """
    mercedes = [(1, 0), (-0.5, 3**0.5 / 2), (-0.5, -(3**0.5) / 2)]
    V = np.zeros((7, 4), dtype=complex)
    V[:4, :2], V[4:, 2:] = sic_lines().vectors, mercedes
    if seed is not None:
        rng = np.random.default_rng(seed)
        V = V @ np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0].T
    return LineSet(4, V)


def random_with_orthogonal_pairs(seed):
    """A turned orthonormal basis of C^4 and six random lines: a zero-angle
    class next to many kept classes."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return LineSet(4, np.vstack([U.T, random_lines(n=6, d=4, seed=seed).vectors]))


def confined_lines(n, d, rank, seed):
    """n random lines of C^d inside a seeded subspace of dimension rank, so
    that G has rank below min(n, d)."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)))[0]
    return LineSet(d, random_lines(n=n, d=rank, seed=seed).vectors @ U.T)


GRAM_ORACLE_SETS = {
    **{f"lines-{name}": make for name, make in LABEL_CASES.items()},
    **GRAM_SETS,
    "sic-and-mercedes": sic_and_mercedes,
    **{f"sic-and-mercedes-turned{seed}": (lambda seed=seed: sic_and_mercedes(seed))
       for seed in range(3)},
    **{f"random{seed}": (lambda seed=seed: random_lines(n=3 + seed, d=2 + seed % 3, seed=seed))
       for seed in range(8)},
    **{f"orthogonal-pairs{seed}": (lambda seed=seed: random_with_orthogonal_pairs(seed))
       for seed in range(3)},
    # a lone class next to a dense zero class U that is rounding noise at
    # nearly every entry, where the unscrambled sets hold many exact zeros
    **{f"scrambled-{name}": (lambda name=name: scrambled(GRAM_SETS[name]()))
       for name in ("partial-wf7", "tensor-2x8")},
    # the spectrum of G off the common case: rank below min(n, d), and n < d
    "confined-6-in-C4-rank2": lambda: confined_lines(6, 4, 2, seed=5),
    "confined-7-in-C5-rank3": lambda: confined_lines(7, 5, 3, seed=6),
    "confined-4-in-C5-rank2": lambda: confined_lines(4, 5, 2, seed=7),
    "random-3x5": lambda: random_lines(n=3, d=5, seed=8),
    # 180 lines, 3 kept classes: the several-class product route on a structured set
    "real-doubling-wf9": lambda: real_doubling(wf_mubs(9).to_lineset()),
}


def assert_matches_dense_oracle(out, ref):
    assert out.keys() == ref.keys()
    for key in ("closed", "span_dimension", "zero_class_dropped"):
        assert out[key] == ref[key], key
    for key in ("closure_residual", "gram_square_residual"):
        assert abs(out[key] - ref[key]) <= 1e-12, key
    assert (out["mub_identity_residual"] is None) == (ref["mub_identity_residual"] is None)
    if ref["mub_identity_residual"] is not None:
        assert abs(out["mub_identity_residual"] - ref["mub_identity_residual"]) <= 1e-12


def assert_lone_class_bound_holds(X, ref):
    """On a lone kept class, the spectral residual r0 is within its bound B
    of the dense oracle, plus the n eps rounding of the oracle's own sums where
    B is at most n eps; there gram_algebra_check reports r0."""
    r0, bound = schemes._lone_class_closure(X, *schemes._gram_spectrum(X))
    spectral = bound <= float_error(X.n)
    slack = float_error(X.n) if spectral else 0.0
    assert abs(r0 - ref["closure_residual"]) <= bound + slack
    return spectral, r0


@pytest.mark.parametrize("name", list(GRAM_ORACLE_SETS))
def test_gram_algebra_matches_dense_oracle(name):
    X = GRAM_ORACLE_SETS[name]()
    out, ref = gram_algebra_check(X), dense_gram_algebra_check(X)
    assert_matches_dense_oracle(out, ref)
    if out["span_dimension"] == 2:
        spectral, r0 = assert_lone_class_bound_holds(X, ref)
        assert spectral and out["closure_residual"] == r0


@pytest.mark.parametrize("name", ["wf4", "singer3", "partial-wf3", "random-9x3",
                                  "sic-and-mercedes-turned0", "orthogonal-pairs1",
                                  "wf5", "partial-wf7"])
def test_gram_algebra_matches_dense_oracle_on_small_row_blocks(name, monkeypatch):
    X = GRAM_ORACLE_SETS[name]()
    ref = dense_gram_algebra_check(X)
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", X.n)  # 2-row blocks, 16 for the products
    assert_matches_dense_oracle(gram_algebra_check(X), ref)


def perturbed_wf(q, eps, seed=1):
    """wf_mubs(q) moved by eps times seeded complex noise and renormalised:
    its zero-angle class is no longer 0, but is still dropped."""
    rng = np.random.default_rng(seed)
    V = wf_mubs(q).to_lineset().vectors
    V = V + eps * (rng.normal(size=V.shape) + 1j * rng.normal(size=V.shape))
    return LineSet(q, V / np.linalg.norm(V, axis=1, keepdims=True))


# in the last two the zero-angle class is far above 1e-12 n in norm, and is
# dropped all the same
@pytest.mark.parametrize("q, eps", [(3, 1e-13), (5, 1e-12), (5, 1e-11), (8, 1e-10)])
def test_a_dropped_class_near_its_bound_enters_the_square(q, eps):
    X = perturbed_wf(q, eps)
    report = gram_degree_set(X)
    assert report.zero_present and report.angles[0] > 0  # U != 0
    out = gram_algebra_check(X)
    assert X._labels is not None  # the product route ran: U moves r0 past n eps
    ref = dense_gram_algebra_check(X)
    assert_matches_dense_oracle(out, ref)
    assert out["closed"] and out["zero_class_dropped"] and out["span_dimension"] == 2
    assert not assert_lone_class_bound_holds(X, ref)[0]
    # the residual is of the size of GU + UG, so the absolute check cannot see that
    # term; the product route holds U^2 as well, so it meets the oracle closely
    assert abs(out["closure_residual"] - ref["closure_residual"]) <= 1e-6 * ref["closure_residual"]


def test_many_classes_match_the_dense_oracle():
    X = random_lines(n=20, d=4, seed=1)
    out = gram_algebra_check(X)
    assert out["span_dimension"] == 191
    assert_matches_dense_oracle(out, dense_gram_algebra_check(X))


@pytest.mark.parametrize("seed", [None, 0])
def test_classes_meeting_at_no_vertex_skip_their_product(seed, monkeypatch):
    X = sic_and_mercedes(seed)
    counting = CountingNumpy()
    monkeypatch.setattr(schemes, "np", counting)
    out = gram_algebra_check(X)
    assert not out["closed"] and abs(out["closure_residual"] - 0.6547) <= 1e-4
    # the squares of the 1/4 and the 1/3 class; their product is 0
    assert sum(a == b == (X.n, X.n) for _, a, b in counting.calls) == 2


def test_gram_algebra_holds_no_n_by_n_complex_matrix(monkeypatch):
    # 273 lines in C^17 close from the spectrum, 272 lines in C^16 from the products
    for X in diffset_lines(*singer_difference_set(16)), perturbed_wf(16, 1e-10):
        _angle_labels(X)
        monkeypatch.setattr(linesets, "BLOCK_ENTRIES", X.n // 2)  # the products take 7 or 8 rows
        tracemalloc.start()
        try:
            out = gram_algebra_check(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["closed"]
        assert peak < 16 * X.n**2  # below one complex n x n matrix


@pytest.mark.parametrize("X", [LineSet(3, np.eye(3)), LineSet(2, [[1, 0]])],
                         ids=["orthonormal-basis", "one-line"])
def test_gram_square_fit_when_g_is_the_identity(X):
    # G = I makes the 2 x 2 fit of G^2 on span{I, G} singular
    out = gram_algebra_check(X)
    assert out["gram_square_residual"] <= 1e-15
    assert out["closed"] and out["mub_identity_residual"] is None


@pytest.mark.parametrize("make, products", [
    (lambda: wf_mubs(5).to_lineset(), 0),  # one kept class: from the spectrum
    (lambda: diffset_lines(*singer_difference_set(4)), 0),
    # 15 classes, one pair each: the 15 squares and the 60 pairs that meet
    (lambda: random_lines(n=6, d=4, seed=3), 15 + 60),
    # a lone class next to a dense zero class also closes from the spectrum
    (lambda: LineSet(7, wf_mubs(7).to_lineset().vectors[:21]), 0),
])
def test_gram_square_needs_no_n_by_n_product(make, products, monkeypatch):
    X = make()
    counting = CountingNumpy()
    monkeypatch.setattr(schemes, "np", counting)
    gram_algebra_check(X)
    square = [(a, b) for _, a, b in counting.calls if a == b == (X.n, X.n)]
    assert len(square) == products  # the weighted-class products, nothing for G^2 or the fits
    assert all(dt == complex for dt, *_ in counting.calls)
    # a lone class forms no row of G, and so needs no labels
    assert (X._labels is None) == (products == 0)
    assert products or all(a[0] != X.n for _, a, _ in counting.calls)


def dense_idempotent_residuals(X, e):
    """||E_i E_j - [i == j] E_i|| from every pair of dense products (reference)."""
    fam = JacobiFamily(X.dim, max_k=max(e, 2))
    sq = X.angle_matrix()
    mats = [np.polynomial.polynomial.polyval(sq, [float(c) for c in jacobi_poly(fam, r, "g")])
            / X.n for r in range(e + 1)]
    return np.array([[np.linalg.norm(a @ b - (a if i == j else 0.0))
                      for j, b in enumerate(mats)] for i, a in enumerate(mats)])


@pytest.mark.parametrize("make", [lambda: wf_mubs(5).to_lineset(), sic_lines, random_lines,
                                  lambda: diffset_lines(*singer_difference_set(4))])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_idempotent_residuals_match_dense_products(make, e):
    X = make()
    out = jacobi_idempotents(X, e=e)
    assert np.abs(out["residuals"] - dense_idempotent_residuals(X, e)).max() <= 1e-12


def out_of_place_idempotents(X, e):
    """`jacobi_idempotents` with a new array at every Horner step (reference)."""
    fam = JacobiFamily(X.dim, max_k=max(e, 2))
    sq = X.angle_matrix()
    n = X.n
    mats = []
    for r in range(e + 1):
        val = np.zeros_like(sq)
        for c in reversed([float(c) for c in jacobi_poly(fam, r, kind="g")]):
            val = val * sq + c
        mats.append(val / n)
    res = np.zeros((e + 1, e + 1))
    for j in range(e + 1):
        row = mats[0][0] @ mats[j] - (mats[0][0] if j == 0 else 0.0)
        res[0, j] = res[j, 0] = np.sqrt(n) * np.linalg.norm(row)
    for i in range(1, e + 1):
        for j in range(i, e + 1):
            product = mats[i] @ mats[j]
            if i == j:
                product -= mats[i]
            res[i, j] = res[j, i] = np.linalg.norm(product)
    return mats, res


@pytest.mark.parametrize("make", [lambda: wf_mubs(5).to_lineset(), sic_lines, random_lines,
                                  lambda: diffset_lines(*singer_difference_set(4))])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_idempotents_in_place_are_bit_identical(make, e):
    out = jacobi_idempotents(make(), e=e)
    mats, res = out_of_place_idempotents(make(), e)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out["idempotents"], mats, strict=True))
    # the blocked squares multiply E_i by the transpose of E_i's rows, which moves the last bits
    assert np.abs(out["residuals"] - res).max() <= 1e-12 * max(1.0, res.max())


@pytest.mark.parametrize("e", [1, 2])
def test_idempotents_over_row_blocks_match_the_dense_products(e):
    X = alltop_mubs(23).to_lineset()  # n = 552
    assert len(linesets._row_blocks(X.n, linesets.BLOCK_ENTRIES)) >= 3
    out = jacobi_idempotents(X, e=e)
    mats, _ = out_of_place_idempotents(X, e)
    assert all(np.abs(a - b).max() <= 1e-15 for a, b in zip(out["idempotents"], mats, strict=True))
    ref = dense_idempotent_residuals(X, e)  # E_2 is far from idempotent: 4.4e5 at e = 2
    assert np.abs(out["residuals"] - ref).max() <= 1e-12 * max(1.0, ref.max())


def traced_peak(f, *args):
    """f(*args) and the peak bytes that tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_idempotents_hold_their_matrices_and_one_block(monkeypatch):
    X = scrambled(wf_mubs(27).to_lineset())  # n = 756
    fam = JacobiFamily(X.dim, max_k=2)

    def no_gram(self):
        raise AssertionError("jacobi_idempotents formed the n x n Gram")

    monkeypatch.setattr(LineSet, "gram", no_gram)
    out, peak = traced_peak(jacobi_idempotents, X, fam, 2)
    assert out["residuals"][:2, :2].max() <= 1e-8  # a complete MUB is a 2-design
    assert peak <= 2 * 8 * X.n**2 + 3 * 2**20  # E_1, E_2 and one block


@pytest.mark.parametrize("make", [lambda: wf_mubs(5).to_lineset(), sic_lines, random_lines,
                                  lambda: alltop_mubs(23).to_lineset()],
                         ids=["wf5", "sic2", "random", "alltop23"])
@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_residual_route_is_bit_identical_to_both_keeping_routes(make, e):
    X = make()
    out = idempotent_residuals(X, e=e)
    kept = jacobi_idempotents(make(), e=e)
    assert out["residuals"].tobytes() == kept["residuals"].tobytes()
    assert out["traces"] == kept["traces"] and out["max_residual"] == kept["max_residual"]
    mats, res = out_of_place_idempotents(make(), e)
    traces = [float(np.trace(M)) for M in mats]
    # the blocked products take a transposed operand, which moves the last bits
    assert np.abs(out["residuals"] - res).max() <= 1e-12 * max(1.0, res.max())
    if len(schemes._zonal_setup(X, None, e)[1]) == 1:
        assert out["traces"] == traces
    else:  # alltop23, n = 552 in 6 row blocks: the traces sum block by block
        assert np.allclose(out["traces"], traces, rtol=1e-13, atol=0)


def test_residual_route_holds_one_matrix_and_its_blocks(monkeypatch):
    X = scrambled(wf_mubs(27).to_lineset())  # n = 756
    fam = JacobiFamily(X.dim, max_k=2)

    def no_gram(self):
        raise AssertionError("idempotent_residuals formed the n x n Gram")

    monkeypatch.setattr(LineSet, "gram", no_gram)
    out, peak = traced_peak(idempotent_residuals, X, fam, 2)
    assert out["residuals"][:2, :2].max() <= 1e-8
    # the rows of E_1 and E_2 on a block of 108 rows and a tile of 27, and the
    # angle rows of one unit with its complex product: less than one real n x n matrix
    assert peak < 8 * X.n**2


class ShapeSpy(CountingNumpy):
    """CountingNumpy that also records the shape of every array a numpy function makes."""

    def __init__(self):
        super().__init__()
        self.made = []

    def __getattr__(self, name):
        f = getattr(np, name)
        if not callable(f) or isinstance(f, type):
            return f

        def spy(*args, **kwargs):
            out = f(*args, **kwargs)
            if isinstance(out, np.ndarray) and out.flags.owndata:
                self.made.append(out.shape)
            return out

        return spy


@pytest.mark.parametrize("e, products", [(1, lambda B: B + 2 * B * (B - 1)),
                                         (2, lambda B: 3 * B + 2 * B * (B - 1))])
def test_residual_route_makes_and_multiplies_no_n_by_n_array(e, products, monkeypatch):
    X = scrambled(wf_mubs(27).to_lineset())  # n = 756: 7 blocks of 4 units of d = 27 rows
    spy = ShapeSpy()
    monkeypatch.setattr(schemes, "np", spy)
    monkeypatch.setattr(linesets, "np", spy)
    out = idempotent_residuals(X, e=e)
    assert out["residuals"][:2, :2].max() <= 1e-8
    n, B, b, w = X.n, 7, 108, 27
    assert spy.made and (n, n) not in spy.made
    assert max(math.prod(shape) for shape in spy.made) <= e * b * n  # the buffer of a block's rows
    # e(e + 1)/2 diagonal blocks per row block, each rows by transposed rows, and one
    # stacked block per tile: 4 tiles for each later block, 2B(B - 1) in all
    assert len(spy.calls) == products(B)
    diagonal = [call for call in spy.calls if call[2] == (n, b)]
    assert len(diagonal) == B * e * (e + 1) // 2 and all(a == (b, n) for _, a, _ in diagonal)
    assert all(a == (e * b, n) and c == (n, e * w) for _, a, c in spy.calls if c != (n, b))


@pytest.mark.parametrize("make, entries, sizes", [
    # units of 10 rows by entries alone, raised to the 16-row floor; the last
    # unit has 17 rows and is a block of its own
    (lambda: random_lines(n=401, d=3), None, [16] * 24 + [17]),
    (lambda: random_lines(n=400, d=100), None, [100] * 4),  # 40 rows by entries alone
    (lambda: real_doubling(wf_mubs(3).to_lineset()), None, [24]),
    (lambda: alltop_mubs(23).to_lineset(), 1 << 10, [23] * 24),  # 6 blocks of 4 units
], ids=["uneven", "four-d", "real", "six-blocks"])
@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_blocked_residuals_match_the_dense_products(make, entries, sizes, e, monkeypatch):
    X = make()
    if entries is not None:
        monkeypatch.setattr(linesets, "BLOCK_ENTRIES", entries)
    assert [r1 - r0 for r0, r1 in schemes._zonal_setup(X, None, e)[1]] == sizes
    ref = dense_idempotent_residuals(X, e)
    out = idempotent_residuals(X, e=e)
    assert np.abs(out["residuals"] - ref).max() <= 1e-12 * max(1.0, ref.max())
    assert out["residuals"].tobytes() == jacobi_idempotents(X, e=e)["residuals"].tobytes()


def test_labels_hold_their_matrix_and_one_block():
    X = scrambled(wf_mubs(27).to_lineset())
    gram_degree_set(X)
    (report, L), peak = traced_peak(_angle_labels, X)
    assert report.s == 2 and L.dtype == np.uint8
    assert peak <= X.n**2 + 2.5 * 2**20


#: bytes of one row block of the angle matrix in complex128
BLOCK_BYTES = 16 * linesets.BLOCK_ENTRIES

#: sets of the sizes of linebench's certify-deep sets, below 1024 lines: no block
#: outgrows the budget
GUARDED_SETS = {
    "mub27": lambda: scrambled(wf_mubs(27).to_lineset()),
    "singer31": lambda: scrambled(diffset_lines(*singer_difference_set(31))),
}


@pytest.mark.parametrize("name", GUARDED_SETS)
def test_labels_hold_one_block_beyond_their_matrix(name):
    X = GUARDED_SETS[name]()
    gram_degree_set(X)
    (report, L), peak = traced_peak(_angle_labels, X)
    assert L.dtype == np.uint8
    # the complex product of one block with its angles, cut in place into L
    assert peak - L.nbytes <= 2 * BLOCK_BYTES


@pytest.mark.parametrize("name", GUARDED_SETS)
def test_scheme_kernel_holds_one_block_beyond_the_labels(name):
    L = _angle_labels(GUARDED_SETS[name]())[1]
    rep, peak = traced_peak(association_scheme, L)
    assert rep.closed
    assert peak <= 2 * BLOCK_BYTES


@pytest.mark.parametrize("name", GUARDED_SETS)
def test_idempotent_residuals_hold_their_buffers_and_one_unit(name):
    X = GUARDED_SETS[name]()
    e, n = 2, X.n
    b = max(linesets.BLOCK_ENTRIES // n, 4 * X.dim)
    out, peak = traced_peak(idempotent_residuals, X, None, e)
    assert np.allclose(out["traces"], [dim_harm(X.dim, r, r) for r in range(e + 1)])
    # the rows of E_1..E_e on one block of b rows and on one tile of b/4, and the
    # complex angle rows of one unit with their angles: e + e/4 + 3/4 real b x n arrays
    assert peak <= (e + 2) * 8 * b * n


class TestJacobiIdempotents:
    def test_mub_design_gives_orthogonal_idempotents(self):
        X = wf_mubs(3).to_lineset()
        out = jacobi_idempotents(X, e=1)
        assert out["max_residual"] <= 1e-8
        assert np.allclose(out["idempotents"][0], np.ones((12, 12)) / 12)
        assert np.allclose(out["traces"], [1, dim_harm(3, 1, 1)])

    def test_sic_trace_telescope(self):
        # traces of E_0, E_1 are the harmonic dimensions 1 and d^2-1,
        # summing to d^2 = |X| for a minimal 2-design
        X = sic_lines()
        out = jacobi_idempotents(X, e=1)
        assert out["max_residual"] <= 1e-8
        assert np.allclose(out["traces"], [1, 3])
        assert abs(sum(out["traces"]) - X.n) <= 1e-9

    def test_e0_is_always_the_averaging_matrix(self):
        X = random_lines()
        out = jacobi_idempotents(X, e=0)
        assert np.allclose(out["idempotents"][0], np.ones((5, 5)) / 5)
        assert out["residuals"].shape == (1, 1)

    def test_design_shortfall_reported_not_raised(self):
        X = wf_mubs(3).to_lineset()
        sub = LineSet(3, X.vectors[:9])  # three of the four bases
        assert design_strength(sub).strength == 1
        out = jacobi_idempotents(sub, e=1)
        assert out["max_residual"] > 1e-2

    def test_negative_e_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            jacobi_idempotents(sic_lines(), e=-1)

    def test_supplied_family_matches_default(self):
        X = wf_mubs(3).to_lineset()
        a = jacobi_idempotents(X, e=1)
        b = jacobi_idempotents(X, fam=JacobiFamily(3, max_k=6), e=1)
        for left, right in zip(a["idempotents"], b["idempotents"]):
            assert np.allclose(left, right)

    def test_zonal_route_matches_spectral_route(self):
        # for a 2-distance 2-design the zonal E_1 must be one of the
        # eigenprojections of the scheme; reconstruct those from Q
        X = wf_mubs(3).to_lineset()
        rep = scheme_from_lineset(X)
        _, L = _angle_labels(X)
        masks = [np.where(L == k, 1.0, 0.0) for k in range(3)]
        zonal = jacobi_idempotents(X, e=1)["idempotents"][1]  # trace 8
        spectral = sum(rep.Q[i, 2] * masks[i] for i in range(3)) / rep.n
        assert np.allclose(zonal, spectral, atol=1e-9)


class TestGramAlgebra:
    def test_mub_gram_identity(self):
        out = gram_algebra_check(wf_mubs(3).to_lineset())
        assert out["closed"] and out["span_dimension"] == 2
        assert out["zero_class_dropped"] is True
        assert out["mub_identity_residual"] <= 1e-12

    def test_mub_gram_identity_larger(self):
        out = gram_algebra_check(wf_mubs(4).to_lineset())
        assert out["closed"] and out["mub_identity_residual"] <= 1e-12

    def test_partial_mub_family_still_closes(self):
        # any number of unbiased bases closes; G^2 = (#bases) G
        X = wf_mubs(3).to_lineset()
        sub = LineSet(3, X.vectors[:9])
        out = gram_algebra_check(sub)
        assert out["closed"] and out["mub_identity_residual"] <= 1e-12

    def test_singer_lines_close(self):
        out = gram_algebra_check(diffset_lines(*singer_difference_set(2)))
        assert out["closed"] and out["span_dimension"] == 2
        assert out["zero_class_dropped"] is False
        assert out["gram_square_residual"] <= 1e-9

    def test_tight_equiangular_square_in_span(self):
        # d^2 equiangular lines meet the relative bound, so {I, G} spans an algebra
        out = gram_algebra_check(sic_lines())
        assert out["closed"] and out["gram_square_residual"] <= 1e-9
        assert out["mub_identity_residual"] is None

    def test_generic_lines_stay_open(self):
        out = gram_algebra_check(random_lines())
        assert not out["closed"]
        assert out["closure_residual"] > 0.1
        assert out["mub_identity_residual"] is None


class TestSeidelAnalysis:
    def test_icosahedron(self):
        rep = seidel_analysis(icosahedron_lines())
        assert rep.two_eigenvalue and rep.tight
        assert abs(rep.inner_product - 5**-0.5) <= 1e-12
        assert abs(rep.relative_bound - 6) <= 1e-9
        (hi, hi_mult), (lo, lo_mult) = rep.spectrum
        assert abs(hi - 5**0.5) <= 1e-9 and hi_mult == 3
        assert abs(lo + 5**0.5) <= 1e-9 and lo_mult == 3
        assert rep.tight_spectrum_residual <= 1e-8

    def test_seidel_matrix_wellformed(self):
        S = seidel_analysis(icosahedron_lines()).matrix
        assert np.array_equal(S, S.T)
        assert np.array_equal(np.diag(S), np.zeros(6))
        assert set(np.unique(np.abs(S[~np.eye(6, dtype=bool)]))) == {1}

    def test_three_lines_at_sixty_degrees(self):
        v = np.array([(1, 0), (0.5, 3**0.5 / 2), (-0.5, 3**0.5 / 2)])
        rep = seidel_analysis(LineSet(2, v, field="real"))
        assert rep.spectrum[0][0] == pytest.approx(1) and rep.spectrum[0][1] == 2
        assert rep.spectrum[1][0] == pytest.approx(-2) and rep.spectrum[1][1] == 1
        assert rep.tight and abs(rep.relative_bound - 3) <= 1e-9

    def test_subset_loses_tightness(self):
        X = icosahedron_lines()
        rep = seidel_analysis(LineSet(3, X.vectors[:5].real, field="real"))
        assert not rep.tight and not rep.two_eigenvalue
        assert len(rep.spectrum) == 3
        assert sum(m for _, m in rep.spectrum) == 5

    def test_switching_invariance(self):
        base = icosahedron_lines()
        flipped = base.vectors.real.copy()
        flipped[2] *= -1
        a = seidel_analysis(base).spectrum
        b = seidel_analysis(LineSet(3, flipped, field="real")).spectrum
        assert all(
            x == pytest.approx(y) and mx == my for (x, mx), (y, my) in zip(a, b)
        )

    def test_orthogonal_lines_rejected(self):
        with pytest.raises(ValueError, match="angle 0"):
            seidel_analysis(LineSet(3, np.eye(3), field="real"))

    def test_complex_lines_rejected(self):
        with pytest.raises(ValueError, match="real"):
            seidel_analysis(sic_lines())

    def test_unequal_angles_rejected(self):
        v = np.array([(1, 0), (np.cos(0.7), np.sin(0.7)), (np.cos(1.4), np.sin(1.4))])
        with pytest.raises(ValueError, match="not equiangular"):
            seidel_analysis(LineSet(2, v, field="real"))
