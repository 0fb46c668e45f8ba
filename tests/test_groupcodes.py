"""Difference sets, covers, and code routes: oracle values and failure paths."""

import cmath
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from linekit import groupcodes
from linekit.finite_algebra import AbelianGroup, GroupAlgebraElement, gf_create, group_characters
from linekit.groupcodes import (
    LinearCode,
    classify_difference_set,
    code_to_lines,
    code_weights,
    coset_spectrum,
    cover_graph,
    diffset_from_json,
    diffset_lines,
    diffset_to_json,
    dual_code,
    field_rds,
    linear_code_from_csv,
    linear_code_to_csv,
    rds_to_mubs,
    semifield_rds,
    singer_difference_set,
)
from linekit.linesets import design_strength, gram_degree_set, verify_equiangular, verify_mub
from linekit.mubs import SemifieldTable, _phase_bases, wf_mubs

FANO = [(1,), (2,), (4,)]
Z7 = AbelianGroup([7])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_fano_plane_set():
    rep = classify_difference_set(Z7, FANO)
    assert rep.kind == "plain"
    assert rep.params == (7, 3, 1)
    assert rep.excluded_subgroup is None
    assert rep.difference_multiset[(0,)] == 3


def test_classify_subgroup_coset_is_none():
    G = AbelianGroup([3, 3])
    rep = classify_difference_set(G, [(0, 0), (1, 0), (2, 0)])
    assert rep.kind == "none"


def test_classify_z2z2_never_relative():
    # every element of Z2 x Z2 is self-inverse, so both differences of a
    # 2-subset coincide: no 2-subset can spread mass with lambda = 1
    G = AbelianGroup([2, 2])
    for D in itertools.combinations(G.elements(), 2):
        assert classify_difference_set(G, list(D)).kind == "none"


def test_classify_semifield_gf3():
    G, D, N = semifield_rds(SemifieldTable.from_field(3))
    rep = classify_difference_set(G, D, N)
    assert rep.kind == "relative"
    assert rep.params == (3, 3, 3, 1)
    assert rep.excluded_subgroup == [(0, 0), (0, 1), (0, 2)]


def test_classify_supplied_n_must_be_subgroup():
    G = AbelianGroup([4])
    # no inverse, empty, not closed, one element twice (also as 4 = 0)
    for N in [[(0,), (1,)], [], [(0,), (1,), (3,)], [(0,), (0,)], [(0,), (2,), (4,)]]:
        with pytest.raises(ValueError, match="not a subgroup"):
            classify_difference_set(G, [(0,), (1,)], N=N)


def test_classify_supplied_n_mismatch_gives_none():
    # {0,1} in Z4 is relative against {0,2}; against the full group it is not
    rep = classify_difference_set(AbelianGroup([4]), [(0,), (1,)], N=[(0,), (1,), (2,), (3,)])
    assert rep.kind == "none"


def test_classify_input_validation():
    with pytest.raises(ValueError, match="empty"):
        classify_difference_set(Z7, [])
    for D in [[(1,), (1,)], [(1,), (2,), (8,)]]:  # 8 = 1 in Z7
        with pytest.raises(ValueError, match="repeated"):
            classify_difference_set(Z7, D)
    with pytest.raises(ValueError, match="supply"):
        classify_difference_set(AbelianGroup([625]), [(0,), (1,)])


# ---------------------------------------------------------------------------
# character lines from difference sets
# ---------------------------------------------------------------------------


def test_fano_lines_equiangular():
    X = diffset_lines(Z7, FANO)
    assert (X.n, X.dim) == (7, 3)
    rep = gram_degree_set(X)
    assert rep.s == 1
    assert rep.angles[0] == pytest.approx(2 / 9, abs=1e-12)
    eq = verify_equiangular(X)
    assert eq["equiangular"] and eq["relative_equality"]


@pytest.mark.parametrize(
    "q,params", [(2, (7, 3, 1)), (3, (13, 4, 1)), (4, (21, 5, 1))]
)
def test_singer_sets(q, params):
    G, D = singer_difference_set(q)
    rep = classify_difference_set(G, D)
    assert rep.kind == "plain"
    assert rep.params == params
    X = diffset_lines(G, D)
    assert (X.n, X.dim) == (params[0], params[1])
    eq = verify_equiangular(X)
    assert eq["equiangular"] and eq["relative_equality"]
    assert eq["alpha"] == pytest.approx(q / (q + 1) ** 2, abs=1e-12)
    assert design_strength(X, t_max=1).strength >= 1


def test_singer_q2_is_a_fano_shift():
    _, D = singer_difference_set(2)
    ds = {g[0] for g in D}
    assert any({(d + t) % 7 for d in ds} == {1, 2, 4} for t in range(7))


def loop_singer_set(p, m):
    """Walk the powers of x in GF(p^(3m)) and keep those of relative trace 0."""
    F = gf_create(p, 3 * m)
    q = p**m
    cur, D = F.one, []
    for i in range(q * q + q + 1):
        if F.relative_trace(cur, m) == F.zero:
            D.append((i,))
        cur = F.mul(cur, F.x())
    return D


@pytest.mark.parametrize(
    "p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
)
def test_singer_set_matches_loop_oracle(p, m):
    G, D = singer_difference_set(p**m)
    assert D == loop_singer_set(p, m)
    assert G.cyclic_orders == (p ** (2 * m) + p**m + 1,)


def test_full_group_gives_character_basis():
    G = AbelianGroup([5])
    X = diffset_lines(G, G.elements())
    assert (X.n, X.dim) == (5, 5)
    rep = gram_degree_set(X)
    assert rep.s == 1 and rep.zero_present
    assert rep.angles[0] == pytest.approx(0, abs=1e-12)


def _small_subsets():
    """Every subset of size <= 3 of four small groups, the Z6 {0, 2, 4} case among them."""
    for orders in [(6,), (2, 4), (3, 3), (2, 2, 2)]:
        tag = "Z" + "xZ".join(map(str, orders))
        for size in range(4):
            for D in itertools.combinations(AbelianGroup(orders).elements(), size):
                label = ",".join("".join(map(str, g)) for g in D) or "empty"
                yield pytest.param(orders, list(D), id=f"{tag}:{label}")


@pytest.mark.parametrize("orders,D", list(_small_subsets()))
def test_lines_require_generating_set(orders, D):
    # the duality test (one character trivial on D) agrees with the generated subgroup
    G = AbelianGroup(orders)
    if G.subgroup_generated_by(D) != G.elements():
        with pytest.raises(ValueError, match="generate"):
            diffset_lines(G, D)
    else:
        assert diffset_lines(G, D).n == G.order


@pytest.mark.parametrize(
    "orders,D",
    [([7], FANO), ([12], [(0,), (1,), (3,), (7,)]), ([2, 4], [(0, 0), (1, 1), (0, 3)])],
)
def test_degree_set_size_counts_character_values(orders, D):
    # the Gram-level degree set equals the set of |chi(D D^-1)| / k^2 values
    G = AbelianGroup(orders)
    diffs = classify_difference_set(G, D).difference_multiset
    k = len(D)
    vals = set()
    for a in G.elements():
        if a == G.identity:
            continue
        vals.add(round(abs(diffs.character_sum(a)) / k**2, 9))
    X = diffset_lines(G, D)
    assert gram_degree_set(X).s == len(vals)


# ---------------------------------------------------------------------------
# character oracle: one cmath.exp of a float phase per entry
# ---------------------------------------------------------------------------


def _cmath_character(G, a, g):
    """chi_a(g) = prod exp(2 pi i a_i g_i / n_i) from a float phase."""
    phase = sum(ai * gi / ni for ai, gi, ni in zip(a, g, G.cyclic_orders))
    return cmath.exp(2j * cmath.pi * phase)


DIFFSET_CASES = [
    pytest.param(Z7, FANO, id="Z7-fano"),
    pytest.param(AbelianGroup([12]), [(0,), (1,), (3,), (7,)], id="Z12"),
    pytest.param(AbelianGroup([2, 4]), [(0, 0), (1, 1), (0, 3)], id="Z2xZ4"),
] + [
    pytest.param(*singer_difference_set(q), id=f"singer{q}") for q in [2, 3, 4, 5, 7, 8, 9, 16]
]
RDS_CASES = [pytest.param(*field_rds(q), id=f"field{q}") for q in [2, 3, 4, 5, 8, 9]] + [
    pytest.param(AbelianGroup([4]), [(0,), (1,)], [(0,), (2,)], id="Z4-hand")
]


def test_difference_multiset_mass():
    # the convolution D * D^(-1) is the oracle for the counted differences
    cases = [(Z7, FANO, None)] + [(*singer_difference_set(q), None) for q in [2, 3, 4, 5]]
    for G, D, N in cases + [p.values for p in RDS_CASES]:
        diffs = classify_difference_set(G, D, N).difference_multiset
        el = GroupAlgebraElement.from_subset(G, D)
        assert diffs == el * el.inverse_support()
        assert diffs[G.identity] == len(D)
        assert sum(diffs.coefficients.values()) == len(D) ** 2


@pytest.mark.parametrize("G,D", DIFFSET_CASES)
def test_diffset_lines_match_cmath_oracle(G, D):
    Dt = sorted(set(tuple(g) for g in D))
    want = np.array([[_cmath_character(G, a, d) for d in Dt] for a in G.elements()])
    got = diffset_lines(G, D).vectors
    assert np.abs(got - want / np.sqrt(len(Dt))).max() < 1e-12


@pytest.mark.parametrize("G,D,N", RDS_CASES)
def test_rds_bases_match_cmath_oracle(G, D, N):
    # the coset loop is also the oracle for the exponents, compared bit for bit
    k = len(D)
    H = [a for a in G.elements() if all(abs(_cmath_character(G, a, g) - 1) < 1e-9 for g in N)]
    want, seen, E = [np.eye(k)], set(), []
    for a in G.elements():
        if a in seen:
            continue
        coset = sorted(G.op(a, h) for h in H)
        seen.update(coset)
        B = [[_cmath_character(G, c, d) for c in coset] for d in sorted(D)]
        want.append(np.array(B) / np.sqrt(k))
        E.append(G.pairing(sorted(D), coset))
    fam = rds_to_mubs(G, D, N)
    assert len(fam.bases) == len(want)
    for B, W, O in zip(fam.bases, want, _phase_bases(np.array(E), G.exponent)):
        assert np.abs(B - W).max() < 1e-12
        assert np.array_equal(B, O)


@pytest.mark.parametrize(
    "G", [pytest.param(p.values[0], id=p.id) for p in DIFFSET_CASES + RDS_CASES]
)
def test_group_characters_match_cmath_oracle(G):
    X = G.elements()
    want = np.array([[_cmath_character(G, a, g) for g in X] for a in X])
    assert np.abs(group_characters(G) - want).max() < 1e-12


# ---------------------------------------------------------------------------
# relative difference sets and their unbiased bases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_rds_classifies(q):
    G, D, N = field_rds(q)
    rep = classify_difference_set(G, D, N)
    assert rep.kind == "relative"
    assert rep.params == (q, q, q, 1)
    # inference without N lands on the same subgroup
    assert classify_difference_set(G, D).excluded_subgroup == rep.excluded_subgroup


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rds_to_mubs_full_families(q):
    G, D, N = field_rds(q)
    fam = rds_to_mubs(G, D, N)
    assert len(fam) == q + 1
    rep = verify_mub(fam.to_lineset())
    assert rep["unbiased"] and rep["count"] == q + 1


def test_rds_mubs_match_wf_angles():
    G, D, N = field_rds(3)
    ours = gram_degree_set(rds_to_mubs(G, D, N).to_lineset())
    wf = gram_degree_set(wf_mubs(3).to_lineset())
    assert np.allclose(ours.angles, wf.angles, atol=1e-10)
    assert ours.multiplicities == wf.multiplicities


def test_rds_to_mubs_z4_hand_example():
    G = AbelianGroup([4])
    fam = rds_to_mubs(G, [(0,), (1,)], [(0,), (2,)])
    assert fam.d == 2 and len(fam) == 3


def test_rds_to_mubs_rejects_plain():
    with pytest.raises(ValueError, match="relative"):
        rds_to_mubs(Z7, FANO)


def test_rds_to_mubs_rejects_non_semiregular():
    # {0,1,3} mod 8 is a (4,2,3,1)-RDS with excluded subgroup {0,4}
    G = AbelianGroup([8])
    D = [(0,), (1,), (3,)]
    rep = classify_difference_set(G, D)
    assert rep.params == (4, 2, 3, 1)
    with pytest.raises(ValueError, match="semi-regular"):
        rds_to_mubs(G, D)


def test_semifield_rds_rejects_even_characteristic():
    with pytest.raises(ValueError, match="Galois-ring"):
        semifield_rds(SemifieldTable.from_field(4))


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def _spectrum_dict(graph):
    return {round(v, 6): m for v, m in graph.eigenvalues}


def test_tank_trap_cover():
    g = cover_graph(builtin="tank-trap")
    assert g.intersection_array == ([6, 5, 4, 1], [1, 2, 5, 6])
    assert g.diameter == 4
    assert g.adjacency.shape == (36, 36)
    assert (g.adjacency.sum(axis=1) == 6).all()
    assert _spectrum_dict(g) == {
        6.0: 1,
        round(np.sqrt(6), 6): 12,
        0.0: 10,
        -round(np.sqrt(6), 6): 12,
        -6.0: 1,
    }
    assert len(g.edge_list()) == 108
    assert "B_inf(0)" in g.labels and "W_4(2)" in g.labels


@pytest.mark.parametrize(
    "q,array",
    [
        (3, ([3, 2, 2, 1], [1, 1, 2, 3])),
        (4, ([4, 3, 3, 1], [1, 1, 3, 4])),
        (8, ([8, 7, 7, 1], [1, 1, 7, 8])),
        (9, ([9, 8, 8, 1], [1, 1, 8, 9])),
        (16, ([16, 15, 15, 1], [1, 1, 15, 16])),
    ],
)
def test_rds_cover_arrays(q, array):
    G, D, N = field_rds(q)
    g = cover_graph(G, D, N)
    assert g.intersection_array == array
    k = array[0][0]
    n_fold = (k - array[1][1]) // array[1][1] + 1
    spec = _spectrum_dict(g)
    assert spec[float(k)] == 1 and spec[-float(k)] == 1
    assert spec[round(np.sqrt(k), 6)] == k * (n_fold - 1)
    assert spec[0.0] == 2 * (k - 1)
    assert sum(m for _, m in g.eigenvalues) == g.adjacency.shape[0]


def loop_cover_adjacency(G, D):
    """(0,x) ~ (1,y) iff y - x in D, pair by pair."""
    Dset = {tuple(g) for g in D}
    elems = G.elements()
    v = len(elems)
    A = np.zeros((2 * v, 2 * v), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if G.op(y, G.inverse(x)) in Dset:
                A[i, v + j] = A[v + j, i] = 1
    return A


class _Adjacency(Exception):
    pass


@pytest.mark.parametrize(
    "G,D",
    [field_rds(q)[:2] for q in (3, 4, 5, 7, 8, 9)]
    + [
        (AbelianGroup([2, 3]), [(0, 0), (1, 1), (0, 2)]),
        (AbelianGroup([3, 4, 2]), [(0, 0, 0), (1, 3, 1), (2, 1, 0), (0, 2, 1)]),
        (AbelianGroup([8]), [(0,), (1,), (3,)]),
    ],
)
def test_cover_adjacency_matches_loop_oracle(monkeypatch, G, D):
    # stop cover_graph at the adjacency, before any cover check can reject it
    def capture(A):
        raise _Adjacency(A)

    monkeypatch.setattr(groupcodes, "_distance_labels", capture)
    with pytest.raises(_Adjacency) as info:
        cover_graph(G, D)
    assert np.array_equal(info.value.args[0], loop_cover_adjacency(G, D))


@pytest.mark.parametrize("make", [lambda: cover_graph(*field_rds(5)),
                                  lambda: cover_graph(builtin="tank-trap")],
                         ids=["rds5", "tank-trap"])
def test_cover_adjacency_is_uint8(monkeypatch, make):
    # one byte per vertex pair, both where it is built and in the certified graph
    assert make().adjacency.dtype == np.uint8

    def capture(A):
        raise _Adjacency(A)

    monkeypatch.setattr(groupcodes, "_distance_labels", capture)
    with pytest.raises(_Adjacency) as info:
        make()
    assert info.value.args[0].dtype == np.uint8


@pytest.mark.parametrize("n", [7, 300])  # a path's diameter n - 1 passes 255 at n = 300
def test_distance_labels_take_the_smallest_unsigned_type(n):
    A = np.eye(n, k=1, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)
    dist = groupcodes._distance_labels(A)
    idx = np.arange(n)
    assert np.array_equal(dist, np.abs(idx[:, None] - idx))
    assert dist.dtype == np.min_scalar_type(n - 1)
    assert groupcodes._distance_labels(cover_graph(*field_rds(5)[:2]).adjacency).dtype == np.uint8


def test_octagon_is_double_cover_of_k22():
    g = cover_graph(AbelianGroup([4]), [(0,), (1,)], [(0,), (2,)])
    assert g.intersection_array == ([2, 1, 1, 1], [1, 1, 1, 2])
    assert g.adjacency.shape == (8, 8)


def test_cover_eigenvalues_match_dense_solve():
    g = cover_graph(builtin="tank-trap")
    dense = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
    rebuilt = np.sort(np.concatenate([[v] * m for v, m in g.eigenvalues]))
    assert np.abs(dense - rebuilt).max() < 1e-8


def test_cover_rejects_k22():
    with pytest.raises(ValueError, match="diameter 2"):
        cover_graph(AbelianGroup([2]), [(0,), (1,)])


def test_cover_rejects_non_distance_regular():
    with pytest.raises(ValueError, match="witness pair"):
        cover_graph(AbelianGroup([8]), [(0,), (1,), (3,)])


def test_cover_argument_validation():
    with pytest.raises(ValueError, match="builtin"):
        cover_graph(builtin="barbed-wire")
    with pytest.raises(ValueError, match="need"):
        cover_graph()
    with pytest.raises(ValueError, match="relative"):
        cover_graph(Z7, FANO, N=[(0,)])


# ---------------------------------------------------------------------------
# linear codes
# ---------------------------------------------------------------------------


def test_repetition_code_weights():
    assert code_weights(LinearCode([[1] * 5], 2)) == {0: 1, 5: 1}


def test_whole_space_dual_is_zero_code():
    dual = dual_code(LinearCode(np.eye(4, dtype=int), 2))
    assert dual.codewords().tolist() == [[0, 0, 0, 0]]


def test_z4_generator_11():
    C = LinearCode([[1, 1]], "z4")
    assert C.codewords().tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]
    assert code_weights(C) == {0: 1, 2: 2, 4: 1}
    assert C.min_distance() == 2


def test_alphabet_validation():
    with pytest.raises(ValueError, match="prime"):
        LinearCode([[1, 0]], 4)
    with pytest.raises(ValueError, match="prime"):
        LinearCode([[1, 0]], 9)
    with pytest.raises(ValueError, match="empty"):
        LinearCode(np.zeros((0, 0)), 2)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="2\\^20"):
        LinearCode(np.eye(21, dtype=int), 2).codewords()


def random_generators(rng, q, rows, cols):
    """Random rows over Z_q, about a quarter of them all-zero."""
    M = rng.integers(0, q, size=(rng.integers(*rows), rng.integers(*cols)))
    M[rng.random(len(M)) < 0.25] = 0
    return M


@pytest.mark.parametrize("alphabet", [2, 3, 5, 7, "z4"])
def test_size_formula_matches_enumeration(alphabet):
    q = 4 if alphabet == "z4" else alphabet
    rng = np.random.default_rng(2024 + q)
    for _ in range(25):
        C = LinearCode(random_generators(rng, q, (1, 9), (1, 7)), alphabet)  # tall ones too
        assert C.size() == len(C.codewords())


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_gf_dual_involution(q):
    rng = np.random.default_rng(101 + q)
    for _ in range(8):
        C = LinearCode(random_generators(rng, q, (1, 8), (2, 7)), q)
        Cd = C.dual()
        assert not ((C.codewords() @ Cd.codewords().T) % q).any()
        assert len(C) * len(Cd) == q**C.n
        assert Cd.dual().codewords().tolist() == C.codewords().tolist()


def loop_z4_kernel(M):
    """Generators of {x : M x = 0 over Z4}, one Smith-style pivot at a time.

    Pivots are the first unit in row-major order, else the first 2; row and
    column clearing go entry by entry, and Q records the column operations.
    """
    A = np.array(M, dtype=np.int64) % 4
    m, n = A.shape
    Q = np.eye(n, dtype=np.int64)
    diag = []
    for k in range(min(m, n)):
        cells = [(i, j) for i in range(k, m) for j in range(k, n)]
        pos = next((c for c in cells if A[c] % 2), next((c for c in cells if A[c]), None))
        if pos is None:
            break
        i, j = pos
        A[[k, i]] = A[[i, k]]
        A[:, [k, j]] = A[:, [j, k]]
        Q[:, [k, j]] = Q[:, [j, k]]
        if A[k, k] % 2:
            A[k] = A[k] * A[k, k] % 4  # 1 and 3 are their own inverses
        d = A[k, k]
        for i in range(m):
            if i != k and A[i, k]:
                A[i] = (A[i] - A[i, k] // d * A[k]) % 4
        for j in range(n):
            if j != k and A[k, j]:
                Q[:, j] = (Q[:, j] - A[k, j] // d * Q[:, k]) % 4
                A[:, j] = (A[:, j] - A[k, j] // d * A[:, k]) % 4
        diag.append(int(d))
    basis = [2 * Q[:, k] % 4 for k, d in enumerate(diag) if d == 2]
    basis += [Q[:, j] for j in range(len(diag), n)]
    return np.array(basis, dtype=np.int64).reshape(-1, n)


def test_z4_dual_involution():
    rng = np.random.default_rng(7)
    for _ in range(12):
        C = LinearCode(random_generators(rng, 4, (1, 8), (2, 7)), "z4")
        Cd = C.dual()
        oracle = loop_z4_kernel(C.generators)
        assert np.array_equal(Cd.generators, oracle if len(oracle) else np.zeros((1, C.n)))
        assert not ((C.codewords() @ Cd.codewords().T) % 4).any()
        assert len(C) * len(Cd) == 4**C.n
        assert Cd.dual().codewords().tolist() == C.codewords().tolist()


# ---------------------------------------------------------------------------
# coset-graph spectra
# ---------------------------------------------------------------------------


def _dense_coset_spectrum(C):
    """Eigensolve the literal (multi)graph on syndromes."""
    H = C.dual().generators
    mod = 4 if C.kind == "z4" else C.q
    syn = {}
    for x in itertools.product(range(mod), repeat=C.n):
        s = tuple((H @ np.array(x)) % mod)
        syn.setdefault(s, len(syn))
    A = np.zeros((len(syn), len(syn)))
    cols = [np.array(c) for c in (H.T % mod)]
    scalars = (1, 3) if C.kind == "z4" else range(1, C.q)
    for s, i in syn.items():
        for col in cols:
            for a in scalars:
                t = tuple((np.array(s) + a * col) % mod)
                A[i, syn[t]] += 1
    return sorted(np.linalg.eigvalsh(A).tolist(), reverse=True)


def test_even_weight_code_spectrum():
    C = LinearCode([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 2)
    assert dual_code(C).codewords().tolist() == [[0, 0, 0, 0], [1, 1, 1, 1]]
    assert coset_spectrum(C) == [4, -4]


def test_hamming_code_spectrum():
    # dual = simplex, weights {0, 4}: one 7 and seven copies of 7 - 8 = -1
    H = [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]]
    hamming = LinearCode(H, 2).dual()
    assert hamming.min_distance() == 3
    assert coset_spectrum(hamming) == [7] + [-1] * 7


def test_trivial_eigenvalue_from_zero_dual_word():
    C = LinearCode([[1, 2, 0], [0, 1, 1]], 3)
    assert max(coset_spectrum(C)) == (3 - 1) * C.n


@pytest.mark.parametrize("alphabet", [2, 3, "z4"])
def test_character_sum_mismatch_raises_under_optimize(alphabet):
    # the cross-check must survive python -O, which strips assert statements
    import linekit

    child = textwrap.dedent(
        f"""
        import numpy as np
        real_exp = np.exp
        np.exp = lambda z: real_exp(z) + 1e-3  # literal sums now miss the closed form
        from linekit.groupcodes import LinearCode, coset_spectrum
        coset_spectrum(LinearCode([[1, 1, 0], [0, 1, 1]], {alphabet!r}))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(linekit.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert "RuntimeError: character sums deviate from the closed form by" in proc.stderr


@pytest.mark.parametrize("q", [2, 3])
def test_gf_spectra_match_dense(q):
    rng = np.random.default_rng(31 + q)
    done = 0
    while done < 6:
        C = LinearCode(rng.integers(0, q, size=(rng.integers(1, 4), rng.integers(2, 6))), q)
        if len(C.dual()) > 512:
            continue
        closed = coset_spectrum(C)
        dense = _dense_coset_spectrum(C)
        assert np.abs(np.array(closed, dtype=float) - np.array(dense)).max() < 1e-8
        done += 1


def test_z4_spectra_match_dense():
    rng = np.random.default_rng(5)
    done = 0
    while done < 5:
        C = LinearCode(rng.integers(0, 4, size=(rng.integers(1, 3), rng.integers(2, 5))), "z4")
        if len(C.dual()) > 512:
            continue
        closed = coset_spectrum(C)
        dense = _dense_coset_spectrum(C)
        assert np.abs(np.array(closed, dtype=float) - np.array(dense)).max() < 1e-8
        done += 1


# ---------------------------------------------------------------------------
# codeword lines
# ---------------------------------------------------------------------------


def test_simplex_lines_one_distance():
    H = [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]]
    X = code_to_lines(LinearCode(H, 2), "gf-balanced")
    assert (X.n, X.dim, X.field) == (8, 7, "real")
    rep = gram_degree_set(X)
    assert rep.s == 1
    assert rep.angles[0] == pytest.approx(1 / 49, abs=1e-12)


def test_binary_code_with_ones_halves():
    C = LinearCode([[1, 1, 1, 1], [1, 1, 0, 0]], 2)
    assert len(C) == 4
    assert code_to_lines(C, "gf-near-balanced").n == 2


def test_z4_all_ones_collapses_fourfold():
    X = code_to_lines(LinearCode([[1, 1]], "z4"), "z4")
    assert X.n == 1


def test_gf3_balanced_pair_code():
    # span{[1,2]}: words 00, 12, 21 are all balanced; three tight lines in C^2
    X = code_to_lines(LinearCode([[1, 2]], 3), "gf-balanced")
    assert (X.n, X.dim) == (3, 2)
    eq = verify_equiangular(X)
    assert eq["equiangular"] and eq["relative_equality"]
    assert eq["alpha"] == pytest.approx(1 / 4, abs=1e-12)


def test_gf3_balanced_block_code():
    C = LinearCode([[1, 2, 0, 0], [0, 0, 1, 2]], 3)
    X = code_to_lines(C, "gf-balanced")
    assert (X.n, X.dim) == (9, 4)
    assert gram_degree_set(X).s == 2


def test_gf3_near_balanced_with_ones():
    # all nine words of span{[1,1,1],[0,1,2]} are near-balanced; 3-fold collapse
    C = LinearCode([[1, 1, 1], [0, 1, 2]], 3)
    X = code_to_lines(C, "gf-near-balanced")
    assert (X.n, X.dim) == (3, 3)
    assert gram_degree_set(X).zero_present


def test_balance_hypothesis_witnesses():
    tetra = LinearCode([[1, 0, 1, 1], [0, 1, 1, 2]], 3)
    with pytest.raises(ValueError, match="not balanced"):
        code_to_lines(tetra, "gf-balanced")
    no_ones = LinearCode([[1, 1, 0, 0]], 2)
    with pytest.raises(ValueError, match="all-ones"):
        code_to_lines(no_ones, "gf-near-balanced")
    with pytest.raises(ValueError, match="all-ones"):
        code_to_lines(LinearCode([[1, 3]], "z4"), "z4")
    with pytest.raises(ValueError, match="needs a GF"):
        code_to_lines(LinearCode([[1, 1]], "z4"), "gf-balanced")
    with pytest.raises(ValueError, match="needs a Z4"):
        code_to_lines(no_ones, "z4")
    with pytest.raises(ValueError, match="unknown variant"):
        code_to_lines(no_ones, "gf-exotic")


def test_gf3_non_near_balanced_witness():
    # [1,2,2] uses each letter a different number of times (0, 1, 2): no
    # single letter can absorb the imbalance
    C = LinearCode([[1, 2, 2], [1, 1, 1]], 3)
    assert C.contains([1, 1, 1])
    with pytest.raises(ValueError, match="near-balanced"):
        code_to_lines(C, "gf-near-balanced")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_diffset_json_roundtrip(tmp_path):
    G, D, N = field_rds(3)
    path = tmp_path / "rds.json"
    diffset_to_json(G, D, N, path=path)
    G2, D2, N2 = diffset_from_json(str(path))
    assert G2.cyclic_orders == G.cyclic_orders
    assert sorted(D2) == sorted(D) and sorted(N2) == sorted(N)
    # and inline round trip without touching disk
    G3, D3, N3 = diffset_from_json(diffset_to_json(G, D))
    assert G3.cyclic_orders == G.cyclic_orders and N3 is None


@pytest.mark.parametrize("alphabet", [2, 3, "z4"])
def test_code_csv_roundtrip(tmp_path, alphabet):
    rng = np.random.default_rng(17)
    q = 4 if alphabet == "z4" else alphabet
    C = LinearCode(rng.integers(0, q, size=(2, 5)), alphabet)
    path = tmp_path / "code.csv"
    linear_code_to_csv(C, path)
    C2 = linear_code_from_csv(path)
    assert C2.kind == C.kind and C2.q == C.q
    assert C2.codewords().tolist() == C.codewords().tolist()


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alphabet=16\n1,2\n")
    with pytest.raises(ValueError, match="alphabet"):
        linear_code_from_csv(str(path))


def float_product_distance_labels(A):
    """The earlier route, kept as the oracle: one float32 frontier product per level."""
    n = A.shape[0]
    adj, seen = A.astype(np.float32), np.eye(n, dtype=bool)
    frontier, dist, level = seen, np.zeros((n, n), dtype=np.int64), 0
    while frontier.any():
        level += 1
        frontier = (frontier @ adj > 0) & ~seen
        dist[frontier] = level
        seen |= frontier
    if not seen.all():
        raise ValueError("graph is disconnected")
    return dist


@pytest.mark.parametrize("make", [lambda: cover_graph(builtin="tank-trap").adjacency]
                         + [lambda q=q: cover_graph(*field_rds(q)).adjacency
                            for q in (5, 7, 8, 9, 13, 16)],
                         ids=["tank-trap", "rds5", "rds7", "rds8", "rds9", "rds13", "rds16"])
def test_distance_labels_match_the_float_product_oracle(make):
    A = make()
    assert np.array_equal(groupcodes._distance_labels(A), float_product_distance_labels(A))


def test_distance_labels_of_a_disconnected_graph_match_the_oracle():
    A = np.kron(np.eye(2, dtype=np.uint8), np.ones((3, 3), dtype=np.uint8) - np.eye(3, dtype=np.uint8))
    for route in (groupcodes._distance_labels, float_product_distance_labels):
        with pytest.raises(ValueError, match="^graph is disconnected$"):
            route(A)
