"""Tests for the MUB construction routines."""

import cmath

import numpy as np
import pytest

from linekit.finite_algebra import gf_create, gr_create
from linekit.linesets import gram_degree_set, design_strength, verify_mub
from linekit.mubs import (
    MubFamily,
    SemifieldTable,
    alltop_mubs,
    hadamard6,
    semifield_mubs,
    spin_model_mubs,
    tensor_mubs,
    type_ii_check,
    wf_mubs,
)


def _max_cross_dev(fam):
    """Largest | |<u,v>|^2 - 1/d | over pairs from distinct bases."""
    worst = 0.0
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            M = np.abs(fam.bases[i].conj().T @ fam.bases[j]) ** 2
            worst = max(worst, float(np.max(np.abs(M - 1.0 / fam.d))))
    return worst


# ---------------------------------------------------------------- wf_mubs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_wf_full_families(q):
    fam = wf_mubs(q)
    assert fam.d == q
    assert len(fam) == q + 1
    assert _max_cross_dev(fam) < 1e-9
    ls = fam.to_lineset()
    out = verify_mub(ls)
    assert out["unbiased"]
    assert out["count"] == q + 1


def test_wf_first_basis_is_standard():
    fam = wf_mubs(5)
    assert np.allclose(fam.bases[0], np.eye(5))


def _same_lines(A, B, tol=1e-9):
    """True if the columns of A and B span the same lines (in some order)."""
    C = np.abs(A.conj().T @ B)
    n = A.shape[1]
    return (
        int(np.sum(C > 1 - tol)) == n
        and np.allclose(np.max(C, axis=0), 1.0, atol=tol)
        and np.allclose(np.max(C, axis=1), 1.0, atol=tol)
    )


def test_wf_q2_hand_values():
    # d = 2: the two non-identity bases are the Hadamard basis and the
    # circular basis, columnwise up to phase.
    fam = wf_mubs(2)
    s = 1 / np.sqrt(2)
    hadamard = np.array([[s, s], [s, -s]])
    circular = np.array([[s, s], [1j * s, -1j * s]])
    assert any(_same_lines(hadamard, B) for B in fam.bases[1:])
    assert any(_same_lines(circular, B) for B in fam.bases[1:])


def test_wf_is_projective_2_design():
    ls = wf_mubs(3).to_lineset()
    rep = design_strength(ls, t_max=3)
    assert rep.strength >= 2


@pytest.mark.parametrize("bad", [1, 6, 10, 12])
def test_wf_rejects_non_prime_power(bad):
    with pytest.raises(ValueError):
        wf_mubs(bad)


def test_wf_angle_spectrum():
    fam = wf_mubs(4)
    ls = fam.to_lineset()
    rep = gram_degree_set(ls)
    assert rep.angles[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.angles[1] == pytest.approx(0.25, abs=1e-10)
    assert rep.s == 2


# ---------------------------------------------------------------- alltop


@pytest.mark.parametrize("q", [5, 7])
def test_alltop_families(q):
    fam = alltop_mubs(q)
    assert len(fam) == q + 1
    assert verify_mub(fam.to_lineset())["unbiased"]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27])
def test_alltop_rejects_characteristic_2_and_3(q):
    with pytest.raises(ValueError):
        alltop_mubs(q)


def test_alltop_cubic_bases_are_wf_bases_in_disguise():
    # The product of the first two cubic-phase bases should coincide,
    # as a set of lines, with one of the quadratic-phase bases.
    q = 5
    A = alltop_mubs(q)
    W = wf_mubs(q)
    M = A.bases[1].conj().T @ A.bases[2]
    assert any(_same_lines(M, W.bases[z], tol=1e-8) for z in range(1, q + 1))


# ---------------------------------------------------------------- loop oracle
#
# Each basis rebuilt entry by entry from the tuple API, with traces taken from
# their definition (never F.trace or R.trace), and powers of w taken one
# entry at a time.  The constructions must reproduce these bit for bit.


def _field_trace(F):
    """tr(a) = a + a^p + ... + a^(p^(m-1)), memoized per element."""
    memo = {}

    def trace(a):
        if a not in memo:
            acc = F.zero
            for j in range(F.m):
                acc = F.add(acc, F.pow(a, F.p**j))
            assert all(c == 0 for c in acc[1:])
            memo[a] = acc[0]
        return memo[a]

    return trace


def _ring_trace(R):
    """tr(t0 + 2 t1) = sum over j of t0^(2^j) + 2 t1^(2^j), memoized per element."""
    two = R.element((2,) + (0,) * (R.m - 1))
    memo = {}

    def trace(z):
        if z not in memo:
            t0, t1 = R.teichmuller_decompose(z)
            acc = R.zero
            for j in range(R.m):
                acc = R.add(acc, R.add(R.pow(t0, 2**j), R.mul(two, R.pow(t1, 2**j))))
            assert all(c == 0 for c in acc[1:])
            memo[z] = acc[0]
        return memo[z]

    return trace


def _loop_bases(alphabet, exponent, w):
    q = len(alphabet)
    bases = [np.eye(q, dtype=complex)]
    for z in alphabet:
        W = np.empty((q, q), dtype=complex)
        for i, x in enumerate(alphabet):
            for j, y in enumerate(alphabet):
                W[i, j] = w ** exponent(z, x, y)
        bases.append(W / np.sqrt(q))
    return bases


def _wf_oracle(q):
    p = min(k for k in range(2, q + 1) if q % k == 0)
    m = round(np.log(q) / np.log(p))
    if p == 2:
        R = gr_create(m)
        tr, two = _ring_trace(R), R.element((2,) + (0,) * (m - 1))
        expo = lambda z, x, y: tr(R.add(R.mul(z, R.mul(x, x)), R.mul(y, R.mul(two, x))))
        return _loop_bases(R.teichmuller, expo, 1j)
    F = gf_create(p, m)
    tr, two = _field_trace(F), F.from_int(2)
    expo = lambda z, x, y: tr(F.add(F.mul(z, F.mul(x, x)), F.mul(y, F.mul(two, x))))
    return _loop_bases(F.elements(), expo, np.exp(2j * np.pi / p))


def _alltop_oracle(q):
    F = gf_create(q, 1)
    tr = _field_trace(F)

    def expo(z, x, y):
        u = F.add(x, z)
        return tr(F.add(F.mul(u, F.mul(u, u)), F.mul(y, u)))

    return _loop_bases(F.elements(), expo, np.exp(2j * np.pi / q))


def _semifield_oracle(tbl):
    p = tbl.p
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    expo = lambda z, a, y: (dot(z, tbl.product(a, a)) + 2 * dot(y, a)) % p
    return _loop_bases(tbl.elements, expo, np.exp(2j * np.pi / p))


def _assert_bit_identical(fam, oracle):
    assert len(fam.bases) == len(oracle)
    for B, O in zip(fam.bases, oracle):
        assert np.array_equal(B, O)
        assert B.tobytes() == O.tobytes()  # signed zeros too


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_wf_bit_identical_to_loop_oracle(q):
    _assert_bit_identical(wf_mubs(q), _wf_oracle(q))


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_alltop_bit_identical_to_loop_oracle(q):
    _assert_bit_identical(alltop_mubs(q), _alltop_oracle(q))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_semifield_bit_identical_to_loop_oracle(q):
    tbl = SemifieldTable.from_field(q)
    _assert_bit_identical(semifield_mubs(tbl), _semifield_oracle(tbl))


# ---------------------------------------------------------------- spin model


@pytest.mark.parametrize("n", range(2, 13))
def test_spin_model_triples(n):
    fam = spin_model_mubs(n)
    assert len(fam) == 3
    assert fam.d == n
    assert verify_mub(fam.to_lineset())["unbiased"]


def test_spin_model_type_ii():
    for n in range(2, 13):
        assert type_ii_check(n) < 1e-10


def test_spin_model_rejects_dim_1():
    with pytest.raises(ValueError):
        spin_model_mubs(1)


def test_spin_model_matches_wf_for_n2():
    a = gram_degree_set(spin_model_mubs(2).to_lineset())
    b = gram_degree_set(wf_mubs(2).to_lineset())
    assert a.s == b.s
    assert np.allclose(a.angles, b.angles, atol=1e-9)
    assert a.multiplicities == b.multiplicities


# ---------------------------------------------------------------- tensor


def test_tensor_2x3_gives_3_mubs_in_dim_6():
    fam = tensor_mubs(wf_mubs(2), wf_mubs(3))
    assert fam.d == 6
    assert len(fam) == 3
    assert verify_mub(fam.to_lineset())["unbiased"]


def test_tensor_2x2_truncates_to_min_count():
    fam = tensor_mubs(wf_mubs(2), wf_mubs(2))
    assert fam.d == 4
    assert len(fam) == 3  # min(3, 3)
    assert _max_cross_dev(fam) < 1e-9


def test_tensor_mixed_sizes():
    fam = tensor_mubs(spin_model_mubs(2), wf_mubs(5))
    assert fam.d == 10
    assert len(fam) == 3


# ---------------------------------------------------------------- semifield


def test_semifield_table_from_field_gf3():
    tab = SemifieldTable.from_field(3)
    tab.validate()  # raises on any axiom failure
    fam = semifield_mubs(tab)
    assert fam.d == 3
    assert len(fam) == 4
    assert verify_mub(fam.to_lineset())["unbiased"]


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_semifield_table_from_field_matches_tuple_products(p, m):
    F = gf_create(p, m)
    expected = SemifieldTable.from_function(p, m, F.mul).mult
    assert np.array_equal(SemifieldTable.from_field(F).mult, expected)
    assert np.array_equal(SemifieldTable.from_field(p**m).mult, expected)


def test_semifield_gf9_matches_wf_spectrum():
    tab = SemifieldTable.from_field(9)
    fam = semifield_mubs(tab)
    assert len(fam) == 10
    a = gram_degree_set(fam.to_lineset())
    b = gram_degree_set(wf_mubs(9).to_lineset())
    assert a.s == b.s
    assert np.allclose(a.angles, b.angles, atol=1e-9)
    assert a.multiplicities == b.multiplicities


def test_semifield_rejects_even_characteristic():
    tab = SemifieldTable.from_field(2)
    with pytest.raises(ValueError):
        semifield_mubs(tab)


def test_semifield_table_validation_catches_zero_divisors():
    tab = SemifieldTable.from_field(3)
    mult = tab.mult.copy()
    # make 1*2 = 2*1 = 0: kills distributivity or introduces a zero divisor
    mult[1, 2] = 0
    mult[2, 1] = 0
    broken = SemifieldTable(p=3, m=1, mult=mult)
    with pytest.raises(ValueError, match="distributive|zero divisor"):
        broken.validate()
    with pytest.raises(ValueError):
        semifield_mubs(broken)


def test_semifield_table_validation_catches_noncommutativity():
    tab = SemifieldTable.from_field(3)
    mult = tab.mult.copy()
    mult[1, 2] = (mult[1, 2] + 1) % 3  # leave mult[2, 1] alone: asymmetric
    broken = SemifieldTable(p=3, m=1, mult=mult)
    with pytest.raises(ValueError, match="commutative"):
        broken.validate()


# ---------------------------------------------------------------- hadamard6


def _assert_hadamard(H, tol=1e-8):
    assert H.shape == (6, 6)
    assert np.allclose(np.abs(H), 1.0, atol=tol)
    assert np.allclose(H.conj().T @ H, 6 * np.eye(6), atol=tol)


@pytest.mark.parametrize("t", [1.0, 1j, cmath.exp(0.7j), cmath.exp(2.1j)])
def test_hadamard6_symmetric_family(t):
    H = hadamard6("sym", t=t)
    _assert_hadamard(H)
    # transposition maps the family to itself with parameter -conj(t);
    # at the fixed point t = i the matrix itself is symmetric
    assert np.allclose(H.T, hadamard6("sym", t=-np.conj(t)), atol=1e-12)


def test_hadamard6_sym_fixed_point_is_symmetric():
    H = hadamard6("sym", t=1j)
    assert np.allclose(H, H.T, atol=1e-12)


def test_hadamard6_sym_rejects_nonunimodular():
    with pytest.raises(ValueError):
        hadamard6("sym", t=2.0)


def test_hadamard6_character_family():
    w = cmath.exp(2j * cmath.pi / 3)
    for s, t in [(1, 1), (1j, -1), (cmath.exp(0.3j), cmath.exp(1.9j))]:
        H = hadamard6("char", s=s, t=t)
        _assert_hadamard(H)
        # first three rows always live in the cube-root character block
        assert np.allclose(np.sort_complex(H[1] ** 3), np.ones(6), atol=1e-9)


def test_hadamard6_char_unit_point_is_group_table():
    # at s = t = 1 the matrix is the character table of the cyclic group
    # of order 6 up to relabeling: every entry is a 6th root of unity,
    # each root appears 6 times, and the rows are closed under entrywise
    # products.
    H = hadamard6("char", s=1, t=1)
    _assert_hadamard(H)
    zeta = np.exp(2j * np.pi / 6)
    table = zeta ** np.outer(np.arange(6), np.arange(6))
    for r in zeta ** np.arange(6):
        assert np.sum(np.isclose(H, r, atol=1e-9)) == np.sum(
            np.isclose(table, r, atol=1e-9)
        )
    # the rows form a group under entrywise products ...
    rows = [H[i] for i in range(6)]

    def row_index(v):
        hits = [k for k, c in enumerate(rows) if np.allclose(v, c, atol=1e-9)]
        assert len(hits) == 1
        return hits[0]

    for a in rows:
        for b in rows:
            row_index(a * b)
    # ... and the group is cyclic: some row has order exactly 6
    orders = []
    for a in rows:
        v, k = a.copy(), 1
        while not np.allclose(v, 1.0, atol=1e-9):
            v, k = v * a, k + 1
        orders.append(k)
    assert max(orders) == 6


def test_hadamard6_skew_solved_parameter():
    # with s = -1, t = i the third parameter is forced to -i
    H = hadamard6("skew", s=-1, t=1j)
    _assert_hadamard(H)


def test_hadamard6_skew_quartic_point():
    # the self-conjugate member: d is the unimodular root of
    # x^4 - 2x^3 - 2x + 1 in the upper half plane, and s = t = d^2,
    # u = -conj(d) satisfies the defining constraint exactly.
    d = (1 - np.sqrt(3)) / 2 + 1j * np.sqrt(np.sqrt(3) / 2)
    assert abs(d**4 - 2 * d**3 - 2 * d + 1) < 1e-12
    assert abs(abs(d) - 1) < 1e-12
    H = hadamard6("skew", s=d**2, t=d**2, u=-np.conj(d))
    _assert_hadamard(H)
    # "skew": off-diagonal part of the dephased core is Hermitian
    core = H[1:, 1:]
    off = core - np.diag(np.diag(core))
    assert np.allclose(off, off.conj().T, atol=1e-8)


def test_hadamard6_skew_rejects_generic_parameters():
    # for generic unimodular s, t the solved u fails |u| = 1
    with pytest.raises(ValueError):
        hadamard6("skew", s=cmath.exp(0.4j), t=cmath.exp(1.1j))


def test_hadamard6_skew_rejects_degenerate_constraint():
    # st = -1 makes the constraint unsolvable for u
    with pytest.raises(ValueError):
        hadamard6("skew", s=1j, t=1j)


def test_hadamard6_unknown_family():
    with pytest.raises(ValueError):
        hadamard6("frobnicate", t=1)


# ---------------------------------------------------------------- MubFamily


def test_mub_family_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unit norm"):
        MubFamily(d=2, bases=[np.eye(2), np.ones((2, 2))])


def test_mub_family_rejects_unit_columns_that_are_not_orthogonal():
    tilted = np.array([[1, 0.6], [0, 0.8]])
    with pytest.raises(ValueError, match=r"cells \[1\] are not orthonormal bases"):
        MubFamily(d=2, bases=[np.eye(2), tilted])


def test_mub_family_rejects_biased_pair():
    with pytest.raises(ValueError, match="not unbiased"):
        MubFamily(d=2, bases=[np.eye(2), np.eye(2)])


def test_mub_family_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        MubFamily(d=2, bases=[np.eye(2), np.eye(3)])


def test_mub_family_to_lineset_labels():
    fam = wf_mubs(3)
    ls = fam.to_lineset()
    assert ls.n == 12
    assert ls.basis_labels == [b for b in range(4) for _ in range(3)]
