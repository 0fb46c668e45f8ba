"""Exhaustive small-case tests for fields, rings, groups, and characters."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linekit.finite_algebra import (
    AbelianGroup,
    GroupAlgebraElement,
    factorint,
    gf_create,
    gf_trace,
    gr_create,
    gr_trace,
    group_characters,
    isprime,
    jacobi_symbol,
)

# ---------------------------------------------------------------------------
# integer number theory, against brute force
# ---------------------------------------------------------------------------


def _isprime_by_trial_division(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_isprime_matches_trial_division_below_10_000():
    assert [n for n in range(10**4) if isprime(n)] == [
        n for n in range(10**4) if _isprime_by_trial_division(n)
    ]


def test_isprime_carmichael_pseudoprimes_and_large_primes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    strong = [3215031751, 3825123056546413051]
    assert not any(isprime(n) for n in carmichael + strong)
    primes = [10**9 + 7, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1]
    assert all(isprime(p) for p in primes)
    assert not isprime((2**31 - 1) * (2**61 - 1))
    assert not isprime(-7) and not isprime(0) and not isprime(1)


def test_factorint_recomposes():
    cases = list(range(1, 3000)) + [
        2**64 - 1, 1009**3 * 43**2, 7 * (2**61 - 1), 3825123056546413051,
    ]
    for n in cases:
        fac = factorint(n)
        assert all(isprime(p) and e >= 1 for p, e in fac.items())
        assert math.prod(p**e for p, e in fac.items()) == n
    assert factorint(1) == {}
    assert factorint(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
    with pytest.raises(ValueError):
        factorint(0)


def _legendre_by_euler(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_jacobi_symbol_euler_criterion_extended_multiplicatively():
    for d in range(1, 100, 2):
        for a in range(-d, 2 * d + 1):
            expect = math.prod(
                _legendre_by_euler(a, p) ** e for p, e in factorint(d).items()
            )
            assert jacobi_symbol(a, d) == expect, (a, d)
    for bad in (0, 2, 10, -3):
        with pytest.raises(ValueError):
            jacobi_symbol(1, bad)


# ---------------------------------------------------------------------------
# Galois fields
# ---------------------------------------------------------------------------


def test_default_moduli():
    # degree 1: x - g for the smallest primitive root g
    assert gf_create(2, 1).modulus == (1, 1)
    assert gf_create(3, 1).modulus == (1, 1)   # x - 2
    assert gf_create(5, 1).modulus == (3, 1)   # x - 2
    assert gf_create(7, 1).modulus == (4, 1)   # x - 3
    # degree >= 2: smallest primitive polynomial in base-p encoding
    assert gf_create(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert gf_create(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert gf_create(3, 2).modulus == (2, 1, 1)       # x^2 + x + 2


def test_gf_create_validation():
    with pytest.raises(ValueError):
        gf_create(4, 1)  # not prime
    with pytest.raises(ValueError):
        gf_create(2, 0)
    with pytest.raises(ValueError):
        gf_create(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        gf_create(2, 2, modulus=(1, 1, 0, 1))  # degree 3, not 2
    # irreducible but imprimitive moduli are accepted when supplied explicitly
    F = gf_create(3, 2, modulus=(1, 0, 1))  # x^2 + 1
    assert F.q == 9


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (2, 4)])
def test_field_axioms_exhaustive(p, m):
    F = gf_create(p, m)
    els = F.elements()
    assert len(els) == p**m
    for a in els:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    # associativity/commutativity/distributivity on all triples of a subfield-
    # sized sample (full product for the small fields)
    sample = els if len(els) <= 9 else els[:6]
    for a, b, c in itertools.product(sample, repeat=3):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_multiplicative_generator():
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)]:
        F = gf_create(p, m)
        x = F.x()
        powers = {F.pow(x, k) for k in range(F.q - 1)}
        assert len(powers) == F.q - 1  # x generates the full unit group


def test_frobenius_is_additive_and_fixes_prime_field():
    F = gf_create(3, 2)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    for c in range(3):
        e = F.element((c, 0))
        assert F.frobenius(e) == e


def test_trace_gf4():
    F = gf_create(2, 2)
    x = F.x()
    assert gf_trace(F, F.zero) == 0
    assert gf_trace(F, F.one) == 0          # 1 + 1^2 = 0
    assert gf_trace(F, x) == 1              # x + x^2 = x + (x+1) = 1
    assert gf_trace(F, F.add(x, F.one)) == 1


def test_trace_linear_and_balanced():
    for p, m in [(2, 3), (3, 2), (2, 4)]:
        F = gf_create(p, m)
        counts = {}
        for a in F.elements():
            t = gf_trace(F, a)
            counts[t] = counts.get(t, 0) + 1
            for b in F.elements():
                assert gf_trace(F, F.add(a, b)) == (gf_trace(F, a) + gf_trace(F, b)) % p
        # each trace value hit the same number of times
        assert counts == {v: p ** (m - 1) for v in range(p)}


def test_relative_trace_lands_in_subfield():
    # GF(64) -> GF(4): the image must be fixed by a -> a^4
    F = gf_create(2, 6)
    for n in range(64):
        a = F.from_int(n)
        t = F.relative_trace(a, 2)
        assert F.pow(t, 4) == t
    with pytest.raises(ValueError):
        F.relative_trace(F.one, 4)  # GF(16) is not a subfield of GF(64)


def test_relative_trace_three_step():
    # GF(q^3) -> GF(q) with q = 4: t = a + a^4 + a^16, additive, GF(4)-valued
    F = gf_create(2, 6)
    q = 4
    for n in [0, 1, 5, 17, 33, 63]:
        a = F.from_int(n)
        t = F.relative_trace(a, 2)
        expect = F.add(F.add(a, F.pow(a, q)), F.pow(a, q * q))
        assert t == expect


def _trace_by_definition(F, a):
    acc = F.zero
    for j in range(F.m):
        acc = F.add(acc, F.pow(a, F.p**j))
    assert all(c == 0 for c in acc[1:])
    return acc[0]


@pytest.mark.parametrize(
    "p,m,modulus", [(2, 3, None), (3, 2, None), (5, 1, None), (3, 3, None), (3, 2, (1, 0, 1))]
)
def test_index_tables_match_tuple_arithmetic(p, m, modulus):
    # (3, 2, x^2 + 1): irreducible but imprimitive, so x has order 4 and the
    # discrete logs must be taken to another element
    F = gf_create(p, m, modulus)
    for a, b in itertools.product(range(F.q), repeat=2):
        assert F.from_int(int(F.mul_table[a, b])) == F.mul(F.from_int(a), F.from_int(b))
    for n in range(F.q):
        assert F.trace(F.from_int(n)) == F.trace_table[n] == _trace_by_definition(F, F.from_int(n))


def test_labels():
    assert gf_create(2, 3).label() == "GF(2^3)/1,1,0,1"
    assert gr_create(2).label() == "GR(4^2)/1,1,1"


# ---------------------------------------------------------------------------
# Galois rings
# ---------------------------------------------------------------------------


def test_gr_small_lifts():
    assert gr_create(1).lift_modulus == (3, 1)        # x + 3, i.e. x - 1
    assert gr_create(2).lift_modulus == (1, 1, 1)     # x^2 + x + 1 lifts to itself
    R3 = gr_create(3)
    # certified by construction; the classical lift of x^3 + x + 1
    assert R3.lift_modulus == (3, 1, 2, 1)            # x^3 + 2x^2 + x + 3


def test_teichmuller_set():
    for m in [1, 2, 3]:
        R = gr_create(m)
        T = R.teichmuller
        assert len(T) == 2**m
        # distinct residues mod 2, and closed under multiplication
        residues = {tuple(c % 2 for c in t) for t in T}
        assert len(residues) == 2**m
        for s in T:
            for t in T:
                assert R.mul(s, t) in T
        # nonzero elements form a cyclic group of order 2^m - 1
        for t in T:
            if t != R.zero:
                assert R.pow(t, 2**m - 1) == R.one


def test_teichmuller_decomposition_roundtrip():
    for m in [1, 2, 3]:
        R = gr_create(m)
        two = R.element((2,) + (0,) * (m - 1))
        for z in R.elements():
            t0, t1 = R.teichmuller_decompose(z)
            assert t0 in R.teichmuller and t1 in R.teichmuller
            assert R.add(t0, R.mul(two, t1)) == z


def test_gr_trace_additive_and_balanced():
    for m in [1, 2, 3]:
        R = gr_create(m)
        els = R.elements()
        counts = {}
        for z in els:
            counts[gr_trace(R, z)] = counts.get(gr_trace(R, z), 0) + 1
        assert counts == {v: 4 ** (m - 1) for v in range(4)}
        sample = els if m <= 2 else els[::5]
        for a in sample:
            for b in sample:
                assert gr_trace(R, R.add(a, b)) == (gr_trace(R, a) + gr_trace(R, b)) % 4


def test_gr_trace_identity_on_gr4():
    R = gr_create(1)
    for z in range(4):
        assert gr_trace(R, (z,)) == z


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_teichmuller_tables_match_tuple_arithmetic(m):
    R = gr_create(m)
    T = R.teichmuller
    for a, b in itertools.product(range(2**m), repeat=2):
        assert T[R.teichmuller_table[a, b]] == R.mul(T[a], T[b])
    two = R.element((2,) + (0,) * (m - 1))
    for k, t in enumerate(T):
        # the trace of a Teichmuller element: the sum of its 2^j-th powers
        acc = R.zero
        for j in range(m):
            acc = R.add(acc, R.pow(t, 2**j))
        assert acc[1:] == (0,) * (m - 1)
        assert R.teichmuller_trace[k] == R.trace(t) == acc[0]
    for z in R.elements()[::7]:
        assert R.trace(R.mul(two, z)) == 2 * R.trace(z) % 4


def test_gr_frobenius_preserves_trace():
    R = gr_create(3)
    for z in R.elements():
        t0, t1 = R.teichmuller_decompose(z)
        two = R.element((2, 0, 0))
        fz = R.add(R.pow(t0, 2), R.mul(two, R.pow(t1, 2)))
        assert gr_trace(R, fz) == gr_trace(R, z)


# ---------------------------------------------------------------------------
# abelian groups, characters, group algebra
# ---------------------------------------------------------------------------


def test_character_table_z2xz2():
    G = AbelianGroup((2, 2))
    table = group_characters(G)
    want = np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        dtype=complex,
    )
    assert np.allclose(table, want)


@pytest.mark.parametrize("orders", [(5,), (6,), (2, 4), (3, 3), (2, 2, 2)])
def test_character_orthogonality(orders):
    G = AbelianGroup(orders)
    table = group_characters(G)
    n = G.order
    assert np.allclose(table @ table.conj().T, n * np.eye(n), atol=1e-10)
    # identity-labelled row is all ones
    assert np.allclose(table[0], np.ones(n))


def test_character_trivial_on_is_exact():
    G = AbelianGroup((4,))
    N = [(0,), (2,)]
    trivial = [a for a in G.elements() if G.character_trivial_on(a, N)]
    assert trivial == [(0,), (2,)]
    # mixed orders: G = Z2 x Z3, N generated by (1, 0)
    G2 = AbelianGroup((2, 3))
    N2 = [(0, 0), (1, 0)]
    trivial2 = [a for a in G2.elements() if G2.character_trivial_on(a, N2)]
    assert trivial2 == [(0, 0), (0, 1), (0, 2)]


def test_subgroup_generated_by():
    G = AbelianGroup((2, 4))
    H = G.subgroup_generated_by([(1, 2)])
    assert H == [(0, 0), (1, 2)]
    assert G.subgroup_generated_by([(0, 1)]) == [(0, 0), (0, 1), (0, 2), (0, 3)]


def test_group_algebra_difference_set_z7():
    # {1, 2, 4} in Z7 is a planar difference set: D D^(-1) = 3*0 + sum(g != 0)
    G = AbelianGroup((7,))
    D = GroupAlgebraElement.from_subset(G, [(1,), (2,), (4,)])
    prod = D * D.inverse_support()
    assert prod[(0,)] == 3
    for g in G.elements():
        if g != (0,):
            assert prod[g] == 1


def test_group_algebra_convolution_matches_characters():
    # chi(A * B) = chi(A) chi(B) for every character
    G = AbelianGroup((2, 3))
    A = GroupAlgebraElement(G, {(0, 1): 2, (1, 2): 1})
    B = GroupAlgebraElement(G, {(1, 0): 1, (0, 2): 3})
    C = A * B
    for a in G.elements():
        lhs = C.character_sum(a)
        rhs = A.character_sum(a) * B.character_sum(a)
        assert abs(lhs - rhs) < 1e-10


def test_group_algebra_add_and_eq():
    G = AbelianGroup((3,))
    A = GroupAlgebraElement(G, {(1,): 1})
    B = GroupAlgebraElement(G, {(1,): -1, (2,): 2})
    assert (A + B) == GroupAlgebraElement(G, {(2,): 2})
    assert A[(0,)] == 0


# ---------------------------------------------------------------------------
# input checks and certificates survive python -O
# ---------------------------------------------------------------------------

OPTIMIZE_CASES = {
    "pdivmod-not-monic": (
        "fa._pdivmod((1, 1), (1, 2), 5)",
        "ValueError: divisor must be monic",
    ),
    "pad-too-long": (
        "fa.gf_create(2, 3)._pad((0, 0, 0, 1))",
        "ValueError: 4 coefficients do not fit in length 3",
    ),
    "gf-trace-basis": (
        "fa.GaloisField.relative_trace = lambda self, a, e: self.one[::-1]\n"
        "fa.gf_create(2, 3).trace_basis",
        "RuntimeError: trace landed outside GF(p)",
    ),
    "gr-trace-basis": (
        "R = fa.gr_create(3)\nR.teichmuller[1] = (1, 1, 0)\nR.trace_basis",
        "RuntimeError: ring trace landed outside Z4",
    ),
    "teichmuller-count": (
        "fa.GaloisRing._build_teichmuller = lambda self: [self.zero] * 2**self.m\n"
        "fa.gr_create(2)",
        "RuntimeError: Teichmuller set is not a system of residues mod 2",
    ),
    "teichmuller-decompose": (
        "R = fa.gr_create(2)\nR._teich_by_residue[(1, 0)] = (1, 1)\n"
        "R.teichmuller_decompose((1, 0))",
        "RuntimeError: (1, 0) minus its Teichmuller residue is not divisible by 2",
    ),
    "hensel-lift": (
        "fa._hensel_lift((1, 0, 1), 2)",  # x^2 + 1 = (x + 1)^2 does not divide x^3 - 1
        "RuntimeError: Hensel lift failed the divisibility certificate",
    ),
}


@pytest.mark.parametrize("case", OPTIMIZE_CASES)
def test_algebra_checks_raise_under_optimize(case):
    # python -O strips assert statements; these checks must raise regardless
    import linekit

    body, message = OPTIMIZE_CASES[case]
    child = "import linekit.finite_algebra as fa\n" + body
    env = dict(os.environ, PYTHONPATH=str(Path(linekit.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 1
    assert message in proc.stderr
