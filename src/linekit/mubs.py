"""Mutually unbiased bases: every construction route in one place.

All constructors return a MubFamily whose first basis is the identity; the
family certifies itself on creation with `verify_mub` on its line set, at
LineSet's tolerance, so a family object in hand is already a valid MUB set.
Angle conventions follow the squared-modulus rule: unbiased means every
cross angle is exactly 1/d.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from linekit.finite_algebra import _prime_power, gf_create, gr_create, root_table
from linekit.linesets import LineSet, verify_mub


@dataclass
class MubFamily:
    """d x d bases, bases[0] = I, certified unbiased at creation by
    `verify_mub` on `to_lineset()`, at LineSet's tolerance (ValueError)."""

    d: int
    bases: list
    provenance: tuple = ("unknown", None)

    def __post_init__(self):
        self.bases = [np.asarray(B, dtype=complex) for B in self.bases]
        for k, B in enumerate(self.bases):
            if B.shape != (self.d, self.d):
                raise ValueError(f"basis {k} has shape {B.shape}, expected {(self.d, self.d)}")
        vectors = np.hstack(self.bases).T
        labels = [k for k in range(len(self.bases)) for _ in range(self.d)]
        self._lineset = LineSet(self.d, vectors, basis_labels=labels)
        verdict = verify_mub(self._lineset)
        if not verdict["unbiased"]:
            raise ValueError(
                f"bases are not unbiased (max deviation {verdict['max_deviation']:.3g})"
            )

    def __len__(self):
        return len(self.bases)

    def to_lineset(self):
        """All basis columns as one labeled line set of len(self)*d lines: the
        set certified at creation, shared because its vectors are read-only."""
        return self._lineset

    def __repr__(self):
        return f"MubFamily(d={self.d}, bases={len(self.bases)}, via {self.provenance[0]})"


# ---------------------------------------------------------------------------
# Wootters-Fields: q+1 bases in C^q for every prime power q
# ---------------------------------------------------------------------------


def _phase_bases(E, N, w=None):
    """The identity, then root_table(N, w)[E[z]] / sqrt(q) for each z, from an
    integer exponent array E[z, x, y] over Z_N.  Given w, the powers are
    [w**k for k in range(N)], the same operation as taking them entry by entry."""
    q = E.shape[-1]
    powers = root_table(N, w)
    return [np.eye(q, dtype=complex)] + [powers[Ez] / np.sqrt(q) for Ez in E]


def wf_mubs(q):
    """The maximal family: q + 1 mutually unbiased bases in C^q.

    (W_z)_{x,y} = q^{-1/2} w^{tr(z x^2 + 2 y x)}.  Odd prime powers use the
    additive characters of GF(q), w = e^(2 pi i/p); even ones replace the
    field by the Galois ring GR(4^m), whose Teichmuller set supplies the index
    alphabet and whose Z4-valued trace supplies w = i.  By linearity the
    exponent is tr(z x^2) + 2 tr(x y), read from a table of tr(x y).
    """
    p, m = _prime_power(q)
    if p == 2:
        F = gr_create(m)
        mul, trace, N, w = F.teichmuller_table, F.teichmuller_trace, 4, 1j
    else:
        F = gf_create(p, m)
        mul, trace, N, w = F.mul_table, F.trace_table, p, np.exp(2j * np.pi / p)
    tr_xy = trace[mul]
    E = (tr_xy[:, mul.diagonal()][:, :, None] + 2 * tr_xy) % N
    return MubFamily(q, _phase_bases(E, N, w), provenance=("wf", {"q": q, "field": F.label()}))


# ---------------------------------------------------------------------------
# Alltop cubic-phase variant (characteristic > 3)
# ---------------------------------------------------------------------------


def alltop_mubs(q):
    """(A_z)_{x,y} = q^{-1/2} w^{tr((x+z)^3 + y(x+z))}: q + 1 bases for p > 3."""
    p, m = _prime_power(q)
    if p in (2, 3):
        raise ValueError(f"the cubic construction needs characteristic > 3, got p={p}")
    F = gf_create(p, m)
    M, T = F.mul_table, F.trace_table
    digits = np.arange(q)[:, None] // p ** np.arange(m) % p
    u = (digits[:, None] + digits) % p @ p ** np.arange(m)  # index of z + x
    E = (T[M[u, M[u, u]]][:, :, None] + T[M][u]) % p
    return MubFamily(q, _phase_bases(E, p, np.exp(2j * np.pi / p)),
                     provenance=("alltop", {"q": q, "field": F.label()}))


# ---------------------------------------------------------------------------
# spin-model triple: 3 bases in EVERY dimension
# ---------------------------------------------------------------------------


def spin_model_mubs(n):
    """{I, W/sqrt(n), D0 W/n} with W_ij = theta^((i-j)^2), theta = e^(i pi (n+1)/n).

    theta^2 = e^(2 pi i/n) is a primitive n-th root, which is all the type-II
    property needs; D0 is the diagonal of sqrt(n) times the entrywise-inverse
    first column, (D0)_ii = sqrt(n) theta^(-i^2).  Works for every n >= 2 —
    including n = 6, where no larger family is known.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    theta, W = _spin_matrix(n)
    idx = np.arange(n)
    D0 = np.diag(np.sqrt(n) * theta ** (-(idx**2)))
    bases = [np.eye(n, dtype=complex), W / np.sqrt(n), D0 @ W / n]
    return MubFamily(n, bases, provenance=("spin", {"n": n}))


def _spin_matrix(n):
    """theta = e^(i pi (n+1)/n) and the spin-model matrix W_ij = theta^((i-j)^2)."""
    theta = np.exp(1j * np.pi * (n + 1) / n)
    idx = np.arange(n)
    return theta, theta ** ((idx[:, None] - idx[None, :]) ** 2)


def type_ii_check(n):
    """The defining identity W W^(-T) = nI for the spin-model matrix."""
    _, W = _spin_matrix(n)
    Winv = (1 / W).T
    return float(np.abs(W @ Winv - n * np.eye(n)).max())


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def tensor_mubs(F1, F2):
    """Basewise Kronecker product; the count is the smaller of the two."""
    k = min(len(F1.bases), len(F2.bases))
    bases = [np.kron(F1.bases[i], F2.bases[i]) for i in range(k)]
    return MubFamily(
        F1.d * F2.d,
        bases,
        provenance=("tensor", {"left": F1.provenance, "right": F2.provenance}),
    )


# ---------------------------------------------------------------------------
# odd-characteristic commutative semifields
# ---------------------------------------------------------------------------


class SemifieldTable:
    """A commutative multiplication on GF(p)^m with identity, distributivity,
    and no zero divisors — everything the character construction needs.

    mult maps (index, index) -> index over the lexicographic element order.
    """

    def __init__(self, p, m, mult):
        self.p = int(p)
        self.m = int(m)
        self.q = self.p**self.m
        self.elements = list(itertools.product(range(self.p), repeat=self.m))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.mult = np.asarray(mult, dtype=np.int64)
        if self.mult.shape != (self.q, self.q):
            raise ValueError(f"mult table must be {self.q} x {self.q}")

    @classmethod
    def from_function(cls, p, m, op):
        """op takes and returns coefficient tuples."""
        elements = list(itertools.product(range(p), repeat=m))
        index = {e: i for i, e in enumerate(elements)}
        q = p**m
        mult = np.zeros((q, q), dtype=np.int64)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                mult[i, j] = index[tuple(op(a, b))]
        return cls(p, m, mult)

    @classmethod
    def from_field(cls, F):
        """The Galois field itself is the basic (and associative) example.

        Accepts either a field object or a prime power to build one from.
        The table is F.mul_table permuted from F's index order (little-endian
        digits) into the lexicographic order used here.
        """
        if isinstance(F, int):
            F = gf_create(*_prime_power(F))
        lex = np.array(list(itertools.product(range(F.p), repeat=F.m)))
        perm = lex @ F.p ** np.arange(F.m)  # F's index of each lexicographic element
        return cls(F.p, F.m, np.argsort(perm)[F.mul_table[np.ix_(perm, perm)]])

    def product(self, a, b):
        return self.elements[self.mult[self.index[tuple(a)], self.index[tuple(b)]]]

    def validate(self):
        """Check all four axioms; raise with a witness on the first failure."""
        els, P = self.elements, self.mult
        if not np.array_equal(P, P.T):
            i, j = np.argwhere(P != P.T)[0]
            raise ValueError(f"not commutative: {els[i]} * {els[j]} != {els[j]} * {els[i]}")
        # distributivity (one side suffices given commutativity), at [a, b, c]
        vec = np.array(els, dtype=np.int64)
        add = (vec[:, None] + vec) % self.p @ self.p ** np.arange(self.m)[::-1]
        lhs = P[add[:, None, :], np.arange(self.q)[:, None]]  # (a + c) * b
        rhs = add[P[:, :, None], P.T]  # a*b + c*b
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            i, j, k = bad[0]
            a, b, c = els[i], els[j], els[k]
            raise ValueError(
                f"not distributive: ({a} + {c}) * {b} = {els[lhs[i, j, k]]} "
                f"but {a}*{b} + {c}*{b} = {els[rhs[i, j, k]]}"
            )
        bad = np.argwhere(P[1:, 1:] == 0) + 1
        if len(bad):
            raise ValueError(f"zero divisors: {els[bad[0][0]]} * {els[bad[0][1]]} = 0")
        if not (P == np.arange(self.q)).all(axis=1).any():
            raise ValueError("no multiplicative identity element")

    def __repr__(self):
        return f"SemifieldTable(p={self.p}, m={self.m})"


def semifield_mubs(tbl):
    """(W_z)_{a,y} = q^{-1/2} w^{z.(a*a) + 2 y.a} for a commutative semifield.

    The dot products are the standard GF(p)-bilinear form on coefficient
    vectors; a*a is the semifield square.  Axioms are re-validated first and
    failures reported with witnesses.
    """
    if tbl.p == 2:
        raise ValueError("even characteristic needs the Galois-ring route (wf_mubs)")
    tbl.validate()
    p = tbl.p
    els = np.array(tbl.elements, dtype=np.int64)
    squares = els[np.diagonal(tbl.mult)]
    E = ((els @ squares.T)[:, :, None] + 2 * (els @ els.T)) % p
    return MubFamily(tbl.q, _phase_bases(E, p, np.exp(2j * np.pi / p)),
                     provenance=("semifield", {"p": p, "m": tbl.m}))


def semifield_to_csv(tbl, path):
    """Write a multiplication table as a CSV of p^m x p^m element indices."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in tbl.mult:
            writer.writerow([int(x) for x in row])


def semifield_from_csv(path):
    """Read a multiplication table from a CSV of p^m x p^m element indices.

    Row i, column j holds the index of element_i * element_j in the
    lexicographic element order; the table size fixes p and m.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[int(cell) for cell in row] for row in csv.reader(fh) if row]
    q = len(rows)
    if q == 0 or any(len(row) != q for row in rows):
        raise ValueError("semifield CSV must be a nonempty square matrix of indices")
    if any(cell < 0 or cell >= q for row in rows for cell in row):
        raise ValueError(f"semifield CSV entries must be indices in 0..{q - 1}")
    p, m = _prime_power(q)
    return SemifieldTable(p, m, rows)


# ---------------------------------------------------------------------------
# dimension-6 complex Hadamard families
# ---------------------------------------------------------------------------


def _check_unit(name, value):
    if abs(abs(value) - 1) > 1e-9:
        raise ValueError(f"parameter {name} must have modulus 1, got |{name}| = {abs(value):.6g}")
    return complex(value)


def hadamard6(family, s=None, t=None, u=None):
    """One matrix from the three parametrized 6x6 complex Hadamard families.

    sym:  one parameter t; symmetric family through the quaternary matrix
    char: two parameters s, t; s = t = 1 degenerates to the Z6 character table
    skew: s, t and optionally u; u defaults to -(s+t+2)/(st+1), and the
          result is rejected unless |u| = 1 (the closure constraint
          s t u + s + t + u + 2 = 0 with all parameters unimodular)

    Every return value is certified: H* H = 6 I within 1e-9.
    """
    if family == "sym":
        if t is None:
            raise ValueError("sym family needs parameter t")
        t = _check_unit("t", t)
        tb = np.conj(t)
        i = 1j
        H = np.array(
            [
                [1, 1, 1, 1, 1, 1],
                [1, -1, i, -i, -i, i],
                [1, i, -1, t, -t, -i],
                [1, -i, -tb, -1, i, tb],
                [1, -i, tb, i, -1, -tb],
                [1, i, -i, -t, t, -1],
            ],
            dtype=complex,
        )
    elif family == "char":
        if s is None or t is None:
            raise ValueError("char family needs parameters s and t")
        s, t = _check_unit("s", s), _check_unit("t", t)
        w = np.exp(2j * np.pi / 3)
        w2 = w * w
        H = np.array(
            [
                [1, 1, 1, 1, 1, 1],
                [1, 1, w, w, w2, w2],
                [1, 1, w2, w2, w, w],
                [1, -1, s, -s, t, -t],
                [1, -1, s * w, -s * w, t * w2, -t * w2],
                [1, -1, s * w2, -s * w2, t * w, -t * w],
            ],
            dtype=complex,
        )
    elif family == "skew":
        if s is None or t is None:
            raise ValueError("skew family needs parameters s and t")
        s, t = _check_unit("s", s), _check_unit("t", t)
        if abs(s * t + 1) < 1e-12:
            raise ValueError("st = -1: the constraint cannot be solved for u")
        if u is None:
            u = -(s + t + 2) / (s * t + 1)
        u = _check_unit("u", u)
        resid = abs(s * t * u + s + t + u + 2)
        if resid > 1e-8:
            raise ValueError(f"parameters violate stu + s + t + u + 2 = 0 (|residual| = {resid:.3g})")
        sb, tb, ub = np.conj(s), np.conj(t), np.conj(u)
        stu = s * t * u
        H = np.array(
            [
                [1, 1, 1, 1, 1, 1],
                [1, -1, -s, s, tb, -tb],
                [1, -sb, -1, u, sb, -u],
                [1, sb, ub, 1, np.conj(stu), tb],
                [1, t, s, stu, 1, u],
                [1, -t, -ub, t, ub, -1],
            ],
            dtype=complex,
        )
    else:
        raise ValueError(f"family must be 'sym', 'char', or 'skew', got {family!r}")
    gram = H.conj().T @ H
    if np.abs(gram - 6 * np.eye(6)).max() >= 1e-8:
        raise RuntimeError("matrix is not Hadamard")
    return H
