"""Weyl-Heisenberg orbits and maximal equiangular line sets.

A maximal set of d^2 equiangular lines in C^d is, in every known case but
one, the orbit of a single unit vector under the d^2 displacement operators
X(j)Y(k) over Z_d; the exception (d = 8) swaps Z_8 for GF(2)^3.  This module
builds the displacement groups, orbits of candidate vectors, the handful of
exactly-known starting vectors, and the almost-flat candidate family in odd
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linekit.linesets import LineSet, design_strength, distinct_lines, gram_degree_set


class DisplacementGroup:
    """The d^2 operators X(j)Y(k), over Z_d or (for d = 8) over GF(2)^3.

    Cyclic case: X(j) shifts e_k -> e_{k+j}, Y(k) twists e_m -> w^{km} e_m
    with w = e^(2 pi i/d), and theta = -e^(i pi/d) (whose square is w) is the
    phase generating the full nonprojective group.  Binary case: X(a)
    permutes coordinates by XOR with a, Y(b) flips signs by the parity of
    the bitwise product.  Modulo phases the group has order d^2 either way.
    """

    def __init__(self, d, kind="cyclic"):
        self.d = int(d)
        self.kind = kind
        if kind == "cyclic":
            if self.d < 2:
                raise ValueError(f"need dimension >= 2, got {d}")
            self.theta = -np.exp(1j * np.pi / self.d)
            self.omega = np.exp(2j * np.pi / self.d)
        elif kind == "binary-triple":
            if self.d != 8:
                raise ValueError("the binary-triple group lives in dimension 8")
            self.theta = -1.0 + 0j
            self.omega = -1.0 + 0j
        else:
            raise ValueError(f"kind must be 'cyclic' or 'binary-triple', got {kind!r}")

    def x(self, j):
        d = self.d
        M = np.zeros((d, d), dtype=complex)
        cols = np.arange(d)
        rows = (cols + j) % d if self.kind == "cyclic" else cols ^ j
        M[rows, cols] = 1.0
        return M

    def y(self, k):
        return np.diag(self._twist(k))

    def _twist(self, k):
        d = self.d
        if self.kind == "cyclic":
            return self.omega ** ((k * np.arange(d)) % d)
        bits = np.array([bin(k & v).count("1") % 2 for v in range(d)])
        return np.where(bits, -1.0 + 0j, 1.0 + 0j)

    def displacement(self, j, k):
        """The matrix X(j) Y(k); each (j, k) is a distinct group element."""
        return self.x(j) @ self.y(k)

    def apply(self, j, k, v):
        """X(j) Y(k) v without forming the matrix (twist then permute)."""
        w = self._twist(k) * v
        if self.kind == "cyclic":
            return np.roll(w, j)
        out = np.empty_like(w)
        out[np.arange(self.d) ^ j] = w
        return out

    def pairs(self):
        return ((j, k) for j in range(self.d) for k in range(self.d))


def displacement(d, j, k):
    """X(j) Y(k) over Z_d; indices are reduced mod d."""
    g = DisplacementGroup(d)
    return g.displacement(j % d, k % d)


@dataclass
class FiducialCandidate:
    """A unit vector together with the displacement group meant to act on it."""

    d: int
    vector: np.ndarray
    source: tuple = ("user", None)
    group: str = "cyclic"

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.shape[0] != self.d:
            raise ValueError(f"vector has length {v.shape[0]}, expected {self.d}")
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ValueError("cannot normalize the zero vector")
        self.vector = v / nrm


def wh_orbit(fid):
    """Apply all d^2 displacements to the vector and deduplicate the lines.

    Deduplication (`distinct_lines`) keeps the first representative in
    lexicographic (j, k) order.  A fiducial vector keeps all d^2; degenerate
    starting vectors (e.g. basis vectors) collapse to fewer.
    """
    g = DisplacementGroup(fid.d, fid.group)
    d = fid.d
    orbit = np.empty((d * d, d), dtype=complex)
    for idx, (j, k) in enumerate(g.pairs()):
        orbit[idx] = g.apply(j, k, fid.vector)
    return LineSet(d, orbit[distinct_lines(orbit)])


def verify_sic(X):
    """Certify a maximal equiangular set: d^2 lines at common angle 1/(d+1).

    The common angle must lie within X.tol of 1/(d+1).  Reports the common
    angle (None if not equiangular) and the design strength either way; a
    genuine maximal set has strength >= 2.
    """
    d = X.dim
    rep = gram_degree_set(X)
    alpha = rep.angles[0] if rep.s == 1 else None
    is_sic = (
        X.n == d * d
        and alpha is not None
        and abs(alpha - 1 / (d + 1)) <= X.tol
    )
    strength = design_strength(X).strength
    return {"is_sic": bool(is_sic), "alpha": alpha, "strength": strength}


def builtin_fiducial(d, branch=(1, 1)):
    """The exactly-known starting vectors in dimensions 2, 3 and 8.

    d = 2 is a four-member family indexed by branch = (s1, s2) with
    s1, s2 in {1, -1}: (s1 sqrt(3 + s2 sqrt(3)), e^(i pi/4) sqrt(3 - s2 sqrt(3)))
    over sqrt(6).  All four give the same angle spectrum.  d = 8 returns the
    vector whose orbit under the GF(2)^3 group is the 64-line maximal set.
    """
    if d == 2:
        s1, s2 = branch
        if s1 not in (1, -1) or s2 not in (1, -1):
            raise ValueError(f"branch must be a pair of signs, got {branch!r}")
        rt3 = np.sqrt(3.0)
        v = np.array(
            [
                s1 * np.sqrt(3 + s2 * rt3),
                np.exp(1j * np.pi / 4) * np.sqrt(3 - s2 * rt3),
            ]
        ) / np.sqrt(6.0)
        return FiducialCandidate(2, v, source=("builtin", (2, tuple(branch))))
    if d == 3:
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        return FiducialCandidate(3, v, source=("builtin", 3))
    if d == 8:
        s = (1 + 1j) / np.sqrt(2.0)
        t = (1 - 1j) / np.sqrt(2.0)
        v = np.array([0, 0, s, t, s, -s, 0, np.sqrt(2.0)]) / np.sqrt(6.0)
        return FiducialCandidate(8, v, source=("builtin", 8), group="binary-triple")
    raise ValueError(f"no builtin starting vector for d = {d} (have 2, 3, 8)")


def _quartic_coeffs(d, a, b):
    """(2by + (d-1)ay^2 - a)^2 + 4(1-y^2)(b-ay)^2 - 1/(a^2(d+1)), expanded.

    Highest degree first.  The leading coefficient vanishes for d = 3, where
    the quartic degenerates to the cubic (16/3)y^3 - 4y + 4/3, which factors
    as (4/3)(y + 1)(2y - 1)^2: a simple root y = -1 and a double root
    y = 1/2.  Both give maximal sets.
    """
    rhs = 1 / (a * a * (d + 1))
    return np.array(
        [
            a * a * ((d - 1) ** 2 - 4),
            4 * a * b * (d + 1),
            2 * a * a * (3 - d),
            -12 * a * b,
            a * a + 4 * b * b - rhs,
        ]
    )


def appleby_candidates(d):
    """Almost-flat fiducial candidates in odd dimension d, with verdicts.

    The family has one entry of modulus b and d - 1 entries of modulus a,
    phased by e^(i arccos(y) (x|d)) with (x|d) the Jacobi symbol; admissible
    y are the real roots in [-1, 1] of a quartic.  Roots come from the
    companion matrix plus one Newton step.  Returns one record per root:
    {"y", "quartic_residual", "candidate", "verdict"}.  A repeated root is
    found only to about sqrt(eps) and may come back as two nearby values,
    so roots whose candidates span the same line (`distinct_lines`, as in
    wh_orbit) share the first one's record.  Only d = 3, 7
    and 19 are expected to produce a verified maximal set.
    """
    from linekit.finite_algebra import jacobi_symbol

    d = int(d)
    if d < 3 or d % 2 == 0:
        raise ValueError(f"need odd d >= 3, got {d}")
    sq = np.sqrt(d + 1.0)
    a = np.sqrt((1 - 1 / sq) / d)
    b = np.sqrt((1 + (d - 1) / sq) / d)
    rhs = 1 / (a * a * (d + 1))

    def residual(y):
        lhs = (2 * b * y + (d - 1) * a * y * y - a) ** 2
        lhs += 4 * (1 - y * y) * (b - a * y) ** 2
        return abs(lhs - rhs)

    coeffs = _quartic_coeffs(d, a, b)
    deriv = np.polyder(coeffs)
    found = []
    for r in np.roots(coeffs):
        r = complex(r)
        r -= np.polyval(coeffs, r) / np.polyval(deriv, r)
        if abs(r.imag) > 1e-8 or abs(r.real) > 1 + 1e-9:
            continue
        y = float(min(1.0, max(-1.0, r.real)))
        if residual(y) > 1e-10:
            continue
        phase = np.arccos(y)
        v = np.empty(d, dtype=complex)
        v[0] = b
        for x in range(1, d):
            v[x] = a * np.exp(1j * phase * int(jacobi_symbol(x, d)))
        found.append((y, FiducialCandidate(d, v, source=("appleby", y))))
    keep = distinct_lines(np.array([cand.vector for _, cand in found]))
    return [{"y": y, "quartic_residual": residual(y), "candidate": cand,
             "verdict": verify_sic(wh_orbit(cand))} for y, cand in (found[k] for k in keep)]


def almost_flat_params(d):
    """Both sign branches of the squared moduli forced on an almost-flat set.

    If one entry of a maximal-set starting vector has squared modulus b2 and
    the other d - 1 share a2, then {"plus", "minus"} are the only two
    possibilities, and (d - 1) a2 + b2 = 1 on each branch.  The "minus"
    branch (smaller a2) is the one the verified candidates realize; the
    "plus" branch has b2 <= 0 once d >= 3, so it never yields a vector.
    """
    d = int(d)
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    sq = np.sqrt(d + 1.0)
    out = {}
    for name, sgn in (("plus", 1.0), ("minus", -1.0)):
        a2 = (1 + sgn / sq) / d
        b2 = (1 - sgn * (d - 1) / sq) / d
        if abs((d - 1) * a2 + b2 - 1) >= 1e-12:
            raise RuntimeError(f"{name} branch: (d - 1) a2 + b2 != 1 at d={d}")
        out[name] = {"a2": float(a2), "b2": float(b2)}
    return out
