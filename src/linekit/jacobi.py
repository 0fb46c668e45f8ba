"""Jacobi polynomials on complex projective space, and the line-set bounds.

Two families of univariate polynomials govern how many lines with few angles
can fit in C^d: g_k (zonal for Hom(k,k)) and h_k (zonal for Hom(k+1,k)).
All coefficients here are exact `Fraction`s — floats enter only when a caller
evaluates at a measured angle — because the interesting bound statements are
equalities (|X| = d(d+1), |X| = d^2) that must be decided exactly.

Polynomials are little-endian coefficient lists: [c0, c1, ...] is c0 + c1*x + ...
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt

from linekit.tolerance import SIGN_SLACK

# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------


def dim_hom(d, k, l):
    """Dimension of the polynomial space Hom(k, l) on the unit sphere of C^d:
    binom(d+k-1, d-1) * binom(d+l-1, d-1)."""
    if k < 0 or l < 0:
        raise ValueError(f"degrees must be nonnegative, got ({k}, {l})")
    return comb(d + k - 1, d - 1) * comb(d + l - 1, d - 1)


def dim_harm(d, k, l):
    """Dimension of the harmonic subspace Harm(k, l) = Hom(k,l) minus the
    image of Hom(k-1, l-1) (zero when either index is already zero)."""
    if k < 0 or l < 0:
        raise ValueError(f"degrees must be nonnegative, got ({k}, {l})")
    lower = dim_hom(d, k - 1, l - 1) if (k >= 1 and l >= 1) else 0
    return dim_hom(d, k, l) - lower


# ---------------------------------------------------------------------------
# exact polynomial helpers (little-endian Fraction lists)
# ---------------------------------------------------------------------------


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _poly_scale(a, s):
    return [c * s for c in a]


def _poly_shift_up(a):
    """Multiply by x."""
    return [Fraction(0)] + list(a)


def _poly_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


# ---------------------------------------------------------------------------
# the two Jacobi families: explicit formula and three-term recurrence
# ---------------------------------------------------------------------------


def _g_explicit(d, k):
    """Coefficient of x^(k-r) is
    (d+2k-1)/(d-1)! * (-1)^r * (d+2k-r-2)! / (r! * ((k-r)!)^2)."""
    coeffs = [Fraction(0)] * (k + 1)
    base = Fraction(d + 2 * k - 1, factorial(d - 1))
    for r in range(k + 1):
        num = factorial(d + 2 * k - r - 2)
        den = factorial(r) * factorial(k - r) ** 2
        coeffs[k - r] = (-1) ** r * base * Fraction(num, den)
    return coeffs


def _h_explicit(d, k):
    """Coefficient of x^(k-r) is
    (d+2k)/(d-1)! * (-1)^r * (d+2k-r-1)! / (r! * (k-r+1)! * (k-r)!)."""
    coeffs = [Fraction(0)] * (k + 1)
    base = Fraction(d + 2 * k, factorial(d - 1))
    for r in range(k + 1):
        num = factorial(d + 2 * k - r - 1)
        den = factorial(r) * factorial(k - r + 1) * factorial(k - r)
        coeffs[k - r] = (-1) ** r * base * Fraction(num, den)
    return coeffs


def _lam(d, k):
    return Fraction(k, d + 2 * k - 1)


def _mu(d, k):
    return Fraction(k + 1, d + 2 * k)


def _g_recurrence(d, kmax):
    """g_0..g_kmax via the three-term recurrence; anchors g_(-1) = 0, lam_0 = 0
    (the mu_(-1) terms those anchors would need are multiplied by zero)."""
    out = [[Fraction(1)]]
    if kmax == 0:
        return out
    prev, cur = None, out[0]
    for k in range(kmax):
        lk, mk = _lam(d, k), _mu(d, k)
        lk1 = _lam(d, k + 1)
        # x*g_k + [(lam_k - 1) mu_k + lam_k (mu_(k-1) - 1)] g_k
        lin = (lk - 1) * mk
        if k >= 1:
            lin += lk * (_mu(d, k - 1) - 1)
        nxt = _poly_add(_poly_shift_up(cur), _poly_scale(cur, lin))
        if k >= 1:
            drop = (_lam(d, k - 1) - 1) * (_mu(d, k - 1) - 1)
            nxt = _poly_add(nxt, _poly_scale(prev, -drop))
        nxt = _poly_scale(nxt, 1 / (lk1 * mk))
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def _h_recurrence(d, kmax):
    """h_0..h_kmax; anchors h_(-1) = 0 and lam_0 = 0 as for the g family."""
    out = [[Fraction(d)]]
    if kmax == 0:
        return out
    prev, cur = None, out[0]
    for k in range(kmax):
        lk, mk = _lam(d, k), _mu(d, k)
        lk1, mk1 = _lam(d, k + 1), _mu(d, k + 1)
        lin = lk1 * (mk - 1) + (lk - 1) * mk
        nxt = _poly_add(_poly_shift_up(cur), _poly_scale(cur, lin))
        if k >= 1:
            drop = (lk - 1) * (_mu(d, k - 1) - 1)
            nxt = _poly_add(nxt, _poly_scale(prev, -drop))
        nxt = _poly_scale(nxt, 1 / (lk1 * mk1))
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def _dual_route(d, kmax, kind="g"):
    """g_0..g_kmax (or h_0..h_kmax) both ways, from the explicit formula and
    from the recurrence; any disagreement is a hard error, and so is a value
    at 1 other than the harmonic dimension, dim Harm(k,k) for g_k and
    dim Harm(k+1,k) for h_k."""
    explicit, recurrence, shift = ((_g_explicit, _g_recurrence, 0) if kind == "g"
                                   else (_h_explicit, _h_recurrence, 1))
    polys = [explicit(d, k) for k in range(kmax + 1)]
    for k, rec in enumerate(recurrence(d, kmax)):
        if _poly_trim(polys[k]) != _poly_trim(rec):
            raise RuntimeError(f"{kind}_{k} explicit/recurrence mismatch at d={d}")
        if poly_eval(polys[k], 1) != dim_harm(d, k + shift, k):
            raise RuntimeError(f"{kind}_{k}(1) != dim Harm({k + shift},{k}) at d={d}")
    return polys


class JacobiFamily:
    """Cached g_k and h_k for one ambient dimension d >= 2.

    Construction builds the g family by `_dual_route`, which cross-checks
    the explicit formulas against the recurrence exactly and checks the
    dimension identity g_k(1) = dim Harm(k,k).  The h family, which few
    callers read, gets the same checks (h_k(1) = dim Harm(k+1,k)) when
    `h_coeffs` is first read.  Immutable afterwards.
    """

    def __init__(self, d, max_k=12):
        d = int(d)
        if d < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {d}")
        if max_k < 0:
            raise ValueError("max_k must be >= 0")
        self.d = d
        self.max_k = max_k
        self.g_coeffs = _dual_route(d, max_k, "g")
        self._h_coeffs = None

    @property
    def h_coeffs(self):
        if self._h_coeffs is None:
            self._h_coeffs = _dual_route(self.d, self.max_k, "h")
        return self._h_coeffs

    def lam(self, k):
        return _lam(self.d, k)

    def p(self, k):
        """p_k = g_0 + ... + g_k; p_k(1) = dim Hom(k,k)."""
        acc = [Fraction(0)]
        for r in range(k + 1):
            acc = _poly_add(acc, jacobi_poly(self, r, "g"))
        return acc

    def q(self, k):
        """q_k = h_0 + ... + h_k; q_k(1) = dim Hom(k+1,k)."""
        acc = [Fraction(0)]
        for r in range(k + 1):
            acc = _poly_add(acc, jacobi_poly(self, r, "h"))
        return acc

    def __repr__(self):
        return f"JacobiFamily(d={self.d}, max_k={self.max_k})"


def jacobi_poly(fam, k, kind="g"):
    """Exact coefficients of g_k or h_k for fam's dimension.

    Requests beyond the cache depth are recomputed from scratch (never
    truncated) and cost a full dual-route pass, flagged by a ResourceWarning.
    """
    if kind not in ("g", "h"):
        raise ValueError(f"kind must be 'g' or 'h', got {kind!r}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k <= fam.max_k:
        table = fam.g_coeffs if kind == "g" else fam.h_coeffs
        return list(table[k])
    warnings.warn(
        f"degree {k} exceeds cache depth {fam.max_k}; recomputing the whole "
        f"family up to {k} (consider a deeper JacobiFamily)",
        ResourceWarning,
        stacklevel=2,
    )
    return list(_dual_route(fam.d, k, kind)[k])


def expand_in_basis(fam, poly, kind="g"):
    """Coefficients c_r with poly = sum_r c_r * basis_r, solved exactly.

    The basis polynomials have degree r with nonzero leading coefficient, so
    the change of basis is triangular; the result list has length deg+1.
    """
    poly = _poly_trim([_as_fraction(c) for c in poly])
    deg = len(poly) - 1
    if deg > fam.max_k:
        raise ValueError(f"degree {deg} exceeds cache depth {fam.max_k}")
    basis = [jacobi_poly(fam, r, kind) for r in range(deg + 1)]
    residue = list(poly) + [Fraction(0)] * (deg + 1 - len(poly))
    coeffs = [Fraction(0)] * (deg + 1)
    for r in range(deg, -1, -1):
        c = residue[r] / basis[r][r]
        coeffs[r] = c
        residue = _poly_add(residue, _poly_scale(basis[r], -c))
    if any(c != 0 for c in residue):
        raise RuntimeError("triangular solve left a residue")
    return coeffs


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------


@dataclass
class BoundQuery:
    """One bound evaluation: which theorem route, at which angles.

    F_coeffs are the expansion coefficients c_r of the test polynomial F in
    the basis the mode names (g for *-g modes, h for *-h modes).  For the
    design modes, t is the design strength whose hypothesis exempts low-index
    coefficients; t=None exempts none.
    """

    d: int
    angles: list
    mode: str
    F_coeffs: list
    t: int | None = None

    MODES = ("sdist-g", "sdist-h", "design-g", "design-h")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {self.mode!r}")
        angles = sorted(_as_fraction(a) for a in self.angles)
        if any(a < 0 or a >= 1 for a in angles):
            raise ValueError("angles must lie in [0, 1)")
        if any(a == b for a, b in zip(angles, angles[1:])):
            raise ValueError("angles must be distinct")
        self.angles = angles
        self.F_coeffs = [_as_fraction(c) for c in self.F_coeffs]


def relative_bound(query, fam=None):
    """Evaluate F(1)/c_0 and report each sign hypothesis separately.

    The four modes check (with F = sum c_r basis_r in the mode's basis):
      sdist-g:  F(a) <= 0 at each angle; c_r >= 0 for r >= 1    -> upper bound
      sdist-h:  a*F(a) <= 0 at each angle; c_r >= 0 for r >= 1  -> upper bound
      design-g: F(a) >= 0, F(1) > 0; c_r <= 0 for r > t         -> lower bound
      design-h: a*F(a) >= 0, F(1) > 0; c_r <= 0 for r >= max(t,1) -> lower bound

    Nothing is decided here: the caller gets the value and the flag vector and
    applies the theorem only if every flag it needs is set.  Sign checks
    tolerate violations up to SIGN_SLACK; c_0 > 0 is exact.  `fam`, of
    dimension d and depth at least deg F, spares building one.
    """
    c = query.F_coeffs
    if not c or c[0] == 0:
        raise ValueError("c_0 = 0: bound F(1)/c_0 is undefined")
    kind = "g" if query.mode.endswith("-g") else "h"
    fam = fam or JacobiFamily(query.d, max_k=len(c) - 1)
    if fam.d != query.d or fam.max_k < len(c) - 1:
        raise ValueError(f"need a family of dimension {query.d} and depth {len(c) - 1}, got {fam}")
    F = [Fraction(0)]
    for r, cr in enumerate(c):
        F = _poly_add(F, _poly_scale(jacobi_poly(fam, r, kind), cr))
    return _bound_record(query, poly_eval(F, Fraction(1)), [poly_eval(F, a) for a in query.angles])


def _bound_record(query, F1, values):
    """The record of `relative_bound` from F(1) and F at each angle of query."""
    c, upper = query.F_coeffs, query.mode.startswith("sdist")
    kind = "g" if query.mode.endswith("-g") else "h"
    weighted = query.mode.endswith("-h")
    flags = {}
    for a, val in zip(query.angles, values):
        if weighted:
            val = a * val
        name = f"{'aF' if weighted else 'F'}({float(a):.6g}) {'<= 0' if upper else '>= 0'}"
        flags[name] = (val <= SIGN_SLACK) if upper else (val >= -SIGN_SLACK)
    if upper:
        for r in range(1, len(c)):
            flags[f"c_{r} >= 0"] = c[r] >= -SIGN_SLACK
    else:
        flags["F(1) > 0"] = F1 > 0
        start = (query.t if query.t is not None else 0) + (1 if kind == "g" else 0)
        start = max(start, 1)
        for r in range(1, len(c)):
            if r >= start:
                flags[f"c_{r} <= 0"] = c[r] <= SIGN_SLACK
    flags["c_0 > 0"] = c[0] > 0
    return {"bound": F1 / c[0], "hypotheses_ok": flags}


def annihilator_bound(d, angles):
    """`relative_bound` of F(x) = prod_i (x - alpha_i) over exact angles.

    F is expanded exactly in the g-basis of dimension d; returns the bound
    record with the coefficients c_r of F under "coeffs", or None when
    c_0 = 0 leaves F(1)/c_0 undefined.  F is 0 at each of its roots, so their
    "F(a) <= 0" flags are set with no evaluation of F.
    """
    poly = [Fraction(1)]  # ascending monomial coefficients
    for a in angles:
        poly = [u - a * v for u, v in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    coeffs = expand_in_basis(JacobiFamily(d, max_k=len(angles)), poly, kind="g")
    if coeffs[0] == 0:
        return None
    query = BoundQuery(d=d, angles=angles, mode="sdist-g", F_coeffs=coeffs)
    F1 = poly_eval(poly, Fraction(1))
    return {**_bound_record(query, F1, [0] * len(angles)), "coeffs": coeffs}


def absolute_bound(d, s, zero_in_A=False):
    """Size bound for an s-distance line set in C^d from dimension counting:
    dim Hom(s,s), or dim Hom(s,s-1) when one of the angles is 0."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return dim_hom(d, s, s - 1) if zero_in_A else dim_hom(d, s, s)


def welch_bound(d, n):
    """Minimum possible largest angle among n >= 2 lines in C^d:
    max |<u,v>|^2 >= (n-d)/(d(n-1)), as an exact rational."""
    if n < 2:
        raise ValueError(f"need at least two lines, got n={n}")
    return Fraction(n - d, d * (n - 1))


def flat_eal_bound(k):
    """Largest number of equiangular lines spanned by flat vectors in C^k."""
    return k * k - k + 1


def real_mub_gate(d):
    """Upper bound on the number of real MUBs in R^d, with the flatness gate.

    A pair of real unbiased bases forces a d x d real Hadamard matrix, so
    pairs exist only for d in {1, 2} or d divisible by 4 (pair_possible).
    When d = 4s the parity/squareness of s tightens the generic d/2 + 1:
    s odd caps at 3; s even and non-square caps at 2.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    generic = d // 2 + 1
    pair_possible = d in (1, 2) or d % 4 == 0
    bound, reason = generic, "generic bound d/2 + 1"
    if d % 4 == 0:
        s = d // 4
        if s % 2 == 1:
            bound, reason = min(3, generic), "dimension 4s with s odd"
        elif isqrt(s) ** 2 != s:
            bound, reason = min(2, generic), "dimension 4s with s even, not a square"
    return {"bound": bound, "pair_possible": pair_possible, "reason": reason}
