"""Line sets in C^d or R^d: angles, design strength, certification, doubling.

A LineSet is n unit vectors regarded projectively (each spans a line), every
norm 1 within float_error(dim), the rounding of a d-term norm.  All
statistics below depend only on the squared inner-product moduli |<a,b>|^2,
so they are invariant under per-vector phases and global unitaries.  The
degree set is one pass over the row blocks of the angle matrix: each
block's pair values are sorted and cut into runs, and the runs of all
blocks merge into exactly the clusters of the sorted n(n-1)/2 values, with
no array of those values (`gram_degree_set`).  The same pass keeps the
power sums of the angles, from which the Jacobi pair sums of the design
test follow with no n x n array.  It reads no basis labels: `verify_mub`
takes the in-cell pairs out of the degree set with each basis's d x d Gram.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isfinite, pi, prod

import numpy as np

from linekit.jacobi import JacobiFamily, annihilator_bound, dim_harm, jacobi_poly
from linekit.tolerance import DEFAULT_TOL, certify_tol, float_error, snap


def _checked_tol(tol):
    """float(tol); a ValueError unless it is finite and positive."""
    value = float(tol)
    if not (isfinite(value) and value > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return value


class LineSet:
    """n unit vectors in dimension dim, optionally partitioned into bases.

    vectors: (n, dim) complex array (real sets keep zero imaginary parts);
    basis_labels: length-n list partitioning the set into cells of size dim.
    Every entry must be finite, tol finite and positive, and each norm within
    certify_tol(tol) of 1.  The vectors are a read-only copy of the input,
    each row whose norm misses 1 by more than float_error(dim) divided by its
    norm once, the others bit for bit.  tol is fixed here, so the degree set
    that `gram_degree_set` stores on the line set, and the class labels that
    `schemes` cuts from the degree set stay valid.
    """

    def __init__(self, dim, vectors, field="complex", basis_labels=None, tol=DEFAULT_TOL):
        self.dim = int(dim)
        self.field = field
        self.tol = _checked_tol(tol)
        if field not in ("complex", "real"):
            raise ValueError(f"field must be 'complex' or 'real', got {field!r}")
        V = np.array(vectors, dtype=complex)
        if V.ndim != 2 or V.shape[1] != self.dim:
            raise ValueError(f"vectors must be n x {self.dim}, got shape {V.shape}")
        if V.shape[0] < 1:
            raise ValueError("a line set needs at least one vector")
        finite = np.isfinite(V).all(axis=1)
        if not finite.all():
            raise ValueError(f"vector {int(finite.argmin())} has an entry that is not finite")
        norms = np.linalg.norm(V, axis=1)
        worst = int(np.abs(norms - 1).argmax())
        if abs(norms[worst] - 1) > certify_tol(self.tol):
            raise ValueError(f"vector {worst} is not unit norm (|v| = {norms[worst]:.6g})")
        off = np.abs(norms - 1) > float_error(self.dim)
        V[off] /= norms[off, None]
        if field == "real" and np.abs(V.imag).max() > certify_tol(self.tol):
            raise ValueError("field='real' but vectors have imaginary parts")
        V.flags.writeable = False
        self.vectors = V
        self._degree_set = None
        self._labels = None
        if basis_labels is not None:
            basis_labels = list(basis_labels)
            if len(basis_labels) != V.shape[0]:
                raise ValueError("basis_labels must have one entry per vector")
            cells = {}
            for lab in basis_labels:
                cells[lab] = cells.get(lab, 0) + 1
            bad = {lab: c for lab, c in cells.items() if c != self.dim}
            if bad:
                raise ValueError(f"label cells must have size {self.dim}, got {bad}")
        self.basis_labels = basis_labels

    @property
    def n(self):
        return self.vectors.shape[0]

    def gram(self):
        return self.vectors.conj() @ self.vectors.T

    def angle_matrix(self):
        return np.abs(self.gram()) ** 2

    def __repr__(self):
        labs = "" if self.basis_labels is None else f", {len(set(self.basis_labels))} bases"
        return f"LineSet({self.n} lines in {self.field} dim {self.dim}{labs})"


def distinct_lines(V):
    """Indices of the rows of V that span new lines: a row is dropped when its
    |<u,v>|^2 with a row kept before it exceeds 1 - DEFAULT_TOL."""
    kept = np.empty_like(V)
    keep = []
    for i, v in enumerate(V):
        if not keep or (np.abs(kept[:len(keep)] @ v.conj()) ** 2).max() <= 1 - DEFAULT_TOL:
            kept[len(keep)] = v
            keep.append(i)
    return keep


# ---------------------------------------------------------------------------
# degree set
# ---------------------------------------------------------------------------


@dataclass
class DegreeSetReport:
    angles: list        # cluster representatives, sorted ascending
    multiplicities: list
    s: int
    zero_present: bool
    spans: list | None = None  # (min, max) of each cluster, aligned with angles
    power_sums: list | None = None  # P_j = sum over all n^2 (a, b) of |<a,b>|^(2j), j = 0..4
    same_line: tuple | None = None  # (i, j, angle) of the first pair above 1 - tol, row-major


#: entries per row block of the angle matrix (256 KB of complex128)
BLOCK_ENTRIES = 1 << 14


def _row_blocks(n, entries):
    """(first, end) of row blocks splitting n rows evenly into runs of about
    entries / n rows, and at least two (unless n is 1) and BLOCK_ENTRIES / 1024
    (16): past 1024 columns a block outgrows its budget to keep its GEMM shape."""
    count = max(1, n // max(2, entries // n, BLOCK_ENTRIES >> 10))
    edges = [n * k // count for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _angle_rows(V, r0, r1):
    """|G[r0:r1]|^2: one GEMM like `angle_matrix`, squared in place (bit-identical to `** 2`)."""
    A = np.abs(V[r0:r1].conj() @ V.T)
    return np.square(A, out=A)


def _angle_blocks(X):
    """Yield (first row, `_angle_rows`) over `_row_blocks`; up to 128 lines are one block."""
    for r0, r1 in _row_blocks(X.n, BLOCK_ENTRIES):
        yield r0, _angle_rows(X.vectors, r0, r1)


def _gap_breaks(ordered, gap):
    """Positions where adjacent ascending values differ by more than gap."""
    return np.nonzero(np.diff(ordered) > gap)[0] + 1


def gap_clusters(vals, gap):
    """Indices of `vals` in runs, ascending: sort, then split wherever two
    adjacent sorted values differ by more than `gap`."""
    order = np.argsort(vals, kind="stable")
    return np.split(order, _gap_breaks(vals[order], gap))


def _power_sums(x):
    """[sum x^j for j = 0..4]."""
    sq = x * x
    return [x.size, x.sum(), sq.sum(), sq @ x, sq @ sq]


def _angle_pass(X):
    """The one pass over the row blocks of the angle matrix that `gram_degree_set`
    and `verify_mub` read; computed once and stored on X.  It reads no labels."""
    if X._degree_set is not None:
        return X._degree_set
    n, tol = X.n, X.tol
    diag = np.empty(n)
    pair_sums = np.zeros(5)
    runs = [np.empty((4, 0))]  # rows: min, max, count, sum of each run
    same_line = None
    for r0, A in _angle_blocks(X):
        diag[r0:r0 + len(A)] = A[np.arange(len(A)), np.arange(r0, r0 + len(A))]
        vals = np.concatenate([row[i + 1:] for i, row in enumerate(A, start=r0)])
        if same_line is None and vals.size and vals.max() > 1 - tol:
            i, j = np.argwhere(np.triu(A, r0 + 1) > 1 - tol)[0]
            same_line = (r0 + int(i), int(j), float(A[i, j]))
        if vals.size:
            pair_sums += _power_sums(vals)
            vals.sort()
            starts = np.r_[0, _gap_breaks(vals, tol)]
            ends = np.r_[starts[1:], vals.size]
            runs.append([vals[starts], vals[ends - 1], ends - starts,
                         np.add.reduceat(vals, starts)])
        del A, vals  # before the next block is made
    lo, hi, count, total = np.hstack(runs)
    order = np.argsort(lo)
    lo, hi, count, total = lo[order], np.maximum.accumulate(hi[order]), count[order], total[order]
    starts = np.flatnonzero(np.r_[lo.size > 0, lo[1:] - hi[:-1] > tol])
    ends = np.r_[starts[1:], lo.size]
    sizes = np.add.reduceat(count, starts)
    angles = [float(t / c) for t, c in zip(np.add.reduceat(total, starts), sizes)]
    X._degree_set = DegreeSetReport(
        angles=angles,
        multiplicities=[int(c) for c in sizes],
        s=len(angles),
        zero_present=bool(angles and angles[0] <= tol),
        spans=[(float(lo[a]), float(hi[b - 1])) for a, b in zip(starts, ends)],
        power_sums=[float(d + 2 * p) for d, p in zip(_power_sums(diag), pair_sums)],
        same_line=same_line,
    )
    return X._degree_set


def gram_degree_set(X):
    """Cluster the n(n-1)/2 pairwise angles |<a,b>|^2 into the degree set A.

    The clusters are the runs of the sorted pair values split by the
    `gap_clusters` rule with width X.tol, which makes the clustering
    deterministic and phase-invariant.  No array of all pair values is
    formed: the upper triangle of each `_angle_blocks` row block is sorted
    and cut by the same rule into runs, kept as (min, max, count, sum), and
    the runs of all blocks are sorted by min and merged, a cluster starting
    wherever min - (largest max so far) > tol.  These are the global breaks:
    no run has an inner gap above tol, so a gap above tol between adjacent
    sorted values lies between runs, and there the merge subtracts the same
    two floats as the global rule.  Memory is one block plus the runs: one
    per cluster and block unless a block leaves a gap that others fill, and
    one per pair for a set of distinct angles.

    A pair with angle above 1 - tol means two copies of the same projective
    line: error, naming the first such pair in row-major order.  The same
    pass (`_angle_pass`) sums the power sums P_j of all n^2 angles, the
    diagonal included, for the Jacobi pair sums of `design_strength`.  It
    runs once and is stored on X; later calls read it.
    """
    report = _angle_pass(X)
    if report.same_line is not None:
        i, j, angle = report.same_line
        raise ValueError(f"vectors {i} and {j} span the same line (angle {angle:.12g})")
    return report


# ---------------------------------------------------------------------------
# design strength via Jacobi pair sums
# ---------------------------------------------------------------------------


@dataclass
class DesignReport:
    T: list             # T[r-1] = (1/n^2) * sum_{a,b} g_r(|<a,b>|^2), r = 1..t_max
    strength: int
    t_max: int
    epsilon: float


def design_strength(X, fam=None, t_max=4, epsilon=None):
    """Pair-sum design test: X is a t-design when T_r vanishes for r = 1..t.

    Each T_r is nonnegative up to roundoff; "vanishes" means
    T_r <= epsilon * g_r(1) / n, epsilon certify_tol(X.tol) unless given.
    With g_r = sum_j c_rj x^j, T_r is (1/n^2) sum_j c_rj P_j over the power
    sums P_j that `gram_degree_set` stores (Delsarte-Goethals-Seidel 1977),
    so no n x n array is formed; they stop at j = 4, so t_max above 4 raises.
    """
    if t_max > 4:
        raise ValueError(f"t_max must be at most 4, got {t_max}")
    if fam is None:
        fam = JacobiFamily(X.dim, max_k=4)
    if fam.d != X.dim:
        raise ValueError(f"family dimension {fam.d} != line set dimension {X.dim}")
    epsilon = certify_tol(X.tol) if epsilon is None else epsilon
    report = gram_degree_set(X)
    n = X.n
    T, strength = [], 0
    for r in range(1, t_max + 1):
        coeffs = [float(c) for c in jacobi_poly(fam, r, "g")]
        T.append(sum(c * p for c, p in zip(coeffs, report.power_sums)) / (n * n))
        if strength == r - 1 and T[-1] <= epsilon * dim_harm(X.dim, r, r) / n:
            strength = r
    return DesignReport(T=T, strength=strength, t_max=t_max, epsilon=epsilon)


def _exact_angles(angles, tol):
    """Each angle as a Fraction: snapped at tol, or else its float exactly."""
    return [Fraction(a) if f is None else f for a, f in ((a, snap(a, tol)) for a in angles)]


def relative_status(X, des):
    """(F(1)/c_0, status) of the relative bound of the degree set, or None when
    A is empty or a hypothesis of `jacobi.relative_bound` fails; des is X's
    `design_strength` report.

    F = prod_i (x - a_i) over the angles, each snapped at X.tol or else taken
    at its float, is sum_r c_r g_r exactly (`jacobi.annihilator_bound`).
    Summed over all n^2 pairs of lines, n F(1) + R = n^2 (c_0 + S) with
    S = sum_{r>=1} c_r T_r and R the sum over distinct lines (Delsarte-
    Goethals-Seidel 1977): F(1)/c_0 - n has the sign of n^2 S - R.  S is
    known from the T_r (r <= 4) of des; for s > 4 the unknown T_r >= 0 with
    c_r >= 0 only add to S.  Cluster i (m_i pairs) lies in its span, where
    |F| is at most the product over j of the farthest distance from a_j:
    |R| <= Rbar = sum_i 2 m_i times that.  With eps = certify_tol(X.tol),
    T_r vanishes when |T_r| <= eps g_r(1)/n and R when Rbar <= eps n F(1),
    so equality holds within 2 eps F(1)/c_0:

    met with equality  s <= 4, R and each T_r with c_r != 0 vanish
    satisfied          some T_r with c_r > 0 above eps g_r(1)/n,
                       n^2 S > Rbar, and c_r >= 0 for r > 4
    VIOLATED           s <= 4 and n^2 S + Rbar < 0: no set of lines
                       gives it, the clusters are not those of the power sums
    unresolved         otherwise
    """
    report = gram_degree_set(X)
    if not report.angles:
        return None
    angles = _exact_angles(report.angles, X.tol)
    try:
        out = annihilator_bound(X.dim, angles)
    except ValueError:  # two angles snapped onto one
        return None
    if out is None or not all(out["hypotheses_ok"].values()):
        return None
    n, s, c, bound = X.n, report.s, out["coeffs"], out["bound"]
    rows = [(float(c[r]), t, des.epsilon * dim_harm(X.dim, r, r) / n)
            for r, t in enumerate(des.T[:s], start=1)]  # c_r, T_r, threshold
    pairs = n * n * sum(cr * t for cr, t, _ in rows)  # n^2 S
    near = [float(a) for a in angles]
    rbar = sum(2 * m * prod(max(abs(u - a), abs(v - a)) for a in near)
               for m, (u, v) in zip(report.multiplicities, report.spans))
    if (s <= des.t_max and rbar <= des.epsilon * n * float(bound * c[0])
            and all(abs(t) <= limit for cr, t, limit in rows if cr != 0)):
        return bound, "met with equality"
    if (any(t > limit for cr, t, limit in rows if cr > 0) and pairs > rbar
            and all(cr >= 0 for cr in c[des.t_max + 1:])):
        return bound, "satisfied"
    if s <= des.t_max and pairs + rbar < 0:
        return bound, "VIOLATED"
    return bound, "unresolved"


# ---------------------------------------------------------------------------
# MUB and equiangular certification
# ---------------------------------------------------------------------------


def verify_mub(X):
    """Certify a labeled line set as mutually unbiased bases: orthonormal
    bases with the one angle 1/dim between bases.

    Takes each cell's dim x dim Gram, a block of cells at a time gathered by
    a stable argsort of the labels.  With atol = `certify_tol(X.tol)`,
    |<a,b>| <= atol off the diagonal of each cell, or the cells are not
    orthonormal bases (ValueError; LineSet made the norms unit).  Every
    in-cell pair lies in a low cluster of the degree set, one that starts
    within tol above the largest in-cell angle.  The ends of the other
    clusters give the largest |angle - 1/dim| of their cross pairs exactly,
    and that is max_deviation unless a low cluster holds cross pairs and
    reaches farther from 1/dim: then one more pass over the row blocks reads
    it from the cross pairs.  alpha is (sum of angle x multiplicity - in-cell
    sum) / cross count.  A line twice does not raise: its angle, 1, is not
    1/dim.
    """
    if X.basis_labels is None:
        raise ValueError("verify_mub needs basis_labels partitioning the vectors")
    report = _angle_pass(X)
    atol, d, target = certify_tol(X.tol), X.dim, 1.0 / X.dim
    labels = sorted(set(X.basis_labels))
    index = {lab: k for k, lab in enumerate(labels)}
    cell = np.array([index[lab] for lab in X.basis_labels])
    order = np.argsort(cell, kind="stable")
    top, inside = np.empty(len(labels)), 0.0  # each cell's largest angle; the in-cell sum
    step = max(1, BLOCK_ENTRIES // (4 * d * d))  # the gather, its conjugate and the Gram
    for c0 in range(0, len(labels), step):
        B = X.vectors[order[c0 * d:(c0 + step) * d]].reshape(-1, d, d)
        A = np.abs(B.conj() @ B.transpose(0, 2, 1)) ** 2
        A[:, np.arange(d), np.arange(d)] = 0.0
        top[c0:c0 + len(A)] = A.max(axis=(1, 2))
        inside += float(A.sum()) / 2
        del B, A  # before the next gather
    bad = [labels[k] for k in np.flatnonzero(top > atol * atol)]
    if bad:
        raise ValueError(f"cells {bad} are not orthonormal bases")
    in_cell = len(labels) * d * (d - 1) // 2
    cross = X.n * (X.n - 1) // 2 - in_cell
    low = sum(lo <= top.max() + X.tol for lo, _ in report.spans)
    far = [max(target - lo, hi - target) for lo, hi in report.spans]  # exact if no in-cell pair
    worst = max(far[low:], default=0.0)
    if sum(report.multiplicities[:low]) > in_cell and max(far[:low]) > worst:  # cross pairs there
        worst = max(float(np.abs(A - target)[cell[r0:r0 + len(A), None] != cell].max(initial=0.0))
                    for r0, A in _angle_blocks(X))
    total = sum(a * m for a, m in zip(report.angles, report.multiplicities)) - inside
    return {"unbiased": worst <= atol, "alpha": total / cross if cross else target,
            "count": len(labels), "max_deviation": worst}


def verify_equiangular(X, fam=None):
    """Certify a one-angle line set and test the d(1-a)/(1-da) bound equality.

    The equality is the "met with equality" status of `relative_status`,
    decided from the pair sums, so an angle that does not snap at X.tol can
    meet it.  The bound is the exact value when the angle snaps below 1/d,
    else None; T1 is the 1-design pair sum.
    """
    report = gram_degree_set(X)
    if report.s != 1:
        return {"equiangular": False, "alpha": None, "relative_equality": False,
                "degree_set": report.angles}
    alpha = report.angles[0]
    snapped = snap(alpha, X.tol)
    des = design_strength(X, fam, t_max=1)
    bound, status = relative_status(X, des) or (None, None)
    return {"equiangular": True, "alpha": alpha, "alpha_snapped": snapped,
            "relative_equality": status == "met with equality",
            "bound": None if snapped is None else bound, "T1": des.T[0]}


# ---------------------------------------------------------------------------
# equivalence transforms
# ---------------------------------------------------------------------------


def canonical_dephase(bases):
    """Normalize a list of bases: premultiply everything by the adjoint of the
    first, then phase each later column so its first entry is real positive.

    Angles are untouched (a global unitary and per-column phases).  The first
    basis becomes the identity.
    """
    bases = [np.asarray(B, dtype=complex) for B in bases]
    B0 = bases[0]
    if abs(np.linalg.det(B0)) < 1e-12:
        raise ValueError("first basis is singular")
    out = [B0.conj().T @ B for B in bases]
    for k in range(1, len(out)):
        B = out[k]
        for j in range(B.shape[1]):
            lead = B[0, j]
            if abs(lead) > 1e-12:
                B[:, j] *= np.conj(lead) / abs(lead)
    return out


# ---------------------------------------------------------------------------
# complex-to-real doubling
# ---------------------------------------------------------------------------


def real_doubling(X):
    """Send each v = (a_1+ib_1, ..., a_d+ib_d) to the orthogonal real pair

        v1 = (a_1, b_1, ..., a_d, b_d),   v2 = (b_1, -a_1, ..., b_d, -a_d)

    giving 2n vectors in R^(2d) whose every angle is one of the two split
    parts of a source angle: |u*v|^2 = |v1.u1|^2 + |v1.u2|^2, so no output
    angle exceeds the largest input angle.
    """
    if X.field != "complex":
        raise ValueError("real_doubling expects a complex line set")
    n, d = X.n, X.dim
    out = np.zeros((2 * n, 2 * d))
    for i, v in enumerate(X.vectors):
        a, b = v.real, v.imag
        out[2 * i, 0::2] = a
        out[2 * i, 1::2] = b
        out[2 * i + 1, 0::2] = b
        out[2 * i + 1, 1::2] = -a
    labels = None
    if X.basis_labels is not None:
        labels = [lab for lab in X.basis_labels for _ in range(2)]
    return LineSet(2 * d, out, field="real", basis_labels=labels, tol=X.tol)


def phase_align_for_doubling(X):
    """Rotate each vector by a phase so real doubling splits angles evenly.

    The doubled images of u, v make four equal angles exactly when the inner
    product u*v has argument pi/4 modulo pi/2 (equal real and imaginary
    magnitude).  Phases are propagated along a spanning tree of the graph of
    pairs at angle above X.tol, working modulo pi/2; every non-tree edge is
    then checked, and an inconsistent edge raises with the offending pair.
    Orthogonal pairs are unaffected by any phasing.

    No rephasing changes the argument of <u,v><v,w><w,u>, and once every
    pair sits at pi/4 modulo pi/2 that argument is pi/4 modulo pi/2; so an
    alignment exists only if every triple of pairwise non-orthogonal
    vectors has it there.  A family whose triple products sit at 0 modulo
    pi/2, such as wf_mubs(4), raises.
    """
    G = X.gram()
    n = X.n
    halfpi = pi / 2
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(G[i, j]) ** 2 > X.tol:
                adj[i].append(j)
                adj[j].append(i)
    phase = [None] * n
    for root in range(n):
        if phase[root] is not None:
            continue
        phase[root] = 0.0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if phase[v] is None:
                    theta = np.angle(G[u, v])
                    phase[v] = (phase[u] + pi / 4 - theta) % halfpi
                    stack.append(v)
    rotated = X.vectors * np.exp(1j * np.array(phase))[:, None]
    Gr = rotated.conj() @ rotated.T
    for i in range(n):
        for j in adj[i]:
            if j < i:
                continue
            theta = np.angle(Gr[i, j]) % halfpi
            dev = min(abs(theta - pi / 4), abs(theta - pi / 4 + halfpi),
                      abs(theta - pi / 4 - halfpi))
            if dev > 1e-7:
                raise ValueError(
                    f"no consistent phase assignment: pair ({i},{j}) has "
                    f"residual argument deviation {dev:.3g}"
                )
    return LineSet(X.dim, rotated, field="complex",
                   basis_labels=X.basis_labels, tol=X.tol)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


#: floats per batch of rows in `lineset_to_json`
WRITE_BATCH = 1 << 10


def _json_pieces(X):
    """The text of `lineset_to_json` in pieces: the head, each batch of rows
    of about WRITE_BATCH floats, and the tail.

    Each distinct float of a batch, told apart by its bits so that -0.0
    stays apart from 0.0, is formatted once by `float.__repr__`, as
    `json.dumps` formats a finite float (LineSet holds no other), and the
    batch's rows are filled from those words by one %-format.
    """
    head = json.dumps({"dim": X.dim, "field": X.field, "tol": X.tol})[:-1]
    yield f'{head}, "vectors": ['
    bits = np.ascontiguousarray(X.vectors).view(np.int64).reshape(X.n, 2 * X.dim)
    row = "[" + ", ".join(["[%s, %s]"] * X.dim) + "]"
    step = max(1, WRITE_BATCH // (2 * X.dim))
    for r0 in range(0, X.n, step):
        batch = bits[r0:r0 + step]
        values, inverse = np.unique(batch, return_inverse=True)
        words = np.array(list(map(float.__repr__, values.view(np.float64).tolist())),
                         dtype=object)
        rows = ", ".join([row] * len(batch))
        yield (", " + rows if r0 else rows) % tuple(words[inverse.ravel()])
    labels = "" if X.basis_labels is None else f', "labels": {json.dumps(list(X.basis_labels))}'
    yield f"]{labels}}}"


def lineset_to_json(X, path=None):
    """The interchange format as a JSON string, also written to `path` if given.

    Each vector entry is written as its [re, im] pair of floats: the text is
    that of `json.dumps` on the whole document, with no Python list of all
    the entries.  The rows are formatted in batches (`_json_pieces`), each
    distinct float of a batch once; constructed sets repeat a few values, so
    that formats far fewer floats than there are entries.
    `lineset_from_json` reads the text back bit for bit.
    """
    text = "".join(_json_pieces(X))
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


#: rows of a "vectors" entry per float64 conversion in `lineset_from_json`
ROW_BATCH = 64

#: the whitespace JSON allows between tokens
_SPACE = re.compile(r"[ \t\n\r]*")

_PAIRS = "each vector must be a list of [re, im] pairs of numbers, all of one length"


def _first_leaf(row):
    """The first scalar of a nested list, or the innermost empty list."""
    while isinstance(row, list) and row:
        row = row[0]
    return row


def _stack_pairs(rows):
    """The complex (n, dim) array of an iterable of rows of [re, im] pairs.

    The rows are stacked into float64 ROW_BATCH at a time, so no Python list
    of all the entries is held.  Each batch must stack to a numeric array of
    shape (rows, dim, 2), with the dim of the first batch.  Each row must also
    be numeric on its own, since np.array reads a row of booleans among rows
    of numbers as numbers: a row whose first entry is not an int or a float
    is stacked alone as well.
    """
    try:
        rows = iter(rows)
    except TypeError:
        raise ValueError(f"{_PAIRS}; the vectors are a {type(rows).__name__}") from None
    parts, first = [], 0
    while batch := list(islice(rows, ROW_BATCH)):
        for k, row in enumerate(batch, start=first):
            if type(_first_leaf(row)) not in (int, float):
                alone = np.array(row)
                if alone.dtype.kind not in "iuf":
                    raise ValueError(f"{_PAIRS}; vector {k} is {alone.dtype}")
        pairs = np.array(batch)
        if (pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2
                or parts and pairs.shape[1] != parts[0].shape[1]):
            raise ValueError(f"{_PAIRS}; vectors {first}..{first + len(batch) - 1} stack to "
                             f"shape {pairs.shape[1:]} of {pairs.dtype}")
        parts.append(pairs.astype(np.float64, copy=False).view(complex)[..., 0])
        first += len(batch)
    if not parts:
        raise ValueError(f"{_PAIRS}; got none")
    return np.concatenate(parts)


def _read_document(text):
    """The top-level object of a JSON text, its "vectors" read row by row.

    `json.JSONDecoder.raw_decode` reads each key and each other value whole,
    and each row of the "vectors" array on its own, handing the rows to
    `_stack_pairs` as they come.  Malformed JSON and trailing data raise the
    `json.JSONDecodeError` of `json.loads`; a top level that is not an object
    raises ValueError.
    """
    decode = json.JSONDecoder().raw_decode
    i = _SPACE.match(text).end()

    def step(token):
        """Step past `token` and the space after it, if `token` is at i."""
        nonlocal i
        if not text.startswith(token, i):
            return False
        i = _SPACE.match(text, i + 1).end()
        return True

    def expect(token, message):
        if not step(token):
            raise json.JSONDecodeError(message, text, i)

    def value():
        nonlocal i
        item, end = decode(text, i)
        i = _SPACE.match(text, end).end()
        return item

    def rows():  # of the array whose "[" was just stepped past
        if step("]"):
            return
        while True:
            yield value()
            if step("]"):
                return
            expect(",", "Expecting ',' delimiter")

    if not step("{"):
        raise ValueError("a line-set document must be a JSON object")
    doc = {}
    closed = step("}")
    while not closed:
        if not text.startswith('"', i):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                       text, i)
        key = value()
        expect(":", "Expecting ':' delimiter")
        if key == "vectors":
            doc[key] = _stack_pairs(rows() if step("[") else value())
        else:
            doc[key] = value()
        closed = step("}")
        if not closed:
            expect(",", "Expecting ',' delimiter")
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return doc


def lineset_from_json(source):
    """Accepts a JSON string, a parsed dict, or a file path.

    A string or a file's text (read once) is walked by `_read_document`:
    its "vectors" are decoded one row at a time and stacked into float64 in
    batches, so no Python list of all the entries is made.  A dict's
    "vectors" go through the same `_stack_pairs`.  The vectors must form an
    n x dim array of [re, im] pairs of numbers, each row numeric on its own;
    they are viewed as complex, so every bit (-0.0 too) survives a round
    trip.
    """
    if isinstance(source, dict):
        doc = {**source, "vectors": _stack_pairs(source["vectors"])}
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        doc = _read_document(source)
    else:
        with open(source) as fh:
            doc = _read_document(fh.read())
    return LineSet(
        doc["dim"],
        doc["vectors"],
        field=doc.get("field", "complex"),
        basis_labels=doc.get("labels"),
        tol=doc.get("tol", DEFAULT_TOL),
    )
