"""Association-scheme structure of line systems and graphs.

A line set whose design strength is high enough needs no class labels.  A
t-design with s angles and t >= 2s - 2 carries an s-class Q-polynomial
association scheme whose second eigenmatrix is Q_ik = g_k(alpha_i): its
idempotents are E_k = g_k(A)/n for k < s and E_s = I - sum_k E_k
(Delsarte-Goethals-Seidel 1977, Theorem 7.4, for the sphere; Hoggar 1982,
t-designs in projective spaces, for lines).  `scheme_from_lineset` takes
this route when `design_strength` resolves the hypothesis and the
intersection numbers it derives are non-negative integers within
count_tol(n, tol) (`_design_scheme`); the one-angle case is the trivial
scheme {I, J - I}.  Otherwise it falls back to the kernel below, which
decides closure exactly.

One kernel, `association_scheme`, serves every other line set and every
graph.  Its input is an integer class-label matrix L: n x n, 0 exactly on
the diagonal and classes 1..s elsewhere.  A line set labels a pair of lines
by its clustered angle, and a graph labels a pair of vertices by their
distance.

* Exact closure, one row block at a time.  A_i is the 0/1 matrix of class
  i.  Row block R of a product A_i A_j is held as float32: every partial
  sum is an integer of size at most n, and single precision holds every
  integer below 2^24 exactly, so an sgemm gives exact counts in any
  summation order.  The span closes exactly when A_i A_j is constant on
  each class k, and that constant is the intersection number p_ij^k, read
  at the first pair of class k in row-major order.  Constancy is tested
  block by block, and the first pair that breaks it is kept as a witness.
  Nothing n x n is held beyond L: the left operand A_i[R] and the columns
  of the right operand A_j are made from L as each GEMM needs them, in the
  row blocks of the angle pass (`linesets.BLOCK_ENTRIES` entries each).
* The largest class is eliminated.  Let s be the class with the most pairs.
  Since A_0 + ... + A_s = J and A_0 = I, for any label matrix
  A_i[R] A_s = r_i[R] 1^T - A_i[R] - sum_l A_i[R] A_l and
  A_s[R] A_l = 1 r_l^T - A_l[R] - sum_i A_i[R] A_l, with r_i the row sums
  of A_i and i, l over the small classes (not 0, not s); A_s[R] A_s follows
  from the A_s[R] A_l the same way.  So each row block takes the GEMMs
  A_i[R] A_l over the ordered pairs of small classes: one for unbiased
  bases, none for a one-class set, k^2 for k small classes.  The derived
  products are the same integer matrices, so p, the witness and the
  closure residual do not depend on the elimination (Bannai-Ito 1984).
* Counting instead of multiplying.  A small class i with at most n/16
  pairs per row on average (the zero class of complete MUBs has d - 1)
  forms (A_i A_l)[x, y] as the number of z in N_i(x) with L[z, y] = l: one
  gathered row of L per neighbour, n^2 r byte additions for the whole
  product against the 2 n^3 flops of a GEMM.
* The residual of a broken product.  Its distance to the span of the 0/1
  classes comes from the exact integer sums S1_k = sum P and S2_k =
  sum P^2 over each class k, as sum_k S2_k - S1_k^2 / |k|; the sums are
  taken only for products that break, and only from the block where they
  first break, since before it P is p_ij^k on class k.
* Spectral data from the small algebra.  Multiplication by A_i acts on the
  span as the (s+1) x (s+1) matrix B_i with (B_i)_{kj} = p_ij^k, and
  diag(sqrt k) symmetrises it because k_k p_ij^k = k_j p_ik^j.  Refining the
  eigenvectors of these small symmetric matrices gives the common
  eigenvectors u; each yields a row sqrt(k) u of the first eigenmatrix P,
  normalised to P_l0 = 1.  The multiplicities are m_l = n / sum_i P_li^2/k_i,
  the second eigenmatrix is Q_il = m_l P_li / k_i, and the Krein parameters
  are q_ij^k = (1/n) sum_l Q_li Q_lj P_kl (Bannai-Ito 1984;
  Brouwer-Cohen-Neumaier 1989).

The module also checks the zonal idempotent candidates E_r of the g-basis,
tests closure of the Gram-weighted classes A'_k = G o A_k, and computes
Seidel spectra of real equiangular sets.  The first two hold no n x n
complex matrix, the idempotent check none at all: block (R, C) of E_i E_j
is E_i[R] E_j[C]^T, as E_j is symmetric, so only rows of the E_r are made,
from their angle rows (`idempotent_residuals`), into two buffers: the rows
of one block R and those of one tile C, each of E_1..E_e stacked into one
operand.  `jacobi_idempotents` feeds the rows of the E_r it keeps to the
same kernel.  The Gram-weighted test reads the eigenvalues mu of G off the
d x d core = V^T conj(V) (its d and n - d zeros, or its n largest when
n < d): I, G and G^2 share eigenvectors,
so ||G^2 - xI - yG||_F^2 = sum_k |mu_k^2 - x - y mu_k|^2.  A lone kept
class closes from that spectrum alone (`_lone_class_closure`); every other
span is fitted product by product on row blocks of G = conj(V) V^T.  The
products that matter at size go through `np.matmul`, where a test can
count them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from linekit.jacobi import JacobiFamily, dim_harm, jacobi_poly, poly_eval
from linekit import linesets
from linekit.linesets import (_angle_blocks, _angle_rows, _exact_angles, _row_blocks,
                              design_strength, gap_clusters, gram_degree_set)
from linekit.tolerance import EIGEN_GAP, certify_tol, count_tol, float_error


@dataclass
class SchemeReport:
    """Outcome of testing a class partition for scheme structure.

    ``classes`` counts the non-identity classes; for a line set ``angles``
    lists them in ascending order, indexing A_1..A_s.  ``witness`` is the
    first pair (x, y) and its class k on which some A_i A_j is not constant,
    or None.  The spectral data is populated only when ``closed`` is true.
    Rows of P are indexed by common eigenspace — the one containing the
    all-ones vector first — and columns by class, so row 0 holds the
    valencies and row 0 of Q the multiplicities.  ``intersection_numbers``
    holds p_ij^k at [i, j, k] as exact integers.
    """

    n: int
    classes: int
    angles: list | None
    closed: bool
    closure_residual: float
    witness: tuple | None = None
    valencies: list | None = None
    multiplicities: list | None = None
    P: np.ndarray | None = None
    Q: np.ndarray | None = None
    intersection_numbers: np.ndarray | None = None
    krein: np.ndarray | None = None
    pq_residual: float | None = None
    krein_min: float | None = None
    reconstruction_residual: float | None = None
    route: str = "labels"


@dataclass
class SeidelReport:
    """Seidel matrix of a real equiangular line set, with its spectrum.

    ``inner_product`` is the common |<u,v>| — the square root of the angle
    as a degree set reports it.  ``spectrum`` pairs each eigenvalue with its
    multiplicity, largest eigenvalue first.  When the set meets the bound
    n = d(1-a^2)/(1-d a^2), ``tight_spectrum_residual`` records how far the
    spectrum sits from the forced {-1/a^(n-d), ((n-d)/(d a))^(d)}.
    """

    matrix: np.ndarray
    spectrum: list
    two_eigenvalue: bool
    inner_product: float
    relative_bound: float
    tight: bool
    tight_spectrum_residual: float | None = None


def _angle_labels(X):
    """Degree set of X and its class-label matrix.

    Off-diagonal pairs get 1 + the index of their degree-set cluster: the cuts
    sit midway between the spans of consecutive clusters, so each pair falls
    in exactly the cluster `gram_degree_set` put it in.  The labels are held
    in the smallest unsigned integer type (uint8 below 256 classes) and
    stored on X, so every check on X shares one copy.  Each row block is cut
    straight into its rows of L (`_cut`).
    """
    report = gram_degree_set(X)
    if X._labels is None:
        cuts = [(hi + lo) / 2 for (_, hi), (lo, _) in zip(report.spans, report.spans[1:])]
        L = np.empty((X.n, X.n), dtype=np.min_scalar_type(report.s))
        for r0, A in _angle_blocks(X):
            _cut(L[r0:r0 + len(A)], A, cuts)
            del A  # before the next block is made
        np.fill_diagonal(L, 0)
        X._labels = L
    return report, X._labels


def _cut(out, A, cuts):
    """out = np.searchsorted(cuts, A) + 1 for ascending cuts, in place: 1 plus
    one A > cut per cut, with no integer array beside out."""
    out[...] = 1
    for cut in cuts:
        out += A > cut
    return out


def _span_residual(s1, s2, sizes, lcm):
    """||P - mean_k P on class k||_F / ||P||_F from the exact class sums.

    With S1_k = sum P and S2_k = sum P^2 over class k, the squared distance
    from P to the span of the 0/1 classes is sum_k S2_k - S1_k^2 / |k|,
    held exactly as the integers S2_k |k| - S1_k^2 over lcm = lcm |k|, the |k|
    given as Python ints (sizes); one rounding gives the ratio, one the root.
    """
    s1, s2 = s1.astype(object), s2.astype(object)
    dist = int(((s2 * sizes - s1 * s1) * (lcm // sizes)).sum())
    return math.sqrt(Fraction(dist, lcm * int(s2.sum())))


def association_scheme(L):
    """Test whether the classes of a label matrix L form an association scheme.

    L is an n x n integer array, 0 exactly on the diagonal and symmetric
    classes 1..s elsewhere, each with at least one pair (ValueError
    otherwise).  Closure is decided exactly, row block by row block, with no
    n x n array beyond L (see the module docstring for the products, the
    eliminated class and the counting route).  The reported
    ``closure_residual`` is the largest relative Frobenius distance from a
    product A_i A_j to the span of the classes, from exact integer class
    sums; it is 0 when the span closes.  Non-closure is an outcome, not an
    error.

    When the span closes, P, Q, the multiplicities and the Krein parameters
    come from the (s+1) x (s+1) intersection matrices.  ``pq_residual`` is
    max |PQ - nI| and ``reconstruction_residual`` compares the exact p_ij^k
    with (1/n) sum_l P_li P_lj Q_kl; both check the eigen-step.  A closed
    span with a number of common eigenspaces other than s + 1 raises
    RuntimeError.
    """
    L = np.asarray(L)
    n = L.shape[0]
    m = int(L.max()) + 1
    blocks = _row_blocks(n, linesets.BLOCK_ENTRIES)
    counts = np.array([[np.count_nonzero(L[r0:r1] == k) for k in range(m)] for r0, r1 in blocks])
    sizes = counts.sum(axis=0)
    if sizes[0] != n or np.diagonal(L).any() or not sizes.all():
        raise ValueError("the label matrix must be 0 exactly on the diagonal "
                         "and hold every class 1..s")
    # the first pair of each class in row-major order, and its row block
    home = np.argmax(counts > 0, axis=0)
    first = [blocks[b][0] * n + int(np.argmax(L[slice(*blocks[b])] == k))
             for k, b in enumerate(home)]
    rows, cols = np.divmod(first, n)
    big = int(np.argmax(sizes[1:])) + 1 if m > 1 else 0
    small = [i for i in range(1, m) if i != big]
    rowsum = {i: np.concatenate([np.count_nonzero(L[r0:r1] == i, axis=1) for r0, r1 in blocks])
              .astype(np.float32) for i in small}
    rowsum_big = n - 1 - sum(rowsum.values(), np.zeros(n, dtype=np.float32))
    count = [i for i in small if 16 * sizes[i] <= n * n]  # at most n/16 entries per row
    p = np.zeros((m, m, m), dtype=np.int64)
    p[0] = p[:, 0] = np.eye(m, dtype=np.int64)
    broken = {}  # (i, j) -> [witness, S1, S2] of each product that breaks constancy

    def check(i, j, b, prod):
        """Read p_ij at the first pairs in block b and test rows b of A_i A_j.

        Before the block where constancy first breaks, A_i A_j is p_ij^k on
        each class k, so its class sums there are counts times p_ij^k; from
        that block on they are summed from the rows themselves, in float64
        per block (exact: a block's sums stay below 2^53) and in int64 across
        blocks (S2 <= n^4 < 2^63 for n < 55000).
        """
        r0, r1 = blocks[b]
        here = home == b
        p[i, j, here] = p[j, i, here] = prod[rows[here] - r0, cols[here]]
        Lr = L[r0:r1]
        if (i, j) not in broken:
            bad = prod != p[i, j].astype(prod.dtype)[Lr]  # p_ij^k of each class in Lr is read
            if not bad.any():
                return
            x, y = divmod(int(np.argmax(bad)), n)  # the first broken pair in row-major order
            before = counts[:b].sum(axis=0) * p[i, j]
            broken[i, j] = [(r0 + x, y, int(Lr[x, y])), before, before * p[i, j]]
        sums, w = broken[i, j], prod.ravel().astype(np.float64)
        sums[1] = sums[1] + np.bincount(Lr.ravel(), w, m).astype(np.int64)
        sums[2] = sums[2] + np.bincount(Lr.ravel(), w * w, m).astype(np.int64)

    def product(left, l):
        """Rows R of A_i A_l as float32, from the left operand of class i: A_i[R]
        for a GEMM against the columns of A_l made block by block, or for a
        counted class, the neighbours z of each row x and their number, adding
        [L[z, y] = l] one neighbour slot at a time."""
        if not isinstance(left, tuple):
            out = np.empty(left.shape, dtype=np.float32)
            for c0, c1 in blocks:
                out[:, c0:c1] = np.matmul(left, (L[c0:c1] == l).T.astype(np.float32))
            return out
        z, deg = left
        out = np.zeros((z.shape[1], n), dtype=np.min_scalar_type(len(z)))
        full = deg.min()  # slots that every row fills
        for t, slot in enumerate(z):
            if t < full:
                out += L[slot] == l
            else:
                has = deg > t
                out[has] += L[slot[has]] == l
        return out.astype(np.float32)

    for b, (r0, r1) in enumerate(blocks):
        Lr = L[r0:r1]
        # rows r0:r1 of A_big A_l = 1 r_l^T - A_l - sum_i A_i A_l
        with_big = {l: rowsum[l] - (Lr == l) for l in small}
        for i in small:
            if i in count:
                x, y = np.nonzero(Lr == i)
                deg = np.bincount(x, minlength=r1 - r0)
                z = np.zeros((deg.max(), r1 - r0), dtype=np.intp)  # z[slot, row]
                z[np.arange(x.size) - (np.cumsum(deg) - deg)[x], x] = y
                left = z, deg
            else:
                left = (Lr == i).astype(np.float32)
            # rows r0:r1 of A_i A_big = r_i 1^T - A_i - sum_l A_i A_l
            to_big = rowsum[i][r0:r1, None] - (Lr == i)
            for l in small:
                prod = product(left, l)
                if i <= l:
                    check(i, l, b, prod)
                to_big -= prod
                with_big[l] -= prod
                del prod  # before the next product is allocated
            if i < big:
                check(i, big, b, to_big)
            del to_big, left
        if m > 1:
            last = rowsum_big[r0:r1, None] - (Lr == big)
            for l in small:
                if l > big:
                    check(big, l, b, with_big[l])
                last -= with_big.pop(l)
            check(big, big, b, last)
            del last

    exact = sizes.astype(object)  # Python ints: the class sums below do not overflow
    lcm = math.lcm(*exact)
    closure = max((_span_residual(s1, s2, exact, lcm) for _, s1, s2 in broken.values()),
                  default=0.0)
    witness = broken[min(broken)][0] if broken else None
    out = SchemeReport(
        n=n, classes=m - 1, angles=None, closed=witness is None,
        closure_residual=float(closure), witness=witness,
    )
    if not out.closed:
        return out
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
            refined += [U @ vecs[:, g] for g in gap_clusters(vals, EIGEN_GAP * max(1.0, n))]
        spaces = refined
    if len(spaces) != m:
        raise RuntimeError(
            f"span closed but {len(spaces)} common eigenspaces found for {m} classes"
        )
    rows = np.array([root * U[:, 0] / U[0, 0] for U in spaces])
    first = int(np.argmin(np.abs(rows - k).max(axis=1)))  # the row of the valencies
    P = rows[_eigenspace_order(rows, first)]
    mults = [int(round(n / x)) for x in (P**2 / k).sum(axis=1)]
    Q = P.T * np.array(mults) / k[:, None]
    return _spectral_fields(out, P, Q, mults, k, p)


def _eigenspace_order(P, first):
    """The row order of a first eigenmatrix P: `first`, the row of the
    all-ones eigenspace, then the others by their rows rounded to 6 places,
    descending."""
    rest = sorted((r for r in range(len(P)) if r != first),
                  key=lambda r: [round(x, 6) for x in P[r]], reverse=True)
    return [first] + rest


def _spectral_fields(out, P, Q, mults, k, p):
    """out with the spectral fields of a closed scheme: P, Q and the
    multiplicities in `_eigenspace_order`, the valencies k and the integer
    p_ij^k.  The Krein parameters are q_ij^k = (1/n) sum_l Q_li Q_lj P_kl,
    ``pq_residual`` is max |PQ - nI| and ``reconstruction_residual`` compares p
    with (1/n) sum_l P_li P_lj Q_kl."""
    n = out.n
    krein = np.einsum("li,lj,kl->ijk", Q, Q, P) / n
    p_eig = np.einsum("li,lj,kl->ijk", P, P, Q) / n
    out.valencies = [int(x) for x in k]
    out.multiplicities = mults
    out.P = P
    out.Q = Q
    out.intersection_numbers = p
    out.krein = krein
    # an einsum: a BLAS call this small would page in BLAS code that nothing else runs
    out.pq_residual = float(np.abs(np.einsum("li,ik->lk", P, Q) - n * np.eye(len(k))).max())
    out.krein_min = float(krein.min())
    out.reconstruction_residual = float(np.abs(p - p_eig).max())
    return out


def _design_scheme(X, report):
    """The scheme of the DGS theorem on X, or None where it does not apply.

    It applies when `design_strength` resolves t >= 2s - 2 for the s angles
    of the degree set; the pair sums stop at t = 4, so s is at most 3.  Then
    E_k = g_k(A)/n for k < s and E_s = I - sum_k E_k are the idempotents, so
    Q_ik = g_k(alpha_i) for k < s and Q_is = n [i = 0] - sum_k Q_ik, with
    alpha_0 = 1 for the identity class and each angle as `_exact_angles`
    takes it; each entry is evaluated exactly and rounded once.  The multiplicities are m_k = g_k(1) = dim Harm(k,k) and
    m_s = n - sum_k m_k, and the valencies k_i = 2 c_i / n from the c_i pairs
    of each cluster.  P = n Q^-1 is taken from the orthogonality relation
    P_li = k_i Q_il / m_l (Bannai-Ito 1984), entry by entry, and then
    p_ij^k = (1/(n k_k)) sum_l m_l P_li P_lj P_lk.  None unless m_s >= 1,
    every k_i is an integer, PQ = nI, which ties the counted valencies to the
    angles, and every p_ij^k is a non-negative integer, each within
    count_tol(n, tol), which must be below 1/2 to tell integers apart.
    """
    n, s = X.n, report.s
    bound = count_tol(n, X.tol)
    if not 1 <= s <= 3 or bound >= 0.5:
        return None
    fam = JacobiFamily(X.dim, max_k=2 * s - 2)
    if design_strength(X, fam, t_max=2 * s - 2).strength < 2 * s - 2:
        return None
    mults = [dim_harm(X.dim, r, r) for r in range(s)]
    mults.append(n - sum(mults))
    if mults[-1] < 1 or any(2 * m % n for m in report.multiplicities):
        return None
    k = np.array([1] + [2 * m // n for m in report.multiplicities])
    g = [jacobi_poly(fam, r, "g") for r in range(s)]
    Q = []
    for i, a in enumerate(_exact_angles([1, *report.angles], X.tol)):
        row = [poly_eval(c, a) for c in g]
        Q.append(row + [n * (i == 0) - sum(row)])
    Q = np.array(Q, dtype=float)
    P = Q.T * k / np.array(mults)[:, None]
    p = np.einsum("l,li,lj,lk->ijk", np.array(mults, dtype=float), P, P, P) / (n * k)
    exact = np.rint(p)
    if np.abs(p - exact).max() > bound or exact.min() < 0:
        return None
    order = _eigenspace_order(P, 0)
    out = SchemeReport(n=n, classes=s, angles=None, closed=True, closure_residual=0.0,
                       route="design")
    out = _spectral_fields(out, P[order], Q[:, order], [mults[r] for r in order], k,
                           exact.astype(np.int64))
    return out if out.pq_residual <= bound else None


def scheme_from_lineset(X):
    """Test whether the angle classes of X close into an association scheme.

    The classes are A_0 = I plus one symmetric 0/1 matrix per angle of the
    degree set, in ascending order.  Two routes give the report, and its
    ``route`` names the one taken:

    * "design": a t-design with s angles and t >= 2s - 2 carries an s-class
      Q-polynomial scheme with Q_ik = g_k(alpha_i) (Delsarte-Goethals-Seidel
      1977, Theorem 7.4; Hoggar 1982 for projective spaces).  When
      `design_strength` resolves the hypothesis, P, Q and every p_ij^k follow
      from the angles and the cluster multiplicities (`_design_scheme`), with
      no pass beyond the degree set's.  Complete MUB sets (t = 2, s = 2) and
      every one-angle set (s = 1, the trivial scheme {I, J - I}) take it.
    * "labels": otherwise, or when the derived p_ij^k are not non-negative
      integers within count_tol(n, tol), the labels that `_angle_labels`
      cuts from the degree set go through `association_scheme`, which decides
      closure exactly and reads p_ij^k off the class products.

    Both order P with the all-ones eigenspace first and the others by
    `_eigenspace_order`, so their reports agree field by field.
    """
    report = gram_degree_set(X)
    out = _design_scheme(X, report) or association_scheme(_angle_labels(X)[1])
    out.angles = [float(a) for a in report.angles]
    return out


def _zonal_rows(val, sq, coeffs, n):
    """val = g(sq) / n for g with coefficients coeffs, by in-place Horner steps
    (from the leading coefficient: 0 sq + c is c)."""
    val[...] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        val *= sq
        val += c
    val /= n
    return val


def _zonal_setup(X, fam, e):
    """fill(u0, u1, out), which writes the rows u0:u1 of E_1..E_e into out by
    in-place Horner steps on their `_angle_rows`, and the units it fills: row
    blocks of b / 4 rows for b = max(BLOCK_ENTRIES / n, 4d), and at least 16
    (`_row_blocks`).  Four units make a block of b rows for the products: its
    angle GEMMs (4bnd real flops) cost at most one b x b product block, and
    each unit's angle GEMM has at least d rows."""
    if e < 0:
        raise ValueError("e must be nonnegative")
    if fam is None:
        fam = JacobiFamily(X.dim, max_k=max(e, 2))
    coeffs = [[float(c) for c in jacobi_poly(fam, r, kind="g")] for r in range(1, e + 1)]

    def fill(u0, u1, out):
        sq = _angle_rows(X.vectors, u0, u1)
        for val, c in zip(out, coeffs):
            _zonal_rows(val, sq, c, X.n)

    b = max(linesets.BLOCK_ENTRIES // X.n, 4 * X.dim)
    return fill, _row_blocks(X.n, X.n * -(-b // 4))


def _residual_kernel(n, e, units, fill):
    """Residuals and traces of E_0..E_e, given fill(u0, u1, out), which writes
    the rows u0:u1 of E_1..E_e into out[0..e-1] for a unit (u0, u1).

    Block (R, C) of E_i E_j is E_i[R] E_j[C]^T, as E_j is symmetric.  A row
    block R is 4 units; its rows of E_1..E_e are stacked into one (e b) x n
    operand, filled once into a buffer, and each unit T right of R is a tile,
    stacked the same way.  One GEMM of the stacked R with the transpose of
    the stacked T gives block (R, T) of every E_i E_j; the diagonal block of
    each i <= j is E_i[R] E_j[R]^T.  Block (R, T) of E_j E_i is block (T, R) of
    E_i E_j transposed, so the tiles' squared norms F enter as F + F^T.  Both
    buffers are allocated once per call, and a tile's rows are made again for
    each R before it."""
    # Every matmul reads contiguous operands: a stride-0 one takes another path.
    e0 = np.full(n, 1.0 / n)
    sums = np.zeros((e + 1, n))  # row j: e0 E_j, each row of E_0 E_j
    for u0, u1 in units:
        sums[0] += e0[u0:u1] @ np.full((u1 - u0, n), 1.0 / n)
    sums[0] -= e0
    traces = [float(np.trace(np.broadcast_to(1.0 / n, (n, n))))] + [0.0] * e
    res = np.zeros((e + 1, e + 1))  # squared norms of the diagonal blocks, i <= j
    far = np.zeros((e + 1, e + 1))  # [i, j]: squared norms of the blocks E_i[R] E_j[T]^T
    w = max(u1 - u0 for u0, u1 in units)
    left, right = np.empty(4 * e * w * n), np.empty(e * w * n)
    for k in range(0, len(units) if e else 0, 4):
        r0, r1 = units[k][0], units[min(k + 4, len(units)) - 1][1]
        stacked = left[:e * (r1 - r0) * n].reshape(e * (r1 - r0), n)
        rows = stacked.reshape(e, r1 - r0, n)
        for u0, u1 in units[k:k + 4]:
            fill(u0, u1, rows[:, u0 - r0:u1 - r0])
        for i in range(e):
            sums[i + 1] += e0[r0:r1] @ rows[i]
            traces[i + 1] += float(np.trace(rows[i][:, r0:r1]))
            for j in range(i, e):
                product = np.matmul(rows[i], rows[j].T)
                if i == j:
                    product -= rows[i][:, r0:r1]
                res[i + 1, j + 1] += np.vdot(product, product)
        for c0, c1 in units[k + 4:]:
            tile = right[:e * (c1 - c0) * n].reshape(e * (c1 - c0), n)
            fill(c0, c1, tile.reshape(e, c1 - c0, n))
            product = np.matmul(stacked, tile.T).reshape(e, r1 - r0, e, c1 - c0)
            for i in range(e):
                product[i, :, i] -= rows[i][:, c0:c1]
            far[1:, 1:] += np.einsum("ibjc,ibjc->ij", product, product)
    res = np.triu(res + far + far.T)
    res = np.sqrt(np.maximum(res, res.T))
    res[0, :] = res[:, 0] = [np.sqrt(n) * np.linalg.norm(row) for row in sums]
    return {"residuals": res, "max_residual": float(res.max()), "traces": traces}


def idempotent_residuals(X, fam=None, e=1):
    """Residuals and traces of the zonal idempotent candidates E_0..E_e.

    (E_r)_{ab} = g_r(|<a,b>|^2) / n, taking the g-basis for the dimension of
    X; E_0 is J/n.  The residuals are ||E_i E_j - [i==j] E_i||, symmetric in
    i and j.  No n x n array is held: `_residual_kernel` asks for the rows of
    each unit, made from its `_angle_rows` by in-place Horner steps.
    """
    fill, units = _zonal_setup(X, fam, e)
    return _residual_kernel(X.n, e, units, fill)


def jacobi_idempotents(X, fam=None, e=1):
    """Zonal idempotent candidates E_0..E_e of a line set, with their residuals.

    When the set is a 2e-design these are orthogonal idempotents; the report
    carries the pairwise residuals ||E_i E_j - [i==j] E_i|| either way, so a
    shortfall in design strength shows up as a large residual rather than
    an error.  E_0 is always J/n (a read-only broadcast), and trace(E_r)
    equals the degree-r harmonic dimension by the normalization of the
    g-basis.  E_1..E_e are filled on the units of `idempotent_residuals` and
    their rows feed the same kernel, so its residuals and traces are
    bit-identical.
    """
    fill, units = _zonal_setup(X, fam, e)
    mats = [np.broadcast_to(1.0 / X.n, (X.n, X.n))] + [np.empty((X.n, X.n)) for _ in range(e)]
    for u0, u1 in units if e else ():
        fill(u0, u1, [M[u0:u1] for M in mats[1:]])

    def copy(u0, u1, out):
        for val, M in zip(out, mats[1:]):
            val[...] = M[u0:u1]

    kept = _residual_kernel(X.n, e, units, copy)
    return {"idempotents": mats, **kept}


def _class_inner(L, G, P, size):
    """The sums of conj(G) P over each label 0..size-1 of L."""
    w = G.conj()
    w *= P
    keys = L.ravel()
    return np.bincount(keys, w.real.ravel(), size) + 1j * np.bincount(keys, w.imag.ravel(), size)


def _vector_blocks(X):
    """Row blocks of X.vectors of at most `BLOCK_ENTRIES` entries, each with its
    conjugate: the sums over the lines hold no n x d copy of the vectors."""
    step = max(1, linesets.BLOCK_ENTRIES // X.dim)
    for r0 in range(0, X.n, step):
        B = X.vectors[r0:r0 + step]
        yield B, B.conj()


def _gram_spectrum(X):
    """mu, x, y, misfit: the n eigenvalues of G, largest first, and the line
    x + y mu through the points (mu, mu^2) by least squares, fitted centred
    and its misfit mu^2 - x - y mu summed directly (y = 0 when G = I).  The
    d x d core is summed over `_vector_blocks`."""
    core = np.zeros((X.dim, X.dim), dtype=complex)
    for B, Bc in _vector_blocks(X):
        core += np.matmul(B.T, Bc)
    mu = np.pad(np.linalg.eigvalsh(core)[::-1][:X.n], (0, max(X.n - X.dim, 0)))
    dm, dq = mu - mu.mean(), mu**2 - (mu**2).mean()
    y = np.vdot(dm, dq) / (np.vdot(dm, dm) or 1.0)
    return mu, (mu**2).mean() - y * mu.mean(), y, dq - y * dm


def _lone_class_closure(X, mu, x, y, misfit):
    """(r0, B): the closure residual of a lone kept class from the spectrum
    of G, and a bound on its distance from the residual of the class itself.

    The class is A - E: A = G - I, E = (D - I) + U with D = diag(G) and U the
    dropped zero class.  As A^2 - (x + y - 1) I - (y - 2) A = G^2 - xI - yG,
    r0 = ||misfit|| / ||A^2||.  E moves A^2 by delta = 2 ||A||_2 ||E|| +
    ||E||^2 at most, and the span by ||D - I|| and ||E|| times the fit's
    coefficients or their bounds ||A^2|| / ||D||, ||A^2|| / ||A - E||.  Norms
    are Frobenius but ||A||_2; ||E||^2 = ||D - I||^2 + 2 m_0 a_0.
    """
    report = gram_degree_set(X)
    a = mu - 1  # the spectrum of A
    sq, a_norm = np.linalg.norm(a**2), np.linalg.norm(a)
    r0 = float(np.linalg.norm(misfit) / (sq or 1.0))
    D = np.concatenate([np.einsum("ij,ij->i", Bc, B).real for B, Bc in _vector_blocks(X)])
    e_diag = np.linalg.norm(D - 1)
    u2 = 2 * report.multiplicities[0] * report.angles[0] if report.zero_present else 0.0
    e = math.sqrt(e_diag**2 + u2)
    delta = 2 * np.abs(a).max() * e + e * e
    if sq <= delta or a_norm <= e:
        return r0, math.inf
    span = (max(abs(x + y - 1), sq / np.linalg.norm(D)) * e_diag
            + max(abs(y - 2), sq / (a_norm - e)) * e)
    return r0, float(((1 + r0) * delta + span) / (sq - delta))


def _product_closure(X, keep):
    """The closure residual of the kept classes from their blocked products."""
    report, L = _angle_labels(X)
    n, s, V, Vc = X.n, report.s, X.vectors, X.vectors.conj()
    labels = np.arange(s + 1)
    basis = np.isin(labels, [0, *keep])
    # a GEMM remakes its right operand's rows for each row block, so its blocks are
    # 16 times larger (4 MB of complex128)
    blocks = _row_blocks(n, 16 * linesets.BLOCK_ENTRIES)
    touch = np.zeros((s + 1, n), bool)  # classes at each vertex
    for r0, r1 in blocks if len(keep) > 1 else []:
        touch[L[r0:r1], np.arange(r0, r1)[:, None]] = True
    meet = touch @ touch.T  # classes meeting at no vertex have product 0
    products = [(i, j) for a, i in enumerate(keep) for j in keep[a:] if i == j or meet[i, j]]

    def rows(r0, r1, member):
        """Rows r0:r1 of the sum of the weighted classes k with member[k]."""
        return np.matmul(Vc[r0:r1], V.T) * np.take(member, L[r0:r1])

    closure = 0.0
    for i, j in products:
        weight, coef, res2, norm2 = np.zeros(s + 1), np.zeros(s + 1, dtype=complex), 0.0, 0.0
        for r0, r1 in blocks:  # fit P on these rows alone, then merge with the rows before
            Lr, Gr = L[r0:r1], np.matmul(Vc[r0:r1], V.T)
            W = Gr * np.take(labels == i, Lr)
            P = sum(np.matmul(W[:, c0:c1], rows(c0, c1, labels == j)) for c0, c1 in blocks)
            S = np.bincount(Lr.ravel(), (Gr.real**2 + Gr.imag**2).ravel(), s + 1) * basis
            inv = np.divide(1.0, S, out=np.zeros(s + 1), where=S > 0)
            c = _class_inner(Lr, Gr, P, s + 1) * inv
            F = P - c[Lr] * Gr
            fix = _class_inner(Lr, Gr, F, s + 1) * inv  # removes the bincount rounding
            res2 += np.vdot(F, F).real - (S * abs(fix) ** 2).sum()
            c += fix
            share = S * np.divide(1.0, weight + S, out=np.zeros(s + 1), where=S > 0)
            res2 += (weight * share * abs(c - coef) ** 2).sum()  # between the blocks
            coef += share * (c - coef)
            weight += S
            norm2 += np.vdot(P, P).real
            Gr = W = P = F = None  # freed before the next block is allocated
        if norm2 > 0:
            closure = max(closure, np.sqrt(max(res2, 0.0) / norm2))
    return closure


def gram_algebra_check(X):
    """Closure test for the Gram-weighted classes A'_i = G o A_i.

    Their span can close even when the 0/1 span does not.  The basis is
    diag(G) and every class but the degree set's zero angle, which still
    enters every product.  Each A'_i is Hermitian, so the unordered pairs
    decide closure, at certify_tol(X.tol).  A lone class closes from the
    spectrum when its bound is at most float_error(n); otherwise each
    product P is fitted block by block: a bincount of the labels gives c_k =
    sum_{L=k} conj(G) P / S_k, with S_k = sum_{L=k} |G|^2, ||P - c[L] G||^2
    is summed directly after one refining step of c, and the blocks merge
    with the exact term sum_R S_R |c_R - c|^2 (the expanded ||P||^2 -
    |c|^2 S would cancel down to sqrt(eps)).  The distance of G^2 from
    span{I, G} (zero for unbiased bases and tight equiangular sets) is the
    misfit over ||G^2||_F = ||mu^2||; for the angles {0, 1/d} (within X.tol)
    of unbiased bases, that from (n/d) G is ||mu^2 - (n/d) mu|| over the
    same (0 for a tight frame, V^H V = (n/d) I).
    """
    report = gram_degree_set(X)
    n, d, s = X.n, X.dim, report.s
    keep = range(1 + report.zero_present, s + 1)
    mu, *fit = _gram_spectrum(X)
    r0, bound = _lone_class_closure(X, mu, *fit) if len(keep) == 1 else (0.0, math.inf)
    closure = r0 if bound <= float_error(n) else _product_closure(X, keep)
    mub = (report.zero_present and s == 2 and n % d == 0
           and abs(report.angles[1] - 1.0 / d) <= X.tol)
    gsq_norm = np.linalg.norm(mu**2)
    return {
        "closed": closure <= certify_tol(X.tol),
        "closure_residual": float(closure),
        "span_dimension": len(keep) + 1,
        "zero_class_dropped": bool(report.zero_present),
        "gram_square_residual": float(np.linalg.norm(fit[2]) / gsq_norm),
        "mub_identity_residual": (float(np.linalg.norm(mu**2 - n // d * mu) / gsq_norm)
                                  if mub else None),
    }


def seidel_analysis(X):
    """Seidel matrix S = (G - I)/a of a real equiangular line set.

    Here a is the common magnitude |<u,v>| of the raw inner products — the
    square root of the angle as the degree set reports it.  S must be +-1
    off the diagonal: every pair's angle within certify_tol(X.tol) of a^2,
    or a ValueError gives the deviation.  Real lines only, and a must be
    nonzero: pairwise-orthogonal lines admit no Seidel normalization.

    The report flags whether S has exactly two eigenvalues, states the bound
    d(1-a^2)/(1-d a^2) of `verify_equiangular` (inf unless the angle snaps
    below 1/d), and when the pair sums show it met, snapped or not, compares
    the spectrum with the forced {-1/a^(n-d), ((n-d)/(d a))^(d)}.
    """
    if X.field != "real":
        raise ValueError("Seidel analysis needs a real line set")
    report = gram_degree_set(X)
    if report.s != 1:
        raise ValueError(f"lines are not equiangular: {report.s} distinct angles")
    angle = float(report.angles[0])
    if angle <= X.tol:
        raise ValueError("pairwise orthogonal lines: angle 0 admits no Seidel matrix")
    a, n, d = angle**0.5, X.n, X.dim
    G = X.gram().real
    off = ~np.eye(n, dtype=bool)
    dev = float(np.abs(G[off] ** 2 - angle).max())
    if dev > certify_tol(X.tol):
        raise ValueError(f"pair angles miss {angle:.6g} by {dev:.3g}: S is not +-1 off the diagonal")
    S = np.where(off, np.sign(G), 0.0)
    vals = np.linalg.eigvalsh(S)
    groups = gap_clusters(vals, EIGEN_GAP * max(1.0, float(np.abs(vals).max())))
    spectrum = [(float(np.mean(vals[g])), len(g)) for g in reversed(groups)]

    verdict = linesets.verify_equiangular(X)
    tight, bound = verdict["relative_equality"], verdict["bound"]
    if tight:
        expected = np.sort(np.array([-1.0 / a] * (n - d) + [(n - d) / (d * a)] * d))
    resid = float(np.abs(np.sort(vals) - expected).max()) if tight else None
    return SeidelReport(
        matrix=S.astype(int),
        spectrum=spectrum,
        two_eigenvalue=len(spectrum) == 2,
        inner_product=a,
        relative_bound=float("inf") if bound is None else float(bound),
        tight=tight,
        tight_spectrum_residual=resid,
    )


def scheme_to_json(rep, path=None):
    """Serialize a SchemeReport but its witness to JSON (arrays become nested
    lists).  Returns the JSON text; if `path` is given it is also written there.
    """

    payload = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "witness"}
    text = json.dumps(payload, indent=2, default=lambda x: np.asarray(x).tolist())
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
