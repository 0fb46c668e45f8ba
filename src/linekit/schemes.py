"""Association-scheme structure of line systems and graphs.

One kernel, `association_scheme`, serves both.  Its input is an integer
class-label matrix L: n x n, 0 exactly on the diagonal and classes 1..s
elsewhere.  A line set labels a pair of lines by its clustered angle, and a
graph labels a pair of vertices by their distance.

* Exact closure.  A_i is the 0/1 matrix of class i, held as float32: every
  partial sum of a product A_i A_j is an integer of size at most n, and
  single precision holds every integer below 2^24 exactly, so an sgemm
  gives exact counts in any summation order.  The span closes exactly when
  A_i A_j is constant on each class k, and that constant is the
  intersection number p_ij^k.  The first pair that breaks constancy is kept
  as a witness.
* The largest class is eliminated.  Let s be the class with the most pairs.
  Since A_0 + ... + A_s = J and A_0 = I, for any label matrix
  A_i A_s = r_i 1^T - A_i - sum_{l != 0, s} A_i A_l, with r_i the row sums
  of A_i, and A_s A_s follows from the A_l A_s the same way.  Only the
  products A_i A_j with i, j != s are GEMMs: one for unbiased bases, none
  for a one-class set.  The derived products are the same integer matrices,
  so p, the witness and the closure residual do not depend on the
  elimination (Bannai-Ito 1984).
* Spectral data from the small algebra.  Multiplication by A_i acts on the
  span as the (s+1) x (s+1) matrix B_i with (B_i)_{kj} = p_ij^k, and
  diag(sqrt k) symmetrises it because k_k p_ij^k = k_j p_ik^j.  Refining the
  eigenvectors of these small symmetric matrices gives the common
  eigenvectors u; each yields a row sqrt(k) u of the first eigenmatrix P,
  normalised to P_l0 = 1.  The multiplicities are m_l = n / sum_i P_li^2/k_i,
  the second eigenmatrix is Q_il = m_l P_li / k_i, and the Krein parameters
  are q_ij^k = (1/n) sum_l Q_li Q_lj P_kl (Bannai-Ito 1984;
  Brouwer-Cohen-Neumaier 1989).

The module also builds the zonal idempotent candidates coming from the
g-basis, runs a floating-point closure test on the Gram-weighted classes,
and computes Seidel spectra of real equiangular sets.  The Gram-weighted
test takes G^2 = conj(V) (V^T conj(V)) V^T from the n x d vectors V in
O(n^2 d) rather than as an n x n GEMM.  The products that matter at size
go through `np.matmul`, where a test can count them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from linekit.jacobi import JacobiFamily, jacobi_poly
from linekit.linesets import _angle_blocks, gap_clusters, gram_degree_set

#: Frobenius-residual threshold below which the Gram-weighted span counts as closed
CLOSURE_TOL = 1e-8


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
    in exactly the cluster `gram_degree_set` put it in.  The labels are cut
    row block by row block, held in the smallest unsigned integer type
    (uint8 below 256 classes) and stored on X, so every check on X shares
    one copy.
    """
    report = gram_degree_set(X)
    if X._labels is None:
        cuts = [(hi + lo) / 2 for (_, hi), (lo, _) in zip(report.spans, report.spans[1:])]
        L = np.empty((X.n, X.n), dtype=np.min_scalar_type(report.s))
        for r0, A in _angle_blocks(X):
            L[r0:r0 + len(A)] = np.searchsorted(cuts, A) + 1
        np.fill_diagonal(L, 0)
        X._labels = L
    return report, X._labels


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


def association_scheme(L):
    """Test whether the classes of a label matrix L form an association scheme.

    L is an n x n integer array, 0 exactly on the diagonal and symmetric
    classes 1..s elsewhere, each with at least one pair (ValueError
    otherwise).  Closure is decided
    exactly: every A_i A_j must be constant on every class (see the module
    docstring for the float32 counts and the eliminated class).  The
    reported ``closure_residual`` is the largest relative Frobenius distance
    from a product A_i A_j to the span of the classes; it is 0 when the span
    closes.  Non-closure is an outcome, not an error.

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
    flat = L.ravel()
    sizes = np.bincount(flat, minlength=m)
    if sizes[0] != n or np.diagonal(L).any() or not sizes.all():
        raise ValueError("the label matrix must be 0 exactly on the diagonal "
                         "and hold every class 1..s")
    rows, cols = np.divmod([np.argmax(flat == k) for k in range(m)], n)
    p = np.zeros((m, m, m), dtype=np.int64)
    p[0] = p[:, 0] = np.eye(m, dtype=np.int64)
    broken = []  # (i, j, witness, residual) of each product that breaks constancy

    def check(i, j, prod):
        """Read p_ij off the representative pairs and test A_i A_j = prod.

        A broken product's distance to the span of the 0/1 classes is each
        entry minus its class mean; the means are exact integer sums over
        counts, and the norm runs over a complex copy like every residual
        of this module.
        """
        p[i, j] = p[j, i] = prod[rows, cols]
        expect = p[i, j].astype(np.float32)[L]
        expect -= prod
        if expect.any():
            x, y = np.unravel_index(np.argmax(expect != 0), expect.shape)
            exact = np.asarray(prod, dtype=np.float64, order="C")
            means = np.bincount(flat, weights=exact.ravel(), minlength=m) / sizes
            residual = (exact - means[L]).astype(complex)
            broken.append((i, j, (int(x), int(y), int(L[x, y])),
                           float(np.linalg.norm(residual) / np.linalg.norm(exact))))

    big = int(np.argmax(sizes[1:])) + 1 if m > 1 else 0
    small = [i for i in range(1, m) if i != big]
    A = {i: (L == i).astype(np.float32) for i in small}
    rowsum = {i: A[i].sum(axis=1) for i in small}
    derived = {}  # -sum_l A_i A_l over small l, then A_i A_big

    def take_away(i, term):
        if i in derived:
            derived[i] -= term
        else:
            derived[i] = -term

    for a, i in enumerate(small):
        for j in small[a:]:
            prod = np.matmul(A[i], A[j])
            check(i, j, prod)
            take_away(i, prod)
            if j != i:
                take_away(j, prod.T)
            del prod  # before the next product is allocated
    for i in small:
        derived[i] += rowsum[i][:, None]
        derived[i] -= A.pop(i)
    if m > 1:
        rowsum_big = n - 1 - sum(rowsum.values(), np.zeros(n, dtype=np.float32))
        last = np.subtract(rowsum_big[:, None], L == big, dtype=np.float32)
        for i in small:
            D = derived.pop(i)
            if i < big:
                check(i, big, D)
            else:
                check(big, i, D.T)
            last -= D.T
            del D
        check(big, big, last)

    closure = max((b[3] for b in broken), default=0.0)
    witness = min(broken)[2] if broken else None
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
            refined += [U @ vecs[:, g] for g in gap_clusters(vals, 1e-7 * max(1.0, n))]
        spaces = refined
    if len(spaces) != m:
        raise RuntimeError(
            f"span closed but {len(spaces)} common eigenspaces found for {m} classes"
        )
    rows = [root * U[:, 0] / U[0, 0] for U in spaces]
    first = int(np.argmin([np.abs(r - k).max() for r in rows]))
    rest = sorted(
        (r for r in range(m) if r != first),
        key=lambda r: [round(x, 6) for x in rows[r]],
        reverse=True,
    )
    P = np.array([rows[r] for r in [first] + rest])
    mults = [int(round(n / x)) for x in (P**2 / k).sum(axis=1)]
    Q = P.T * np.array(mults) / k[:, None]
    krein = np.einsum("li,lj,kl->ijk", Q, Q, P) / n
    p_eig = np.einsum("li,lj,kl->ijk", P, P, Q) / n

    out.valencies = [int(x) for x in k]
    out.multiplicities = mults
    out.P = P
    out.Q = Q
    out.intersection_numbers = p
    out.krein = krein
    out.pq_residual = float(np.abs(P @ Q - n * np.eye(m)).max())
    out.krein_min = float(krein.min())
    out.reconstruction_residual = float(np.abs(p - p_eig).max())
    return out


def scheme_from_lineset(X):
    """Test whether the angle classes of X close into an association scheme.

    The classes are A_0 = I plus one symmetric 0/1 matrix per angle, as
    `_angle_labels` assigns them; they sum to J by construction.  The
    labels go through `association_scheme`, and the report gains the
    angles in ascending order.
    """
    report, L = _angle_labels(X)
    out = association_scheme(L)
    out.angles = [float(a) for a in report.angles]
    return out


def jacobi_idempotents(X, fam=None, e=1):
    """Zonal idempotent candidates E_0..E_e of a line set.

    (E_r)_{ab} = g_r(|<a,b>|^2) / n, taking the g-basis for the dimension of
    X.  When the set is a 2e-design these are orthogonal idempotents; the
    report carries the pairwise residuals ||E_i E_j - [i==j] E_i|| either
    way, so a shortfall in design strength shows up as a large residual
    rather than an error.  E_0 is always J/n, and trace(E_r) equals the
    degree-r harmonic dimension by the normalization of the g-basis.
    """
    if e < 0:
        raise ValueError("e must be nonnegative")
    if fam is None:
        fam = JacobiFamily(X.dim, max_k=max(e, 2))
    sq = X.angle_matrix()
    n = X.n
    mats = []
    for r in range(e + 1):
        coeffs = [float(c) for c in jacobi_poly(fam, r, kind="g")]
        val = np.zeros_like(sq)
        for c in reversed(coeffs):
            val = val * sq + c
        mats.append(val / n)
    # E_0 = J/n has n equal rows, so E_0 E_j is n copies of one row, the
    # column sums of E_j over n; E_j E_i = (E_i E_j)^T has the same norm
    res = np.zeros((e + 1, e + 1))
    for j in range(e + 1):
        row = mats[0][0] @ mats[j] - (mats[0][0] if j == 0 else 0.0)
        res[0, j] = res[j, 0] = np.sqrt(n) * np.linalg.norm(row)
    for i in range(1, e + 1):
        for j in range(i, e + 1):
            product = np.matmul(mats[i], mats[j])
            if i == j:
                product -= mats[i]
            res[i, j] = res[j, i] = np.linalg.norm(product)
            del product  # before the next product is allocated
    return {
        "idempotents": mats,
        "residuals": res,
        "max_residual": float(res.max()),
        "traces": [float(np.trace(M)) for M in mats],
    }


def gram_algebra_check(X, tol=CLOSURE_TOL):
    """Closure test for the Gram-weighted classes A'_i = G o A_i.

    The weighted classes keep the raw inner products instead of flattening
    them to 0/1, so their span can close even when the 0/1 span does not.
    A'_0 = diag(G) = I up to the unit-norm check, held as the vector diag(G);
    a zero angle contributes the zero matrix and is dropped from the
    spanning set.  Its products lie in the span, and every A'_i is Hermitian
    with A'_j A'_i = (A'_i A'_j)^H of the same residual, so the unordered
    pairs of the other classes decide closure, each as a dense product.

    The report also carries two Gram-square diagnostics: the distance of G^2
    from span{I, G} (zero for the lines of unbiased bases and for
    equiangular sets meeting the relative bound, where {I, G} spans an
    algebra), and, when the angle set is the {0, 1/d} of unbiased bases, the
    residual of the identity G^2 = (n/d) G.  G^2 comes from the rank-d
    factor, conj(V) (V^T conj(V)) V^T.
    """
    report, L = _angle_labels(X)
    n = X.n
    V = X.vectors
    G = X.gram()
    diag = np.diagonal(G).copy()

    core = np.matmul(V.T, V.conj())  # d x d
    Gsq = np.matmul(np.matmul(V.conj(), core), V.T)
    gsq_norm = np.linalg.norm(Gsq)
    gramian = np.array([[n, diag.sum()], [diag.sum().conjugate(), np.vdot(G, G)]])
    rhs = np.array([np.trace(Gsq), np.vdot(G, Gsq)])
    sol = np.linalg.lstsq(gramian, rhs)[0]  # singular when G = I, e.g. one line
    residual = np.multiply(G, -sol[1])
    residual += Gsq
    residual.reshape(-1)[:: n + 1] -= sol[0]  # the multiple of I
    square_residual = float(np.linalg.norm(residual) / gsq_norm)

    nonzero = [a for a in report.angles if a > 1e-9]
    mub_residual = None
    if (
        report.zero_present
        and len(nonzero) == 1
        and abs(nonzero[0] - 1.0 / X.dim) <= 1e-9
        and X.n % X.dim == 0
    ):
        np.multiply(G, -(X.n // X.dim), out=residual)
        residual += Gsq
        mub_residual = float(np.linalg.norm(residual) / gsq_norm)
    del Gsq, residual

    keep = []
    for k in range(1, report.s + 1):
        W = np.where(L == k, G, 0)
        if np.linalg.norm(W) > 1e-12 * n:
            keep.append(W)
    del G  # diag and the weighted classes hold all of it
    closure = 0.0
    for i in range(len(keep)):
        for j in range(i, len(keep)):
            product = np.matmul(keep[i], keep[j])
            closure = max(closure, _span_residual(product, [diag, *keep]))
            del product  # before the next product is allocated

    return {
        "closed": closure <= tol,
        "closure_residual": float(closure),
        "span_dimension": len(keep) + 1,
        "zero_class_dropped": bool(report.zero_present),
        "gram_square_residual": square_residual,
        "mub_identity_residual": mub_residual,
    }


def seidel_analysis(X):
    """Seidel matrix S = (G - I)/a of a real equiangular line set.

    Here a is the common magnitude |<u,v>| of the raw inner products — the
    square root of the angle as the degree set reports it.  The entries of S
    must land on 0 (diagonal) and +-1 within tolerance, otherwise the set is
    not honestly equiangular and a ValueError explains the deviation.  Real
    lines only, and a must be nonzero: pairwise-orthogonal lines admit no
    Seidel normalization.

    The report flags whether S has exactly two eigenvalues, states the bound
    d(1-a^2)/(1-d a^2), and when the set meets it compares the spectrum with
    the forced {-1/a^(n-d), ((n-d)/(d a))^(d)}.
    """
    if X.field != "real":
        raise ValueError("Seidel analysis needs a real line set")
    report = gram_degree_set(X)
    if report.s != 1:
        raise ValueError(f"lines are not equiangular: {report.s} distinct angles")
    angle = float(report.angles[0])
    if angle <= X.tol:
        raise ValueError("pairwise orthogonal lines: angle 0 admits no Seidel matrix")
    a = angle**0.5
    n, d = X.n, X.dim
    S = (X.gram().real - np.eye(n)) / a
    off = ~np.eye(n, dtype=bool)
    dev = float(np.abs(np.abs(S[off]) - 1.0).max())
    if dev > max(100 * X.tol, 1e-7):
        raise ValueError(f"off-diagonal entries miss +-1 by {dev:.3g}")
    S = np.where(off, np.sign(S), 0.0)
    vals = np.linalg.eigvalsh(S)
    groups = gap_clusters(vals, 1e-7 * max(1.0, float(np.abs(vals).max())))
    spectrum = [(float(np.mean(vals[g])), len(g)) for g in reversed(groups)]

    denom = 1.0 - d * angle
    bound = d * (1.0 - angle) / denom if denom > 1e-12 else float("inf")
    tight = bool(np.isfinite(bound) and abs(bound - n) <= 1e-6 * n)
    resid = None
    if tight:
        expected = np.sort(np.array([-1.0 / a] * (n - d) + [(n - d) / (d * a)] * d))
        resid = float(np.abs(np.sort(vals) - expected).max())
    return SeidelReport(
        matrix=S.astype(int),
        spectrum=spectrum,
        two_eigenvalue=len(spectrum) == 2,
        inner_product=a,
        relative_bound=float(bound),
        tight=tight,
        tight_spectrum_residual=resid,
    )


def scheme_to_json(rep, path=None):
    """Serialize a SchemeReport to JSON (arrays become nested lists).

    Returns the JSON text; if `path` is given the text is also written there.
    """

    def listify(x):
        return None if x is None else np.asarray(x).tolist()

    payload = {
        "n": rep.n,
        "classes": rep.classes,
        "angles": rep.angles,
        "closed": rep.closed,
        "closure_residual": rep.closure_residual,
        "valencies": rep.valencies,
        "multiplicities": rep.multiplicities,
        "P": listify(rep.P),
        "Q": listify(rep.Q),
        "intersection_numbers": listify(rep.intersection_numbers),
        "krein": listify(rep.krein),
        "pq_residual": rep.pq_residual,
        "krein_min": rep.krein_min,
        "reconstruction_residual": rep.reconstruction_residual,
    }
    text = json.dumps(payload, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
