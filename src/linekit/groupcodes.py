"""Difference sets, bipartite covers, and linear-code routes to line sets.

Three families of constructions live here, all powered by characters of a
finite abelian group.  Every character value is an index into one root table:
chi_a(g) = G.roots[G.pairing(a, g)], the integer pairing taken mod the exponent
L of G, and code alphabets read root_table(q) at the codeword letters.  The
same pairing decides generation exactly: D generates G when exactly one
character, the trivial one, has a zero pairing row on D.  Group arithmetic
goes through one difference table, `_differences(G, X, Y)[i, j]` = the index
of Y[j] - X[i]: it counts D * D^(-1), tests subgroups, lays out the cover's
bipartite block and lists the cosets of the RDS route.  Code duals come from
one kernel over Z_q, q prime or 4, a Smith-style diagonalization (`_kernel`).

* difference sets and relative difference sets — classification by counting
  differences, character-row line sets, Singer sets from planes, and the
  relative-difference-set route to mutually unbiased bases;
* distance-regular antipodal covers of complete bipartite graphs, built
  either from a relative difference set or as the explicit 36-vertex
  "tank-trap" triple cover, certified through the distance classes'
  association scheme;
* linear codes over a prime field or Z4, with coset-graph spectra from dual
  weights and codeword-to-line maps (balanced, near-balanced, and Z4
  variants).

`mubs` and `schemes` are imported inside the functions that use them
(`field_rds`, `rds_to_mubs`, `cover_graph`), so a process that builds Singer
lines or writes a planar difference set does not load them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .finite_algebra import (
    AbelianGroup,
    GroupAlgebraElement,
    _prime_power,
    gf_create,
    gr_create,
    isprime,
    root_table,
)
from .linesets import LineSet, _Fresh, _json_text, distinct_lines

_ENUM_CAP = 2**20
_DESK_GROUP_CAP = 512


# ---------------------------------------------------------------------------
# difference sets
# ---------------------------------------------------------------------------


@dataclass
class DifferenceSetReport:
    """Outcome of matching D against the plain and relative templates.

    kind is "plain" with params (v, k, lam), "relative" with params
    (m, n, k, lam), or "none".  difference_multiset holds the full
    convolution D * D^(-1) so callers can inspect near misses.
    """

    kind: str
    params: tuple | None
    excluded_subgroup: list | None
    difference_multiset: GroupAlgebraElement


def _differences(G, X, Y):
    """[i, j] is the index in G.elements() of Y[j] - X[i]."""
    r = len(G.cyclic_orders)
    X = np.asarray(X, dtype=np.int64).reshape(-1, r).T
    Y = np.asarray(Y, dtype=np.int64).reshape(-1, r).T
    diff = tuple(Y[:, None] - X[:, :, None])  # [c, i, j]: coordinate c of Y[j] - X[i]
    return np.ravel_multi_index(diff, G.cyclic_orders, mode="wrap")  # wrap: mod order


def _is_subgroup(G, elems):
    """A nonempty subset, each element listed once, is a subgroup exactly
    when it holds every a - b."""
    members = [G.index_of(g) for g in elems]
    closed = np.isin(_differences(G, elems, elems), members).all()
    return 0 < len(members) == len(set(members)) and bool(closed)


def classify_difference_set(G, D, N=None):
    """Match D * D^(-1) against k*1 + lam*(G - 1) and k*1 + lam*(G - N).

    The coefficients of D * D^(-1) are counts over the table of differences
    of D.  The relative template forces N to be the zero-coefficient support
    plus the identity, so no subgroup search is needed: that candidate either
    is a subgroup with constant coefficients outside it, or nothing works.
    When N is supplied it is verified instead of inferred.
    """
    Dt = [tuple(g) for g in D]
    if not Dt:
        raise ValueError("D is empty")
    if len({G.index_of(g) for g in Dt}) != len(Dt):  # (8,) repeats (1,) in Z7
        raise ValueError("D has repeated elements")
    k = len(Dt)
    elems = G.elements()
    counts = np.bincount(_differences(G, Dt, Dt).ravel(), minlength=G.order)
    diffs = GroupAlgebraElement(G, {elems[i]: counts[i] for i in np.flatnonzero(counts)})
    ident = G.identity
    zeros = [elems[i] for i in np.flatnonzero(counts == 0)]

    if N is not None:
        Nt = sorted(tuple(g) for g in N)
        if not _is_subgroup(G, Nt):
            raise ValueError("supplied N is not a subgroup")
    elif G.order > _DESK_GROUP_CAP:
        raise ValueError(
            f"|G| = {G.order} > {_DESK_GROUP_CAP}: supply the excluded subgroup N"
        )
    else:
        cand = [ident] + zeros
        Nt = cand if _is_subgroup(G, cand) else None

    # plain: every non-identity coefficient equal and positive (index 0 is the identity)
    off = counts[1:]
    if off.size and off.min() == off.max() > 0 and (N is None or Nt == [ident]):
        return DifferenceSetReport("plain", (G.order, k, int(off[0])), None, diffs)

    # relative: zero exactly on N minus identity, constant lam outside N
    if Nt is not None and len(Nt) > 1:
        inN = np.zeros(G.order, dtype=bool)
        inN[[G.index_of(g) for g in Nt]] = True
        outside = counts[~inN]
        if not counts[inN][1:].any() and outside.size and outside.min() == outside.max() > 0:
            n_ = len(Nt)
            params = (G.order // n_, n_, k, int(outside[0]))
            return DifferenceSetReport("relative", params, Nt, diffs)

    return DifferenceSetReport("none", None, None, diffs)


def diffset_lines(G, D):
    """Character rows restricted to D, scaled by 1/sqrt(|D|): |G| lines in C^|D|.

    Row a is G.roots[E[a]] / sqrt(|D|) for the pairing E of all labels with D.
    D must generate G, otherwise distinct characters collapse to identical
    restrictions.  By duality |G / <D>| characters are trivial on D (rows of E
    that are 0 mod L), so D generates G exactly when one row is.  Angles are
    |chi(D D^-1)| / |D|^2 over nontrivial chi.
    """
    Dt = sorted(set(tuple(g) for g in D))
    E = G.pairing(G.elements(), Dt)
    if (~E.any(axis=1)).sum() != 1:
        raise ValueError("D does not generate G")
    return LineSet(len(Dt), (G.roots[E] / np.sqrt(len(Dt))).view(_Fresh), field="complex")


def singer_difference_set(q):
    """Exponents i < q^2+q+1 with zero relative trace of theta^i in GF(q^3).

    theta is the default primitive element; other moduli give shift- or
    multiplier-equivalent sets.  classify_difference_set sees a plain
    (q^2+q+1, q+1, 1) difference set in Z_{q^2+q+1}.
    """
    p, m = _prime_power(q)
    F = gf_create(p, 3 * m)
    v = q * q + q + 1
    # the relative trace is GF(p)-linear: row i of R is the trace of x^i
    R = np.array([F.relative_trace(F.from_int(p**i), m) for i in range(3 * m)])
    cur, low, D = np.eye(3 * m, dtype=np.int64)[0], np.array(F.modulus[:-1]), []
    for i in range(v):  # cur = theta^i, theta = x: shift, then reduce x^(3m)
        if not (cur @ R % p).any():
            D.append((i,))
        cur = (np.r_[0, cur[:-1]] - cur[-1] * low) % p
    return AbelianGroup([v]), D


def field_rds(q):
    """A semi-regular (q, q, q, 1) relative difference set from GF(q).

    Odd q: pairs (a, -a*a/2) inside Z_p^{2m}, the field playing the role of
    its own (pre)semifield.  Even q: the Teichmuller set of the Galois ring
    GR(4^m) inside Z_4^m, where the forbidden subgroup is 2*GR = {0,2}^m.
    Returns (G, D, N).
    """
    p, m = _prime_power(q)
    if p == 2:
        R = gr_create(m)
        G = AbelianGroup([4] * m)
        D = sorted(R.teichmuller)
        N = sorted(itertools.product((0, 2), repeat=m))
        return G, D, N
    from .mubs import SemifieldTable

    return semifield_rds(SemifieldTable.from_field(q))


def semifield_rds(table):
    """The (q, q, q, 1) relative difference set of an odd-order semifield.

    D = {(a, -(a*a)/2)} in Z_p^{2m} with the semifield square a*a; the
    excluded subgroup is the second factor {0} x Z_p^m.
    """
    if table.p == 2:
        raise ValueError("even characteristic needs the Galois-ring route")
    table.validate()
    p, m = table.p, table.m
    inv2 = pow(2, -1, p)
    G = AbelianGroup([p] * (2 * m))
    D = []
    for a in table.elements:
        sq = table.product(a, a)
        D.append(tuple(a) + tuple((-inv2 * c) % p for c in sq))
    N = sorted((0,) * m + b for b in itertools.product(range(p), repeat=m))
    return G, sorted(D), N


def rds_to_mubs(G, D, N=None):
    """n + 1 mutually unbiased bases in C^k from a semi-regular (k,n,k,lam) RDS.

    Characters trivial on N form a subgroup H of order k; each of the n
    cosets of H, restricted to D and scaled by 1/sqrt(k), is an orthonormal
    basis, and distinct cosets are mutually unbiased.  The bases come from the
    exponent array E[coset, d, c] = G.pairing(D, coset) through _phase_bases,
    which prepends the standard basis.  Certification happens inside MubFamily.
    """
    from .mubs import MubFamily, _phase_bases

    report = classify_difference_set(G, D, N)
    if report.kind != "relative":
        raise ValueError(f"classification gave {report.kind!r}, need a relative difference set")
    m_, n_, k, lam = report.params
    if m_ != k:
        raise ValueError(f"({m_},{n_},{k},{lam}) is not semi-regular (need m = k)")
    Dt = sorted(tuple(g) for g in D)

    elems = np.array(G.elements())
    H = elems[~G.pairing(elems, report.excluded_subgroup).any(axis=1)]
    # the cosets y - H as index columns, each sorted, ordered by their smallest element
    cosets = np.unique(np.sort(_differences(G, H, elems), axis=0), axis=1).T
    E = np.array([G.pairing(Dt, elems[c]) for c in cosets])
    return MubFamily(k, _phase_bases(E, G.exponent), provenance=("rds", f"k={k},n={n_}"))


# ---------------------------------------------------------------------------
# bipartite covers
# ---------------------------------------------------------------------------


@dataclass
class GraphWithSpectrum:
    """A certified graph: 0/1 adjacency (uint8), clustered spectrum, intersection array."""

    adjacency: np.ndarray
    eigenvalues: list  # [(value, multiplicity)], descending
    intersection_array: tuple | None = None  # (b_list, c_list)
    diameter: int | None = None
    labels: list | None = None

    def edge_list(self):
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return list(zip(rows.tolist(), cols.tolist()))


def _distance_labels(A):
    """Distance matrix of a connected graph, breadth first from every vertex at once.

    Column u of the next frontier ORs the frontier's columns at u's neighbours (a
    table padded with u, already seen), so no float product is made.  Distances
    take the smallest unsigned type, like the labels of `schemes._angle_labels`.
    """
    n = A.shape[0]
    u, v = np.nonzero(A.T)  # the neighbours v of each u, A[v, u] != 0, u ascending
    nbr = np.repeat(np.arange(n)[:, None], np.bincount(u).max(initial=0), axis=1)
    nbr[u, np.arange(u.size) - np.searchsorted(u, u)] = v
    seen = np.eye(n, dtype=bool)
    frontier = seen
    dist = np.zeros((n, n), dtype=np.uint8)
    level = 0
    while frontier.any():
        level += 1
        grown = np.zeros_like(seen)
        for k in range(nbr.shape[1]):
            grown |= frontier[:, nbr[:, k]]
        frontier = grown & ~seen
        dist = dist.astype(np.min_scalar_type(level), copy=False)
        dist[frontier] = level
        seen |= frontier
    if not seen.all():
        raise ValueError("graph is disconnected")
    return dist


def _tank_trap_adjacency():
    """The explicit 3-fold cover of K_{6,6} on 5+infinity symbols.

    Row i of the base array pairs {inf, i}, {1+i, 4+i}, {2+i, 3+i} mod 5;
    shifting the three columns cyclically by j gives layer j.  Black vertex
    B_i(j) joins white W_k(h) when k lies in cell (i, h - j); the two
    infinity families are matched within layers, including B_inf(j)W_inf(j).
    """
    INF = 5
    pairs = lambda i: [(INF, i % 5), ((1 + i) % 5, (4 + i) % 5), ((2 + i) % 5, (3 + i) % 5)]
    black = [(i, j) for i in range(6) for j in range(3)]
    white = list(black)
    bidx = {v: t for t, v in enumerate(black)}
    widx = {v: 18 + t for t, v in enumerate(white)}
    A = np.zeros((36, 36), dtype=np.uint8)

    def join(bi, bj, wk, wh):
        A[bidx[(bi, bj)], widx[(wk, wh)]] = 1

    for i in range(5):
        for j in range(3):
            row = pairs(i)
            for h in range(3):
                for k in row[(h - j) % 3]:
                    join(i, j, k, h)
    for j in range(3):
        for k in range(6):
            join(INF, j, k, j)
            if k != INF:
                join(k, j, INF, j)
    A = A + A.T
    labels = [f"B_{'inf' if i == INF else i}({j})" for i, j in black]
    labels += [f"W_{'inf' if k == INF else k}({h})" for k, h in white]
    return A, labels


def cover_graph(G=None, D=None, N=None, builtin=None):
    """Antipodal distance-regular cover of K_{k,k}, certified by its scheme.

    Either build the bipartite graph on two copies of G with (0,x) ~ (1,y)
    iff y - x in D, or pass builtin="tank-trap" for the 36-vertex triple
    cover of K_{6,6}.  The distance matrix, from one boolean frontier gather
    per level, goes through `association_scheme`: a graph is distance-regular
    exactly when its distance classes form a scheme, and a pair on which the
    classes fail to close is raised as a witness.  The intersection array is
    read off the exact intersection numbers, b_i = p_{1,i+1}^i and
    c_i = p_{1,i-1}^i, and must be {k, k-1, k-lam, 1; 1, lam, k-1, k} with
    diameter 4.  The spectrum (P[j, 1], m_j) is then checked against
    {+-k, +-sqrt(k), 0} with multiplicities {1, k(n-1), 2(k-1)}.
    """
    if builtin is not None:
        if builtin != "tank-trap":
            raise ValueError(f"unknown builtin {builtin!r}")
        A, labels = _tank_trap_adjacency()
    else:
        if G is None or D is None:
            raise ValueError("need (G, D) or a builtin name")
        if N is not None:
            report = classify_difference_set(G, D, N)
            if report.kind != "relative":
                raise ValueError(f"classification gave {report.kind!r}, not relative")
        elems = G.elements()
        inD = np.zeros(len(elems), dtype=np.uint8)
        inD[[G.index_of(g) for g in D]] = 1
        B = inD[_differences(G, elems, elems)]
        A = np.block([[np.zeros_like(B), B], [B.T, np.zeros_like(B)]])
        labels = [f"(0,{x})" for x in elems] + [f"(1,{y})" for y in elems]

    from .schemes import association_scheme

    rep = association_scheme(_distance_labels(A))
    if not rep.closed:
        u, v, i = rep.witness
        raise ValueError(f"not distance-regular: witness pair ({u}, {v}) at distance {i}")
    diam = rep.classes
    if diam != 4:
        raise ValueError(f"diameter {diam}, not a 4-diameter cover of K_(k,k)")
    p = rep.intersection_numbers
    b = [int(p[1, i + 1, i]) for i in range(diam)]
    c = [int(p[1, i - 1, i]) for i in range(1, diam + 1)]
    k, lam = b[0], c[1]
    if b != [k, k - 1, k - lam, 1] or c != [1, lam, k - 1, k]:
        raise ValueError(f"intersection array {{{b};{c}}} is not of cover shape")
    if (k - lam) % lam:
        raise ValueError(f"fold count (k-lam)/lam = {(k - lam)}/{lam} is not integral")
    n_fold = (k - lam) // lam + 1

    spectrum = sorted(
        ((float(t), m) for t, m in zip(rep.P[:, 1], rep.multiplicities)), reverse=True
    )
    r = np.sqrt(k)
    expected = [(k, 1), (r, k * (n_fold - 1)), (0.0, 2 * (k - 1)), (-r, k * (n_fold - 1)), (-k, 1)]
    dev = max(abs(t - e) for (t, _), (e, _) in zip(spectrum, expected))
    if [m for _, m in spectrum] != [m for _, m in expected] or dev > 1e-8 * max(1.0, k):
        raise ValueError(f"spectrum deviates from the cover pattern by {dev:.3g}")

    return GraphWithSpectrum(A, spectrum, (b, c), diam, labels)


# ---------------------------------------------------------------------------
# linear codes
# ---------------------------------------------------------------------------


class LinearCode:
    """A linear code over a prime field GF(p) or over Z4.

    Generators are stored as rows; codewords are enumerated (and cached) on
    demand, refusing anything past 2^20 words.  Weights are Hamming for GF
    and Lee for Z4.
    """

    def __init__(self, generators, alphabet):
        if alphabet == "z4":
            self.kind = "z4"
            self.q = 4
        else:
            q = int(alphabet)
            if not isprime(q):
                raise ValueError(f"alphabet must be a prime or 'z4', got {alphabet!r}")
            self.kind = "gf"
            self.q = q
        gen = np.atleast_2d(np.asarray(generators, dtype=np.int64)) % self.q
        if gen.size == 0 or gen.shape[1] == 0:
            raise ValueError("generator matrix is empty")
        self.generators = gen
        self.n = gen.shape[1]
        self._codewords = None

    def size(self):
        """|C| = q^n / prod_k (q / gcd(q, k)) over the kernel generators k of
        the dual, which are independent: nothing is enumerated."""
        q, kernel = self.q, _kernel(self.generators, self.q)
        return q**self.n // math.prod(q // math.gcd(q, *k.tolist()) for k in kernel)

    def codewords(self):
        if self._codewords is None:
            if self.size() > _ENUM_CAP:
                raise ValueError("code too large to enumerate (> 2^20 words)")
            words = np.zeros((1, self.n), dtype=np.int64)
            for g in self.generators:
                stack = [(words + a * g) % self.q for a in range(self.q)]
                words = np.unique(np.concatenate(stack), axis=0)
            self._codewords = words
        return self._codewords

    def __len__(self):
        return len(self.codewords())

    def contains(self, word):
        word = tuple(int(x) % self.q for x in word)
        return word in {tuple(w) for w in self.codewords()}

    def _weights(self, words):
        """Hamming (GF) or Lee (Z4) weight of each row of words."""
        w = np.atleast_2d(words) % self.q
        return (w != 0).sum(axis=1) if self.kind == "gf" else np.minimum(w, 4 - w).sum(axis=1)

    def word_weight(self, word):
        return int(self._weights(word)[0])

    def min_distance(self):
        wts = self._weights(self.codewords())
        return int(wts[wts > 0].min()) if len(wts) > 1 else None

    def dual(self):
        kernel = _kernel(self.generators, self.q)
        if len(kernel) == 0:
            kernel = np.zeros((1, self.n), dtype=np.int64)
        return LinearCode(kernel, "z4" if self.kind == "z4" else self.q)

    def __repr__(self):
        tag = "Z4" if self.kind == "z4" else f"GF({self.q})"
        return f"LinearCode({tag}, n={self.n}, {len(self.generators)} generators)"


def dual_code(C):
    """All words with zero inner product against every codeword of C."""
    return C.dual()


def code_weights(C):
    """Exact weight distribution {weight: count} (Hamming for GF, Lee for Z4)."""
    return dict(sorted(Counter(int(w) for w in C._weights(C.codewords())).items()))


def _kernel(M, q):
    """Generators of {x : M x = 0 over Z_q}, q prime or 4, by Smith-style
    diagonalization.

    Each step takes the first unit entry left, in row-major order (over GF(p)
    any nonzero entry), else a 2 (Z4 only), and clears the pivot's row and
    column.  Row operations leave the kernel alone; column operations are
    tracked in Q so that solutions of the diagonal system map back via
    x = Q y.  A pivot d that is not a unit gives the generator q/d Q[:, k];
    leftover columns of Q are free.
    """
    A = np.array(M, dtype=np.int64) % q
    m, n = A.shape
    Q = np.eye(n, dtype=np.int64)
    diag = []
    for k in range(min(m, n)):
        rest = A[k:, k:]
        units = np.flatnonzero(np.gcd(rest, q) == 1)
        picks = units if units.size else np.flatnonzero(rest)
        if not picks.size:
            break
        i, j = np.add(np.unravel_index(picks[0], rest.shape), k)
        A[[k, i]] = A[[i, k]]
        A[:, [k, j]] = A[:, [j, k]]
        Q[:, [k, j]] = Q[:, [j, k]]
        if units.size:
            A[k] = A[k] * pow(int(A[k, k]), -1, q) % q
        d = int(A[k, k])
        rows, cols = A[:, k] // d, A[k] // d  # exact: a 2 pivot sees only 0 and 2
        rows[k] = cols[k] = 0
        A = (A - np.outer(rows, A[k])) % q
        Q = (Q - np.outer(Q[:, k], cols)) % q
        A[k, k + 1:] = 0  # what the column operations, kept in Q, do to A
        diag.append(d)
    basis = [q // d * Q[:, k] % q for k, d in enumerate(diag) if d != 1]
    return np.array(basis + list(Q[:, len(diag):].T), dtype=np.int64).reshape(-1, n)


def coset_spectrum(C):
    """Eigenvalues of the coset graph of C, one per dual codeword.

    GF(p): vertices are cosets of C, the connection set is every nonzero
    multiple of every coordinate vector, and a dual word of weight a yields
    (p-1)n - pa.  Z4: connection set {+-e_i}, Lee weight a yields 2(n-a).
    The closed forms are cross-checked against literal character sums over
    the connection set whenever the coset count is at most 4096.

    When the minimum distance of C is below 3, connection cosets collide
    and the result is the spectrum of the connection multiset (a multigraph
    on the cosets) rather than of a simple graph.
    """
    dual_words = C.dual().codewords()
    n, q = C.n, C.q
    wts = C._weights(dual_words)
    if C.kind == "gf":
        units, vals = range(1, q), (q - 1) * n - q * wts
    else:
        units, vals = (1, 3), 2 * (n - wts)
    if len(dual_words) <= 4096:
        roots = root_table(q)
        direct = sum(roots[a * dual_words % q].sum(axis=1) for a in units)
        dev = float(np.abs(direct - vals).max())
        if not dev < 1e-8 * len(units) * n:
            raise RuntimeError(f"character sums deviate from the closed form by {dev:.3g}")
    return sorted((int(v) for v in vals), reverse=True)


def _near_balance_profile(counts):
    """True when all but (at most) one alphabet letter occur equally often."""
    ordered = sorted(counts)
    return ordered[0] == ordered[-2] or ordered[1] == ordered[-1]


def code_to_lines(C, variant):
    """Map codewords through the alphabet character and read off lines.

    variant "gf-balanced": every codeword must use each nonzero letter
    equally often (automatic over GF(2)); distinct weights become distinct
    angles.  variant "gf-near-balanced": every codeword balanced up to one
    letter and the all-ones word in C, which collapses the image q-fold.
    variant "z4": i^codeword with 1 in C, collapsing 4-fold.  Projectively
    repeated images are merged (`distinct_lines`) before the LineSet is built.
    """
    words = C.codewords()
    n = C.n
    if variant in ("gf-balanced", "gf-near-balanced"):
        if C.kind != "gf":
            raise ValueError(f"variant {variant!r} needs a GF code")
        q = C.q
        for w in words:
            counts = np.bincount(w, minlength=q)
            if variant == "gf-balanced":
                if len(set(counts[1:].tolist())) > 1:
                    raise ValueError(f"codeword {w.tolist()} is not balanced")
            elif not _near_balance_profile(counts.tolist()):
                raise ValueError(f"codeword {w.tolist()} is not near-balanced")
        if variant == "gf-near-balanced" and not C.contains([1] * n):
            raise ValueError("the all-ones word is not in the code")
    elif variant == "z4":
        if C.kind != "z4":
            raise ValueError("variant 'z4' needs a Z4 code")
        if not C.contains([1] * n):
            raise ValueError("the all-ones word is not in the code")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    vecs = root_table(C.q)[words] / np.sqrt(n)
    vecs = vecs[distinct_lines(vecs)]
    if np.abs(vecs.imag).max() < 1e-12:
        return LineSet(n, vecs.real, field="real")
    return LineSet(n, vecs, field="complex")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def diffset_to_json(G, D, N=None, path=None):
    """{"orders": [...], "D": [[coords], ...], "N": ...?} as a JSON string or file."""
    doc = {"orders": list(G.cyclic_orders), "D": [list(g) for g in D]}
    if N is not None:
        doc["N"] = [list(g) for g in N]
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def diffset_from_json(source):
    """Inverse of diffset_to_json; accepts a JSON string or a file path, told apart
    as `lineset_from_json` tells them (`linesets._json_text`)."""
    doc = json.loads(_json_text(source))
    G = AbelianGroup(doc["orders"])
    D = [tuple(g) for g in doc["D"]]
    N = [tuple(g) for g in doc["N"]] if "N" in doc else None
    return G, D, N


def linear_code_to_csv(C, path):
    """Alphabet header line, then one generator row per line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z4"] if C.kind == "z4" else ["gf", C.q])
        for row in C.generators:
            writer.writerow(row.tolist())


def linear_code_from_csv(path):
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = [cell.strip().lower() for cell in rows[0]]
    if header[0] == "z4":
        alphabet = "z4"
    elif header[0] == "gf":
        alphabet = int(header[1])
    else:
        raise ValueError(f"unknown alphabet header {rows[0]!r}")
    generators = [[int(cell) for cell in row] for row in rows[1:]]
    if not generators:
        raise ValueError("no generator rows in CSV")
    return LinearCode(generators, alphabet)
