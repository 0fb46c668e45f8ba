"""Exact finite algebra: GF(p^m), the Galois ring GR(4^m), abelian groups.

Field and ring elements are little-endian coefficient tuples (length m) over
GF(p) or Z4; all arithmetic is exact integer arithmetic.  Contexts are
immutable after construction and every operation is a pure function, so they
can be shared freely across threads.

Constructions that touch every element use integer index tables instead:
field element n is from_int(n), Teichmuller element k > 0 is xi^(k-1), and
products come from discrete logs, which add mod q - 1.  Both traces are linear
(over GF(p), and over Z4 for GR(4^m)), so tr(sum c_i x^i) = sum c_i tr(x^i),
with tr(x^i) taken once per basis monomial from the Frobenius definition.
The integer number theory (isprime, factorint, jacobi_symbol) lives here too.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce
from math import lcm

import numpy as np

# ---------------------------------------------------------------------------
# integer number theory
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def isprime(n):
    """Miller-Rabin to the bases 2..41: exact for n < 3.3e24, and a strong
    probable-prime test to 13 bases above that."""
    n = int(n)
    if n < 2 or any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n):
    """{prime: exponent} with the product of p**e equal to n, for n >= 1, by
    trial division that stops once the cofactor is prime."""
    n = int(n)
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out, p = {}, 2
    while n > 1 and not isprime(n):
        while n % p:
            p += 1
        out[p] = out.get(p, 0) + 1
        n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def jacobi_symbol(a, n):
    """The Jacobi symbol (a|n) for odd n >= 1, by quadratic reciprocity."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"the Jacobi symbol needs an odd n >= 1, got {n}")
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# polynomial helpers (little-endian coefficient tuples over Z_modulus)
# ---------------------------------------------------------------------------


def _ptrim(c):
    """Drop trailing zero coefficients (the zero polynomial becomes ())."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b, q):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _ptrim((x + y) % q for x, y in zip(a, b))


def _pmul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return _ptrim(out)


def _pdivmod(a, b, q):
    """Divide a by b over Z_q. b must be monic (works for q = 4 as well)."""
    b = _ptrim(b)
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 1)
    db = len(b) - 1
    while len(_ptrim(rem)) - 1 >= db and _ptrim(rem):
        rem = list(_ptrim(rem))
        shift = len(rem) - 1 - db
        coef = rem[-1] % q
        quot[shift] = coef
        for i, y in enumerate(b):
            rem[shift + i] = (rem[shift + i] - coef * y) % q
    return _ptrim(quot), _ptrim(rem)


def _pmod(a, b, q):
    return _pdivmod(a, b, q)[1]


def _is_irreducible(poly, p):
    """Trial division by monic polynomials of degree <= deg/2 over GF(p)."""
    poly = _ptrim(poly)
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tail + (1,)
            if not _pmod(poly, divisor, p):
                return False
    return True


# ---------------------------------------------------------------------------
# Galois fields
# ---------------------------------------------------------------------------


class _TupleRing:
    """Arithmetic shared by GF(p^m) and GR(4^m): little-endian coefficient
    tuples of length m over Z_char, char = p or 4."""

    def _pad(self, c):
        c = _ptrim(c)
        if len(c) > self.m:
            raise ValueError(f"{len(c)} coefficients do not fit in length {self.m}")
        return tuple(c) + (0,) * (self.m - len(c))

    def element(self, coeffs):
        c = tuple(int(v) % self.char for v in coeffs)
        if len(c) != self.m:
            raise ValueError(f"element needs {self.m} coefficients, got {len(c)}")
        return c

    def add(self, a, b):
        return tuple((x + y) % self.char for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.char for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.char for x in a)

    def pow(self, a, n):
        """a^n by repeated squaring; n < 0 needs inv, so fields only."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        out, base = self.one, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out


def _digits(n, p, m):
    """The m base-p digits of n, little-endian."""
    return tuple(n // p**i % p for i in range(m))


class GaloisField(_TupleRing):
    """GF(p^m) with elements as little-endian coefficient tuples of length m.

    Arithmetic reduces modulo the (monic, irreducible) defining polynomial.
    The default modulus is primitive, so the coset of x generates the
    multiplicative group.  mul_table and trace_table hold the product and
    the trace of elements by their index n, the element from_int(n).
    """

    def __init__(self, p, m, modulus):
        self.p = self.char = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # length m+1, little-endian, monic
        self.zero = (0,) * m
        self.one = self._pad((1,)) if m >= 1 else ()

    # -- element encodings ---------------------------------------------------

    def from_int(self, n):
        """Base-p digits of n, little-endian."""
        if not 0 <= n < self.q:
            raise ValueError(f"integer {n} outside [0, {self.q})")
        return _digits(n, self.p, self.m)

    def to_int(self, x):
        return sum(c * self.p**i for i, c in enumerate(x))

    def elements(self):
        return [self.from_int(n) for n in range(self.q)]

    # -- arithmetic ----------------------------------------------------------

    def mul(self, a, b):
        return self._pad(_pmod(_pmul(a, b, self.p), self.modulus, self.p))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)  # a^(q-1) = 1

    def frobenius(self, a):
        return self.pow(a, self.p)

    def x(self):
        """The coset of x (a generator of the multiplicative group for the
        default, primitive modulus)."""
        if self.m == 1:
            # x = root of the degree-1 modulus: x - c0 = 0
            return ((-self.modulus[0]) % self.p,)
        return self._pad((0, 1))

    @cached_property
    def trace_basis(self):
        """tr(x^i) for i < m, each from the definition: the relative trace to
        GF(p), x^i + (x^i)^p + ... + (x^i)^(p^(m-1))."""
        traces = [self.relative_trace(self._pad((0,) * i + (1,)), 1) for i in range(self.m)]
        if any(any(t[1:]) for t in traces):
            raise RuntimeError("trace landed outside GF(p)")
        return tuple(t[0] for t in traces)

    def trace(self, a):
        """Absolute trace to GF(p) as an int; linear, so O(m) from trace_basis."""
        return sum(c * t for c, t in zip(a, self.trace_basis)) % self.p

    @cached_property
    def trace_table(self):
        """tr(from_int(n)) at n, as an int64 array."""
        digits = np.arange(self.q)[:, None] // self.p ** np.arange(self.m) % self.p
        return digits @ np.array(self.trace_basis) % self.p

    @cached_property
    def mul_table(self):
        """Index of from_int(a) * from_int(b) at [a, b], from discrete logs to
        the first primitive element in index order (x under the default modulus)."""
        for n in range(1, self.q):
            g = cur = self.from_int(n)
            powers = [1]
            while cur != self.one:
                powers.append(self.to_int(cur))
                cur = self.mul(cur, g)
            if len(powers) == self.q - 1:
                break
        antilog = np.array(powers, dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        log[antilog] = np.arange(self.q - 1)
        table = antilog[(log[:, None] + log) % (self.q - 1)]
        table[0, :] = table[:, 0] = 0
        return table

    def relative_trace(self, a, e):
        """Trace to the subfield GF(p^e): sum of a^(p^(e*j)).  e must divide m."""
        if self.m % e:
            raise ValueError(f"GF({self.p}^{e}) is not a subfield of GF({self.p}^{self.m})")
        acc, cur = self.zero, a
        for _ in range(self.m // e):
            acc = self.add(acc, cur)
            cur = self.pow(cur, self.p**e)
        return acc

    def label(self):
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"GF({self.p}^{self.m})/{coeffs}"

    def __repr__(self):
        return f"GaloisField({self.label()})"


def _is_primitive(modulus, p, m):
    """Does the coset of x generate the multiplicative group mod `modulus`?"""
    order = p**m - 1
    F = GaloisField(p, m, modulus)
    x = F.x()
    if F.pow(x, order) != F.one:
        return False
    return all(F.pow(x, order // r) != F.one for r in factorint(order))


def gf_create(p, m, modulus=None):
    """Build GF(p^m), once per (p, m, modulus): later calls return the same field.

    The default modulus is the monic primitive polynomial of degree m whose
    base-p integer encoding sum(c_i p^i) is smallest; a user-supplied modulus
    must be monic of degree m and irreducible.
    """
    return _gf_create(int(p), int(m), None if modulus is None else tuple(int(c) for c in modulus))


@cache
def _gf_create(p, m, modulus):
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")

    if modulus is not None:
        modulus = _ptrim(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        return GaloisField(p, m, modulus)

    if m == 1:
        # x - g for the smallest primitive root g of GF(p)
        for g in range(1, p):
            cand = ((-g) % p, 1)
            if _is_primitive(cand, p, 1):
                return GaloisField(p, 1, cand)
        raise AssertionError(f"no primitive root mod {p}")

    for tail in range(p**m):
        # x of order p^m - 1 needs a field, so a primitive modulus is irreducible
        cand = _digits(tail, p, m) + (1,)
        if _is_primitive(cand, p, m):
            return GaloisField(p, m, cand)
    raise AssertionError(f"no primitive polynomial of degree {m} over GF({p})")


def gf_trace(F, x):
    """Absolute trace GF(p^m) -> GF(p) as an integer in [0, p)."""
    return F.trace(x)


# ---------------------------------------------------------------------------
# Galois rings GR(4^m)
# ---------------------------------------------------------------------------


class GaloisRing(_TupleRing):
    """GR(4^m) = Z4[x]/(h) for the Hensel lift h of a primitive GF(2^m) modulus.

    Elements are little-endian coefficient tuples of length m over Z4.  The
    Teichmuller set T = {0, 1, xi, ..., xi^(2^m - 2)} is the unique system of
    coset representatives mod 2 that is closed under multiplication; every
    element decomposes uniquely as t0 + 2*t1 with t0, t1 in T.
    teichmuller_table and teichmuller_trace hold products and traces of T by
    list index.
    """

    def __init__(self, m, lift_modulus, base_field):
        self.char = 4
        self.m = m
        self.size = 4**m
        self.lift_modulus = lift_modulus  # length m+1 over Z4, monic
        self.base_field = base_field  # GF(2^m) whose modulus was lifted
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self.teichmuller = self._build_teichmuller()
        # residue-mod-2 tuple -> Teichmuller representative
        self._teich_by_residue = {tuple(c % 2 for c in t): t for t in self.teichmuller}
        if len(self._teich_by_residue) != 2**m:
            raise RuntimeError("Teichmuller set is not a system of residues mod 2")

    def _build_teichmuller(self):
        xi = self._pad((0, 1)) if self.m > 1 else (1,)
        out = [self.zero, self.one]
        while len(out) < 2**self.m:
            out.append(self.mul(out[-1], xi))
        return out

    def elements(self):
        return [t for t in itertools.product(range(4), repeat=self.m)]

    def mul(self, a, b):
        return self._pad(_pmod(_pmul(a, b, 4), self.lift_modulus, 4))

    def teichmuller_decompose(self, z):
        """z = t0 + 2*t1 with t0, t1 Teichmuller; returns (t0, t1)."""
        t0 = self._teich_by_residue[tuple(c % 2 for c in z)]
        w = self.sub(z, t0)
        if any(c % 2 for c in w):
            raise RuntimeError(f"{z} minus its Teichmuller residue is not divisible by 2")
        t1 = self._teich_by_residue[tuple((c // 2) % 2 for c in w)]
        return t0, t1

    @cached_property
    def trace_basis(self):
        """tr(x^i) for i < m, from the definition: x^i = xi^i is Teichmuller,
        so its trace is the sum of xi^(i 2^j) over j < m."""
        T, n = self.teichmuller, 2**self.m - 1
        out = []
        for i in range(self.m):
            acc = reduce(self.add, (T[1 + i * 2**j % n] for j in range(self.m)))
            if any(acc[1:]):
                raise RuntimeError("ring trace landed outside Z4")
            out.append(acc[0])
        return tuple(out)

    def trace(self, z):
        """Galois-ring trace into Z4 as an int; Z4-linear, so O(m) from trace_basis."""
        return sum(c * t for c, t in zip(z, self.trace_basis)) % 4

    @cached_property
    def teichmuller_trace(self):
        """tr(T[k]) at k, as an int64 array."""
        return np.array(self.teichmuller, dtype=np.int64) @ np.array(self.trace_basis) % 4

    @cached_property
    def teichmuller_table(self):
        """Index of T[a] * T[b] at [a, b]: T[k + 1] = xi^k, so logs add mod 2^m - 1."""
        k = np.arange(2**self.m)
        table = (k[:, None] + k - 2) % (2**self.m - 1) + 1
        table[0, :] = table[:, 0] = 0
        return table

    def label(self):
        coeffs = ",".join(str(c) for c in self.lift_modulus)
        return f"GR(4^{self.m})/{coeffs}"

    def __repr__(self):
        return f"GaloisRing({self.label()})"


def _hensel_lift(f2, m):
    """Lift a monic degree-m factor f of x^(2^m -1) - 1 from GF(2) to Z4.

    Graeffe's method: with f = e + o split into its even- and odd-degree
    terms, the lift h satisfies h(x^2) = +-(e^2 - o^2) over Z4, the sign
    making h monic.  The result is certified by exact divisibility over Z4.
    """
    e = tuple(c * (1 - i % 2) for i, c in enumerate(f2))
    o = tuple(c * (i % 2) for i, c in enumerate(f2))
    h = _padd(_pmul(e, e, 4), tuple(-c % 4 for c in _pmul(o, o, 4)), 4)[::2]
    f4 = tuple(c * h[-1] % 4 for c in h)  # h[-1] is 1 or 3 = -1
    # certificate: the lift divides x^(2^m - 1) - 1 over Z4
    _, rem4 = _pdivmod((3,) + (0,) * (2**m - 2) + (1,), f4, 4)
    if rem4:
        raise RuntimeError("Hensel lift failed the divisibility certificate")
    return f4


def gr_create(m):
    """Build GR(4^m) by Hensel-lifting the default GF(2^m) modulus."""
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    F2 = gf_create(2, m)
    return GaloisRing(m, _hensel_lift(F2.modulus, m), F2)


def gr_trace(R, z):
    """Galois-ring trace GR(4^m) -> Z4 as an integer in [0, 4)."""
    return R.trace(z)


# ---------------------------------------------------------------------------
# finite abelian groups and their characters
# ---------------------------------------------------------------------------


def root_table(N, w=None):
    """The N-th roots of unity by exponent: k -> e^(2 pi i k / N), from one
    np.exp call.  With a primitive root w, k -> w**k instead, each power taken
    on its own (the phase bases of mubs are pinned to that operation)."""
    if w is None:
        return np.exp(2j * np.pi * np.arange(N) / N)
    return np.array([w**k for k in range(N)], dtype=complex)


class AbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_r}, elements as tuples.

    Element order is lexicographic in the cyclic coordinates; characters and
    any derived line sets share this order.  Characters are labelled by the
    elements too: chi_a(g) = roots[E] with E = pairing(a, g), an integer mod
    the exponent L = lcm(n_1, ..., n_r) and roots = root_table(L), so every
    character value is an index into one table.
    """

    def __init__(self, cyclic_orders):
        orders = tuple(int(n) for n in cyclic_orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"invalid cyclic orders {cyclic_orders}")
        self.cyclic_orders = orders
        self.order = reduce(lambda a, b: a * b, orders, 1)
        self.exponent = lcm(*orders)
        self.identity = (0,) * len(orders)

    def elements(self):
        return list(itertools.product(*(range(n) for n in self.cyclic_orders)))

    def index_of(self, g):
        idx = 0
        for coord, n in zip(g, self.cyclic_orders):
            idx = idx * n + (coord % n)
        return idx

    def op(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_orders))

    def inverse(self, a):
        return tuple(-x % n for x, n in zip(a, self.cyclic_orders))

    def pairing(self, A, B):
        """E[i, j] = sum_c A[i, c] B[j, c] (L / n_c) mod L for rows of labels A
        and of elements B: chi_A[i](B[j]) = roots[E[i, j]], exactly."""
        n = np.array(self.cyclic_orders, dtype=np.int64)
        A = np.asarray(A, dtype=np.int64).reshape(-1, len(n)) % n
        B = np.asarray(B, dtype=np.int64).reshape(-1, len(n)) % n
        return A * (self.exponent // n) @ B.T % self.exponent

    @cached_property
    def roots(self):
        """root_table(L) for the exponent L: the value of every character."""
        return root_table(self.exponent)

    def character_trivial_on(self, a, subset):
        """Exact test: chi_a(g) = 1 for all g in subset (integer arithmetic)."""
        return not self.pairing(a, list(subset)).any()

    def subgroup_generated_by(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.op(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return sorted(seen)

    def __repr__(self):
        return f"AbelianGroup{self.cyclic_orders}"


def group_characters(G):
    """Full character table as a |G| x |G| complex matrix.

    Row a, column g holds chi_a(g); rows are pairwise orthogonal and the row
    of the identity label is all-ones.
    """
    X = G.elements()
    return G.roots[G.pairing(X, X)]


class GroupAlgebraElement:
    """Integer formal sum over a finite abelian group (a sparse multiset)."""

    def __init__(self, G, coefficients=None):
        self.G = G
        self.coefficients = {}
        if coefficients:
            for g, c in coefficients.items():
                c = int(c)
                if c:
                    self.coefficients[tuple(g)] = c

    @classmethod
    def from_subset(cls, G, subset):
        out = cls(G)
        for g in subset:
            out.coefficients[tuple(g)] = out.coefficients.get(tuple(g), 0) + 1
        return out

    def __add__(self, other):
        out = dict(self.coefficients)
        for g, c in other.coefficients.items():
            out[g] = out.get(g, 0) + c
        return GroupAlgebraElement(self.G, out)

    def __mul__(self, other):
        """Convolution product: (sum a_g g)(sum b_h h) = sum a_g b_h (g+h)."""
        out = {}
        for g, cg in self.coefficients.items():
            for h, ch in other.coefficients.items():
                k = self.G.op(g, h)
                out[k] = out.get(k, 0) + cg * ch
        return GroupAlgebraElement(self.G, out)

    def inverse_support(self):
        """The image under g -> -g (sum of inverses)."""
        return GroupAlgebraElement(
            self.G, {self.G.inverse(g): c for g, c in self.coefficients.items()}
        )

    def character_sum(self, a):
        """chi_a evaluated on this element (complex)."""
        support = list(self.coefficients)
        coeffs = np.array([self.coefficients[g] for g in support])
        return complex(coeffs @ self.G.roots[self.G.pairing(a, support)[0]])

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.G.cyclic_orders == other.G.cyclic_orders
            and self.coefficients == other.coefficients
        )

    def __getitem__(self, g):
        return self.coefficients.get(tuple(g), 0)

    def __repr__(self):
        terms = sorted(self.coefficients.items())
        return "GroupAlgebraElement(" + " + ".join(f"{c}*{g}" for g, c in terms) + ")"
