"""The tolerance policy: each entry, the decision it makes, and its readers.

A line set carries one tol, DEFAULT_TOL unless `LineSet`, a file or --tol
sets it.  Measured angles are compared at tol itself: one cluster, the zero
angle, a line twice (linesets); the welch floor, 1/d and 1/(d+1) (commands,
schemes, sics).  Every other threshold on tol is derived from it here; the
rest bound float error on exact data.  No numpy, so the front reads it too.

certify_tol(tol)  unit norm, real parts, orthonormal cells, unbiased angles, the
                  pair sums T_r and the relative bound (linesets); Gram-weighted
                  closure, G^2 = (n/d) G (schemes, commands); Krein parameters
                  >= 0 (commands).  1e-8 at DEFAULT_TOL
EIGEN_GAP         eigenspace gap, times max(1, eigenvalue scale) (schemes)
snap(x, tol)      a measured value as the one rational within tol of denominator
                  <= snap_denominator(tol), 22360 at DEFAULT_TOL: printed values
                  (front), relative-bound angles and alpha_snapped (linesets)
SIGN_SLACK        sign hypotheses at snapped angles (jacobi)
float_error(n)    n eps, the rounding of n-term float sums: rows further from unit
                  norm are normalised once (linesets); a lone Gram-weighted class
                  closes from the spectrum of G within it (schemes)
count_tol(n, tol) n certify_tol(tol), a relative certify_tol(tol) on a count of at
                  most n: the p_ij^k that a design's angles give are integers
                  (schemes), and PQ = nI holds (schemes, commands), within it
"""

import sys
from fractions import Fraction
from math import ceil, isqrt

DEFAULT_TOL = 1e-9
EIGEN_GAP = 1e-7
SIGN_SLACK = Fraction(1, 10**9)


def certify_tol(tol):
    return 10 * max(tol, 1e-12)


def float_error(n):
    return n * sys.float_info.epsilon


def count_tol(n, tol):
    return n * certify_tol(tol)


def snap_denominator(tol):
    """The largest Q (at least 1) with 1/Q^2 > 2 tol: two fractions of
    denominator at most Q differ by at least 1/Q^2, so one lies within tol."""
    return max(1, isqrt(ceil(1 / (2 * Fraction(tol))) - 1))


def snap(x, tol):
    """A Fraction or an int exactly; a float as the table says, else None."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    f = Fraction(float(x)).limit_denominator(snap_denominator(tol))
    return f if abs(float(f) - float(x)) <= tol else None
