"""Polynomial engine and bound evaluators: exact-rational oracles."""

import warnings
from fractions import Fraction

import pytest

from linekit.jacobi import (
    BoundQuery,
    JacobiFamily,
    absolute_bound,
    dim_harm,
    dim_hom,
    expand_in_basis,
    flat_eal_bound,
    jacobi_poly,
    poly_eval,
    real_mub_gate,
    relative_bound,
    welch_bound,
)

# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_dim_formulas():
    assert dim_hom(5, 0, 0) == 1
    for d in range(2, 12):
        assert dim_harm(d, 1, 1) == d * d - 1
        assert dim_hom(d, 2, 1) == d * d * (d + 1) // 2
    assert dim_harm(2, 2, 2) == 5  # 9 - 4
    assert dim_hom(6, 2, 1) == 126
    with pytest.raises(ValueError):
        dim_hom(3, -1, 0)
    with pytest.raises(ValueError):
        dim_harm(3, 0, -2)


# ---------------------------------------------------------------------------
# polynomial families
# ---------------------------------------------------------------------------


def test_low_degree_closed_forms():
    # g_0 = 1, g_1 = (d+1)(dx - 1), h_0 = d, h_1 = (d(d+2)/2)((d+1)x - 2)
    for d in [2, 3, 5, 8]:
        fam = JacobiFamily(d, max_k=4)
        assert jacobi_poly(fam, 0, "g") == [1]
        assert jacobi_poly(fam, 1, "g") == [-(d + 1), d * (d + 1)]
        assert jacobi_poly(fam, 0, "h") == [d]
        assert jacobi_poly(fam, 1, "h") == [
            -d * (d + 2),
            Fraction(d * (d + 2) * (d + 1), 2),
        ]


def test_g1_d3_coefficients():
    fam = JacobiFamily(3, max_k=2)
    assert jacobi_poly(fam, 1, "g") == [-4, 12]


def test_g2_value_at_one():
    fam = JacobiFamily(3, max_k=2)
    assert poly_eval(jacobi_poly(fam, 2, "g"), 1) == 27
    assert dim_harm(3, 2, 2) == 27


def test_h1_value_at_one():
    # h_1(1) = dim Harm(2,1) = d(d^2+d-2)/2... checked via the difference formula
    fam = JacobiFamily(2, max_k=2)
    assert poly_eval(jacobi_poly(fam, 1, "h"), 1) == 4
    assert dim_harm(2, 2, 1) == 4


def test_dimension_identities_all_cached():
    for d in [2, 3, 4, 7, 10]:
        fam = JacobiFamily(d, max_k=8)
        for k in range(9):
            assert poly_eval(jacobi_poly(fam, k, "g"), 1) == dim_harm(d, k, k)
            assert poly_eval(jacobi_poly(fam, k, "h"), 1) == dim_harm(d, k + 1, k)
        # partial sums hit the Hom dimensions
        for k in range(4):
            assert poly_eval(fam.p(k), 1) == dim_hom(d, k, k)
            assert poly_eval(fam.q(k), 1) == dim_hom(d, k + 1, k)


def test_beyond_cache_recomputes_with_warning():
    fam = JacobiFamily(4, max_k=3)
    deep = JacobiFamily(4, max_k=6)
    with pytest.warns(ResourceWarning):
        g5 = jacobi_poly(fam, 5, "g")
    assert g5 == jacobi_poly(deep, 5, "g")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jacobi_poly(fam, 3, "g")  # cached: no warning


def test_shallow_families_equal_the_depth_12_prefix():
    # bounds build a family only to the degree they need
    for d in range(2, 41):
        deep = JacobiFamily(d, max_k=12)
        for s in (0, 1, 2, 3, 5):
            fam = JacobiFamily(d, max_k=s)
            assert fam.g_coeffs == deep.g_coeffs[: s + 1]
            assert fam.h_coeffs == deep.h_coeffs[: s + 1]


def test_h_family_is_built_and_checked_on_first_read(monkeypatch):
    import linekit.jacobi as jac

    fam = JacobiFamily(5, max_k=6)
    assert fam._h_coeffs is None  # the g family alone at construction
    assert fam.h_coeffs == [jac._h_explicit(5, k) for k in range(7)]
    assert fam.h_coeffs is fam.h_coeffs
    # a wrong h recurrence is caught when h is read, a wrong g one at construction
    monkeypatch.setattr(jac, "_h_recurrence", lambda d, kmax: [[Fraction(d + 1)]] * (kmax + 1))
    fam = JacobiFamily(5, max_k=6)
    assert jacobi_poly(fam, 3, "g") == jac._g_explicit(5, 3)
    with pytest.raises(RuntimeError, match="h_0 explicit/recurrence mismatch"):
        jacobi_poly(fam, 3, "h")
    monkeypatch.setattr(jac, "_g_recurrence", lambda d, kmax: [[Fraction(2)]] * (kmax + 1))
    with pytest.raises(RuntimeError, match="g_0 explicit/recurrence mismatch"):
        JacobiFamily(5, max_k=6)


def test_a_wrong_harmonic_dimension_raises(monkeypatch):
    import linekit.jacobi as jac

    monkeypatch.setattr(jac, "dim_harm", lambda d, k, l: dim_harm(d, k, l) + (k == 2))
    with pytest.raises(RuntimeError, match=r"g_2\(1\) != dim Harm\(2,2\)"):
        JacobiFamily(4, max_k=3)
    fam = JacobiFamily(4, max_k=1)
    with pytest.raises(RuntimeError, match=r"h_1\(1\) != dim Harm\(2,1\)"):
        fam.h_coeffs


def test_relative_bound_family_depth_is_the_degree_of_F(monkeypatch):
    import linekit.jacobi as jac

    # F(x) = x (x - 1/4), the annihilator of the MUB angles in C^4
    c = expand_in_basis(JacobiFamily(4, max_k=2), [0, Fraction(-1, 4), 1], kind="g")
    depths = []
    real = jac.JacobiFamily
    monkeypatch.setattr(jac, "JacobiFamily",
                        lambda d, max_k: depths.append(max_k) or real(d, max_k))
    out = relative_bound(BoundQuery(d=4, angles=[0, Fraction(1, 4)], mode="sdist-g", F_coeffs=c))
    assert depths == [2] and out["bound"] == 20


def test_relative_bound_takes_a_family_of_its_dimension_and_depth():
    c = expand_in_basis(JacobiFamily(4, max_k=2), [0, Fraction(-1, 4), 1], kind="g")
    query = BoundQuery(d=4, angles=[0, Fraction(1, 4)], mode="sdist-g", F_coeffs=c)
    assert relative_bound(query, JacobiFamily(4, max_k=5)) == relative_bound(query)
    for fam in (JacobiFamily(3, max_k=2), JacobiFamily(4, max_k=1)):
        with pytest.raises(ValueError, match="dimension 4 and depth 2"):
            relative_bound(query, fam)


def test_family_validation():
    with pytest.raises(ValueError):
        JacobiFamily(1)
    with pytest.raises(ValueError):
        jacobi_poly(JacobiFamily(3), 2, kind="p")


# ---------------------------------------------------------------------------
# basis expansion
# ---------------------------------------------------------------------------


def test_expand_constant_and_linear():
    fam = JacobiFamily(4)
    assert expand_in_basis(fam, [1], "g") == [1]
    alpha = Fraction(1, 5)
    c = expand_in_basis(fam, [-alpha, 1], "g")
    assert c == [Fraction(1, 4) - alpha, Fraction(1, 4 * 5)]


def test_expand_mub_annihilator():
    # x(x - 1/d) in the g basis, exact closed forms for all three coefficients
    for d in range(2, 8):
        fam = JacobiFamily(d)
        c = expand_in_basis(fam, [0, Fraction(-1, d), 1], "g")
        assert c[0] == Fraction(d - 1, d * d * (d + 1))
        assert c[1] == Fraction(3 * d - 2, d * d * (d + 1) * (d + 2))
        assert c[2] == Fraction(4, d * (d + 1) * (d + 2) * (d + 3))


def test_expand_roundtrip():
    fam = JacobiFamily(3, max_k=6)
    poly = [Fraction(2, 7), Fraction(-1, 3), 0, Fraction(5), Fraction(1, 11)]
    for kind in ("g", "h"):
        c = expand_in_basis(fam, poly, kind)
        synth = [Fraction(0)]
        for r, cr in enumerate(c):
            basis = jacobi_poly(fam, r, kind)
            synth = [
                a + cr * b
                for a, b in zip(
                    synth + [Fraction(0)] * (len(basis) - len(synth)),
                    basis + [Fraction(0)] * max(0, len(synth) - len(basis)),
                )
            ]
        assert synth[: len(poly)] == list(poly)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_absolute_bound():
    for d in range(2, 10):
        assert absolute_bound(d, 1) == d * d
        assert absolute_bound(d, 1, zero_in_A=True) == d
    assert absolute_bound(6, 2, zero_in_A=True) == 126
    with pytest.raises(ValueError):
        absolute_bound(4, 0)


def test_relative_bound_equiangular():
    # F = x - alpha: |X| <= d(1-alpha)/(1-d*alpha) when alpha < 1/d
    d, alpha = 7, Fraction(1, 10)
    fam = JacobiFamily(d)
    q = BoundQuery(d=d, angles=[alpha], mode="sdist-g",
                   F_coeffs=expand_in_basis(fam, [-alpha, 1], "g"))
    out = relative_bound(q)
    assert out["bound"] == Fraction(d * (1 - alpha), 1 - d * alpha) == 21
    assert all(out["hypotheses_ok"].values())


def test_relative_bound_maximal_equiangular():
    # alpha = 1/(d+1) gives exactly d^2
    for d in range(2, 51):
        fam = JacobiFamily(d, max_k=1)
        alpha = Fraction(1, d + 1)
        q = BoundQuery(d=d, angles=[alpha], mode="sdist-g",
                       F_coeffs=expand_in_basis(fam, [-alpha, 1], "g"))
        assert relative_bound(q)["bound"] == d * d


def test_relative_bound_mub_annihilator():
    # F = x(x - 1/d) on angles {0, 1/d}: upper bound d(d+1), all hypotheses hold
    for d in [2, 3, 5]:
        fam = JacobiFamily(d)
        c = expand_in_basis(fam, [0, Fraction(-1, d), 1], "g")
        q = BoundQuery(d=d, angles=[0, Fraction(1, d)], mode="sdist-g", F_coeffs=c)
        out = relative_bound(q)
        assert out["bound"] == d * (d + 1)
        assert all(out["hypotheses_ok"].values())


def test_relative_bound_design_modes():
    # the same annihilator read as a 2-design lower bound: also d(d+1)
    d = 4
    fam = JacobiFamily(d)
    c = expand_in_basis(fam, [0, Fraction(-1, d), 1], "g")
    q = BoundQuery(d=d, angles=[0, Fraction(1, d)], mode="design-g", F_coeffs=c, t=2)
    out = relative_bound(q)
    assert out["bound"] == d * (d + 1)
    assert all(out["hypotheses_ok"].values())
    # without the t=2 exemption the positive c_1, c_2 flags must report failure
    q_strict = BoundQuery(d=d, angles=[0, Fraction(1, d)], mode="design-g", F_coeffs=c)
    bad = relative_bound(q_strict)["hypotheses_ok"]
    assert not bad["c_1 <= 0"] and not bad["c_2 <= 0"]


def test_relative_bound_h_mode_with_zero_angle():
    # degree set {0, 2/(d+2)}: F = x - 2/(d+2) in the h basis gives dim Hom(2,1)
    for d in [2, 4, 6]:
        fam = JacobiFamily(d)
        alpha = Fraction(2, d + 2)
        c = expand_in_basis(fam, [-alpha, 1], "h")
        assert c[0] == c[1] == Fraction(2, d * (d + 1) * (d + 2))
        q = BoundQuery(d=d, angles=[0, alpha], mode="sdist-h", F_coeffs=c)
        out = relative_bound(q)
        assert out["bound"] == dim_hom(d, 2, 1)
        assert all(out["hypotheses_ok"].values())
    assert dim_hom(6, 2, 1) == 126


def test_relative_bound_reports_failed_hypotheses():
    # angle above 1/d: the equiangular route needs F(a) <= 0 to fail at 1
    d = 3
    fam = JacobiFamily(d)
    alpha = Fraction(1, 2)  # > 1/3, bound denominator flips sign
    q = BoundQuery(d=d, angles=[Fraction(2, 3)], mode="sdist-g",
                   F_coeffs=expand_in_basis(fam, [-alpha, 1], "g"))
    out = relative_bound(q)
    assert not all(out["hypotheses_ok"].values())


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(d=3, angles=[Fraction(1, 3), Fraction(1, 3)], mode="sdist-g", F_coeffs=[1])
    with pytest.raises(ValueError):
        BoundQuery(d=3, angles=[1], mode="sdist-g", F_coeffs=[1])
    with pytest.raises(ValueError):
        BoundQuery(d=3, angles=[], mode="nope", F_coeffs=[1])
    with pytest.raises(ValueError):
        relative_bound(BoundQuery(d=3, angles=[], mode="sdist-g", F_coeffs=[0, 1]))


def test_welch_bound():
    for d in range(2, 11):
        assert welch_bound(d, d * d) == Fraction(1, d + 1)
    assert welch_bound(2, 4) == Fraction(1, 3)
    assert welch_bound(4, 4) == 0
    with pytest.raises(ValueError):
        welch_bound(3, 1)


def test_flat_eal_bound():
    assert flat_eal_bound(3) == 7
    assert flat_eal_bound(4) == 13
    assert flat_eal_bound(1) == 1


def test_real_mub_gate():
    assert real_mub_gate(12)["bound"] == 3      # 4s with s = 3 odd
    assert real_mub_gate(8)["bound"] == 2       # s = 2: even, not a square
    assert real_mub_gate(16)["bound"] == 9      # s = 4: even square, generic d/2+1
    assert real_mub_gate(4)["bound"] == 3
    assert real_mub_gate(2) == {
        "bound": 2, "pair_possible": True, "reason": "generic bound d/2 + 1",
    }
    assert not real_mub_gate(10)["pair_possible"]
    assert not real_mub_gate(7)["pair_possible"]
    assert real_mub_gate(20)["pair_possible"]
