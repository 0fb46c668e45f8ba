"""Line-set model: degree sets, design strength, certification, doubling."""

from fractions import Fraction

import numpy as np
import pytest

from linekit.jacobi import JacobiFamily
from linekit.linesets import (
    LineSet,
    canonical_dephase,
    design_strength,
    gram_degree_set,
    lineset_from_json,
    lineset_to_json,
    phase_align_for_doubling,
    real_doubling,
    verify_equiangular,
    verify_mub,
)

ISQ2 = 1 / np.sqrt(2)


def standard_basis(d):
    return LineSet(d, np.eye(d))


def mub_triple_c2(labels=True):
    """I, the Fourier basis, and the circular basis: 3 MUBs in C^2."""
    V = np.array(
        [
            [1, 0],
            [0, 1],
            [ISQ2, ISQ2],
            [ISQ2, -ISQ2],
            [ISQ2, 1j * ISQ2],
            [ISQ2, -1j * ISQ2],
        ],
        dtype=complex,
    )
    return LineSet(2, V, basis_labels=[0, 0, 1, 1, 2, 2] if labels else None)


def singer_7_lines():
    """Character restrictions of Z7 to {1,2,4}: 7 equiangular lines in C^3."""
    w = np.exp(2j * np.pi / 7)
    V = np.array([[w ** (a * j) for j in (1, 2, 4)] for a in range(7)]) / np.sqrt(3)
    return LineSet(3, V)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_lineset_validation():
    with pytest.raises(ValueError):
        LineSet(2, [[1, 1]])  # not unit norm
    with pytest.raises(ValueError):
        LineSet(2, np.eye(2), basis_labels=[0])  # wrong label count
    with pytest.raises(ValueError):
        LineSet(2, np.eye(2), basis_labels=[0, 1])  # cells of size 1, not 2
    with pytest.raises(ValueError):
        LineSet(2, np.array([[ISQ2, 1j * ISQ2]]), field="real")
    X = standard_basis(3)
    assert X.n == 3 and X.dim == 3


def test_json_roundtrip():
    X = mub_triple_c2()
    Y = lineset_from_json(lineset_to_json(X))
    assert Y.dim == X.dim and Y.field == X.field and Y.tol == X.tol
    assert Y.basis_labels == X.basis_labels
    assert np.allclose(Y.vectors, X.vectors)


def test_json_file_roundtrip(tmp_path):
    X = singer_7_lines()
    path = tmp_path / "lines.json"
    lineset_to_json(X, path)
    Y = lineset_from_json(str(path))
    assert Y.n == 7
    assert np.allclose(Y.vectors, X.vectors)


# ---------------------------------------------------------------------------
# degree sets
# ---------------------------------------------------------------------------


def test_degree_set_standard_basis():
    rep = gram_degree_set(standard_basis(3))
    assert rep.s == 1
    assert rep.angles == [0.0]
    assert rep.multiplicities == [3]
    assert rep.zero_present


def test_degree_set_mub_triple():
    rep = gram_degree_set(mub_triple_c2())
    assert rep.s == 2
    assert abs(rep.angles[0]) < 1e-12 and abs(rep.angles[1] - 0.5) < 1e-12
    # 3 orthogonal pairs inside bases, 12 cross pairs
    assert rep.multiplicities == [3, 12]


def test_degree_set_duplicate_error():
    V = np.array([[1, 0], [1e-7, np.sqrt(1 - 1e-14)], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="span the same line"):
        gram_degree_set(LineSet(2, V))


def test_degree_set_single_line():
    rep = gram_degree_set(LineSet(2, [[1, 0]]))
    assert rep.s == 0 and rep.angles == []


def test_degree_set_phase_invariant():
    X = singer_7_lines()
    rng = np.random.default_rng(3)
    phases = np.exp(2j * np.pi * rng.random(7))
    Y = LineSet(3, X.vectors * phases[:, None])
    a, b = gram_degree_set(X), gram_degree_set(Y)
    assert a.s == b.s and np.allclose(a.angles, b.angles)
    assert a.multiplicities == b.multiplicities


def noisy_mub_triple():
    """mub_triple_c2 moved by 1e-11 noise: clusters of nonzero width below tol."""
    rng = np.random.default_rng(5)
    V = mub_triple_c2().vectors + 1e-11 * rng.normal(size=(6, 2))
    return LineSet(2, V / np.linalg.norm(V, axis=1, keepdims=True))


@pytest.mark.parametrize(
    "make", [lambda: standard_basis(3), mub_triple_c2, singer_7_lines, noisy_mub_triple]
)
def test_each_span_contains_its_angle(make):
    X = make()
    rep = gram_degree_set(X)
    assert len(rep.spans) == rep.s
    for (lo, hi), a in zip(rep.spans, rep.angles):
        # the angle is a mean, so it may sit an ulp or so outside its extremes
        assert lo - 1e-15 <= a <= hi + 1e-15
    assert all(nxt[0] - prev[1] > X.tol for prev, nxt in zip(rep.spans, rep.spans[1:]))
    if make is noisy_mub_triple:
        assert all(hi > lo for lo, hi in rep.spans)


def test_vectors_are_a_read_only_copy():
    V = np.array(mub_triple_c2().vectors)
    X = LineSet(2, V)
    rep = gram_degree_set(X)
    with pytest.raises(ValueError, match="read-only"):
        X.vectors[0, 0] = 0
    V[1] = V[0]  # the caller's array now holds a repeated line; X does not
    assert np.array_equal(X.vectors, mub_triple_c2().vectors)
    assert gram_degree_set(X) is rep and rep.multiplicities == [3, 12]
    with pytest.raises(ValueError, match="span the same line"):
        gram_degree_set(LineSet(2, V))


# ---------------------------------------------------------------------------
# design strength
# ---------------------------------------------------------------------------


def test_single_line_strength_zero():
    rep = design_strength(LineSet(2, [[1, 0]]))
    assert rep.strength == 0
    assert abs(rep.T[0] - 3) < 1e-12  # g_1(1) = d^2 - 1 = 3 over one line


def test_orthonormal_basis_is_1_design():
    for d in [2, 3, 5]:
        rep = design_strength(standard_basis(d))
        assert rep.strength == 1
        assert abs(rep.T[0]) < 1e-12
        assert rep.T[1] > 1e-6


def test_mub_triple_strength_exactly_3():
    rep = design_strength(mub_triple_c2(), t_max=4)
    assert rep.strength == 3
    assert all(abs(t) < 1e-10 for t in rep.T[:3])
    assert rep.T[3] > 1e-6


def test_pair_sums_nonnegative_random():
    rng = np.random.default_rng(11)
    V = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    V /= np.linalg.norm(V, axis=1)[:, None]
    rep = design_strength(LineSet(3, V), t_max=4)
    assert all(t >= -1e-9 for t in rep.T)


def test_unitary_invariance():
    X = singer_7_lines()
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    Y = LineSet(3, X.vectors @ Q.T)
    a, b = gram_degree_set(X), gram_degree_set(Y)
    assert np.allclose(a.angles, b.angles) and a.multiplicities == b.multiplicities
    assert design_strength(X).strength == design_strength(Y).strength


def test_family_dimension_mismatch():
    with pytest.raises(ValueError):
        design_strength(standard_basis(3), JacobiFamily(4))


# ---------------------------------------------------------------------------
# MUB verification
# ---------------------------------------------------------------------------


def test_verify_mub_fourier_pair():
    for d in [2, 3, 5]:
        F = np.array([[np.exp(2j * np.pi * j * k / d) for k in range(d)]
                      for j in range(d)]) / np.sqrt(d)
        V = np.vstack([np.eye(d), F.T])
        X = LineSet(d, V, basis_labels=[0] * d + [1] * d)
        out = verify_mub(X)
        assert out["unbiased"] and out["count"] == 2
        assert abs(out["alpha"] - 1 / d) < 1e-12


def test_verify_mub_duplicate_bases_fail():
    V = np.vstack([np.eye(2), np.eye(2)])
    out = verify_mub(LineSet(2, V, basis_labels=[0, 0, 1, 1]))
    assert not out["unbiased"]


def test_verify_mub_triple():
    out = verify_mub(mub_triple_c2())
    assert out["unbiased"] and out["count"] == 3


def test_verify_mub_errors():
    with pytest.raises(ValueError, match="basis_labels"):
        verify_mub(mub_triple_c2(labels=False))
    V = np.array([[1, 0], [ISQ2, ISQ2], [0, 1], [ISQ2, -ISQ2]], dtype=complex)
    with pytest.raises(ValueError, match="not orthonormal"):
        verify_mub(LineSet(2, V, basis_labels=[0, 0, 1, 1]))


# ---------------------------------------------------------------------------
# equiangular verification
# ---------------------------------------------------------------------------


def test_verify_equiangular_singer():
    out = verify_equiangular(singer_7_lines())
    assert out["equiangular"]
    assert abs(out["alpha"] - 2 / 9) < 1e-9
    assert out["alpha_snapped"] == Fraction(2, 9)
    assert out["relative_equality"]
    assert abs(out["T1"]) < 1e-10


def test_verify_equiangular_orthogonal_pairs():
    # a full orthonormal basis meets the bound; a short one does not
    out2 = verify_equiangular(LineSet(2, np.eye(2)))
    assert out2["equiangular"] and out2["alpha"] == 0 and out2["relative_equality"]
    out3 = verify_equiangular(LineSet(3, np.eye(3)[:2]))
    assert out3["equiangular"] and not out3["relative_equality"]


def test_verify_equiangular_two_angles():
    out = verify_equiangular(mub_triple_c2())
    assert not out["equiangular"]
    assert out["alpha"] is None


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------


def test_canonical_dephase_fourier():
    d = 3
    F = np.array([[np.exp(2j * np.pi * j * k / d) for k in range(d)]
                  for j in range(d)]) / np.sqrt(d)
    out = canonical_dephase([np.eye(d), F])
    assert np.allclose(out[0], np.eye(d))
    lead = out[1][0, :]
    assert np.allclose(lead.imag, 0) and (lead.real > 0).all()
    # angle spectrum preserved
    before = np.abs(np.eye(d).conj().T @ F) ** 2
    after = np.abs(out[0].conj().T @ out[1]) ** 2
    assert np.allclose(np.sort(before.ravel()), np.sort(after.ravel()))


def test_canonical_dephase_singular():
    with pytest.raises(ValueError):
        canonical_dephase([np.zeros((2, 2)), np.eye(2)])


# ---------------------------------------------------------------------------
# real doubling
# ---------------------------------------------------------------------------


def test_doubling_single_vector():
    X = LineSet(2, [[1, 0]])
    Y = real_doubling(X)
    assert Y.dim == 4 and Y.n == 2 and Y.field == "real"
    assert np.allclose(Y.vectors[0], [1, 0, 0, 0])
    assert np.allclose(Y.vectors[1], [0, -1, 0, 0])


def test_doubling_angle_identity():
    rng = np.random.default_rng(5)
    V = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    V /= np.linalg.norm(V, axis=1)[:, None]
    X = LineSet(3, V)
    Y = real_doubling(X)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            u1 = Y.vectors[2 * i]
            v1, v2 = Y.vectors[2 * j], Y.vectors[2 * j + 1]
            lhs = abs(np.vdot(V[i], V[j])) ** 2
            rhs = np.dot(v1, u1) ** 2 + np.dot(v2, u1) ** 2
            assert abs(lhs - rhs) < 1e-10


def test_doubling_max_angle_never_grows():
    X = singer_7_lines()
    Y = real_doubling(X)
    a_in = gram_degree_set(X).angles[-1]
    a_out = gram_degree_set(Y).angles[-1]
    assert a_out <= a_in + 1e-12


def test_aligned_doubling_gives_real_mubs():
    # three complex MUBs in C^2 -> three real MUBs in R^4 (the gate's maximum)
    X = phase_align_for_doubling(mub_triple_c2())
    Y = real_doubling(X)
    out = verify_mub(Y)
    assert out["unbiased"] and out["count"] == 3
    assert abs(out["alpha"] - 1 / 4) < 1e-9


def test_alignment_preserves_angles():
    X = mub_triple_c2()
    Y = phase_align_for_doubling(X)
    assert np.allclose(gram_degree_set(X).angles, gram_degree_set(Y).angles)
