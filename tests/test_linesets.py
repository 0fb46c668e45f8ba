"""Line-set model: degree sets, design strength, certification, doubling."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from linekit import linesets
from linekit.groupcodes import diffset_lines, field_rds, rds_to_mubs, singer_difference_set
from linekit.jacobi import JacobiFamily, dim_harm, jacobi_poly
from linekit.linesets import (
    LineSet,
    canonical_dephase,
    gap_clusters,
    design_strength,
    distinct_lines,
    gram_degree_set,
    lineset_from_json,
    lineset_to_json,
    phase_align_for_doubling,
    real_doubling,
    verify_equiangular,
    verify_mub,
)
from linekit.mubs import (
    SemifieldTable,
    alltop_mubs,
    semifield_mubs,
    spin_model_mubs,
    tensor_mubs,
    wf_mubs,
)
from linekit.sics import DisplacementGroup, appleby_candidates, builtin_fiducial, wh_orbit

ISQ2 = 1 / np.sqrt(2)

#: BLOCK_ENTRIES values for the row-block oracles: the default, the larger
#: blocks of gram_algebra_check's GEMM route, and 3-row blocks at n = 20
ROW_BLOCKS = [linesets.BLOCK_ENTRIES, 4 * linesets.BLOCK_ENTRIES, 64]


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


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, complex(0, math.nan)],
                         ids=["nan", "inf", "-inf", "nan-imaginary"])
def test_lineset_rejects_entries_that_are_not_finite(entry):
    # abs(nan - 1) > atol is False: the unit-norm check alone lets NaN through
    with pytest.raises(ValueError, match="vector 1 has an entry that is not finite"):
        LineSet(2, [[1, 0], [entry, 0], [0, 1]])
    with pytest.raises(ValueError, match="vector 0 has an entry that is not finite"):
        lineset_from_json({"dim": 2, "vectors": [[[math.nan, 0.0], [0.0, 0.0]]]})


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_lineset_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        LineSet(2, np.eye(2), tol=tol)
    text = json.dumps({"dim": 2, "tol": tol, "vectors": [[[1.0, 0.0], [0.0, 0.0]]]})
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        lineset_from_json(text)
    assert LineSet(2, np.eye(2), tol=1e-300).tol == 1e-300


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


def per_entry_json(X):
    """The interchange writer as one Python complex per entry (reference)."""
    doc = {
        "dim": X.dim,
        "field": X.field,
        "tol": X.tol,
        "vectors": [[[float(z.real), float(z.imag)] for z in row] for row in X.vectors],
    }
    if X.basis_labels is not None:
        doc["labels"] = list(X.basis_labels)
    return json.dumps(doc)


def signed_zero_lines():
    """Two lines whose entries carry -0.0 in both parts."""
    V = np.array([[complex(-0.0, 1.0), complex(0.0, -0.0)],
                  [complex(1.0, -0.0), complex(-0.0, -0.0)]])
    return LineSet(2, V)


@pytest.mark.parametrize("make", [mub_triple_c2, singer_7_lines, signed_zero_lines,
                                  lambda: LineSet(4, np.asfortranarray(np.eye(4))),
                                  lambda: lineset_from_json({"dim": 1, "vectors": [[[1, 0]]]})],
                         ids=["mub-triple", "singer7", "signed-zeros", "fortran-order",
                              "integers"])
def test_json_matches_per_entry_writer_and_keeps_every_bit(make):
    X = make()
    text = lineset_to_json(X)
    assert text == per_entry_json(X)
    Y = lineset_from_json(text)
    assert Y.vectors.tobytes() == np.ascontiguousarray(X.vectors).tobytes()
    assert lineset_to_json(Y) == text


@pytest.mark.parametrize("make", [mub_triple_c2, signed_zero_lines, lambda: wf_mubs(4).to_lineset(),
                                  lambda: scrambled(wf_mubs(3).to_lineset(), 1)],
                         ids=["mub-triple", "signed-zeros", "wf4", "scrambled-wf3"])
@pytest.mark.parametrize("batch", [1, 2, 3, 8, 1 << 20])
def test_json_writer_is_one_text_over_any_row_batch(make, batch, monkeypatch):
    X = make()
    monkeypatch.setattr(linesets, "WRITE_BATCH", batch)
    assert lineset_to_json(X) == per_entry_json(X)


@pytest.mark.parametrize("make", [lambda: wf_mubs(16).to_lineset(),
                                  lambda: alltop_mubs(13).to_lineset(),
                                  lambda: scrambled(wf_mubs(16).to_lineset(), 3),
                                  lambda: scrambled(alltop_mubs(13).to_lineset(), 4)],
                         ids=["wf16", "alltop13", "scrambled-wf16", "scrambled-alltop13"])
def test_json_writer_holds_a_small_multiple_of_its_text(make):
    X = make()
    text, peak = traced_peak(lineset_to_json, X)
    assert text == per_entry_json(X)
    assert peak <= 4 * len(text)  # the text, its rows, and one row's floats


NOT_PAIRS = {
    "re-im-x": [[[1.0, 0.0, 0.5], [0.0, 0.0, 0.5]]],
    "re": [[[1.0], [0.0]]],
    "ragged": [[[1.0, 0.0], [0.0]]],
    "empty": [],
    "strings": [[["1", "0"], ["0", "0"]]],
    "booleans": [[[True, False], [False, False]]],
    "null": [[[1.0, None], [0.0, 0.0]]],
    # np.array of both rows is float64: only the second row's own dtype shows it
    "mixed-booleans": [[[1.0, 0.0], [0.0, 0.0]], [[True, False], [False, False]]],
    "not-a-list": 5,
}


@pytest.mark.parametrize("vectors", NOT_PAIRS.values(), ids=NOT_PAIRS.keys())
def test_json_rejects_entries_that_are_not_pairs(vectors):
    with pytest.raises(ValueError):
        lineset_from_json({"dim": 2, "vectors": vectors})


def json_source(route, text, tmp_path):
    """`text` as lineset_from_json's string or file source."""
    if route == "string":
        return text
    path = tmp_path / "lines.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("route", ["string", "file"])
@pytest.mark.parametrize("vectors", NOT_PAIRS.values(), ids=NOT_PAIRS.keys())
def test_json_text_rejects_what_the_dict_route_rejects(vectors, route, tmp_path):
    text = json.dumps({"dim": 2, "vectors": vectors})
    with pytest.raises(ValueError):
        lineset_from_json(json_source(route, text, tmp_path))


@pytest.mark.parametrize("route", ["string", "file"])
@pytest.mark.parametrize("text", [
    '{"dim": 1, "vectors": [[[1, 0]]]} []',
    '{"dim": 1, "vectors": [[[1, 0]]]}{}',
    '{"dim": 1, "vectors": [[[1, 0]],]}',
    '{"dim": 1, "vectors": [[[1, 0]]],}',
    '{"dim": 1, "vectors": [[[1, 0]] [[0, 1]]]}',
    '{"dim": 1 "vectors": [[[1, 0]]]}',
    '{"dim": 1, "vectors": [[[1, 0]]]',
    '{"dim": 1, "vectors": [[[1, 0]]',
    '{dim: 1}',
], ids=["trailing-array", "trailing-object", "comma-in-vectors", "comma-in-object",
        "no-comma-in-vectors", "no-comma-in-object", "open-object", "open-vectors",
        "bare-key"])
def test_json_text_rejects_what_json_loads_rejects(text, route, tmp_path):
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)
    with pytest.raises(json.JSONDecodeError):
        lineset_from_json(json_source(route, text, tmp_path))


@pytest.mark.parametrize("top", ['[{"dim": 1, "vectors": [[[1, 0]]]}]', "5", '"lines"'])
def test_json_file_must_hold_an_object(top, tmp_path):
    with pytest.raises(ValueError, match="JSON object"):
        lineset_from_json(json_source("file", top, tmp_path))


def whole_document_vectors(text):
    """The vectors as one np.array of the json.loads document (reference)."""
    return np.array(json.loads(text)["vectors"]).astype(np.float64).view(complex)[..., 0]


@pytest.mark.parametrize("route", ["string", "file"])
@pytest.mark.parametrize("batch", [linesets.ROW_BATCH, 5])
@pytest.mark.parametrize("layout", ["compact", "pretty", "reordered"])
def test_json_text_loads_every_bit_over_row_batches(layout, batch, route, tmp_path, monkeypatch):
    monkeypatch.setattr(linesets, "ROW_BATCH", batch)
    X = wf_mubs(16).to_lineset()  # 272 rows: 5 batches of 64, 55 of 5
    doc = json.loads(lineset_to_json(X))
    basis = [k for k, row in enumerate(X.vectors) if np.count_nonzero(row) == 1]
    assert len(basis) == 16  # the standard basis: -0.0 for its zeros, integers for its ones
    for k in basis:
        doc["vectors"][k] = [[int(re), int(im)] if re else [-0.0, -0.0]
                             for re, im in doc["vectors"][k]]
    if layout == "reordered":
        doc = {"labels": doc["labels"], "vectors": doc["vectors"], "tol": doc["tol"],
               "dim": doc["dim"]}
    text = json.dumps(doc, indent=2 if layout == "pretty" else None)
    Y = lineset_from_json(json_source(route, text, tmp_path))
    assert Y.vectors.tobytes() == whole_document_vectors(text).tobytes()
    zeros = Y.vectors[basis][np.abs(X.vectors[basis]) == 0]
    assert zeros.size == 16 * 15 and np.signbit(zeros.real).all() and np.signbit(zeros.imag).all()
    assert Y.basis_labels == X.basis_labels and Y.tol == X.tol and Y.dim == 16


@pytest.mark.parametrize("route", ["string", "file"])
def test_json_rows_of_another_length_in_a_later_batch_are_rejected(route, tmp_path, monkeypatch):
    monkeypatch.setattr(linesets, "ROW_BATCH", 2)
    rows = [[[1.0, 0.0], [0.0, 0.0]]] * 2 + [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 2
    text = json.dumps({"dim": 2, "vectors": rows})
    with pytest.raises(ValueError, match=r"vectors 2\.\.3"):
        lineset_from_json(json_source(route, text, tmp_path))


def test_json_writer_file_holds_its_text(tmp_path):
    X = alltop_mubs(13).to_lineset()
    path = tmp_path / "lines.json"
    text = lineset_to_json(X, str(path))
    assert text == lineset_to_json(X)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("make", [lambda: diffset_lines(*singer_difference_set(31)),
                                  lambda: alltop_mubs(31).to_lineset()],
                         ids=["singer31", "alltop31"])
def test_json_file_load_holds_its_text_and_two_copies_of_the_vectors(make, tmp_path):
    X = make()
    path = tmp_path / "lines.json"
    text = lineset_to_json(X, str(path))
    Y, peak = traced_peak(lineset_from_json, str(path))
    assert Y.vectors.tobytes() == X.vectors.tobytes()
    # the text (and its bytes while it is read), the float64 batches and their
    # concatenation, then LineSet's copy; a json.load of the file peaked at 4.7 texts
    assert peak <= 2 * len(text) + 2 * X.vectors.nbytes


# ---------------------------------------------------------------------------
# duplicate lines
# ---------------------------------------------------------------------------


def raw_orbit(d, v, kind="cyclic"):
    g = DisplacementGroup(d, kind)
    return np.array([g.apply(j, k, np.asarray(v, dtype=complex)) for j, k in g.pairs()])


def phased_repeats(seed):
    """Random rows, each repeated under a random phase and a 1e-7 nudge."""
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    V = V[rng.integers(0, 12, size=40)] * np.exp(2j * np.pi * rng.random(40))[:, None]
    V += 1e-7 * rng.normal(size=V.shape)
    return V / np.linalg.norm(V, axis=1, keepdims=True)


@pytest.mark.parametrize("make", [
    lambda: raw_orbit(3, [1, 0, 0]),
    lambda: raw_orbit(4, [1, 1, 0, 0] / np.sqrt(2)),
    lambda: raw_orbit(2, builtin_fiducial(2).vector),
    lambda: raw_orbit(8, builtin_fiducial(8).vector, "binary-triple"),
    lambda: 1j ** np.array([[0, 0, 1, 1], [1, 1, 2, 2], [0, 2, 1, 3], [2, 2, 3, 3]]) / 2,
    lambda: phased_repeats(4),
], ids=["orbit-e0", "orbit-half", "orbit-sic2", "orbit-sic8", "z4-words", "phased-repeats"])
def test_distinct_lines_matches_the_all_pairs_filters(make):
    V = make()
    overlap = np.abs(V.conj() @ V.T)
    squared, plain = [], []  # the orbit rule and the code rule
    for i in range(len(V)):
        if not squared or (overlap[squared, i] ** 2).max() <= 1 - 1e-9:
            squared.append(i)
        if all(overlap[i, j] < 1 - 1e-9 for j in plain):
            plain.append(i)
    assert distinct_lines(V) == squared == plain


# ---------------------------------------------------------------------------
# degree sets
# ---------------------------------------------------------------------------


def random_lines(n, d, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return LineSet(d, V / np.linalg.norm(V, axis=1, keepdims=True))


def sic(d):
    return wh_orbit(builtin_fiducial(d))


#: wf_mubs(q) for q <= 9, Singer q <= 9, SICs with d <= 8, and random sets
ORACLE_SETS = {
    **{f"wf{q}": (lambda q=q: wf_mubs(q).to_lineset()) for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"singer{q}": (lambda q=q: diffset_lines(*singer_difference_set(q)))
       for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"sic{d}": (lambda d=d: sic(d)) for d in (2, 3, 8)},
    "sic7-appleby": lambda: next(wh_orbit(c["candidate"]) for c in appleby_candidates(7)
                                 if c["verdict"]["is_sic"]),
    "random-9x3": lambda: random_lines(9, 3, 11),
    "random-40x5": lambda: random_lines(40, 5, 2),
    "random-6x4": lambda: random_lines(6, 4, 3),
    "mub-triple": mub_triple_c2,
    "one-line": lambda: LineSet(2, [[1, 0]]),
}


def sorted_route_reference(X):
    """The degree set by a stable argsort of the full angle matrix (reference).

    The angles are the exactly rounded means and the power sums the exactly
    rounded sums (`math.fsum`) of the same values.
    """
    A = X.angle_matrix()
    vals = A[np.triu_indices(X.n, k=1)]
    groups = gap_clusters(vals, X.tol) if vals.size else []
    return ([math.fsum(vals[g]) / len(g) for g in groups], [len(g) for g in groups],
            [(float(vals[g].min()), float(vals[g].max())) for g in groups],
            [math.fsum((A ** j).ravel()) for j in range(5)])


def assert_matches_sorted_route(rep, X):
    """Spans and multiplicities exactly; each angle, a mean of m nonnegative
    values, within m ulps-of-one of its exact mean, which bounds the rounding
    of any summation order (m - 1 additions, one division); the power sums
    within 1e-12 relative."""
    angles, mult, spans, sums = sorted_route_reference(X)
    assert rep.multiplicities == mult and rep.spans == spans and rep.s == len(mult)
    assert rep.zero_present == bool(angles and angles[0] <= X.tol)
    assert all(abs(a - b) <= m * np.finfo(float).eps * b
               for a, b, m in zip(rep.angles, angles, mult, strict=True))
    assert np.allclose(rep.power_sums, sums, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", list(ORACLE_SETS) + ["wf27"])
@pytest.mark.parametrize("block", ROW_BLOCKS)
def test_degree_set_matches_sorted_route(name, block, monkeypatch):
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", block)
    X = wf_mubs(27).to_lineset() if name == "wf27" else ORACLE_SETS[name]()
    rep = gram_degree_set(X)
    assert_matches_sorted_route(rep, X)
    assert sum(rep.multiplicities) == X.n * (X.n - 1) // 2


def chained_lines(n, d, tol, seed):
    """Random lines with a wide tol, so that clusters chain across row blocks."""
    return LineSet(d, random_lines(n, d, seed).vectors, tol=tol)


@pytest.mark.parametrize("make", [lambda: chained_lines(200, 4, 1e-4, 1),
                                  lambda: chained_lines(120, 3, 3e-3, 2),
                                  lambda: random_lines(40, 4, 5)],
                         ids=["200x4-tol1e-4", "120x3-tol3e-3", "40x4"])
@pytest.mark.parametrize("rows", [2, 3, 0])  # 0: the default blocks
def test_degree_set_merges_runs_across_row_blocks(make, rows, monkeypatch):
    X = make()
    if rows:
        monkeypatch.setattr(linesets, "BLOCK_ENTRIES", rows * X.n)
    assert_matches_sorted_route(gram_degree_set(X), X)


def test_chained_lines_have_clusters_across_blocks_and_single_runs():
    rep = gram_degree_set(chained_lines(200, 4, 1e-4, 1))
    assert 1 in rep.multiplicities and max(rep.multiplicities) > 200


@pytest.mark.parametrize("rows", [2, 0])
def test_duplicate_line_is_the_first_pair_in_row_major_order(rows, monkeypatch):
    V = random_lines(8, 3, 4).vectors.copy()
    V[5], V[4] = 1j * V[2], -V[3]  # (2, 5) and (3, 4), both in rows 2..3
    X = LineSet(3, V)
    if rows:
        monkeypatch.setattr(linesets, "BLOCK_ENTRIES", rows * X.n)
        assert linesets._row_blocks(X.n, linesets.BLOCK_ENTRIES)[1] == (2, 4)
    A = X.angle_matrix()
    iu, ju = np.triu_indices(X.n, k=1)
    k = int(np.argmax(A[iu, ju] > 1 - X.tol))
    with pytest.raises(ValueError) as err:
        gram_degree_set(X)
    assert (iu[k], ju[k]) == (2, 5)
    assert str(err.value) == (f"vectors {iu[k]} and {ju[k]} span the same line "
                              f"(angle {A[iu[k], ju[k]]:.12g})")


@pytest.mark.parametrize("size", [0, 1, 2, 7, 8, 9, 17])
def test_gap_breaks_and_power_sums_span_their_chunks(size, monkeypatch):
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", 4)  # a break at every chunk edge
    x = (np.arange(size) // 2).astype(float)
    assert list(linesets._gap_breaks(x, 0.5)) == list(range(2, size, 2))
    assert np.allclose(linesets._power_sums(x), [(x ** j).sum() for j in range(5)])


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


def polyval_design_strength(X, t_max=4, epsilon=linesets.EPS_DESIGN):
    """T_r as one n x n polyval per r, summed over the angle matrix (reference)."""
    fam = JacobiFamily(X.dim, max_k=4)
    A = X.angle_matrix()
    n = X.n
    T = [float(npoly.polyval(A, [float(c) for c in jacobi_poly(fam, r, "g")]).sum()) / (n * n)
         for r in range(1, t_max + 1)]
    strength = 0
    for r in range(1, t_max + 1):
        if T[r - 1] > epsilon * dim_harm(X.dim, r, r) / n:
            break
        strength = r
    return T, strength


@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_design_strength_matches_polyval_route(name):
    X = ORACLE_SETS[name]()
    rep = design_strength(X)
    T, strength = polyval_design_strength(X)
    assert rep.strength == strength
    fam = JacobiFamily(X.dim, max_k=4)
    sums = gram_degree_set(X).power_sums
    for r in range(1, 5):
        scale = sum(abs(float(c)) * p for c, p in zip(jacobi_poly(fam, r, "g"), sums))
        assert abs(rep.T[r - 1] - T[r - 1]) <= 1e-9 * scale / X.n**2


def test_design_strength_stops_at_the_stored_power_sums():
    with pytest.raises(ValueError, match="t_max"):
        design_strength(mub_triple_c2(), t_max=5)


def test_design_strength_forms_no_n_by_n_array():
    X = wf_mubs(27).to_lineset()
    gram_degree_set(X)
    tracemalloc.start()
    try:
        design_strength(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.n ** 2  # not even one byte per entry


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


def dense_verify_mub(X):
    """verify_mub from the whole angle matrix, one np.ix_ gather per pair of
    cells and one concatenation of every cross value (reference)."""
    if X.basis_labels is None:
        raise ValueError("verify_mub needs basis_labels partitioning the vectors")
    labels = sorted(set(X.basis_labels))
    cells = {lab: [i for i, l in enumerate(X.basis_labels) if l == lab] for lab in labels}
    bad = []
    for lab, idx in cells.items():
        B = X.vectors[idx]
        if not np.allclose(B.conj() @ B.T, np.eye(X.dim), atol=max(X.tol, 1e-12) * 10):
            bad.append(lab)
    if bad:
        raise ValueError(f"cells {bad} are not orthonormal bases")
    A = X.angle_matrix()
    target = 1.0 / X.dim
    worst = 0.0
    cross_vals = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            cross = A[np.ix_(cells[labels[a]], cells[labels[b]])]
            worst = max(worst, float(np.abs(cross - target).max()))
            cross_vals.append(cross.ravel())
    alpha = float(np.concatenate(cross_vals).mean()) if cross_vals else target
    unbiased = worst <= max(X.tol, 1e-12) * 10
    return {"unbiased": unbiased, "alpha": alpha,
            "count": len(labels), "max_deviation": worst}


def scrambled(X, seed):
    """X under a random unitary, per-line phases and a row permutation."""
    rng = np.random.default_rng(seed)
    n, d = X.n, X.dim
    Q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    perm = rng.permutation(n)
    V = (X.vectors @ Q.T * np.exp(2j * np.pi * rng.random(n))[:, None])[perm]
    return LineSet(d, V, basis_labels=[X.basis_labels[i] for i in perm], tol=X.tol)


def bent_cells(X, cells):
    """X with one vector of each named cell tilted toward a cellmate."""
    V = X.vectors.copy()
    for lab in cells:
        i, j = [k for k, l in enumerate(X.basis_labels) if l == lab][:2]
        V[i] = (V[i] + 1e-3 * V[j]) / np.linalg.norm(V[i] + 1e-3 * V[j])
    return LineSet(X.dim, V, basis_labels=X.basis_labels, tol=X.tol)


def doubled(X):
    return real_doubling(phase_align_for_doubling(X))


#: complete, partial and biased labeled sets from every MUB route
MUB_ORACLE_SETS = {
    **{f"wf{q}": (lambda q=q: wf_mubs(q).to_lineset()) for q in (2, 3, 4, 5, 8, 9, 16)},
    **{f"alltop{q}": (lambda q=q: alltop_mubs(q).to_lineset()) for q in (5, 7, 11)},
    **{f"spin{n}": (lambda n=n: spin_model_mubs(n).to_lineset()) for n in range(2, 13)},
    "tensor2x3": lambda: tensor_mubs(wf_mubs(2), wf_mubs(3)).to_lineset(),
    "tensor4x5": lambda: tensor_mubs(wf_mubs(4), wf_mubs(5)).to_lineset(),
    **{f"rds{q}": (lambda q=q: rds_to_mubs(*field_rds(q)).to_lineset()) for q in (3, 4, 5, 8)},
    **{f"semifield{q}": (lambda q=q: semifield_mubs(SemifieldTable.from_field(q)).to_lineset())
       for q in (9, 25)},
    "doubled-triple": lambda: doubled(mub_triple_c2()),
    "doubled-wf2": lambda: doubled(wf_mubs(2).to_lineset()),
    "doubled-wf3-biased": lambda: real_doubling(wf_mubs(3).to_lineset()),
    "scrambled-wf27": lambda: scrambled(wf_mubs(27).to_lineset(), 7),
    "duplicate-bases": lambda: LineSet(3, np.vstack([np.eye(3)] * 3), basis_labels=[0] * 3
                                       + [1] * 3 + [2] * 3),
    "duplicate-wf5-bases": lambda: LineSet(
        5, np.vstack([wf_mubs(5).bases[k].T for k in (0, 1, 2, 1)]),
        basis_labels=[k for k in "abcd" for _ in range(5)]),
    "one-basis": lambda: LineSet(3, np.eye(3), basis_labels=["only"] * 3),
}


@pytest.mark.parametrize("name", list(MUB_ORACLE_SETS))
@pytest.mark.parametrize("block", ROW_BLOCKS)
def test_verify_mub_matches_dense_route(name, block, monkeypatch):
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", block)
    X = MUB_ORACLE_SETS[name]()
    out, ref = verify_mub(X), dense_verify_mub(X)
    assert out["unbiased"] == ref["unbiased"] and out["count"] == ref["count"]
    assert abs(out["max_deviation"] - ref["max_deviation"]) <= 1e-15
    assert abs(out["alpha"] - ref["alpha"]) <= 1e-15
    assert out["unbiased"] == ("biased" not in name and "duplicate" not in name)


@pytest.mark.parametrize("block", ROW_BLOCKS)
def test_verify_mub_names_the_same_bad_cells_as_the_dense_route(block, monkeypatch):
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", block)
    X = bent_cells(scrambled(wf_mubs(7).to_lineset(), 3), [6, 2])
    with pytest.raises(ValueError) as ref:
        dense_verify_mub(X)
    with pytest.raises(ValueError) as out:
        verify_mub(X)
    assert str(out.value) == str(ref.value) == "cells [2, 6] are not orthonormal bases"


def test_verify_mub_forms_no_n_by_n_array():
    X = wf_mubs(64).to_lineset()
    tracemalloc.start()
    try:
        out = verify_mub(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["unbiased"] and out["count"] == 65
    assert peak < 32 * 2**20  # the whole angle matrix alone is 138 MB


def traced_peak(f, *args):
    """f(*args) and the peak bytes that tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_degree_set_holds_one_block_and_its_runs():
    X = scrambled(wf_mubs(27).to_lineset(), 7)  # n = 756: 8 row blocks of 95 rows
    rep, peak = traced_peak(gram_degree_set, X)
    assert rep.multiplicities == [756 * 26 // 2, 756 * 729 // 2]
    # the complex product of one block (1.15 MB), its angles and those of the
    # block before, and 2 clusters x 8 blocks of runs; the pair array is 2.3 MB
    assert peak <= 3 * 2**20


def test_verify_mub_holds_one_block():
    X = scrambled(wf_mubs(27).to_lineset(), 7)
    out, peak = traced_peak(verify_mub, X)
    assert out["unbiased"] and out["count"] == 28
    assert peak <= X.n**2 + 2.5 * 2**20


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
