"""Line-set model: degree sets, design strength, certification, doubling."""

import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from linekit import commands, linesets
from linekit.groupcodes import diffset_lines, field_rds, rds_to_mubs, singer_difference_set
from linekit.jacobi import (
    BoundQuery,
    JacobiFamily,
    annihilator_bound,
    dim_harm,
    jacobi_poly,
    relative_bound,
)
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
from linekit.tolerance import DEFAULT_TOL, certify_tol, float_error, snap, snap_denominator

ISQ2 = 1 / np.sqrt(2)

#: BLOCK_ENTRIES values for the row-block oracles: the default, 4 and 16
#: times it (the latter the blocks of gram_algebra_check's GEMM route), and
#: 3-row blocks at n = 20
ROW_BLOCKS = [linesets.BLOCK_ENTRIES, 4 * linesets.BLOCK_ENTRIES, 16 * linesets.BLOCK_ENTRIES, 64]


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


def stored_bits(monkeypatch, make):
    """For each LineSet that make() builds, whether it stores its input rows bit for bit."""
    init, kept = LineSet.__init__, []

    def spy(self, dim, vectors, *args, **kwargs):
        init(self, dim, vectors, *args, **kwargs)
        given = np.ascontiguousarray(vectors, dtype=complex).view(np.uint64)
        kept.append(np.array_equal(given, np.ascontiguousarray(self.vectors).view(np.uint64)))

    monkeypatch.setattr(LineSet, "__init__", spy)
    make()
    return kept


def is_prime_power(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)  # the least prime factor
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = [q for q in range(2, 98) if is_prime_power(q)]

#: every construction family whose rows lie within float_error(dim) of unit norm
UNIT_FAMILIES = {
    "wf": lambda: [wf_mubs(q).to_lineset() for q in PRIME_POWERS if q <= 32],
    "alltop": lambda: [alltop_mubs(p).to_lineset() for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)],
    "semifield": lambda: [semifield_mubs(SemifieldTable.from_field(q)).to_lineset()
                          for q in (9, 25, 27)],
    "rds": lambda: [rds_to_mubs(*field_rds(q)).to_lineset() for q in (2, 3, 4, 5, 8, 9, 13, 16)],
    "tensor": lambda: [tensor_mubs(wf_mubs(a), wf_mubs(b)).to_lineset()
                       for a, b in ((2, 3), (2, 8), (4, 5), (3, 7))],
    "singer": lambda: [diffset_lines(*singer_difference_set(q)) for q in PRIME_POWERS],
    "sic": lambda: [sic(d) for d in (2, 3, 8)] + [
        wh_orbit(c["candidate"]) for d in (7, 19) for c in appleby_candidates(d)
        if c["verdict"]["is_sic"]],
    "doubled": lambda: [real_doubling(wf_mubs(q).to_lineset()) for q in (3, 5, 9)]
    + [doubled(mub_triple_c2()), real_doubling(diffset_lines(*singer_difference_set(7)))],
}


@pytest.mark.parametrize("family", UNIT_FAMILIES)
def test_constructions_keep_their_bits(family, monkeypatch):
    kept = stored_bits(monkeypatch, UNIT_FAMILIES[family])
    assert kept and all(kept)


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
    '{"dim": 1, "vectors": [[["1", 0]]], "tol": }',
], ids=["trailing-array", "trailing-object", "comma-in-vectors", "comma-in-object",
        "no-comma-in-vectors", "no-comma-in-object", "open-object", "open-vectors",
        "bare-key", "bad-row-then-no-value"])
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


def test_row_blocks_have_a_floor_that_yields_to_small_budgets(monkeypatch):
    def sizes(n):
        return {r1 - r0 for r0, r1 in linesets._row_blocks(n, linesets.BLOCK_ENTRIES)}
    assert sizes(756) == {21}  # within the budget: 16384 // 756
    assert sizes(4160) == {16}  # the floor: 3 rows by the budget alone
    assert sizes(100) == {100}
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", 2 * 8)
    assert linesets._row_blocks(8, linesets.BLOCK_ENTRIES) == [(0, 2), (2, 4), (4, 6), (6, 8)]


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


def test_the_default_tol_certifies_at_1e_8():
    assert certify_tol(DEFAULT_TOL) == 1e-8
    assert design_strength(wf_mubs(3).to_lineset()).epsilon == 1e-8


def test_a_snap_is_the_one_fraction_within_tol():
    Q = snap_denominator(DEFAULT_TOL)
    assert Q == 22360 and 1 / Q**2 > 2 * DEFAULT_TOL >= 1 / (Q + 1) ** 2
    exact = [Fraction(31, 1024), Fraction(97, 9604), Fraction(7, 64),
             *(Fraction(1, d + e) for d in (2, 3, 5, 8, 27, 64, 128) for e in (0, 1))]
    for f in exact:
        assert snap(float(f), DEFAULT_TOL) == snap(float(f) + DEFAULT_TOL / 2, DEFAULT_TOL) == f
    assert snap(152671 / 763358, DEFAULT_TOL) is None  # 1/5 - 7.9e-7, a snap at 10^6


def polyval_design_strength(X, t_max=4):
    """T_r as one n x n polyval per r, summed over the angle matrix (reference)."""
    epsilon = certify_tol(X.tol)
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


def count_angle_passes(monkeypatch):
    """The list that gets the line set of each pass over the angle matrix from
    now on: full rows (`_angle_blocks`) or the upper triangle (`_triangle_blocks`)."""
    passes = []
    for name in ("_angle_blocks", "_triangle_blocks"):
        blocks = getattr(linesets, name)
        monkeypatch.setattr(linesets, name, lambda X, blocks=blocks: passes.append(X) or blocks(X))
    return passes


def test_one_pass_serves_a_labelled_set_with_a_line_twice(monkeypatch):
    # the pass records the repeated line: gram_degree_set raises on it at
    # every call, and verify_mub reads its verdict from the same pass
    passes = count_angle_passes(monkeypatch)
    X = LineSet(3, np.vstack([np.eye(3), np.eye(3)[[2, 0, 1]]]), basis_labels=[0] * 3 + [1] * 3)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^vectors 0 and 4 span the same line \(angle 1\)$"):
            gram_degree_set(X)
        out = verify_mub(X)
        assert not out["unbiased"] and out["max_deviation"] == 1 - 1 / 3
    assert len(passes) == 1


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


def relabelled(X, seed):
    """X with its cells renamed in a random order: the rows still come in runs
    of dim, one per cell, but the labels are out of sorted order."""
    names = np.random.default_rng(seed).permutation(len(set(X.basis_labels))).tolist()
    return LineSet(X.dim, X.vectors, basis_labels=[names[lab] for lab in X.basis_labels],
                   tol=X.tol)


def at_tol(X, tol):
    return LineSet(X.dim, X.vectors, field=X.field, basis_labels=X.basis_labels, tol=tol)


def turned_basis():
    """The standard basis of R^3 and that basis turned by pi/4 in two planes:
    cross angles 0, 1/4 and 1/2, so a cross pair sits in the zero cluster."""
    c = ISQ2
    B = np.array([[c, -c, 0], [0.5, 0.5, -c], [0.5, 0.5, c]])
    return LineSet(3, np.vstack([np.eye(3), B]), field="real", basis_labels=[0] * 3 + [1] * 3)


def window_basis():
    """The standard basis of R^3 and an orthonormal basis whose cross angles
    are 0.02, 0.49 (x4) and (1 +- 0.02^0.5)^2 / 4 (x2 each), at tol 0.032: the
    pair at 0.02 joins the zero cluster, yet every cross angle lies within
    atol = 0.32 of 1/3, so the set is unbiased there."""
    u = np.array([0.02**0.5, 0.7, 0.7])
    v = np.array([0.7, (-(0.02**0.5) + 1) / 2, (-(0.02**0.5) - 1) / 2])
    B = np.vstack([u, v, np.cross(u, v)])
    return LineSet(3, np.vstack([np.eye(3), B]), field="real", basis_labels=[0] * 3 + [1] * 3,
                   tol=0.032)


#: labelled sets in label orders and at tols that MUB_ORACLE_SETS do not reach
MUB_CLUSTER_SETS = {
    "relabelled-wf7": lambda: relabelled(wf_mubs(7).to_lineset(), 5),
    "relabelled-scrambled-wf9": lambda: relabelled(scrambled(wf_mubs(9).to_lineset(), 2), 5),
    # atol^2 = 0.25 > tol: 1/8 lies below it, yet more than tol above the zero cluster
    "wf3-tol0.05": lambda: at_tol(wf_mubs(3).to_lineset(), 0.05),
    "wf8-tol0.05": lambda: at_tol(wf_mubs(8).to_lineset(), 0.05),
    # cross pairs in the zero cluster: 1/16 within tol of 0, and the turned basis
    "chained-wf16": lambda: at_tol(wf_mubs(16).to_lineset(), 0.1),
    "turned-basis": turned_basis,
    "window-basis": window_basis,
}
#: the sets whose cross pairs share the zero cluster, read by a second pass
CHAINED = {"chained-wf16", "turned-basis", "window-basis"}


@pytest.mark.parametrize("name", list(MUB_CLUSTER_SETS))
@pytest.mark.parametrize("block", ROW_BLOCKS)
def test_verify_mub_matches_dense_route_at_any_label_order_and_tol(name, block, monkeypatch):
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", block)
    X = MUB_CLUSTER_SETS[name]()
    ref = dense_verify_mub(X)
    passes = count_angle_passes(monkeypatch)
    out = verify_mub(X)
    assert (out["unbiased"], out["count"]) == (ref["unbiased"], ref["count"])
    assert out["unbiased"] == (name != "turned-basis")
    assert abs(out["alpha"] - ref["alpha"]) <= 1e-15
    assert abs(out["max_deviation"] - ref["max_deviation"]) <= 1e-15
    assert len(passes) == (2 if name in CHAINED else 1)


@pytest.mark.parametrize("block", ROW_BLOCKS)
def test_verify_mub_names_bad_cells_in_label_order_from_runs_of_rows(block, monkeypatch):
    monkeypatch.setattr(linesets, "BLOCK_ENTRIES", block)
    X = bent_cells(relabelled(wf_mubs(7).to_lineset(), 5), [6, 2])
    with pytest.raises(ValueError) as ref:
        dense_verify_mub(X)
    with pytest.raises(ValueError) as out:
        verify_mub(X)
    assert str(out.value) == str(ref.value) == "cells [2, 6] are not orthonormal bases"


@pytest.mark.parametrize("make", [
    lambda: scrambled(wf_mubs(27).to_lineset(), 7),
    lambda: alltop_mubs(7).to_lineset(),
    lambda: relabelled(wf_mubs(8).to_lineset(), 3),
], ids=["mub27-scrambled", "alltop7", "wf8-relabelled"])
def test_degree_set_of_a_labelled_set_is_that_of_its_vectors(make):
    X = make()
    # repr tells every float apart by its bits (-0.0 from 0.0 too)
    assert repr(gram_degree_set(X)) == repr(gram_degree_set(LineSet(X.dim, X.vectors, tol=X.tol)))


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
    X = scrambled(wf_mubs(27).to_lineset(), 7)  # n = 756: 36 row blocks of 21 rows
    rep, peak = traced_peak(gram_degree_set, X)
    assert rep.multiplicities == [756 * 26 // 2, 756 * 729 // 2]
    # the complex product of one block (254 KB) and its angles, and 2 clusters x
    # 36 blocks of runs; the pair array is 2.3 MB
    assert peak <= 3 * 2**20


def test_verify_mub_holds_one_block():
    X = scrambled(wf_mubs(27).to_lineset(), 7)
    out, peak = traced_peak(verify_mub, X)
    assert out["unbiased"] and out["count"] == 28
    assert peak <= X.n**2 + 2.5 * 2**20


#: bytes of one row block of the angle matrix in complex128
BLOCK_BYTES = 16 * linesets.BLOCK_ENTRIES


@pytest.mark.parametrize("make", [
    lambda: scrambled(wf_mubs(27).to_lineset(), 7),  # labelled: the pass reads no labels
    lambda: LineSet(27, scrambled(wf_mubs(27).to_lineset(), 7).vectors),
    lambda: diffset_lines(*singer_difference_set(31)),
], ids=["mub27-labelled", "mub27", "singer31"])
def test_angle_pass_holds_one_block_and_its_angles(make):
    X = make()
    assert X.n <= 1024  # no block outgrows the budget
    rep, peak = traced_peak(linesets._angle_pass, X)
    # the complex product of one block with the angles made from it; the block
    # before is freed, and the runs, the diagonal and the cells are small
    assert peak <= 2 * BLOCK_BYTES


@pytest.mark.parametrize("make", [
    lambda: scrambled(wf_mubs(27).to_lineset(), 7),  # labels out of order
    lambda: alltop_mubs(31).to_lineset(),  # labels in runs of dim rows
    lambda: scrambled(alltop_mubs(31).to_lineset(), 7),
], ids=["mub27-scrambled", "alltop31", "alltop31-scrambled"])
def test_verify_mub_holds_one_block_beyond_the_degree_set(make):
    X = make()
    gram_degree_set(X)
    out, peak = traced_peak(verify_mub, X)
    assert out["unbiased"] and out["count"] == len(set(X.basis_labels))
    # a block of cells, their conjugates and Grams; the labels and cells are small
    assert peak <= BLOCK_BYTES


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
# the relative bound's status
# ---------------------------------------------------------------------------


def partial_wf4():
    """The first three of the five bases of wf_mubs(4)."""
    X = wf_mubs(4).to_lineset()
    return LineSet(4, X.vectors[:12], basis_labels=X.basis_labels[:12])


#: sets that meet the relative bound (complete MUBs, Singer lines, SICs) and
#: sets that do not (fewer bases than d + 1, the doubling of wf_mubs(3))
RELATIVE_SETS = {
    **{f"wf{q}": (lambda q=q: wf_mubs(q).to_lineset())
       for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)},
    **{f"alltop{p}": (lambda p=p: alltop_mubs(p).to_lineset()) for p in (5, 7, 11)},
    "spin6": lambda: spin_model_mubs(6).to_lineset(),
    "tensor6": lambda: tensor_mubs(wf_mubs(2), wf_mubs(3)).to_lineset(),
    **{f"singer{q}": (lambda q=q: diffset_lines(*singer_difference_set(q)))
       for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)},
    **{f"sic{d}": (lambda d=d: sic(d)) for d in (2, 3, 8)},
    "wf4-partial": partial_wf4,
    "wf3-doubled": lambda: real_doubling(wf_mubs(3).to_lineset()),
}


def relative_status(X):
    """`linesets.relative_status` with the design-strength report of X."""
    return linesets.relative_status(X, design_strength(X))


def snapped_relative_phrase(X):
    """The exact route (reference) for a set whose angles all snap: n against
    F(1)/c_0 at the snapped angles, None when a hypothesis fails."""
    angles = [snap(a, X.tol) for a in gram_degree_set(X).angles]
    out = annihilator_bound(X.dim, angles)
    if out is None or not all(out["hypotheses_ok"].values()):
        return None
    return commands._met_phrase(X.n, out["bound"])


@pytest.mark.parametrize("name", RELATIVE_SETS)
def test_relative_status_matches_the_exact_route(name):
    made = RELATIVE_SETS[name]()
    statuses, snapped = [], []
    for tol in (DEFAULT_TOL, 1e-6):
        X = LineSet(made.dim, made.vectors, field=made.field, basis_labels=made.basis_labels,
                    tol=tol)
        statuses.append(relative_status(X)[1])
        snapped.append(all(snap(a, tol) is not None for a in gram_degree_set(X).angles))
        if snapped[-1]:
            assert statuses[-1] == snapped_relative_phrase(X)
    # denominators above snap_denominator(1e-6) = 707: 27/784, 29/900, 31/1024
    assert snapped == [True, name not in ("singer27", "singer29", "singer31")]
    assert statuses[0] == statuses[1]


def test_uneven_norms_are_normalised_and_meet_the_relative_bound():
    # norms that miss 1 by up to 5e-9, each its own way, are divided out once
    X = diffset_lines(*singer_difference_set(31))
    scale = 1 + 5e-9 * np.random.default_rng(1).uniform(-1, 1, size=(X.n, 1))
    Y = LineSet(X.dim, X.vectors * scale)
    assert np.abs(np.linalg.norm(Y.vectors, axis=1) - 1).max() <= float_error(32)
    assert relative_status(Y) == relative_status(X) == (993, "met with equality")
    back = lineset_from_json(lineset_to_json(Y))
    assert np.array_equal(back.vectors.view(np.uint64), Y.vectors.view(np.uint64))


def one_angle_stand_in(q, width, sums_at=None):
    """The Singer lines of q as `relative_status` reads them: n = q^2 + q + 1
    lines in C^(q+1) whose pairs lie within width of q/(q+1)^2, with the power
    sums of pairs all at sums_at (the angle itself by default)."""
    n, alpha = q * q + q + 1, q / (q + 1) ** 2
    at = alpha if sums_at is None else sums_at
    report = linesets.DegreeSetReport(
        angles=[alpha], multiplicities=[n * (n - 1) // 2], s=1, zero_present=False,
        spans=[(alpha - width, alpha + width)],
        power_sums=[float(n + n * (n - 1) * at**j) for j in range(5)])
    return SimpleNamespace(n=n, dim=q + 1, tol=DEFAULT_TOL, _degree_set=report)


@pytest.mark.parametrize("q", [139, 149, 997])
def test_large_singer_sets_meet_the_relative_bound(q):
    # the angle snaps at the default tol for q = 139 only; the clusters of the
    # constructed Singer sets for q <= 64 lie within 3.2e-16 of their angle
    bound, status = relative_status(one_angle_stand_in(q, 3.2e-16))
    n = q * q + q + 1
    assert status == "met with equality" and abs(bound - n) <= 1e-12 * n


@pytest.mark.parametrize("width, sums_at, status", [
    (5 * DEFAULT_TOL, None, "unresolved"),  # one cluster chained over 10 tol
    (3.2e-16, 0.02, "VIOLATED"),  # pair sums of a smaller angle than the cluster's
], ids=["chained", "other-sums"])
def test_pair_sums_clusters_and_norms_settle_equality_or_not(width, sums_at, status):
    X = one_angle_stand_in(31, width, sums_at)
    assert relative_status(X) == (993, status)


def test_more_than_four_angles_never_meet_the_relative_bound():
    # five exact angles (R = 0) with the power sums of the sphere's moments, as
    # a 4-design has them, P_2 raised by 1e-11: T_1..T_4 lie within their
    # thresholds and n^2 S > 0, but T_5 is not known
    n, d, angles = 50, 3, [0.05, 0.2, 0.4, 0.6, 0.8]
    sums = [n * n / math.comb(d + j - 1, j) for j in range(5)]
    sums[2] *= 1 + 1e-11
    report = linesets.DegreeSetReport(
        angles=angles, multiplicities=[245] * 5, s=5, zero_present=False,
        spans=[(a, a) for a in angles], power_sums=sums)
    X = SimpleNamespace(n=n, dim=d, tol=DEFAULT_TOL, _degree_set=report)
    assert relative_status(X)[1] == "unresolved"
    X = random_lines(6, 3, 1)
    assert gram_degree_set(X).s == 15 and relative_status(X)[1] == "satisfied"


def moved_wf5():
    """wf_mubs(5) with its last basis moved by 4e-7: 111 angles at the default tol."""
    X = wf_mubs(5).to_lineset()
    V = X.vectors.copy()
    rng = np.random.default_rng(0)
    V[-5:] += 4e-7 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    return LineSet(5, V / np.linalg.norm(V, axis=1, keepdims=True), basis_labels=X.basis_labels)


@pytest.mark.parametrize("name", [*RELATIVE_SETS, "moved-wf5"])
def test_annihilator_record_matches_the_polynomial_summed_from_its_coefficients(name):
    X = moved_wf5() if name == "moved-wf5" else RELATIVE_SETS[name]()
    angles = [Fraction(a) if f is None else f
              for a, f in ((a, snap(a, X.tol)) for a in gram_degree_set(X).angles)]
    assert (name == "moved-wf5") == (len(angles) == 111)
    out = annihilator_bound(X.dim, angles)
    # relative_bound without the monomial coefficients sums F = sum c_r g_r (reference)
    query = BoundQuery(d=X.dim, angles=angles, mode="sdist-g", F_coeffs=out["coeffs"])
    ref = relative_bound(query)
    assert out["bound"] == ref["bound"]
    assert list(out["hypotheses_ok"].items()) == list(ref["hypotheses_ok"].items())


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


def test_alignment_reads_angles_at_tol():
    # 1e-9 noise leaves |<u,v>| near 1.4e-9 > tol on orthogonal pairs, but
    # their angle near 2e-18 is the degree set's zero angle, so no phase
    # is propagated along them
    X = mub_triple_c2()
    rng = np.random.default_rng(1)
    V = X.vectors + 1e-9 * (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    X = LineSet(2, V / np.linalg.norm(V, axis=1, keepdims=True), basis_labels=X.basis_labels)
    assert gram_degree_set(X).s == 2 and gram_degree_set(X).zero_present
    out = verify_mub(real_doubling(phase_align_for_doubling(X)))
    assert out["unbiased"] and out["count"] == 3


def test_alignment_preserves_angles():
    X = mub_triple_c2()
    Y = phase_align_for_doubling(X)
    assert np.allclose(gram_degree_set(X).angles, gram_degree_set(Y).angles)


# ---------------------------------------------------------------------------
# one read, one triangle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, d", [(130, 3), (200, 7), (150, 8), (97, 27), (300, 32)])
def test_triangle_blocks_are_bit_identical_to_the_angle_matrix(n, d):
    rng = np.random.default_rng(n + d)
    V = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    X = LineSet(d, V / np.linalg.norm(V, axis=1, keepdims=True))
    ref = X.angle_matrix()
    for r0, c0, A in linesets._triangle_blocks(X):
        assert c0 % linesets.TRIANGLE_ALIGN == 0 and c0 <= r0
        assert np.array_equal(A.view(np.int64), ref[r0:r0 + len(A), c0:].view(np.int64))


def walked(text):
    """The vectors as text in no writer's layout is read: json.loads, then `_stack_pairs`."""
    return linesets._stack_pairs(json.loads(text)["vectors"])


def fast_rows(text):
    """The vectors as the one-call route reads them, or None where it leaves the text."""
    doc = linesets._writer_document(text.encode())
    return doc and doc["vectors"]


@pytest.mark.parametrize("make", [lambda: wf_mubs(8).to_lineset(), lambda: alltop_mubs(7).to_lineset(),
                                  lambda: diffset_lines(*singer_difference_set(5))])
def test_one_call_route_matches_json_loads(make):
    text = lineset_to_json(make())
    V = fast_rows(text)
    assert V is not None
    assert np.array_equal(V.view(np.int64), walked(text).view(np.int64))
    assert np.array_equal(lineset_from_json(text).vectors.view(np.int64), V.view(np.int64))


def test_one_call_route_keeps_every_double():
    from hypothesis import given, settings, strategies as st
    edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, -1.7976931348623157e308])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=4, max_size=4 * 130).filter(lambda x: len(x) % 4 == 0))
    def check(values):
        rows = np.array(values).reshape(-1, 2, 2).tolist()
        text = json.dumps({"dim": 2, "field": "complex", "tol": 1e-9, "vectors": rows})
        V = fast_rows(text)
        assert V is not None and np.array_equal(V.view(np.int64), walked(text).view(np.int64))

    check()


@pytest.mark.parametrize("number", ["01", "-01", "+1", ".5", "-.5", "1.", "1.e5", "-0", "NaN",
                                    "Infinity", "true", "1e", "1-2", "1E5", "9223372036854775808"])
def test_one_call_route_leaves_other_numbers_to_json_loads(number):
    assert fast_rows('{"dim": 1, "field": "complex", "tol": 1e-09, "vectors": [[[%s, 0.0]]]}'
                     % number) is None


def loaded(text):
    """The bits of lineset_from_json(text), or the type and message of what it raises."""
    try:
        return lineset_from_json(text).vectors.view(np.int64).tolist()
    except Exception as exc:  # noqa: BLE001 - the outcome itself is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [
    '{"dim": 1, "vectors": [[[1.0, 0.0]]], }',
    '{, "vectors": [[[1.0, 0.0]]]}',
    '{"dim": 1, "vectors": [[[1.0, 0.0]]] "tol": 1}',
    '{"dim": 1, "vectors": [[[1.0, 0.0]]]',
    '{"dim": 1, "vectors": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}',
    '{"dim": 1, "vectors": [[[1.0, 0.0]]], "vectors": [[[-1.0, 0.0]]]}',
    '{"dim": 1,"vectors":[[[1.0, 0.0]]], "vectors": null}',
    '{"dim": 1, "vectors": [[[1.0,0.0]]]}',
    '{"dim": 1, "vectors": [[[-0, 1]]], "field": "real"}',
    '{"dim": 1, "vectors": [[[01, 0.0]]]}',
    '{"vectors": [[[0.0, 1.0]]], "dim": 1, "labels": [0]}',
    '{"x": [[[1]]], "dim": 1, "vectors": [[[1.0, 0.0]]]}',
    '{"dim": 1, "x": {"vectors": [[[1.0, 0.0]]]}}',
    '{"dim": 1, "vectors": [[[1.0, 0.0]]], "vectors": [[[1.0, 0.0]]]}',
])
def test_any_text_loads_as_json_loads_alone_loads_it(text, monkeypatch):
    fast = loaded(text)
    monkeypatch.setattr(linesets, "_writer_document", lambda data: None)
    assert fast == loaded(text)


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_json_file_in_another_encoding_loads_the_plain_files_bits(encoding, tmp_path):
    X = mub_triple_c2()
    text = lineset_to_json(X)
    path = tmp_path / "lines.json"
    path.write_bytes(text.encode(encoding))
    Y = lineset_from_json(str(path))
    assert Y.vectors.tobytes() == lineset_from_json(text).vectors.tobytes()
    assert Y.basis_labels == X.basis_labels


def test_labels_that_need_escapes_leave_the_one_call_route_and_round_trip():
    X = mub_triple_c2()
    names = dict(zip(dict.fromkeys(X.basis_labels), ["\u00e9", 'a"b', "\\"]))
    X = LineSet(2, X.vectors, basis_labels=[names[lab] for lab in X.basis_labels])
    text = lineset_to_json(X)
    assert fast_rows(text) is None
    Y = lineset_from_json(text)
    assert Y.vectors.tobytes() == X.vectors.tobytes() and Y.basis_labels == X.basis_labels


def test_file_in_no_writer_layout_is_opened_once(tmp_path, monkeypatch):
    X = wf_mubs(4).to_lineset()
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(json.loads(lineset_to_json(X)), indent=2))
    opened = []
    monkeypatch.setattr(linesets, "open", lambda *a: opened.append(a) or open(*a), raising=False)
    Y = lineset_from_json(str(path))
    assert len(opened) == 1 and Y.vectors.tobytes() == X.vectors.tobytes()


def test_loading_a_file_holds_the_text_one_array_and_a_block(tmp_path):
    rng = np.random.default_rng(5)
    V = rng.normal(size=(1000, 32)) + 1j * rng.normal(size=(1000, 32))
    path = tmp_path / "x.json"
    size = len(lineset_to_json(LineSet(32, V / np.linalg.norm(V, axis=1, keepdims=True)), path))
    tracemalloc.start()
    X = lineset_from_json(str(path))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert X.vectors.flags.c_contiguous and peak < size + X.vectors.nbytes + 16 * linesets.BLOCK_ENTRIES


def test_lineset_holds_one_copy_and_a_block():
    rng = np.random.default_rng(6)
    V = rng.normal(size=(2000, 16)) + 1j * rng.normal(size=(2000, 16))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    tracemalloc.start()
    X = LineSet(16, V.T.T)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(X.vectors, V) and peak < V.nbytes + 16 * linesets.BLOCK_ENTRIES
    assert LineSet(16, np.asfortranarray(V)).vectors.flags.c_contiguous


def test_real_set_of_few_long_rows_is_checked_in_nonempty_blocks():
    X = LineSet(5000, np.eye(1, 5000), field="real")  # more blocks of entries than rows
    assert X.n == 1 and X.vectors.flags.c_contiguous
    with pytest.raises(ValueError, match="imaginary parts"):
        LineSet(5000, 1j * np.eye(1, 5000), field="real")


def test_mub_family_bases_keep_their_bits_in_read_only_views_of_its_rows(monkeypatch):
    from linekit import mubs
    raw = []

    class Recording(mubs.MubFamily):
        def __post_init__(self):
            raw[:] = [np.array(B, dtype=complex) for B in self.bases]
            super().__post_init__()

    monkeypatch.setattr(mubs, "MubFamily", Recording)
    # spin_model_mubs(19) has rows that LineSet rescales; those bases stay as given
    for make, rescaled in ((lambda: wf_mubs(4), False), (lambda: alltop_mubs(5), False),
                           (lambda: mubs.spin_model_mubs(19), True)):
        fam = make()
        V = fam.to_lineset().vectors
        views = [np.shares_memory(B, V) for B in fam.bases]
        assert all(views) != rescaled
        for k, B in enumerate(fam.bases):
            assert np.array_equal(np.ascontiguousarray(B).view(np.int64), raw[k].view(np.int64))
            assert views[k] or not np.array_equal(B, V[k * fam.d:(k + 1) * fam.d].T)
            if views[k]:
                with pytest.raises(ValueError):
                    B[0, 0] = 0
