"""End-to-end tests of the command-line surface via main()."""

import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import linekit
from linekit import cli, finite_algebra, front, groupcodes, jacobi, linesets, mubs, schemes, sics
from linekit.cli import EXIT_CERTIFICATION, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from linekit.finite_algebra import gf_create, gr_create
from linekit.linesets import LineSet, lineset_from_json, lineset_to_json
from linekit.mubs import SemifieldTable, semifield_to_csv, wf_mubs
from linekit.sics import builtin_fiducial, wh_orbit


def random_lines(n, d, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return LineSet(d, V / np.linalg.norm(V, axis=1, keepdims=True))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_angle_passes(monkeypatch):
    """The list that gets the line set of each `_angle_blocks` pass from now on,
    in `linesets` and in `schemes`, which imports it by name."""
    passes = []
    blocks = linesets._angle_blocks
    for module in (linesets, schemes):
        monkeypatch.setattr(module, "_angle_blocks", lambda X: passes.append(X) or blocks(X))
    return passes


class TestConstructMub:
    def test_wf_dim9_summary(self, capsys, tmp_path):
        out_file = tmp_path / "mub9.json"
        code, out, _ = run(capsys, ["construct", "mub", "--dim", "9", "--out", str(out_file)])
        assert code == EXIT_OK
        assert "n: 90" in out
        assert "bases: 10" in out
        assert "2-design: yes" in out
        X = lineset_from_json(str(out_file))
        assert X.n == 90 and X.dim == 9

    def test_header_echoes_config(self, capsys):
        code, out, _ = run(capsys, ["construct", "mub", "--dim", "2"])
        assert code == EXIT_OK
        header = [line for line in out.splitlines() if line.startswith("#")]
        assert "# subcommand: construct" in header
        assert "# dim: 2" in header
        assert "# method: wf" in header

    def test_field_context_label(self, capsys):
        _, out, _ = run(capsys, ["construct", "mub", "--dim", "9"])
        assert "field context: GF(3^2)/2,1,1" in out
        _, out, _ = run(capsys, ["construct", "mub", "--dim", "4"])
        assert "field context: GR(4^2)/1,1,1" in out
        _, out, _ = run(capsys, ["construct", "mub", "--dim", "7", "--method", "alltop"])
        assert "field context: GF(7^1)/4,1" in out
        for method in (["--method", "spin"], ["--method", "tensor", "--factors", "2,3"]):
            _, out, _ = run(capsys, ["construct", "mub", "--dim", "6", *method])
            assert "field context" not in out

    def test_field_label_is_the_construction_field(self):
        assert wf_mubs(4).provenance[1]["field"] == gr_create(2).label()
        assert wf_mubs(9).provenance[1]["field"] == gf_create(3, 2).label()

    def test_construct_lines_builds_its_field_once(self, capsys, monkeypatch):
        memo, calls = finite_algebra._gf_create, []
        mul = finite_algebra.GaloisField.mul
        monkeypatch.setattr(finite_algebra.GaloisField, "mul",
                            lambda F, a, b: calls.append(1) or mul(F, a, b))

        def mul_calls():
            """GaloisField.mul calls of `construct lines --singer 7` from no built field."""
            memo.cache_clear()
            calls.clear()
            code, out, _ = run(capsys, ["construct", "lines", "--singer", "7"])
            assert code == EXIT_OK
            return len(calls), out

        once, out = mul_calls()
        assert "field context: GF(7^3)/2,3,0,1" in out
        monkeypatch.setattr(finite_algebra, "_gf_create", memo.__wrapped__)
        twice, again = mul_calls()  # each gf_create call searches for the modulus again
        assert again == out and 0 < once < twice

    def test_alltop(self, capsys):
        code, out, _ = run(capsys, ["construct", "mub", "--dim", "5", "--method", "alltop"])
        assert code == EXIT_OK
        assert "bases: 6" in out and "unbiased: yes" in out

    def test_spin_dim6(self, capsys):
        code, out, _ = run(capsys, ["construct", "mub", "--dim", "6", "--method", "spin"])
        assert code == EXIT_OK
        assert "bases: 3" in out and "unbiased: yes" in out

    def test_tensor_needs_matching_factors(self, capsys):
        code, _, err = run(
            capsys, ["construct", "mub", "--dim", "6", "--method", "tensor", "--factors", "2,5"]
        )
        assert code == EXIT_USAGE
        assert "do not multiply" in err

    def test_tensor(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "mub", "--dim", "6", "--method", "tensor", "--factors", "2,3"]
        )
        assert code == EXIT_OK
        assert "bases: 3" in out

    def test_one_certificate_pass_per_line_set(self, capsys, monkeypatch):
        # MubFamily's verify_mub reads the degree set's pass, which is stored
        # on the line set that the report reuses: one pass in all
        passes = count_angle_passes(monkeypatch)
        code, out, _ = run(capsys, ["construct", "mub", "--dim", "5"])
        assert code == EXIT_OK and "unbiased: yes" in out
        assert len(passes) == 1
        # --tol makes a new line set, which is certified afresh
        passes.clear()
        code, out, _ = run(capsys, ["--tol", "1e-6", "construct", "mub", "--dim", "5"])
        assert code == EXIT_OK and "unbiased: yes" in out
        assert len(passes) == 2 and passes[0] is not passes[1]

    def test_semifield_from_csv(self, capsys, tmp_path):
        table_file = tmp_path / "gf3.csv"
        semifield_to_csv(SemifieldTable.from_field(3), str(table_file))
        code, out, _ = run(
            capsys,
            ["construct", "mub", "--dim", "3", "--method", "semifield", "--table", str(table_file)],
        )
        assert code == EXIT_OK
        assert "bases: 4" in out

    def test_missing_dim_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["construct", "mub"])
        assert code == EXIT_USAGE
        assert "--dim" in err


class TestConstructSic:
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 9), (8, 64)])
    def test_builtin_dims(self, capsys, d, n):
        code, out, _ = run(capsys, ["construct", "sic", "--dim", str(d)])
        assert code == EXIT_OK
        assert f"n: {n}" in out
        assert "sic verified: yes" in out
        assert f"1/{d + 1}" in out

    def test_fiducial_from_file(self, capsys, tmp_path):
        fid_file = tmp_path / "fid.json"
        vec = builtin_fiducial(2).vector
        fid_file.write_text(json.dumps([[z.real, z.imag] for z in vec]))
        code, out, _ = run(capsys, ["construct", "sic", "--dim", "2", "--fiducial", f"file:{fid_file}"])
        assert code == EXIT_OK
        assert "sic verified: yes" in out

    def test_fiducial_file_wrong_length(self, capsys, tmp_path):
        fid_file = tmp_path / "fid.json"
        fid_file.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        code, _, err = run(capsys, ["construct", "sic", "--dim", "2", "--fiducial", f"file:{fid_file}"])
        assert code == EXIT_USAGE
        assert "length 3" in err

    @pytest.mark.parametrize("data", [[["1", "0"], ["0", "0"]], [1, 0],
                                      [[True, False], [False, False]], [[1.0, 0.0], [0.0]],
                                      [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], {"re": 1},
                                      [[[1.0, 0.0]], [[0.0, 0.0]]]],
                             ids=["strings", "flat", "booleans", "ragged", "triples", "object",
                                  "nested"])
    def test_malformed_fiducial_file_is_a_usage_error(self, capsys, tmp_path, data):
        fid_file = tmp_path / "fid.json"
        fid_file.write_text(json.dumps(data))
        code, _, err = run(capsys, ["construct", "sic", "--dim", "2", "--fiducial", f"file:{fid_file}"])
        assert code == EXIT_USAGE
        assert "malformed fiducial" in err

    def test_fiducial_file_reads_every_bit(self, capsys, tmp_path, monkeypatch):
        vec = builtin_fiducial(3).vector
        fid_file = tmp_path / "fid.json"
        fid_file.write_text(json.dumps([[z.real, z.imag] for z in vec]))
        seen = []

        def orbit(fid):
            seen.append(fid)
            return wh_orbit(fid)

        monkeypatch.setattr(sics, "wh_orbit", orbit)
        code, _, _ = run(capsys, ["construct", "sic", "--dim", "3", "--fiducial", f"file:{fid_file}"])
        assert code == EXIT_OK
        assert seen[0].vector.tobytes() == vec.tobytes()

    def test_binary_group_file_fiducial(self, capsys, tmp_path):
        fid_file = tmp_path / "fid8.json"
        vec = builtin_fiducial(8).vector
        fid_file.write_text(json.dumps([[z.real, z.imag] for z in vec]))
        code, out, _ = run(
            capsys,
            ["construct", "sic", "--dim", "8", "--fiducial", f"file:{fid_file}", "--group", "binary"],
        )
        assert code == EXIT_OK
        assert "n: 64" in out
        assert "sic verified: yes" in out

    def test_binary_group_needs_dim_8(self, capsys, tmp_path):
        fid_file = tmp_path / "fid7.json"
        fid_file.write_text(json.dumps([[1.0, 0.0]] * 7))
        code, _, err = run(
            capsys,
            ["construct", "sic", "--dim", "7", "--fiducial", f"file:{fid_file}", "--group", "binary"],
        )
        assert code == EXIT_USAGE
        assert "the binary-triple group lives in dimension 8" in err

    def test_appleby_without_solution_is_internal(self, capsys):
        code, _, err = run(capsys, ["construct", "sic", "--dim", "5", "--fiducial", "appleby"])
        assert code == EXIT_INTERNAL
        assert "no verified fiducial" in err


class TestConstructLines:
    def test_singer_2(self, capsys, tmp_path):
        out_file = tmp_path / "singer2.json"
        code, out, _ = run(capsys, ["construct", "lines", "--singer", "2", "--out", str(out_file)])
        assert code == EXIT_OK
        assert "n: 7" in out
        assert "bound: relative; value: 7; status: met with equality" in out

    def test_singer_3_welch_floor(self, capsys):
        _, out, _ = run(capsys, ["construct", "lines", "--singer", "3"])
        assert "n: 13" in out
        assert "largest angle meets the floor" in out


class TestVerify:
    @pytest.fixture()
    def mub_file(self, capsys, tmp_path):
        path = tmp_path / "mub5.json"
        run(capsys, ["construct", "mub", "--dim", "5", "--out", str(path)])
        return str(path)

    def test_roundtrip_passes(self, capsys, mub_file):
        code, out, _ = run(capsys, ["verify", mub_file, "--expect", "mub"])
        assert code == EXIT_OK
        assert "result: pass" in out

    @pytest.mark.parametrize("deep", [[], ["--deep"]], ids=["plain", "deep"])
    def test_one_angle_pass_per_certificate(self, capsys, monkeypatch, mub_file, deep):
        # the degree set and verify_mub share one pass; --deep reads the scheme of
        # the complete set off its design strength, with no class labels
        passes = count_angle_passes(monkeypatch)
        code, out, _ = run(capsys, ["verify", mub_file, *deep, "--expect", "mub"])
        assert code == EXIT_OK and "result: pass" in out
        assert len(passes) == 1 and len(set(map(id, passes))) == 1

    @staticmethod
    def moved_wf5(tmp_path):
        """The file of wf_mubs(5) with its last basis moved by 4e-7."""
        X = wf_mubs(5).to_lineset()
        rng = np.random.default_rng(0)
        V = X.vectors.copy()
        V[-5:] += 4e-7 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        path = tmp_path / "moved.json"
        lineset_to_json(LineSet(5, V, basis_labels=X.basis_labels), path=str(path))
        return str(path)

    def test_tol_moves_every_threshold_together(self, capsys, tmp_path):
        # the last basis of wf_mubs(5) moved by 4e-7: its cells are orthonormal
        # to about 4e-7, its cross angles miss 1/5 by about 1e-6 and G^2 misses
        # (n/d) G by about 2e-7, all within certify_tol(1e-5) = 1e-4 and none
        # within certify_tol(1e-9) = 1e-8
        argv = ["verify", self.moved_wf5(tmp_path), "--deep", "--expect", "mub"]
        code, out, _ = run(capsys, ["--tol", "1e-5", "--format", "json", *argv])
        assert code == EXIT_OK, out
        report = json.loads(out)
        assert report["summary"]["degree set"] == "0 (x 60), 1/5 (≈ 0.2) (x 375)"
        assert report["deep"]["gram algebra closed"] == "yes"
        assert float(report["deep"]["gram square identity residual"]) > 1e-8
        code, _, _ = run(capsys, argv)
        assert code == EXIT_CERTIFICATION

    def test_noise_does_not_snap_to_a_fraction(self, capsys, tmp_path):
        # at the default tol the moved angles stay floats: only 0 and the
        # unmoved 1/5 are exact, where a denominator bound of 10^6 printed
        # noise as fractions such as 152671/763358
        argv = ["--format", "json", "verify", self.moved_wf5(tmp_path), "--expect", "mub"]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_CERTIFICATION and "152671/763358" not in out
        degree = json.loads(out)["summary"]["degree set"]
        assert degree.startswith("0 (x 60), 0.1999")
        assert re.findall(r"\d+/\d+", degree) == ["1/5"]

    def test_unsnapped_angle_meets_the_relative_bound(self, capsys, tmp_path):
        # 31/1024 has a denominator above snap_denominator(1e-6) = 707, so the
        # bound is computed from the float angle; the pair sums still decide
        # that the Singer set meets it
        path = str(tmp_path / "singer31.json")
        run(capsys, ["construct", "lines", "--singer", "31", "--out", path])
        code, out, _ = run(capsys, ["--tol", "1e-6", "verify", path, "--expect", "equiangular"])
        assert code == EXIT_OK and "result: pass" in out
        assert "(≈ 993); status: met with equality" in out
        assert "alpha_snapped: None" in out and "relative_equality: True" in out
        code, out, _ = run(capsys, ["verify", path, "--expect", "equiangular"])
        assert code == EXIT_OK and "value: 993; status: met with equality" in out

    @pytest.mark.parametrize("scale", [1 - 5e-9, 1 + 5e-9])
    def test_scaled_norms_meet_the_relative_bound(self, capsys, tmp_path, scale):
        # LineSet accepts norms within certify_tol of 1 and divides them out,
        # so the scaled vectors are read as the lines they span
        path = str(tmp_path / "singer31.json")
        X = groupcodes.diffset_lines(*groupcodes.singer_difference_set(31))
        lineset_to_json(LineSet(X.dim, X.vectors * scale), path)
        code, out, _ = run(capsys, ["verify", path, "--expect", "equiangular"])
        assert code == EXIT_OK and "value: 993; status: met with equality" in out
        assert "relative_equality: True" in out

    def test_relative_equality_survives_optimized_python(self, capsys, tmp_path):
        path = tmp_path / "singer31.json"
        run(capsys, ["construct", "lines", "--singer", "31", "--out", str(path)])
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "linekit", "--tol", "1e-6", "verify", path.name,
             "--expect", "equiangular"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "status: met with equality" in proc.stdout
        assert "relative_equality: True" in proc.stdout

    def test_equiangular_lines_make_one_angle_pass(self, capsys, monkeypatch, tmp_path):
        # the relative row and verify_equiangular read the degree set's pass
        path = str(tmp_path / "singer7.json")
        passes = count_angle_passes(monkeypatch)
        code, out, _ = run(capsys, ["construct", "lines", "--singer", "7", "--out", path])
        assert code == EXIT_OK and "value: 57; status: met with equality" in out
        assert len(passes) == 1
        passes.clear()
        code, out, _ = run(capsys, ["verify", path, "--expect", "equiangular"])
        assert code == EXIT_OK and "relative_equality: True" in out
        assert len(passes) == 1

    def test_corrupted_norm_names_index(self, capsys, tmp_path, mub_file):
        data = json.loads(open(mub_file).read())
        data["vectors"][4] = [[1.1 * re, 1.1 * im] for re, im in data["vectors"][4]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, ["verify", str(bad)])
        assert code == EXIT_USAGE
        assert "vector 4" in err

    @pytest.mark.parametrize("entry", [lambda re, im: [re, im, 0.5], lambda re, im: [re]],
                             ids=["re-im-x", "re"])
    @pytest.mark.parametrize("where", ["one-entry", "every-entry"])
    def test_malformed_entries_rejected(self, capsys, tmp_path, mub_file, entry, where):
        data = json.loads(open(mub_file).read())
        if where == "one-entry":
            data["vectors"][4][2] = entry(*data["vectors"][4][2])
        else:
            data["vectors"] = [[entry(re, im) for re, im in row] for row in data["vectors"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, ["verify", str(bad)])
        assert code == EXIT_USAGE
        assert "malformed line set" in err

    def test_expect_sic_on_d3_orbit(self, capsys, tmp_path):
        path = tmp_path / "sic3.json"
        run(capsys, ["construct", "sic", "--dim", "3", "--out", str(path)])
        code, out, _ = run(capsys, ["verify", str(path), "--expect", "sic"])
        assert code == EXIT_OK
        assert "result: pass" in out

    def test_expect_sic_prints_rational_alpha(self, capsys, tmp_path):
        path = tmp_path / "sic8.json"
        run(capsys, ["construct", "sic", "--dim", "8", "--out", str(path)])
        code, out, _ = run(capsys, ["verify", str(path), "--expect", "sic"])
        assert code == EXIT_OK
        section = out.split("[expect sic]\n")[1].split("\n[")[0]
        assert section.splitlines() == ["is_sic: True", "alpha: 1/9 (≈ 0.111111)", "strength: 2"]

    def test_expect_mub_fails_without_labels(self, capsys, tmp_path):
        path = tmp_path / "singer.json"
        run(capsys, ["construct", "lines", "--singer", "2", "--out", str(path)])
        code, out, _ = run(capsys, ["verify", str(path), "--expect", "mub"])
        assert code == EXIT_CERTIFICATION
        assert "result: fail" in out

    def test_expect_equiangular_prints_each_angle_to_three_digits(self, capsys, tmp_path):
        path = tmp_path / "tensor6.json"
        run(capsys, ["construct", "mub", "--method", "tensor", "--factors", "2,3", "--dim", "6",
                     "--out", str(path)])
        code, out, _ = run(capsys, ["--format", "json", "verify", str(path),
                                    "--expect", "equiangular"])
        assert code == EXIT_CERTIFICATION
        section = json.loads(out)["expect equiangular"]
        angles = linesets.gram_degree_set(lineset_from_json(str(path))).angles
        assert len(angles) == 2 and section["equiangular"] == "False"
        assert section["degree_set"] == f"[{angles[0]:.3g}, 0.167]"

    def test_failure_list_is_machine_readable(self, capsys, mub_file):
        code, out, _ = run(
            capsys, ["--format", "json", "verify", mub_file, "--expect", "equiangular"]
        )
        assert code == EXIT_CERTIFICATION
        report = json.loads(out)
        assert report["result"] == "fail"
        assert report["failures"][0]["check"] == "expect-equiangular"

    def test_deep_adds_scheme_and_gram(self, capsys, mub_file):
        code, out, _ = run(capsys, ["verify", mub_file, "--deep"])
        assert code == EXIT_OK
        assert "scheme closed: yes" in out
        assert "gram algebra closed: yes" in out

    def test_deep_on_an_orthonormal_basis(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        lineset_to_json(LineSet(3, np.eye(3)), path=str(path))
        code, out, _ = run(capsys, ["verify", str(path), "--deep"])
        assert code == EXIT_OK
        assert "gram algebra closed: yes" in out

    @pytest.mark.parametrize("layer, field, value, check", [
        ("scheme_from_lineset", "pq_residual", 1.0, "scheme-pq"),
        ("scheme_from_lineset", "krein_min", -1.0, "scheme-krein"),
        ("gram_algebra_check", "mub_identity_residual", 1.0, "gram-square"),
    ])
    def test_deep_checks_fail_past_their_tolerance_and_on_nan(
            self, capsys, monkeypatch, mub_file, layer, field, value, check):
        original = getattr(schemes, layer)

        def bent(X, *, to):
            out = original(X)
            if isinstance(out, dict):
                return {**out, field: to}
            return dataclasses.replace(out, **{field: to})

        monkeypatch.setattr(schemes, layer, lambda X: bent(X, to=value))
        code, out, _ = run(capsys, ["--format", "json", "verify", mub_file, "--deep"])
        assert code == EXIT_CERTIFICATION
        assert [f["check"] for f in json.loads(out)["failures"]] == [check]
        # a NaN residual is within no tolerance
        monkeypatch.setattr(schemes, layer, lambda X: bent(X, to=float("nan")))
        code, out, _ = run(capsys, ["--format", "json", "verify", mub_file, "--deep"])
        assert code == EXIT_CERTIFICATION
        assert [f["check"] for f in json.loads(out)["failures"]] == [check]

    @pytest.mark.parametrize("field, value, check", [
        ("pq_residual", 30e-7, "scheme-pq"),  # count_tol(30, tol): 3e-7, then 3e-4
        ("krein_min", -1e-7, "scheme-krein"),  # -certify_tol(tol): -1e-8, then -1e-5
    ])
    def test_deep_scheme_checks_follow_tol(self, capsys, monkeypatch, mub_file, field, value,
                                           check):
        original = schemes.scheme_from_lineset
        monkeypatch.setattr(schemes, "scheme_from_lineset",
                            lambda X: dataclasses.replace(original(X), **{field: value}))
        code, out, _ = run(capsys, ["--format", "json", "verify", mub_file, "--deep"])
        assert code == EXIT_CERTIFICATION
        assert [f["check"] for f in json.loads(out)["failures"]] == [check]
        code, out, _ = run(capsys, ["--format", "json", "--tol", "1e-6", "verify", mub_file,
                                    "--deep"])
        assert code == EXIT_OK and json.loads(out)["failures"] == []

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["verify", "/nonexistent/x.json"])
        assert code == EXIT_USAGE
        assert "cannot read" in err

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_entry_that_is_not_finite_is_malformed(self, capsys, tmp_path, mub_file, entry):
        data = json.loads(open(mub_file).read())
        data["vectors"][7][3][1] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, ["verify", str(bad)])
        assert code == EXIT_USAGE
        assert f"malformed line set in {bad}: vector 7 has an entry that is not finite" in err

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("source", ["option", "file", "construct"])
    def test_tolerance_that_is_not_finite_and_positive_is_a_usage_error(
            self, capsys, monkeypatch, tmp_path, mub_file, tol, source):
        passes = []
        monkeypatch.setattr(linesets, "_angle_blocks", lambda X: passes.append(X) or iter(()))
        if source == "option":
            argv = ["--tol", str(tol), "verify", mub_file, "--expect", "mub"]
        elif source == "construct":  # MubFamily certifies what it builds
            argv = ["--tol", str(tol), "construct", "mub", "--dim", "5"]
        else:
            data = json.loads(open(mub_file).read())
            data["tol"] = tol
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(data))
            argv = ["verify", str(bad), "--expect", "mub"]
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE and out == ""
        assert f"tol must be finite and positive, got {tol!r}" in err
        assert passes == []  # refused before any pass over the angles


class TestBounds:
    def test_dim6_table(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--dim", "6"])
        assert code == EXIT_OK
        assert "absolute Hom(1,1); value: 36" in out
        assert "42 lines / 7 bases" in out

    def test_relative_from_angles(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--dim", "3", "--angles", "2/9"])
        assert code == EXIT_OK
        assert "bound: relative; value: 7" in out

    def test_real_gate(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--dim", "4", "--real"])
        assert code == EXIT_OK
        assert "real unbiased bases; value: 3" in out

    def test_mub_angle_pair_gives_d_dplus1(self, capsys):
        _, out, _ = run(capsys, ["bounds", "--dim", "4", "--angles", "0,1/4"])
        assert "bound: relative; value: 20" in out

    def test_welch_row_with_n(self, capsys):
        _, out, _ = run(capsys, ["bounds", "--dim", "3", "--n", "9"])
        assert "welch floor; value: 3/4" not in out  # (9-3)/(3*8) = 1/4
        assert "welch floor; value: 1/4" in out

    def test_bad_angles_rejected(self, capsys):
        code, _, err = run(capsys, ["bounds", "--dim", "3", "--angles", "5/4"])
        assert code == EXIT_USAGE
        assert "angles" in err

    def test_annihilator_with_c0_zero_is_a_usage_error(self, capsys):
        # F = x - 1/d has c_0 = 1/d - 1/d
        code, _, err = run(capsys, ["bounds", "--dim", "4", "--angles", "1/4"])
        assert code == EXIT_USAGE
        assert "c_0 = 0" in err

    def test_annihilator_with_negative_c0_fails_its_hypothesis(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--dim", "4", "--angles", "1/2"])
        assert code == EXIT_OK
        assert "bound: relative; value: -2; hypotheses: sign conditions FAIL: c_0 > 0" in out

    def test_annihilator_builds_families_only_to_its_degree(self, monkeypatch):
        depths = []
        real = jacobi.JacobiFamily
        monkeypatch.setattr(jacobi, "JacobiFamily",
                            lambda d, max_k: depths.append(max_k) or real(d, max_k))
        out = jacobi.annihilator_bound(27, [Fraction(0), Fraction(1, 27)])
        assert out["bound"] == 756 and all(out["hypotheses_ok"].values())
        assert depths == [2]  # the expansion of F, which `relative_bound` reuses


class TestSchemeCmd:
    def test_singer_scheme(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        run(capsys, ["construct", "lines", "--singer", "2", "--out", str(path)])
        out_file = tmp_path / "scheme.json"
        code, out, _ = run(
            capsys, ["scheme", str(path), "--gram", "--idempotents", "1", "--out", str(out_file)]
        )
        assert code == EXIT_OK
        assert "closed: yes" in out
        assert "valencies: 1, 6" in out
        report = json.loads(out_file.read_text())
        assert report["closed"] is True
        assert report["multiplicities"] == [1, 6]

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_idempotents_report_the_keeping_route(self, capsys, tmp_path, monkeypatch, e):
        path = tmp_path / "mub16.json"
        run(capsys, ["construct", "mub", "--dim", "16", "--out", str(path)])
        monkeypatch.setattr(linesets, "BLOCK_ENTRIES", 40 * 272)  # 6 row blocks at n = 272
        code, out, _ = run(capsys, ["--format", "json", "scheme", str(path),
                                    "--idempotents", str(e)])
        assert code == EXIT_OK
        kept = linekit.jacobi_idempotents(lineset_from_json(str(path)), e=e)
        assert json.loads(out)["idempotents"] == {
            "e": e,
            "max residual": f"{kept['max_residual']:.3g}",
            "traces": ", ".join(front.fmt_rational(t) for t in kept["traces"]),
        }

    def test_open_scheme_reported(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(5, 3, 2))
        vecs = raw[..., 0] + 1j * raw[..., 1]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        path = tmp_path / "rand.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "field": "complex",
                    "tol": 1e-9,
                    "vectors": [[[z.real, z.imag] for z in v] for v in vecs],
                }
            )
        )
        code, out, _ = run(capsys, ["scheme", str(path)])
        assert code == EXIT_OK
        assert "closed: no" in out


#: sets that take the scheme of their design strength, and sets that do not
DESIGN_FILES = {
    "wf5": lambda: wf_mubs(5).to_lineset(),
    "sic3": lambda: wh_orbit(builtin_fiducial(3)),
    "singer7": lambda: groupcodes.diffset_lines(*groupcodes.singer_difference_set(7)),
}
LABELLED_FILES = {
    "wf8-three-bases": lambda: LineSet(8, wf_mubs(8).to_lineset().vectors[:24],
                                       basis_labels=[k // 8 for k in range(24)]),
    "random": lambda: random_lines(12, 3, seed=2),
}


@pytest.mark.parametrize("argv", [["verify", "--deep"], ["scheme", "--gram"]],
                         ids=["verify-deep", "scheme"])
@pytest.mark.parametrize("name", [*DESIGN_FILES, *LABELLED_FILES])
def test_designs_make_one_angle_pass_and_no_labels(capsys, monkeypatch, tmp_path, name, argv):
    design = name in DESIGN_FILES
    path = str(tmp_path / f"{name}.json")
    lineset_to_json({**DESIGN_FILES, **LABELLED_FILES}[name](), path=path)
    passes, labels = count_angle_passes(monkeypatch), []
    cut = schemes._angle_labels
    monkeypatch.setattr(schemes, "_angle_labels", lambda X: labels.append(X) or cut(X))
    _, out, _ = run(capsys, [argv[0], path, *argv[1:]])
    assert f"route: {'design' if design else 'labels'}" in out
    assert len(passes) == (1 if design else 2)  # the degree set's pass, and the labels'
    assert (labels == []) == design


class TestExport:
    @staticmethod
    def dense_angles_csv(X):
        """The angles CSV from the whole angle matrix (reference)."""
        sq = X.angle_matrix()
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["i", "j", "angle"])
        for i in range(X.n):
            for j in range(i + 1, X.n):
                writer.writerow([i, j, f"{sq[i, j]:.12g}"])
        return buf.getvalue().encode()

    @pytest.mark.parametrize("make", [
        lambda: wf_mubs(3).to_lineset(),
        lambda: wh_orbit(builtin_fiducial(8)),
        lambda: random_lines(30, 4, seed=5),
    ], ids=["wf3", "sic8", "random"])
    def test_angles_csv_matches_the_dense_writer(self, capsys, tmp_path, make):
        X = make()
        path, out_file = tmp_path / "x.json", tmp_path / "angles.csv"
        lineset_to_json(X, path=str(path))
        code, _, _ = run(capsys, ["export", "angles", str(path), "--out", str(out_file)])
        assert code == EXIT_OK
        assert out_file.read_bytes() == self.dense_angles_csv(lineset_from_json(str(path)))

    def test_angles_csv(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        run(capsys, ["construct", "lines", "--singer", "2", "--out", str(path)])
        out_file = tmp_path / "angles.csv"
        code, out, _ = run(capsys, ["export", "angles", str(path), "--out", str(out_file)])
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0] == "i,j,angle"
        assert len(lines) == 1 + 7 * 6 // 2

    def test_diffset_json(self, capsys, tmp_path):
        out_file = tmp_path / "ds.json"
        code, out, _ = run(capsys, ["export", "diffset", "--singer", "3", "--out", str(out_file)])
        assert code == EXIT_OK
        data = json.loads(out_file.read_text())
        assert len(data["D"]) == 4

    def test_rds_diffset(self, capsys, tmp_path):
        out_file = tmp_path / "rds.json"
        code, out, _ = run(capsys, ["export", "diffset", "--rds", "3", "--out", str(out_file)])
        assert code == EXIT_OK
        assert "kind: relative" in out

    def test_tank_trap_graph(self, capsys, tmp_path, monkeypatch):
        calls = []
        edge_list = groupcodes.GraphWithSpectrum.edge_list
        monkeypatch.setattr(groupcodes.GraphWithSpectrum, "edge_list",
                            lambda graph: calls.append(graph) or edge_list(graph))
        out_file = tmp_path / "tt.edges"
        code, out, _ = run(capsys, ["export", "graph", "--tank-trap", "--out", str(out_file)])
        assert code == EXIT_OK
        assert "intersection array: {6,5,4,1;1,2,5,6}" in out and "edges: 108" in out
        assert len(out_file.read_text().splitlines()) == 108
        assert len(calls) == 1  # the file and the count share one edge list

    def test_code_csv(self, capsys, tmp_path):
        out_file = tmp_path / "c.csv"
        code, out, _ = run(
            capsys,
            ["export", "code", "--alphabet", "2", "--generator", "1,0,1", "--generator", "0,1,1",
             "--out", str(out_file)],
        )
        assert code == EXIT_OK
        assert "words: 4" in out
        assert out_file.read_text().startswith("gf,2")

    def test_angles_need_a_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["export", "angles", "--out", str(tmp_path / "a.csv")])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: export angles needs a line-set FILE\n"
        assert not (tmp_path / "a.csv").exists()

    def test_diffset_needs_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["export", "diffset", "--out", str(tmp_path / "x.json")]
        )
        assert code == EXIT_USAGE


class TestReportContract:
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, ["--format", "json", "bounds", "--dim", "5", "--angles", "0,1/5"])
        _, out2, _ = run(capsys, ["--format", "json", "bounds", "--dim", "5", "--angles", "0,1/5"])
        assert out1 == out2

    def test_construct_deterministic(self, capsys):
        _, out1, _ = run(capsys, ["construct", "mub", "--dim", "3"])
        _, out2, _ = run(capsys, ["construct", "mub", "--dim", "3"])
        assert out1 == out2

    def test_csv_format_has_config_rows(self, capsys):
        _, out, _ = run(capsys, ["--format", "csv", "bounds", "--dim", "2"])
        assert out.splitlines()[0].startswith("config,subcommand,bounds")

    def test_header_echoes_every_option(self):
        # a saved report reproduces its run: every option is echoed, is an
        # input or the output, or is one of the front's own keys
        parser = front.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        own = {"func", "subcommand", "format", "tol", "seed"}
        for name, p in sub.choices.items():
            dests = {a.dest for a in p._actions if a.dest != "help"}
            args = argparse.Namespace(**{d: f"<{d}>" for d in dests | own})
            config = front._run_config(args).as_dict()
            header = {str(v) for v in config.values()} | set(config["inputs"])
            assert {d for d in dests - own if f"<{d}>" not in header} == set(), name

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["construct", "mub", "--dim", "3", "--frobnicate"])
        assert info.value.code == EXIT_USAGE

    def test_json_report_parses(self, capsys):
        _, out, _ = run(capsys, ["--format", "json", "construct", "mub", "--dim", "2"])
        report = json.loads(out)
        assert report["config"]["dim"] == 2
        assert report["summary"]["n"] == 6

    def test_layer_functions_are_called_through_module_names(self, capsys, monkeypatch, tmp_path):
        # tools that rebind a layer function in its home module (the benchmark
        # tracer) see every call; a table holding the function would not
        homes = {"verify_mub": linesets, "verify_sic": sics, "verify_equiangular": linesets,
                 "scheme_from_lineset": schemes, "gram_algebra_check": schemes,
                 "wf_mubs": mubs, "alltop_mubs": mubs}
        names = tuple(homes)
        called = set()
        for name in names:
            def counting(*args, _name=name, _original=getattr(homes[name], name), **kwargs):
                called.add(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(homes[name], name, counting)
        path = tmp_path / "sic3.json"
        assert main(["construct", "mub", "--dim", "4"]) == EXIT_OK
        assert main(["construct", "mub", "--dim", "5", "--method", "alltop"]) == EXIT_OK
        assert main(["construct", "sic", "--dim", "3", "--out", str(path)]) == EXIT_OK
        for kind in ("sic", "mub", "equiangular"):
            main(["verify", str(path), "--deep", "--expect", kind])
        capsys.readouterr()
        assert called == set(names)


# ---------------------------------------------------------------------------
# cold start: which modules a fresh process loads
# ---------------------------------------------------------------------------

SRC = str(Path(linekit.__file__).parent.parent)
LAYERS = {f"linekit.{m}" for m in
          ("finite_algebra", "mubs", "linesets", "jacobi", "schemes", "groupcodes", "sics")}


def child_imports(*args):
    """A fresh `python -X importtime ARGS` process and the modules it imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, timeout=60)
    rows = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc, {row.rsplit("|", 1)[1].strip() for row in rows}


class TestColdStart:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_bounds_loads_no_numpy_and_no_layer_but_jacobi(self, fmt):
        proc, names = child_imports("-m", "linekit", "--format", fmt, "bounds", "--dim", "27",
                                    "--s", "2", "--angles", "0,1/27", "--real")
        assert proc.returncode == EXIT_OK and "756" in proc.stdout
        assert "numpy" not in names
        assert {n for n in names if n.startswith("linekit.")} == {
            "linekit.front", "linekit.jacobi", "linekit.tolerance"}

    def test_import_linekit_loads_nothing(self):
        proc, names = child_imports("-c", "import linekit; linekit.__version__")
        assert proc.returncode == 0 and "linekit" in names
        assert "numpy" not in names
        assert not any(n.startswith("linekit.") for n in names)

    def test_import_cli_loads_every_layer(self):
        # tools that rebind layer functions in every linekit namespace rely on it
        proc, names = child_imports("-c", "import linekit.cli")
        assert proc.returncode == 0
        assert LAYERS <= names and "numpy" in names

    def test_help_and_usage_error_exit_codes(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        ok = subprocess.run([sys.executable, "-m", "linekit", "--help"], capture_output=True,
                            text=True, env=env, timeout=60)
        assert ok.returncode == 0 and "bounds" in ok.stdout
        bad = subprocess.run([sys.executable, "-m", "linekit", "bounds"], capture_output=True,
                             text=True, env=env, timeout=60)
        assert bad.returncode == EXIT_USAGE and "--dim" in bad.stderr

    def test_cli_main_is_the_front_main(self):
        assert main is front.main

    @pytest.mark.parametrize("argv, code, layers", [
        (["verify", "MUB", "--expect", "mub"], EXIT_OK, {"linesets", "jacobi"}),
        (["verify", "MUB", "--deep", "--expect", "mub"], EXIT_OK,
         {"linesets", "jacobi", "schemes"}),
        (["verify", "MUB", "--expect", "sic"], EXIT_CERTIFICATION,
         {"linesets", "jacobi", "sics"}),
        (["scheme", "MUB"], EXIT_OK, {"linesets", "jacobi", "schemes"}),
        (["export", "angles", "MUB", "--out", "a.csv"], EXIT_OK, {"linesets", "jacobi"}),
        (["construct", "mub", "--dim", "5"], EXIT_OK,
         {"linesets", "jacobi", "mubs", "finite_algebra"}),
        (["construct", "sic", "--dim", "3"], EXIT_OK, {"linesets", "jacobi", "sics"}),
        (["construct", "lines", "--singer", "3"], EXIT_OK,
         {"linesets", "jacobi", "groupcodes", "finite_algebra"}),
        (["export", "diffset", "--singer", "3", "--out", "d.json"], EXIT_OK,
         {"linesets", "jacobi", "groupcodes", "finite_algebra"}),
    ], ids=["verify", "verify-deep", "verify-sic", "scheme", "export-angles", "construct-mub",
            "construct-sic", "construct-lines", "export-diffset"])
    def test_each_subcommand_loads_only_the_layers_it_runs(self, tmp_path, argv, code, layers):
        lineset_to_json(wf_mubs(5).to_lineset(), path=str(tmp_path / "mub5.json"))
        argv = [str(tmp_path / "mub5.json") if a == "MUB" else a for a in argv]
        script = ("import sys\n"
                  "from linekit.front import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('linekit.')),"
                  " file=sys.stderr)\n"
                  "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
                              timeout=60)
        assert proc.returncode == code, proc.stderr
        loaded = set(proc.stderr.split())
        assert loaded & LAYERS == {f"linekit.{m}" for m in layers}
        assert loaded - LAYERS == {"linekit.front", "linekit.commands", "linekit.tolerance"}


def load_tracer(monkeypatch):
    """The benchmark's tracer module, loaded from its file without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "linebench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("linebench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_call_of_a_deep_verify(capsys, monkeypatch, tmp_path):
    # the tracer rebinds functions in the namespaces that hold them; the
    # commands call each layer through its home module, so it sees them all
    tracer = load_tracer(monkeypatch)
    path = tmp_path / "mub5.json"
    lineset_to_json(wf_mubs(5).to_lineset(), path=str(path))
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["verify", str(path), "--deep", "--expect", "mub"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == EXIT_OK
    spans = tracer.self_times(t.spans)
    for metric in ("linesets.gram_degree_set_s", "linesets.verify_mub_s",
                   "schemes.scheme_from_lineset_s", "schemes.gram_algebra_check_s",
                   "cli.main_self_s"):
        assert spans[metric] > 0, metric


class TestLazyPackage:
    def test_every_public_name_resolves_to_its_home_object(self):
        names = [n for n in linekit.__all__ if n != "__version__"]
        assert len(names) == len(set(names)) == 76
        for name in names:
            obj = getattr(linekit, name)
            assert obj.__module__ in LAYERS
            assert getattr(import_module(obj.__module__), name) is obj
        assert linekit.__version__ == "0.1.0"
        assert set(linekit.__all__) <= set(dir(linekit))
        with pytest.raises(AttributeError, match="no_such_name"):
            linekit.no_such_name  # noqa: B018

    def test_star_import(self):
        namespace = {}
        exec("from linekit import *", namespace)
        assert set(linekit.__all__) <= set(namespace)
        assert namespace["wf_mubs"] is import_module("linekit.mubs").wf_mubs
