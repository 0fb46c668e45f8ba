"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest linebench -q

The layer test runs one traced pass of every workload (about a minute).
"""

from __future__ import annotations

import inspect
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Layer -> workloads on which README.md's metric table says it must show.
LAYER_WORKLOADS = {
    "finite_algebra": ["mub-build"],
    "mubs": ["mub-build"],
    "linesets": ["certify-deep", "mub-build"],
    "jacobi": ["cli-small"],
    "schemes": ["certify-deep"],
    "groupcodes": ["certify-deep", "cli-small"],
    "sics": ["certify-deep", "cli-small"],
    "cli": ["mub-build", "certify-deep", "cli-small"],
}


def _linekit_modules():
    import linekit.cli  # noqa: F401

    return [m for name, m in sys.modules.items()
            if name == "linekit" or name.startswith("linekit.")]


def _listed():
    names = [(m, n) for m, n, _ in tracer.SPANNED] + [(m, n) for m, n, _, _ in tracer.COUNTED]
    return list(dict.fromkeys(names))


def test_tracer_rebinds_every_listed_callable_in_every_holder():
    modules = _linekit_modules()
    before = {}
    for module, name in _listed():
        home = sys.modules[f"linekit.{module}"]
        cls_name, _, attr = name.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name)
            before[(module, name)] = (cls.__dict__[attr], [(cls, attr)])
        else:
            original = getattr(home, attr)
            holders = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            before[(module, name)] = (original, holders)
    # names bound with `from ... import` in other modules are rebound too
    held_by = {m.__name__ for m, _ in before[("linesets", "gram_degree_set")][1]}
    assert {"linekit.cli", "linekit.schemes", "linekit.sics"} <= held_by

    t = tracer.Tracer()
    t.install()
    try:
        for (module, name), (original, holders) in before.items():
            for owner, attr in holders:
                bound = vars(owner)[attr]
                assert bound is not original, f"{owner.__name__}.{attr} not rebound"
                assert inspect.unwrap(bound) is original
            if not isinstance(holders[0][0], type):
                stale = [m.__name__ for m in modules
                         if any(v is original for v in vars(m).values())]
                assert not stale, f"{module}.{name} still bound in {stale}"
    finally:
        t.uninstall()
    for original, holders in before.values():
        assert all(vars(owner)[attr] is original for owner, attr in holders)


def test_spans_nest_and_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    got = tracer.self_times(spans)
    assert got == {"a": 6.0, "b": 3.0, "c": 1.0}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass per workload: {workload: (results, span totals, counts)}."""
    env = run.child_env()
    out = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        rng = random.Random(f"{name}/1")
        stages = workloads.stages(name, rng)
        run.set_up(name, 1, work, env)
        out[name] = run.traced_pass(stages, rng, work, env)
    return out


@pytest.mark.parametrize("layer", sorted(LAYER_WORKLOADS))
def test_each_layer_records_spans_on_its_workloads(traced, layer):
    for name in LAYER_WORKLOADS[layer]:
        _, spans, _ = traced[name]
        assert any(m.startswith(f"{layer}.") and t > 0 for m, t in spans.items()), (layer, name)


def test_counters_and_gate_on_traced_passes(traced):
    _, _, counts = traced["mub-build"]
    assert counts["finite_algebra.mul_calls"] > 0 and counts["linesets.gram_calls"] > 0
    assert counts["linesets.json_bytes_written"] > 0
    for name, (results, _, _) in traced.items():
        failed = {r.job.id for r in results if r.mismatches}
        expected = {"construct-sic8-file-binary"} if name == "cli-small" else set()
        assert failed == expected, name
        assert all(r.excused for r in results if r.mismatches)


def _bounds_job(fmt, relative="72"):
    argv, fields = workloads.CLI_BOUNDS_POOL[0]
    fields = {**fields, "bounds[relative].value": relative, "config.format": fmt}
    return workloads.Job("b", argv, fields=fields, fmt=fmt)


def _bounds_report(fmt):
    """The CLI's report of the first pooled bounds query, made in-process."""
    import linekit.cli as cli

    args = cli.build_parser().parse_args(["--format", fmt, *workloads.CLI_BOUNDS_POOL[0][0]])
    report, code = args.func(args)
    return cli._emit({"config": cli._run_config(args).as_dict(), **report}, fmt), code


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_gate_reads_every_report_format(fmt):
    text, code = _bounds_report(fmt)
    assert workloads.check(_bounds_job(fmt), code, text) == []
    mismatches = workloads.check(_bounds_job(fmt, relative="73"), code, text)
    assert [m[0] for m in mismatches] == ["bounds[relative].value"]


def test_gate_reads_csv_list_rows_by_column():
    text, code = _bounds_report("csv")
    # the relative bound's value moved into the hypotheses column
    swapped = text.replace("bounds,relative,72,all sign conditions hold",
                           "bounds,relative,all sign conditions hold,72")
    assert swapped != text
    fields = [m[0] for m in workloads.check(_bounds_job("csv"), code, swapped)]
    assert fields == ["bounds[relative].value", "bounds[relative].hypotheses"]


def test_any_miss_is_incorrect_except_the_documented_defect():
    # a crash or a wrong exit code on a normal job is a miss and not excused
    deep = workloads.CERTIFY_DEEP[0]
    assert workloads.check(deep, 1, "")
    assert not workloads.excused(deep, 1, "Traceback (most recent call last):")
    text, _ = _bounds_report("json")
    exit_only = workloads.check(_bounds_job("json"), 4, text)
    assert exit_only == [("exit", "0", "4")]
    assert not workloads.excused(_bounds_job("json"), 4, "")
    # the known-defect job is excused only when it fails in the documented way
    defect = workloads.CLI_CONSTRUCTS[-1]
    code, message = defect.known_defect
    assert ("exit", "0", str(code)) in workloads.check(defect, code, "")
    assert workloads.excused(defect, code, f"error: {message}\n")
    assert not workloads.excused(defect, code, "error: some other failure\n")
    assert not workloads.excused(defect, 1, f"error: {message}\n")
    jobs = ([j for pair in workloads.MUB_PAIRS for j in pair] + workloads.CERTIFY_DEEP
            + workloads.CLI_CONSTRUCTS + workloads.CLI_VERIFY_FIXED + workloads.CLI_VERIFY_POOL)
    assert [j.id for j in jobs if j.known_defect] == [defect.id]


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--seed", "1", "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" ok") == len(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
