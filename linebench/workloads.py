"""Workload definitions and the correctness gate.

Every job is one ``python -m linekit --format FMT ARGV...`` process run in
the workload's scratch directory.  Each job carries its expected outcome:
the exit code and a set of report fields.  Field paths name a value in the
report: ``section.key`` for a key of a section, and ``section[ROW].key`` for
a key of the list row whose first column is ROW.

Most expected values follow from the mathematics: complete MUB sets have
d(d+1) lines, two angles {0, 1/d} and design strength 2; the SIC and Singer
sets meet their relative bounds with one angle; the cover of K_(13,13) has
intersection array {13,12,12,1;1,1,12,13}.  The rest (field-context labels,
the three-angle bound in C^4) were read from the program and cross-checked
against the routes they name.  The ``--group binary`` job expects exit 0, as
the CLI help documents; the CLI exits 2 on it today.  That job carries its
known defect, so the run counts it as failed but, as long as it fails in
exactly the documented way, not as incorrect (see README.md).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field


@dataclass
class Job:
    id: str
    argv: tuple
    exit: int = 0
    fields: dict = field(default_factory=dict)
    fmt: str = "json"
    #: (exit code, stderr fragment) of a documented defect the job hits today.
    known_defect: tuple | None = None

    @property
    def subcommand(self):
        return self.argv[0]


# ---------------------------------------------------------------------------
# expected report fields
# ---------------------------------------------------------------------------


def lines(n, d, s, degree, strength, **extra):
    """The summary block every construct and verify report carries."""
    out = {
        "summary.n": str(n),
        "summary.d": str(d),
        "summary.s": str(s),
        "summary.degree set": degree,
        "summary.design strength": str(strength),
    }
    out.update(extra)
    return out


def mub_degree(d, n):
    """Degree set of a complete MUB set: 0 inside a basis, 1/d across."""
    inside = (d + 1) * d * (d - 1) // 2
    across = n * (n - 1) // 2 - inside
    return f"0 (x {inside}), {approx(1, d)} (x {across})"


def approx(p, q):
    """A rational as the CLI prints it: 'p/q (≈ 0.123456)'."""
    return f"{p}/{q} (≈ {p / q:.6g})"


def complete_mub(d, context=None):
    n = d * (d + 1)
    extra = {"summary.bases": str(d + 1), "bounds[relative].value": str(n),
             "bounds[relative].status": "met with equality"}
    if context is not None:
        extra["summary.field context"] = context
    return lines(n, d, 2, mub_degree(d, n), 2, **extra)


def passed(**fields):
    return {**fields, "result": "pass"}


def failed(check, **fields):
    return {**fields, f"failures[{check}].check": check, "result": "fail"}


# ---------------------------------------------------------------------------
# mub-build: three construct -> verify pairs over the three algebra routes
# ---------------------------------------------------------------------------


def _mub_pair(name, argv, d, context):
    summary = complete_mub(d, context)
    construct = Job(
        f"construct-{name}",
        ("construct", "mub", *argv, "--out", f"{name}.json"),
        fields={**summary, "summary.unbiased": "yes", "wrote": f"{name}.json"},
    )
    summary.pop("summary.field context")
    verify = Job(
        f"verify-{name}",
        ("verify", f"{name}.json", "--expect", "mub"),
        fields=passed(**summary, **{"expect mub.unbiased": "True",
                                    "expect mub.count": str(d + 1)}),
    )
    return [construct, verify]


MUB_PAIRS = [
    _mub_pair("mub16", ("--dim", "16"), 16, "GR(4^4)/1,3,2,0,1"),
    _mub_pair("mub27", ("--dim", "27"), 27, "GF(3^3)/1,2,0,1"),
    _mub_pair("mub31", ("--dim", "31", "--method", "alltop"), 31, "GF(31^1)/28,1"),
]


# ---------------------------------------------------------------------------
# certify-deep: deep checks on three seeded, rotated line sets and one cover
# ---------------------------------------------------------------------------

DEEP = {"deep.scheme closed": "yes", "deep.gram algebra closed": "yes"}

CERTIFY_DEEP = [
    Job(
        "verify-mub27-deep",
        ("verify", "mub27.json", "--deep", "--expect", "mub"),
        fields=passed(**complete_mub(27), **DEEP, **{"expect mub.unbiased": "True"}),
    ),
    Job(
        "scheme-mub27",
        ("scheme", "mub27.json", "--gram", "--idempotents", "2"),
        fields={"scheme.n": "756", "scheme.classes": "2", "scheme.closed": "yes",
                "scheme.angles": f"0, {approx(1, 27)}", "scheme.valencies": "1, 26, 729",
                "scheme.multiplicities": "1, 27, 728", "gram algebra.closed": "yes",
                "idempotents.e": "2"},
    ),
    Job(
        "verify-singer31-deep",
        ("verify", "singer31.json", "--deep", "--expect", "equiangular"),
        fields=passed(
            **lines(993, 32, 1, f"{approx(31, 1024)} (x 492528)", 1),
            **DEEP,
            **{"bounds[relative].value": "993", "expect equiangular.equiangular": "True",
               "expect equiangular.alpha_snapped": "31/1024",
               "expect equiangular.relative_equality": "True"},
        ),
    ),
    Job(
        "verify-sic19-deep",
        ("verify", "sic19.json", "--deep", "--expect", "sic"),
        fields=passed(
            **lines(361, 19, 1, f"{approx(1, 20)} (x 64980)", 2),
            **DEEP,
            **{"bounds[relative].value": "361", "expect sic.is_sic": "True"},
        ),
    ),
    Job(
        "export-graph-rds13",
        ("export", "graph", "--rds", "13", "--out", "cover13.tsv"),
        fields={"export.vertices": "338", "export.edges": "2197",
                "export.intersection array": "{13,12,12,1;1,1,12,13}"},
    ),
]


# ---------------------------------------------------------------------------
# cli-small: short jobs where process start, import and formatting dominate
# ---------------------------------------------------------------------------

SIC8 = lines(64, 8, 1, f"{approx(1, 9)} (x 2016)", 2)
SIC7 = lines(49, 7, 1, f"{approx(1, 8)} (x 1176)", 2)
SINGER7 = lines(57, 8, 1, f"{approx(7, 64)} (x 1596)", 1)
WF8 = complete_mub(8)
TRIPLE6 = lines(18, 6, 2, f"0 (x 45), {approx(1, 6)} (x 108)", 1, **{"summary.bases": "3"})
TRIPLE8 = lines(24, 8, 2, f"0 (x 84), {approx(1, 8)} (x 192)", 1, **{"summary.bases": "3"})

#: Jobs that write the files the verifies read; they run first in every pass.
CLI_CONSTRUCTS = [
    Job("construct-sic8", ("construct", "sic", "--dim", "8", "--out", "sic8.json"),
        fields={**SIC8, "summary.sic verified": "yes"}),
    Job("construct-sic7-appleby",
        ("construct", "sic", "--dim", "7", "--fiducial", "appleby", "--out", "sic7.json"),
        fields={**SIC7, "summary.sic verified": "yes"}),
    Job("construct-singer7", ("construct", "lines", "--singer", "7", "--out", "singer7.json"),
        fields={**SINGER7, "bounds[relative].value": "57"}),
    Job("construct-spin6", ("construct", "mub", "--method", "spin", "--dim", "6",
                            "--out", "spin6.json"),
        fields={**TRIPLE6, "summary.unbiased": "yes"}),
    Job("construct-spin8", ("construct", "mub", "--method", "spin", "--dim", "8",
                            "--out", "spin8.json"),
        fields={**TRIPLE8, "summary.unbiased": "yes"}),
    Job("construct-wf8", ("construct", "mub", "--dim", "8", "--out", "wf8.json"),
        fields={**WF8, "summary.unbiased": "yes"}),
    Job("construct-tensor6", ("construct", "mub", "--method", "tensor", "--factors", "2,3",
                              "--dim", "6", "--out", "tensor6.json"),
        fields={**TRIPLE6, "summary.unbiased": "yes"}),
    Job("export-diffset-singer9", ("export", "diffset", "--singer", "9", "--out", "ds9.json"),
        fields={"export.kind": "planar", "export.size": "10"}),
    # Known defect: the CLI offers --group binary, then passes 'binary' to a
    # DisplacementGroup that accepts only 'binary-triple', and exits 2.
    Job("construct-sic8-file-binary",
        ("construct", "sic", "--dim", "8", "--fiducial", "file:fid8.json", "--group", "binary",
         "--out", "sic8b.json"),
        fields={**SIC8, "summary.sic verified": "yes"},
        known_defect=(2, "kind must be 'cyclic' or 'binary-triple', got 'binary'")),
]

#: Always run: the certification-failure path, exit 4.
CLI_VERIFY_FIXED = [
    Job("verify-sic8-as-mub", ("verify", "sic8.json", "--expect", "mub"), exit=4,
        fields=failed("expect-mub", **SIC8)),
    Job("verify-wf8-as-sic", ("verify", "wf8.json", "--expect", "sic"), exit=4,
        fields=failed("expect-sic", **WF8, **{"expect sic.is_sic": "False"})),
]

#: The seed picks CLI_VERIFY_PICK of these.
CLI_VERIFY_POOL = [
    Job("verify-sic8", ("verify", "sic8.json", "--expect", "sic"),
        fields=passed(**SIC8, **{"expect sic.is_sic": "True"})),
    Job("verify-sic7", ("verify", "sic7.json", "--expect", "sic"),
        fields=passed(**SIC7, **{"expect sic.is_sic": "True"})),
    Job("verify-singer7", ("verify", "singer7.json", "--expect", "equiangular"),
        fields=passed(**SINGER7, **{"expect equiangular.relative_equality": "True",
                                    "expect equiangular.bound": "57"})),
    Job("verify-spin6", ("verify", "spin6.json", "--expect", "mub"),
        fields=passed(**TRIPLE6, **{"expect mub.unbiased": "True"})),
    Job("verify-spin8", ("verify", "spin8.json", "--expect", "mub"),
        fields=passed(**TRIPLE8, **{"expect mub.unbiased": "True"})),
    Job("verify-wf8", ("verify", "wf8.json", "--expect", "mub"),
        fields=passed(**WF8, **{"expect mub.unbiased": "True"})),
    Job("verify-tensor6", ("verify", "tensor6.json", "--expect", "mub"),
        fields=passed(**TRIPLE6, **{"expect mub.unbiased": "True"})),
    Job("verify-tensor6-as-equiangular", ("verify", "tensor6.json", "--expect", "equiangular"),
        exit=4, fields=failed("expect-equiangular", **TRIPLE6)),
    Job("verify-spin6-as-sic", ("verify", "spin6.json", "--expect", "sic"), exit=4,
        fields=failed("expect-sic", **TRIPLE6, **{"expect sic.is_sic": "False"})),
]
CLI_VERIFY_PICK = 4


def _bounds(d, s, angles, relative, absolute, extra=()):
    """A bounds query with its relative and absolute Hom(s,s) values."""
    fields = {
        f"bounds[absolute Hom({s},{s})].value": str(absolute),
        "bounds[relative].value": str(relative),
        "bounds[relative].hypotheses": "all sign conditions hold",
    }
    argv = ("bounds", "--dim", str(d), "--s", str(s), "--angles", angles, *extra)
    return argv, fields


#: (argv, fields); the seed picks CLI_BOUNDS_PICK and a report format for each.
CLI_BOUNDS_POOL = [
    _bounds(8, 2, "0,1/8", 72, 1296),
    _bounds(7, 1, "1/8", 49, 49),
    _bounds(19, 1, "1/20", 361, 361),
    _bounds(27, 2, "0,1/27", 756, 142884),
    _bounds(32, 1, "31/1024", 993, 1024),
    _bounds(16, 2, "0,1/16", 272, 18496),
    _bounds(6, 2, "0,1/6", 42, 441),
    _bounds(4, 3, "0,1/4,1/2", 60, 400),
    _bounds(8, 1, "7/64", 57, 64),
    _bounds(5, 2, "0,1/5", 30, 225),
    _bounds(3, 1, "1/4", 9, 9, ("--n", "9")),
    _bounds(8, 2, "0,1/8", 72, 1296, ("--real",)),
]
CLI_BOUNDS_PICK = 6
FORMATS = ("json", "text", "csv")


def _cli_small(rng):
    verifies = CLI_VERIFY_FIXED + rng.sample(CLI_VERIFY_POOL, CLI_VERIFY_PICK)
    bounds = []
    for k in rng.sample(range(len(CLI_BOUNDS_POOL)), CLI_BOUNDS_PICK):
        argv, fields = CLI_BOUNDS_POOL[k]
        fmt = rng.choice(FORMATS)
        fields = {**fields, "config.subcommand": "bounds", "config.format": fmt}
        if "--real" in argv:
            fields["bounds[real unbiased bases].value"] = "2"
        bounds.append(Job(f"bounds-{k}-{fmt}", argv, fields=fields, fmt=fmt))
    return [list(CLI_CONSTRUCTS), verifies + bounds]


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

WORKLOADS = ("mub-build", "certify-deep", "cli-small")

#: One input-free or set-up-fed job per workload for the smoke mode.
SMOKE = {"mub-build": "construct-mub16", "certify-deep": "verify-sic19-deep",
         "cli-small": "construct-sic8"}


def stages(workload, rng):
    """The workload's jobs as ordered stages; jobs within a stage are
    independent, and a stage only reads files that earlier stages wrote."""
    if workload == "mub-build":
        return [list(MUB_PAIRS)]
    if workload == "certify-deep":
        return [list(CERTIFY_DEEP)]
    if workload == "cli-small":
        return _cli_small(rng)
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(stage_list, rng):
    """One pass: every stage shuffled, construct -> verify pairs kept whole."""
    out = []
    for stage in stage_list:
        stage = list(stage)
        rng.shuffle(stage)
        for item in stage:
            out.extend(item if isinstance(item, list) else [item])
    return out


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


#: Column names of the list sections, in the order the JSON report gives
#: them; a CSV list row carries only the values.
CSV_COLUMNS = {"bounds": ("bound", "value", "hypotheses")}


def flatten(stdout, fmt):
    """Report text -> {path: value}."""
    out = {}
    if fmt == "json":
        for section, payload in json.loads(stdout).items():
            _flatten_section(out, section, payload)
    elif fmt == "csv":
        for row in csv.reader(io.StringIO(stdout)):
            columns = CSV_COLUMNS.get(row[0]) if row else None
            if columns and len(row) == len(columns) + 1:
                _flatten_section(out, row[0], [dict(zip(columns, row[1:]))])
            elif len(row) == 3:
                out[f"{row[0]}.{row[1]}"] = row[2]
            elif len(row) == 2:
                out[row[0]] = row[1]
    else:
        section = None
        for line in stdout.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                out[f"config.{key}"] = value
            elif line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
            elif line.startswith("  "):
                row = dict(part.split(": ", 1) for part in line[2:].split("; "))
                _flatten_section(out, section, [row])
            else:
                key, _, value = line.partition(": ")
                out[f"{section}.{key}" if section else key] = value
    return out


def _flatten_section(out, section, payload):
    if isinstance(payload, dict):
        for key, value in payload.items():
            out[f"{section}.{key}"] = str(value)
    elif isinstance(payload, list):
        for row in payload:
            first = str(next(iter(row.values())))
            for key, value in row.items():
                out[f"{section}[{first}].{key}"] = str(value)
    else:
        out[section] = str(payload)


MISSING = "<missing>"


def check(job, exit_code, stdout):
    """Mismatches of one job against its expected outcome, as
    (field, expected, got); an empty list means the job passed."""
    mismatches = []
    if exit_code != job.exit:
        mismatches.append(("exit", str(job.exit), str(exit_code)))
    try:
        report = flatten(stdout, job.fmt) if stdout.strip() else {}
    except (ValueError, KeyError, StopIteration, AttributeError):
        report = {}
    for path, expected in job.fields.items():
        got = report.get(path, MISSING)
        if got != expected:
            mismatches.append((path, expected, got))
    return mismatches


def excused(job, exit_code, stderr):
    """Whether a job that missed its expectation failed exactly in the way of
    its documented defect.  Such a job counts as failed but leaves the run
    correct; any other miss, on any job, makes the run incorrect."""
    if job.known_defect is None:
        return False
    code, message = job.known_defect
    return exit_code == code and message in stderr
