"""Command-line front: the parser, the report emitter, `bounds` and `main`.

This side never imports numpy or a layer module other than `jacobi`, whose
bounds are exact `Fraction` arithmetic, and the `tolerance` table.  The CLI
runs as a one-shot process that compiles every module it imports, so `bounds`
pays only for what it uses.  The subcommands that handle line sets (construct,
verify, scheme, export) live in `linekit.commands`, which `main` imports only
when one of them runs, and which in turn imports only the layers that
subcommand runs (its docstring lists them).  `linekit.cli` re-exports `main`
with every layer loaded, for tools that rebind layer functions before a run.

Every run resolves its arguments into a config block that is echoed at the
top of the report, so a saved report is reproducible from its own header.
Reports are deterministic — byte-identical across repeated runs at a fixed
BLAS thread count (residual digits move with `OPENBLAS_NUM_THREADS`; the
verdicts do not).

Exit codes: 0 all requested certifications pass; 2 usage errors or malformed
input; 3 internal failure during construction; 4 a certification failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from linekit.jacobi import (
    absolute_bound,
    annihilator_bound,
    flat_eal_bound,
    real_mub_gate,
    welch_bound,
)
from linekit.tolerance import DEFAULT_TOL, snap

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CERTIFICATION = 4


#: --group choices and the DisplacementGroup kind each one names.
GROUP_KINDS = {"cyclic": "cyclic", "binary": "binary-triple"}


class UsageError(ValueError):
    """Bad parameters or malformed input: mapped to exit code 2."""


@dataclass
class RunConfig:
    """Resolved invocation, echoed into every report header."""

    subcommand: str
    inputs: list
    output: str | None
    tol: float | None
    format: str
    seed: int | None
    options: dict

    def as_dict(self):
        out = {
            "subcommand": self.subcommand,
            "inputs": self.inputs,
            "output": self.output,
            "tol": self.tol,
            "format": self.format,
            "seed": self.seed,
        }
        out.update(self.options)
        return out


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def fmt_rational(x, tol=DEFAULT_TOL):
    """What `snap` makes exact at tol as 'p/q (approx float)', integers plain; floats as-is."""
    f = snap(x, tol)
    if f is not None:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator} (≈ {float(f):.6g})"
    return f"{float(x):.10g}"


def _emit(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for key, value in report["config"].items():
            writer.writerow(["config", key, value])
        for section, payload in report.items():
            if section == "config":
                continue
            if isinstance(payload, list):
                for row in payload:
                    if isinstance(row, dict):
                        writer.writerow([section] + [row[k] for k in row])
                    else:
                        writer.writerow([section, row])
            elif isinstance(payload, dict):
                for key, value in payload.items():
                    writer.writerow([section, key, value])
            else:
                writer.writerow([section, payload])
        return buf.getvalue().rstrip("\n")
    lines = [f"# {key}: {value}" for key, value in report["config"].items()]
    for section, payload in report.items():
        if section == "config":
            continue
        if isinstance(payload, dict):
            lines.append(f"[{section}]")
            lines.extend(f"{key}: {value}" for key, value in payload.items())
        elif isinstance(payload, list):
            lines.append(f"[{section}]")
            for row in payload:
                if isinstance(row, dict):
                    lines.append("  " + "; ".join(f"{k}: {v}" for k, v in row.items()))
                else:
                    lines.append(f"  {row}")
        else:
            lines.append(f"{section}: {payload}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args):
    d = args.dim
    s = args.s
    rows = [
        {
            "bound": f"absolute Hom({s},{s})",
            "value": fmt_rational(absolute_bound(d, s)),
            "hypotheses": f"{s}-distance set in C^{d}",
        },
        {
            "bound": f"absolute Hom({s},{s - 1})",
            "value": fmt_rational(absolute_bound(d, s, zero_in_A=True)),
            "hypotheses": f"{s}-distance set with a zero angle",
        },
        {
            "bound": "unbiased bases",
            "value": f"{d * (d + 1)} lines / {d + 1} bases",
            "hypotheses": "equality exactly for 2-designs",
        },
        {
            "bound": "flat equiangular",
            "value": fmt_rational(flat_eal_bound(d)),
            "hypotheses": f"equiangular lines spanned by flat vectors in C^{d}",
        },
    ]
    n_lines = args.n if args.n is not None else d * d
    rows.append(
        {
            "bound": "welch floor",
            "value": fmt_rational(welch_bound(d, n_lines)),
            "hypotheses": f"minimum largest angle among {n_lines} lines"
            + ("" if args.n is not None else " (n = d^2 default)"),
        }
    )
    if args.angles:
        out = annihilator_bound(d, _parse_angles(args.angles))
        if out is None:
            raise UsageError("degenerate angle list: annihilator has c_0 = 0")
        ok = all(out["hypotheses_ok"].values())
        rows.append(
            {
                "bound": "relative",
                "value": fmt_rational(out["bound"]),
                "hypotheses": "all sign conditions hold"
                if ok
                else "sign conditions FAIL: "
                + ", ".join(k for k, v in out["hypotheses_ok"].items() if not v),
            }
        )
    if args.real:
        gate = real_mub_gate(d)
        rows.append(
            {
                "bound": "real unbiased bases",
                "value": str(gate["bound"]),
                "hypotheses": gate["reason"],
            }
        )
    return {"bounds": rows}, EXIT_OK


def _parse_angles(spec):
    angles = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            angles.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse angle {chunk!r}: {exc}") from exc
    if not angles:
        raise UsageError("--angles got an empty list")
    if any(a < 0 or a >= 1 for a in angles):
        raise UsageError("angles must lie in [0, 1)")
    return sorted(set(angles))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _line_set_command(args):
    """Run construct, verify, scheme or export from `linekit.commands`,
    which loads numpy; only these subcommands import it.  --tol is checked
    by `LineSet`'s own rule before anything is read or built."""
    from linekit import commands, linesets

    if args.tol is not None:
        linesets._checked_tol(args.tol)
    return getattr(commands, f"cmd_{args.subcommand}")(args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linekit",
        description="Construct and certify line sets with few angles.",
    )
    parser.add_argument("--tol", type=float, default=None, help="override the line-set "
                        "tolerance; every certificate threshold follows from it")
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="report format"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed echoed into reports; reserved for randomized subroutines",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("construct", help="build a line set and write it to JSON")
    c.add_argument("what", choices=("mub", "sic", "lines"))
    c.add_argument("--dim", type=int, default=None)
    c.add_argument(
        "--method",
        choices=("wf", "alltop", "spin", "tensor", "semifield"),
        default="wf",
        help="construction route for mub",
    )
    c.add_argument("--factors", default=None, help="A,B with A*B = dim (tensor method)")
    c.add_argument("--table", default=None, help="semifield multiplication CSV")
    c.add_argument(
        "--fiducial", default=None, help="builtin (the default), appleby, or file:PATH (sic)"
    )
    c.add_argument(
        "--group", choices=tuple(GROUP_KINDS), default=None,
        help="cyclic (the default) or binary: displacement group for file fiducials",
    )
    c.add_argument("--singer", type=int, default=None, help="prime power q (lines)")
    c.add_argument("--out", default=None, help="write the line set JSON here")

    v = sub.add_parser("verify", help="certify a line-set file")
    v.add_argument("file")
    v.add_argument("--deep", action="store_true", help="add scheme and Gram-algebra checks")
    v.add_argument(
        "--expect", choices=("sic", "mub", "equiangular"), default=None,
        help="fail unless the set certifies as this kind",
    )

    b = sub.add_parser("bounds", help="print size and angle bounds for a dimension")
    b.add_argument("--dim", type=int, required=True)
    b.add_argument("--s", type=int, default=1, help="number of distinct angles")
    b.add_argument("--angles", default=None, help="comma-separated rationals, e.g. 2/9,1/3")
    b.add_argument("--n", type=int, default=None, help="line count for the welch floor")
    b.add_argument("--real", action="store_true", help="include the real unbiased-basis gate")

    s = sub.add_parser("scheme", help="angle-class scheme report for a line-set file")
    s.add_argument("file")
    s.add_argument("--gram", action="store_true", help="add the Gram-weighted closure check")
    s.add_argument(
        "--idempotents", type=int, default=None, metavar="E",
        help="report zonal idempotents E_0..E_E",
    )
    s.add_argument("--out", default=None, help="write the scheme report JSON here")

    e = sub.add_parser("export", help="write angles CSV, difference sets, graphs, codes")
    e.add_argument("what", choices=("angles", "diffset", "graph", "code"))
    e.add_argument("file", nargs="?", default=None, help="line-set JSON (angles)")
    e.add_argument("--singer", type=int, default=None, help="planar difference set for q")
    e.add_argument("--rds", type=int, default=None, help="relative difference set for q")
    e.add_argument("--tank-trap", action="store_true", help="the 36-vertex triple cover")
    e.add_argument("--alphabet", default=None, help="prime p or z4 (code)")
    e.add_argument(
        "--generator", action="append", default=None, help="comma-separated row, repeatable"
    )
    e.add_argument("--out", required=True)

    b.set_defaults(func=cmd_bounds)
    for p in (c, v, s, e):
        p.set_defaults(func=_line_set_command)
    return parser


def _run_config(args):
    inputs = []
    for name in ("file", "table"):
        value = getattr(args, name, None)
        if value:
            inputs.append(value)
    fiducial = getattr(args, "fiducial", None)
    if fiducial and fiducial.startswith("file:"):
        inputs.append(fiducial[5:])
    options = {}
    for name in ("what", "dim", "method", "singer", "rds", "expect", "deep", "s", "angles",
                 "n", "real", "gram", "idempotents", "factors", "fiducial", "group",
                 "tank_trap", "alphabet", "generator"):
        value = getattr(args, name, None)
        if value not in (None, False):
            options[name] = value
    return RunConfig(
        subcommand=args.subcommand,
        inputs=inputs,
        output=getattr(args, "out", None),
        tol=args.tol,
        format=args.format,
        seed=args.seed,
        options=options,
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _run_config(args)
    try:
        report, code = args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # construction-internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    full = {"config": config.as_dict()}
    full.update(report)
    print(_emit(full, args.format))
    return code
