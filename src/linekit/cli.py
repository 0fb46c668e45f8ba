"""Command-line subcommands that handle line sets: construct, verify, scheme, export.

The parser, the report emitter, `bounds` and `main` live in `linekit.front`,
which never imports numpy; `main` imports this module only when one of these
subcommands runs.  This side imports every layer module at the top, so that
`import linekit.cli` loads the whole package: tools that rebind layer
functions in every `linekit.*` namespace (the benchmark tracer) rely on it.
`main` and the exit codes are re-exported here, so `linekit.cli.main` is the
front's `main`.
"""

from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction

import numpy as np

from linekit.finite_algebra import gf_create, gr_create
from linekit.groupcodes import (
    LinearCode,
    cover_graph,
    diffset_lines,
    diffset_to_json,
    field_rds,
    linear_code_to_csv,
    singer_difference_set,
)
from linekit.front import (  # noqa: F401  (main, the exit codes and the parser are re-exported)
    EXIT_CERTIFICATION,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    GROUP_KINDS,
    UsageError,
    _annihilator_relative_bound,
    _emit,
    _run_config,
    _snap,
    build_parser,
    fmt_rational,
    main,
)
from linekit.jacobi import absolute_bound, welch_bound
from linekit.linesets import (
    LineSet,
    _angle_blocks,
    design_strength,
    gram_degree_set,
    lineset_from_json,
    lineset_to_json,
    verify_equiangular,
    verify_mub,
)
from linekit.mubs import (
    _prime_power,
    alltop_mubs,
    semifield_from_csv,
    semifield_mubs,
    spin_model_mubs,
    tensor_mubs,
    wf_mubs,
)
from linekit.schemes import (
    CLOSURE_TOL,
    EIGENMATRIX_TOL,
    gram_algebra_check,
    jacobi_idempotents,
    scheme_from_lineset,
    scheme_to_json,
)
from linekit.sics import FiducialCandidate, appleby_candidates, builtin_fiducial, verify_sic, wh_orbit

# ---------------------------------------------------------------------------
# shared line-set reporting
# ---------------------------------------------------------------------------


def _annihilator_bound(X, report):
    """Relative bound from the degree-set annihilator, if its hypotheses hold.

    Returns (bound, all_hypotheses_ok), or None when the degree set is empty
    or c_0 = 0; a negative c_0 fails the "c_0 > 0" hypothesis.  Angles are
    snapped to rationals so the arithmetic is exact.
    """
    if not report.angles:
        return None
    angles = []
    for a in report.angles:
        f = _snap(a)
        angles.append(f if f is not None else Fraction(float(a)).limit_denominator(10**12))
    out = _annihilator_relative_bound(X.dim, angles)
    if out is None:
        return None
    return out["bound"], all(out["hypotheses_ok"].values())


def _met_phrase(n, bound):
    value = Fraction(bound) if isinstance(bound, (int, Fraction)) else None
    if value is not None:
        if n == value:
            return "met with equality"
        return "satisfied" if n < value else "VIOLATED"
    return "met with equality" if abs(n - float(bound)) <= 1e-6 else (
        "satisfied" if n < float(bound) else "VIOLATED"
    )


def _lineset_sections(X):
    """Summary and bound rows shared by construct and verify."""
    report = gram_degree_set(X)
    strength = design_strength(X).strength
    degree = ", ".join(
        f"{fmt_rational(a)} (x {m})" for a, m in zip(report.angles, report.multiplicities)
    ) or "(single line)"
    summary = {
        "n": X.n,
        "d": X.dim,
        "field": X.field,
        "degree set": degree,
        "s": report.s,
        "zero angle": "yes" if report.zero_present else "no",
        "design strength": strength,
    }
    if X.basis_labels is not None:
        summary["bases"] = len(set(X.basis_labels))
    for t in (1, 2):
        summary[f"{t}-design"] = "yes" if strength >= t else "no"
    rows = []
    absval = absolute_bound(X.dim, report.s, zero_in_A=report.zero_present)
    rows.append(
        {
            "bound": "absolute",
            "value": fmt_rational(absval),
            "status": _met_phrase(X.n, absval),
        }
    )
    ann = _annihilator_bound(X, report)
    if ann is not None and ann[1]:
        rows.append(
            {
                "bound": "relative",
                "value": fmt_rational(ann[0]),
                "status": _met_phrase(X.n, ann[0]),
            }
        )
    if X.n > X.dim:
        floor = welch_bound(X.dim, X.n)
        top = max(report.angles) if report.angles else 0.0
        at_floor = abs(float(floor) - float(top)) <= 1e-9
        rows.append(
            {
                "bound": "welch floor",
                "value": fmt_rational(floor),
                "status": "largest angle meets the floor"
                if at_floor
                else f"largest angle {fmt_rational(top)} above the floor",
            }
        )
    if X.basis_labels is not None:
        cap = X.dim + 1
        got = len(set(X.basis_labels))
        rows.append(
            {
                "bound": "basis ceiling",
                "value": f"{cap} bases / {X.dim * cap} lines",
                "status": "met with equality" if got == cap else f"{got} of {cap} bases",
            }
        )
    return summary, rows


def _apply_tol(X, tol):
    if tol is None:
        return X
    return LineSet(X.dim, X.vectors, field=X.field, basis_labels=X.basis_labels, tol=tol)


def _field_context(provenance):
    kind, params = provenance
    if kind in ("wf", "alltop"):
        q = params["q"] if isinstance(params, dict) else int(params)
        p, m = _prime_power(q)
        return gr_create(m).label() if p == 2 else gf_create(p, m).label()
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_construct(args):
    target = args.what
    if target == "mub":
        if args.dim is None:
            raise UsageError("construct mub needs --dim")
        fam = _construct_mub(args)
        X = _apply_tol(fam.to_lineset(), args.tol)
        context = _field_context(fam.provenance)
    elif target == "sic":
        if args.dim is None:
            raise UsageError("construct sic needs --dim")
        fid = _resolve_fiducial(args)
        X = _apply_tol(wh_orbit(fid), args.tol)
        context = None
    elif target == "lines":
        if args.singer is None:
            raise UsageError("construct lines needs --singer Q")
        group, diffset = singer_difference_set(args.singer)
        X = _apply_tol(diffset_lines(group, diffset), args.tol)
        context = gf_create(*_prime_power(args.singer**3)).label()
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown construct target {target!r}")

    summary, bound_rows = _lineset_sections(X)
    if context is not None:
        summary["field context"] = context
    if target == "sic":
        verdict = verify_sic(X)
        summary["sic verified"] = "yes" if verdict["is_sic"] else "no"
        if verdict["alpha"] is not None:
            summary["alpha"] = fmt_rational(verdict["alpha"])
    if target == "mub":
        verdict = verify_mub(X)
        summary["unbiased"] = "yes" if verdict["unbiased"] else "no"
        summary["alpha"] = fmt_rational(verdict["alpha"])
        summary["max deviation"] = f"{verdict['max_deviation']:.3g}"
    report = {"summary": summary, "bounds": bound_rows}
    if args.out:
        lineset_to_json(X, path=args.out)
        report["wrote"] = args.out
    return report, EXIT_OK


def _construct_mub(args):
    d, method = args.dim, args.method
    if method == "wf":
        return wf_mubs(d)
    if method == "alltop":
        return alltop_mubs(d)
    if method == "spin":
        return spin_model_mubs(d)
    if method == "tensor":
        if not args.factors:
            raise UsageError("construct mub --method tensor needs --factors A,B")
        parts = [int(x) for x in args.factors.split(",")]
        if len(parts) != 2:
            raise UsageError("--factors wants exactly two comma-separated integers")
        if parts[0] * parts[1] != d:
            raise UsageError(f"--factors {parts[0]},{parts[1]} do not multiply to {d}")
        return tensor_mubs(wf_mubs(parts[0]), wf_mubs(parts[1]))
    if method == "semifield":
        if not args.table:
            raise UsageError("construct mub --method semifield needs --table CSV")
        table = semifield_from_csv(args.table)
        if table.q != d:
            raise UsageError(f"table is {table.q} x {table.q} but --dim is {d}")
        return semifield_mubs(table)
    raise UsageError(f"unknown method {method!r}")  # pragma: no cover


def _resolve_fiducial(args):
    source = args.fiducial
    if source == "builtin":
        return builtin_fiducial(args.dim)
    if source == "appleby":
        survivors = [
            entry for entry in appleby_candidates(args.dim) if entry["verdict"]["is_sic"]
        ]
        if not survivors:
            raise RuntimeError(
                f"the parametrized search found no verified fiducial in dimension {args.dim}"
            )
        return survivors[0]["candidate"]
    if source.startswith("file:"):
        path = source[5:]
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read fiducial file {path}: {exc}") from exc
        vec = np.array([complex(re, im) for re, im in data])
        if vec.shape[0] != args.dim:
            raise UsageError(f"fiducial has length {vec.shape[0]}, expected {args.dim}")
        return FiducialCandidate(
            d=args.dim, vector=vec, source=("file", path), group=GROUP_KINDS[args.group]
        )
    raise UsageError("--fiducial must be builtin, appleby, or file:PATH")


def cmd_verify(args):
    X = _load_lineset(args.file, args.tol)
    summary, bound_rows = _lineset_sections(X)
    failures = []
    for row in bound_rows:
        if row["status"] == "VIOLATED":
            failures.append(
                {"check": f"bound-{row['bound']}", "detail": f"n exceeds {row['value']}"}
            )
    report = {"summary": summary, "bounds": bound_rows}

    if args.expect == "sic":
        verdict = verify_sic(X)
        report["expect sic"] = {k: str(v) for k, v in verdict.items()}
        if verdict["alpha"] is not None:
            report["expect sic"]["alpha"] = fmt_rational(verdict["alpha"])
        if not verdict["is_sic"]:
            failures.append({"check": "expect-sic", "detail": "orbit is not a maximal equiangular set"})
    elif args.expect == "mub":
        try:
            verdict = verify_mub(X)
        except ValueError as exc:
            verdict = None
            failures.append({"check": "expect-mub", "detail": str(exc)})
        if verdict is not None:
            report["expect mub"] = {k: str(v) for k, v in verdict.items()}
            if not verdict["unbiased"]:
                failures.append(
                    {
                        "check": "expect-mub",
                        "detail": f"max deviation {verdict['max_deviation']:.3g}",
                    }
                )
    elif args.expect == "equiangular":
        verdict = verify_equiangular(X)
        report["expect equiangular"] = {k: str(v) for k, v in verdict.items()}
        if not verdict["equiangular"]:
            failures.append({"check": "expect-equiangular", "detail": "more than one angle"})

    if args.deep:
        scheme = scheme_from_lineset(X)
        deep = {
            "scheme closed": "yes" if scheme.closed else "no",
            "closure residual": f"{scheme.closure_residual:.3g}",
        }
        if scheme.closed:
            deep["pq residual"] = f"{scheme.pq_residual:.3g}"
            deep["krein minimum"] = f"{scheme.krein_min:.3g}"
            if scheme.pq_residual > EIGENMATRIX_TOL * scheme.n:
                failures.append(
                    {"check": "scheme-pq", "detail": f"PQ deviates from vI by {scheme.pq_residual:.3g}"}
                )
            if scheme.krein_min < -EIGENMATRIX_TOL:
                failures.append(
                    {"check": "scheme-krein", "detail": f"negative parameter {scheme.krein_min:.3g}"}
                )
        gram = gram_algebra_check(X)
        deep["gram algebra closed"] = "yes" if gram["closed"] else "no"
        if gram["mub_identity_residual"] is not None:
            deep["gram square identity residual"] = f"{gram['mub_identity_residual']:.3g}"
            if gram["mub_identity_residual"] > CLOSURE_TOL:
                failures.append({"check": "gram-square",
                                 "detail": f"G^2 = (n/d) G off by {gram['mub_identity_residual']:.3g}"})
        report["deep"] = deep

    report["failures"] = failures
    report["result"] = "pass" if not failures else "fail"
    return report, EXIT_OK if not failures else EXIT_CERTIFICATION


def _load_lineset(path, tol):
    try:
        X = lineset_from_json(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read line-set file {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed line set in {path}: {exc}") from exc
    try:
        return _apply_tol(X, tol)
    except ValueError as exc:
        raise UsageError(f"malformed line set in {path}: {exc}") from exc


def cmd_scheme(args):
    X = _load_lineset(args.file, args.tol)
    rep = scheme_from_lineset(X)
    body = {
        "n": rep.n,
        "classes": rep.classes,
        "angles": ", ".join(fmt_rational(a) for a in rep.angles),
        "closed": "yes" if rep.closed else "no",
        "closure residual": f"{rep.closure_residual:.3g}",
    }
    if rep.closed:
        body["valencies"] = ", ".join(fmt_rational(v) for v in rep.valencies)
        body["multiplicities"] = ", ".join(str(m) for m in rep.multiplicities)
        body["pq residual"] = f"{rep.pq_residual:.3g}"
        body["krein minimum"] = f"{rep.krein_min:.3g}"
        body["reconstruction residual"] = f"{rep.reconstruction_residual:.3g}"
    report = {"scheme": body}
    if args.gram:
        gram = gram_algebra_check(X)
        report["gram algebra"] = {
            "closed": "yes" if gram["closed"] else "no",
            "closure residual": f"{gram['closure_residual']:.3g}",
            "span dimension": gram["span_dimension"],
            "gram square residual": f"{gram['gram_square_residual']:.3g}",
        }
        if gram["mub_identity_residual"] is not None:
            report["gram algebra"]["unbiased identity residual"] = (
                f"{gram['mub_identity_residual']:.3g}"
            )
    if args.idempotents is not None:
        idem = jacobi_idempotents(X, e=args.idempotents)
        report["idempotents"] = {
            "e": args.idempotents,
            "max residual": f"{idem['max_residual']:.3g}",
            "traces": ", ".join(fmt_rational(t) for t in idem["traces"]),
        }
    if args.out:
        scheme_to_json(rep, path=args.out)
        report["wrote"] = args.out
    return report, EXIT_OK


def cmd_export(args):
    what = args.what
    if what == "angles":
        X = _load_lineset(args.file, args.tol)
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "angle"])
            for r0, A in _angle_blocks(X):
                for i, row in enumerate(A, start=r0):
                    for j in range(i + 1, X.n):
                        writer.writerow([i, j, f"{row[j]:.12g}"])
        body = {"pairs": X.n * (X.n - 1) // 2, "wrote": args.out}
    elif what == "diffset":
        if (args.singer is None) == (args.rds is None):
            raise UsageError("export diffset needs exactly one of --singer Q or --rds Q")
        if args.singer is not None:
            group, diffset = singer_difference_set(args.singer)
            diffset_to_json(group, diffset, path=args.out)
            body = {"kind": "planar", "size": len(diffset), "wrote": args.out}
        else:
            group, diffset, excluded = field_rds(args.rds)
            diffset_to_json(group, diffset, N=excluded, path=args.out)
            body = {"kind": "relative", "size": len(diffset), "wrote": args.out}
    elif what == "graph":
        if args.tank_trap:
            graph = cover_graph(builtin="tank-trap")
        elif args.rds is not None:
            group, diffset, excluded = field_rds(args.rds)
            graph = cover_graph(group, diffset, N=excluded)
        else:
            raise UsageError("export graph needs --tank-trap or --rds Q")
        with open(args.out, "w", encoding="utf-8") as fh:
            for u, v in graph.edge_list():
                fh.write(f"{graph.labels[u]}\t{graph.labels[v]}\n")
        arr = graph.intersection_array
        body = {
            "vertices": len(graph.labels),
            "edges": len(graph.edge_list()),
            "intersection array": f"{{{','.join(map(str, arr[0]))};{','.join(map(str, arr[1]))}}}",
            "wrote": args.out,
        }
    elif what == "code":
        if not args.generator:
            raise UsageError("export code needs at least one --generator row")
        if args.alphabet is None:
            raise UsageError("export code needs --alphabet (a prime or z4)")
        try:
            rows = [[int(x) for x in g.split(",")] for g in args.generator]
        except ValueError as exc:
            raise UsageError(f"generator rows must be comma-separated integers: {exc}") from exc
        alphabet = args.alphabet if args.alphabet == "z4" else int(args.alphabet)
        code = LinearCode(rows, alphabet)
        linear_code_to_csv(code, args.out)
        body = {
            "alphabet": str(alphabet),
            "length": code.n,
            "words": len(code.codewords()),
            "wrote": args.out,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown export target {what!r}")
    return {"export": body}, EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
