"""Command-line subcommands that handle line sets: construct, verify, scheme, export.

The parser, the report emitter, `bounds` and `main` live in `linekit.front`,
which never imports numpy; `main` imports this module only when one of these
subcommands runs.  This side imports every layer module at the top, so that
`import linekit.cli` loads the whole package: tools that rebind layer
functions in every `linekit.*` namespace (the benchmark tracer) rely on it.
For the same reason every layer function is called through its module-level
name here, also from the `EXPECT` table: a table that held `verify_sic`
itself would keep the original when the name is rebound.
`main` and the exit codes are re-exported here, so `linekit.cli.main` is the
front's `main`.
"""

from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction

from linekit.finite_algebra import gf_create
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
    _stack_pairs,
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
    idempotent_residuals,
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
    """Both bounds are exact: `absolute_bound` is an int, the relative one a Fraction."""
    if n == bound:
        return "met with equality"
    return "satisfied" if n < bound else "VIOLATED"


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
    absval = absolute_bound(X.dim, report.s, zero_in_A=report.zero_present)
    rows = [{"bound": "absolute", "value": fmt_rational(absval),
             "status": _met_phrase(X.n, absval)}]
    ann = _annihilator_bound(X, report)
    if ann is not None and ann[1]:
        rows.append({"bound": "relative", "value": fmt_rational(ann[0]),
                     "status": _met_phrase(X.n, ann[0])})
    if X.n > X.dim:
        floor = welch_bound(X.dim, X.n)
        top = max(report.angles) if report.angles else 0.0
        status = ("largest angle meets the floor" if abs(float(floor) - float(top)) <= 1e-9
                  else f"largest angle {fmt_rational(top)} above the floor")
        rows.append({"bound": "welch floor", "value": fmt_rational(floor), "status": status})
    if X.basis_labels is not None:
        cap, got = X.dim + 1, len(set(X.basis_labels))
        rows.append({"bound": "basis ceiling", "value": f"{cap} bases / {X.dim * cap} lines",
                     "status": "met with equality" if got == cap else f"{got} of {cap} bases"})
    return summary, rows


def _apply_tol(X, tol):
    if tol is None:
        return X
    return LineSet(X.dim, X.vectors, field=X.field, basis_labels=X.basis_labels, tol=tol)


#: --expect kind -> (certificate, the verdict key that passes it, its
#: `construct` summary row, failure detail).  The lambdas look the layer
#: functions up when they run, so a rebound name is the one called.
EXPECT = {
    "sic": (lambda X: verify_sic(X), "is_sic", "sic verified",
            lambda v: "orbit is not a maximal equiangular set"),
    "mub": (lambda X: verify_mub(X), "unbiased", "unbiased",
            lambda v: f"max deviation {v['max_deviation']:.3g}"),
    "equiangular": (lambda X: verify_equiangular(X), "equiangular", "equiangular",
                    lambda v: "more than one angle"),
}


def _scheme_section(rep):
    """The `[scheme]` body of a `scheme_from_lineset` report."""
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
    return body


def _gram_section(gram):
    """The `[gram algebra]` body of a `gram_algebra_check` verdict."""
    body = {
        "closed": "yes" if gram["closed"] else "no",
        "closure residual": f"{gram['closure_residual']:.3g}",
        "span dimension": gram["span_dimension"],
        "gram square residual": f"{gram['gram_square_residual']:.3g}",
    }
    if gram["mub_identity_residual"] is not None:
        body["unbiased identity residual"] = f"{gram['mub_identity_residual']:.3g}"
    return body


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
        context = fam.provenance[1].get("field")
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
    if target in EXPECT:
        certify, key, row, _ = EXPECT[target]
        verdict = certify(X)
        summary[row] = "yes" if verdict[key] else "no"
        if verdict["alpha"] is not None:
            summary["alpha"] = fmt_rational(verdict["alpha"])
        if "max_deviation" in verdict:
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
        survivors = [e for e in appleby_candidates(args.dim) if e["verdict"]["is_sic"]]
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
        try:
            vec = _stack_pairs([data])[0]  # the line-set loader's check of one row
        except ValueError as exc:
            raise UsageError(f"malformed fiducial in {path}: {exc}") from exc
        if vec.shape[0] != args.dim:
            raise UsageError(f"fiducial has length {vec.shape[0]}, expected {args.dim}")
        return FiducialCandidate(
            d=args.dim, vector=vec, source=("file", path), group=GROUP_KINDS[args.group]
        )
    raise UsageError("--fiducial must be builtin, appleby, or file:PATH")


def cmd_verify(args):
    X = _load_lineset(args.file, args.tol)
    summary, bound_rows = _lineset_sections(X)
    report = {"summary": summary, "bounds": bound_rows}
    checks = [(f"bound-{row['bound']}", row["status"] != "VIOLATED", f"n exceeds {row['value']}")
              for row in bound_rows]  # (check, ok, failure detail)

    if args.expect is not None:
        certify, key, _, detail = EXPECT[args.expect]
        try:
            verdict = certify(X)
        except ValueError as exc:  # verify_mub: labels that are not bases
            checks.append((f"expect-{args.expect}", False, str(exc)))
        else:
            section = {k: str(v) for k, v in verdict.items()}
            if "T1" in verdict:
                section["T1"] = f"{verdict['T1']:.3g}"
            if "degree_set" in verdict:  # a set with more than one angle
                section["degree_set"] = f"[{', '.join(f'{a:.3g}' for a in verdict['degree_set'])}]"
            if args.expect == "sic" and verdict["alpha"] is not None:
                section["alpha"] = fmt_rational(verdict["alpha"])
            report[f"expect {args.expect}"] = section
            checks.append((f"expect-{args.expect}", verdict[key], detail(verdict)))

    if args.deep:
        scheme = scheme_from_lineset(X)
        gram = gram_algebra_check(X)
        body, gram_body = _scheme_section(scheme), _gram_section(gram)
        deep = {"scheme closed": body["closed"]}
        deep.update((k, body[k]) for k in ("closure residual", "pq residual", "krein minimum")
                    if k in body)
        deep["gram algebra closed"] = gram_body["closed"]
        if "unbiased identity residual" in gram_body:
            deep["gram square identity residual"] = gram_body["unbiased identity residual"]
        report["deep"] = deep
        # written `x <= tol` so that a NaN residual fails its check
        if scheme.closed:
            checks.append(("scheme-pq", scheme.pq_residual <= EIGENMATRIX_TOL * scheme.n,
                           f"PQ deviates from vI by {scheme.pq_residual:.3g}"))
            checks.append(("scheme-krein", scheme.krein_min >= -EIGENMATRIX_TOL,
                           f"negative parameter {scheme.krein_min:.3g}"))
        residual = gram["mub_identity_residual"]
        if residual is not None:
            checks.append(("gram-square", residual <= CLOSURE_TOL,
                           f"G^2 = (n/d) G off by {residual:.3g}"))

    failures = [{"check": name, "detail": text} for name, ok, text in checks if not ok]
    report["failures"] = failures
    report["result"] = "pass" if not failures else "fail"
    return report, EXIT_OK if not failures else EXIT_CERTIFICATION


def _load_lineset(path, tol):
    try:
        return _apply_tol(lineset_from_json(path), tol)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read line-set file {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed line set in {path}: {exc}") from exc


def cmd_scheme(args):
    X = _load_lineset(args.file, args.tol)
    rep = scheme_from_lineset(X)
    report = {"scheme": _scheme_section(rep)}
    if args.gram:
        report["gram algebra"] = _gram_section(gram_algebra_check(X))
    if args.idempotents is not None:
        idem = idempotent_residuals(X, e=args.idempotents)
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
