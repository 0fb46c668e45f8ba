"""The subcommands that handle line sets: construct, verify, scheme, export.

`linekit.front.main` imports this module only when one of them runs.  The
CLI is a one-shot process that compiles every module it imports, so each
subcommand imports only the layer modules it runs, inside its branch:

- every subcommand here loads `linesets` (with `jacobi`) and numpy, which is
  all a plain `verify` and `export angles` need;
- `verify --deep` and `scheme` add `schemes`;
- `verify --expect sic` and `construct sic` add `sics` (and `finite_algebra`
  only for `--fiducial appleby`);
- `construct mub` adds `mubs` (with `finite_algebra`);
- `construct lines` and the other `export` targets add `groupcodes` (with
  `finite_algebra`), which loads `mubs` only for `--rds` and `schemes` only
  for `graph`.

Every layer function is called through its home module
(`linesets.verify_mub(X)`), and the `EXPECT` table names a module and a
function rather than holding the function: tools that rebind a layer
function in its home module (the benchmark tracer) see every call.
"""

from __future__ import annotations

import csv
import json
from importlib import import_module

from linekit import jacobi, linesets
from linekit.front import (
    EXIT_CERTIFICATION,
    EXIT_OK,
    GROUP_KINDS,
    UsageError,
    fmt_rational,
)
from linekit.tolerance import certify_tol, count_tol

# ---------------------------------------------------------------------------
# shared line-set reporting
# ---------------------------------------------------------------------------


def _met_phrase(n, bound):
    """n against an exact bound (`absolute_bound` is an int)."""
    if n < bound:
        return "satisfied"
    return "VIOLATED" if n > bound else "met with equality"


def _lineset_sections(X):
    """Summary and bound rows shared by construct and verify."""
    report = linesets.gram_degree_set(X)
    des = linesets.design_strength(X)
    degree = ", ".join(
        f"{fmt_rational(a, X.tol)} (x {m})" for a, m in zip(report.angles, report.multiplicities)
    ) or "(single line)"
    summary = {
        "n": X.n,
        "d": X.dim,
        "field": X.field,
        "degree set": degree,
        "s": report.s,
        "zero angle": "yes" if report.zero_present else "no",
        "design strength": des.strength,
    }
    if X.basis_labels is not None:
        summary["bases"] = len(set(X.basis_labels))
    for t in (1, 2):
        summary[f"{t}-design"] = "yes" if des.strength >= t else "no"
    absval = jacobi.absolute_bound(X.dim, report.s, zero_in_A=report.zero_present)
    rows = [{"bound": "absolute", "value": fmt_rational(absval),
             "status": _met_phrase(X.n, absval)}]
    relative = linesets.relative_status(X, des)
    if relative is not None:
        rows.append({"bound": "relative", "value": fmt_rational(relative[0]),
                     "status": relative[1]})
    if X.n > X.dim:
        floor = jacobi.welch_bound(X.dim, X.n)
        top = max(report.angles) if report.angles else 0.0
        status = ("largest angle meets the floor" if abs(float(floor) - float(top)) <= X.tol
                  else f"largest angle {fmt_rational(top, X.tol)} above the floor")
        rows.append({"bound": "welch floor", "value": fmt_rational(floor), "status": status})
    if X.basis_labels is not None:
        cap, got = X.dim + 1, len(set(X.basis_labels))
        rows.append({"bound": "basis ceiling", "value": f"{cap} bases / {X.dim * cap} lines",
                     "status": "met with equality" if got == cap else f"{got} of {cap} bases"})
    return summary, rows


def _apply_tol(X, tol):
    if tol is None:
        return X
    return linesets.LineSet(X.dim, X.vectors, field=X.field, basis_labels=X.basis_labels,
                            tol=tol)


#: --expect kind -> (home module, certificate, the verdict key that passes it,
#: its `construct` summary row, failure detail).  `_certify` imports the
#: module and looks the certificate up when it runs.
EXPECT = {
    "sic": ("sics", "verify_sic", "is_sic", "sic verified",
            lambda v: "orbit is not a maximal equiangular set"),
    "mub": ("linesets", "verify_mub", "unbiased", "unbiased",
            lambda v: f"max deviation {v['max_deviation']:.3g}"),
    "equiangular": ("linesets", "verify_equiangular", "equiangular", "equiangular",
                    lambda v: "more than one angle"),
}


def _certify(kind, X):
    """The verdict of the `EXPECT[kind]` certificate on X."""
    module, name = EXPECT[kind][:2]
    return getattr(import_module(f"linekit.{module}"), name)(X)


def _scheme_section(rep, tol):
    """The `[scheme]` body of a `scheme_from_lineset` report on a set at tol."""
    body = {
        "n": rep.n,
        "classes": rep.classes,
        "angles": ", ".join(fmt_rational(a, tol) for a in rep.angles),
        "closed": "yes" if rep.closed else "no",
        "route": rep.route,
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


def _load_lineset(path, tol):
    """The line set in the file at `path`, at tolerance `tol` if given."""
    try:
        X = linesets.lineset_from_json(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read line-set file {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed line set in {path}: {exc}") from exc
    return _apply_tol(X, tol)


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
        from linekit import sics

        X = _apply_tol(sics.wh_orbit(_resolve_fiducial(args)), args.tol)
        context = None
    elif target == "lines":
        if args.singer is None:
            raise UsageError("construct lines needs --singer Q")
        from linekit import finite_algebra, groupcodes

        group, diffset = groupcodes.singer_difference_set(args.singer)
        X = _apply_tol(groupcodes.diffset_lines(group, diffset), args.tol)
        context = finite_algebra.gf_create(*finite_algebra._prime_power(args.singer**3)).label()
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown construct target {target!r}")

    summary, bound_rows = _lineset_sections(X)
    if context is not None:
        summary["field context"] = context
    if target in EXPECT:
        _, _, key, row, _ = EXPECT[target]
        verdict = _certify(target, X)
        summary[row] = "yes" if verdict[key] else "no"
        if verdict["alpha"] is not None:
            summary["alpha"] = fmt_rational(verdict["alpha"], X.tol)
        if "max_deviation" in verdict:
            summary["max deviation"] = f"{verdict['max_deviation']:.3g}"
    report = {"summary": summary, "bounds": bound_rows}
    if args.out:
        linesets.lineset_to_json(X, path=args.out)
        report["wrote"] = args.out
    return report, EXIT_OK


def _construct_mub(args):
    from linekit import mubs

    d, method = args.dim, args.method
    if method == "wf":
        return mubs.wf_mubs(d)
    if method == "alltop":
        return mubs.alltop_mubs(d)
    if method == "spin":
        return mubs.spin_model_mubs(d)
    if method == "tensor":
        if not args.factors:
            raise UsageError("construct mub --method tensor needs --factors A,B")
        parts = [int(x) for x in args.factors.split(",")]
        if len(parts) != 2:
            raise UsageError("--factors wants exactly two comma-separated integers")
        if parts[0] * parts[1] != d:
            raise UsageError(f"--factors {parts[0]},{parts[1]} do not multiply to {d}")
        return mubs.tensor_mubs(mubs.wf_mubs(parts[0]), mubs.wf_mubs(parts[1]))
    if method == "semifield":
        if not args.table:
            raise UsageError("construct mub --method semifield needs --table CSV")
        table = mubs.semifield_from_csv(args.table)
        if table.q != d:
            raise UsageError(f"table is {table.q} x {table.q} but --dim is {d}")
        return mubs.semifield_mubs(table)
    raise UsageError(f"unknown method {method!r}")  # pragma: no cover


def _resolve_fiducial(args):
    from linekit import sics

    source = "builtin" if args.fiducial is None else args.fiducial
    if source == "builtin":
        return sics.builtin_fiducial(args.dim)
    if source == "appleby":
        survivors = [e for e in sics.appleby_candidates(args.dim) if e["verdict"]["is_sic"]]
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
            vec = linesets._stack_pairs([data])[0]  # the line-set loader's check of one row
        except ValueError as exc:
            raise UsageError(f"malformed fiducial in {path}: {exc}") from exc
        if vec.shape[0] != args.dim:
            raise UsageError(f"fiducial has length {vec.shape[0]}, expected {args.dim}")
        return sics.FiducialCandidate(
            d=args.dim, vector=vec, source=("file", path), group=GROUP_KINDS[args.group or "cyclic"]
        )
    raise UsageError("--fiducial must be builtin, appleby, or file:PATH")


def cmd_verify(args):
    X = _load_lineset(args.file, args.tol)
    summary, bound_rows = _lineset_sections(X)
    report = {"summary": summary, "bounds": bound_rows}
    checks = [(f"bound-{row['bound']}", row["status"] != "VIOLATED", f"n exceeds {row['value']}")
              for row in bound_rows]  # (check, ok, failure detail)

    if args.expect is not None:
        _, _, key, _, detail = EXPECT[args.expect]
        try:
            verdict = _certify(args.expect, X)
        except ValueError as exc:  # verify_mub: labels that are not bases
            checks.append((f"expect-{args.expect}", False, str(exc)))
        else:
            section = {k: str(v) for k, v in verdict.items()}
            if "T1" in verdict:
                section["T1"] = f"{verdict['T1']:.3g}"
            if "degree_set" in verdict:  # a set with more than one angle
                section["degree_set"] = f"[{', '.join(f'{a:.3g}' for a in verdict['degree_set'])}]"
            if args.expect == "sic" and verdict["alpha"] is not None:
                section["alpha"] = fmt_rational(verdict["alpha"], X.tol)
            report[f"expect {args.expect}"] = section
            checks.append((f"expect-{args.expect}", verdict[key], detail(verdict)))

    if args.deep:
        from linekit import schemes

        scheme = schemes.scheme_from_lineset(X)
        gram = schemes.gram_algebra_check(X)
        body, gram_body = _scheme_section(scheme, X.tol), _gram_section(gram)
        deep = {"scheme closed": body["closed"], "scheme route": body["route"]}
        deep.update((k, body[k]) for k in ("closure residual", "pq residual", "krein minimum")
                    if k in body)
        deep["gram algebra closed"] = gram_body["closed"]
        if "unbiased identity residual" in gram_body:
            deep["gram square identity residual"] = gram_body["unbiased identity residual"]
        report["deep"] = deep
        # written `x <= tol` so that a NaN residual fails its check
        if scheme.closed:
            checks.append(("scheme-pq", scheme.pq_residual <= count_tol(scheme.n, X.tol),
                           f"PQ deviates from vI by {scheme.pq_residual:.3g}"))
            checks.append(("scheme-krein", scheme.krein_min >= -certify_tol(X.tol),
                           f"negative parameter {scheme.krein_min:.3g}"))
        residual = gram["mub_identity_residual"]
        if residual is not None:
            checks.append(("gram-square", residual <= certify_tol(X.tol),
                           f"G^2 = (n/d) G off by {residual:.3g}"))

    failures = [{"check": name, "detail": text} for name, ok, text in checks if not ok]
    report["failures"] = failures
    report["result"] = "pass" if not failures else "fail"
    return report, EXIT_OK if not failures else EXIT_CERTIFICATION


def cmd_scheme(args):
    from linekit import schemes

    X = _load_lineset(args.file, args.tol)
    # the idempotent check reads no labels: it runs before the label matrix is made
    idem = None if args.idempotents is None else schemes.idempotent_residuals(X, e=args.idempotents)
    rep = schemes.scheme_from_lineset(X)
    report = {"scheme": _scheme_section(rep, X.tol)}
    if args.gram:
        report["gram algebra"] = _gram_section(schemes.gram_algebra_check(X))
    if idem is not None:
        report["idempotents"] = {
            "e": args.idempotents,
            "max residual": f"{idem['max_residual']:.3g}",
            "traces": ", ".join(fmt_rational(t, X.tol) for t in idem["traces"]),
        }
    if args.out:
        schemes.scheme_to_json(rep, path=args.out)
        report["wrote"] = args.out
    return report, EXIT_OK


def cmd_export(args):
    what = args.what
    if what == "angles":
        if args.file is None:
            raise UsageError("export angles needs a line-set FILE")
        X = _load_lineset(args.file, args.tol)
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "angle"])
            for r0, c0, A in linesets._triangle_blocks(X):
                for i, row in enumerate(A, start=r0):
                    for j in range(i + 1, X.n):
                        writer.writerow([i, j, f"{row[j - c0]:.12g}"])
        return {"export": {"pairs": X.n * (X.n - 1) // 2, "wrote": args.out}}, EXIT_OK

    from linekit import groupcodes

    if what == "diffset":
        if (args.singer is None) == (args.rds is None):
            raise UsageError("export diffset needs exactly one of --singer Q or --rds Q")
        if args.singer is not None:
            group, diffset = groupcodes.singer_difference_set(args.singer)
            groupcodes.diffset_to_json(group, diffset, path=args.out)
            body = {"kind": "planar", "size": len(diffset), "wrote": args.out}
        else:
            group, diffset, excluded = groupcodes.field_rds(args.rds)
            groupcodes.diffset_to_json(group, diffset, N=excluded, path=args.out)
            body = {"kind": "relative", "size": len(diffset), "wrote": args.out}
    elif what == "graph":
        if args.tank_trap:
            graph = groupcodes.cover_graph(builtin="tank-trap")
        elif args.rds is not None:
            group, diffset, excluded = groupcodes.field_rds(args.rds)
            graph = groupcodes.cover_graph(group, diffset, N=excluded)
        else:
            raise UsageError("export graph needs --tank-trap or --rds Q")
        edges = graph.edge_list()
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(f"{graph.labels[u]}\t{graph.labels[v]}\n" for u, v in edges)
        arr = graph.intersection_array
        body = {
            "vertices": len(graph.labels),
            "edges": len(edges),
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
        code = groupcodes.LinearCode(rows, alphabet)
        groupcodes.linear_code_to_csv(code, args.out)
        body = {
            "alphabet": str(alphabet),
            "length": code.n,
            "words": len(code.codewords()),
            "wrote": args.out,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown export target {what!r}")
    return {"export": body}, EXIT_OK
