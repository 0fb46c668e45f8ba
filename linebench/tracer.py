"""Tracer runner: one linekit CLI job with spans around calls into each layer.

Usage:
    python linebench/tracer.py SPANS_JSON JOB_ID -- LINEKIT_ARGS...
    python linebench/tracer.py --microbench SEED

The first form imports linekit, rebinds every function and method listed in
SPANNED and COUNTED in every ``linekit.*`` namespace that holds it (cli,
schemes and sics bind names such as ``gram_degree_set`` with ``from ...
import``), runs ``linekit.cli.main(argv)``, writes the spans and counters to
SPANS_JSON when the job exits, and exits with the job's exit code.  A span is
(metric, start, end, parent index); every span of one file shares its job id.

Calls too frequent to span (finite-field ``mul`` and ``trace``) are counted.

The second form times warm ``mul`` and ``trace`` calls over a seeded batch
of element pairs and prints the per-call times in ns as one JSON line.

This module imports linekit only inside functions, so run.py
can read the tables without importing the program.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import sys
from collections import Counter
from time import perf_counter

#: (module, function or Class.method, span metric).  Span metrics report the
#: summed self time of their spans.
SPANNED = [
    ("finite_algebra", "gf_create", "finite_algebra.gf_create_s"),
    ("finite_algebra", "gr_create", "finite_algebra.gr_create_s"),
    ("mubs", "wf_mubs", "mubs.wf_mubs_s"),
    ("mubs", "alltop_mubs", "mubs.alltop_mubs_s"),
    ("mubs", "MubFamily.__post_init__", "mubs.certify_s"),
    ("linesets", "gram_degree_set", "linesets.gram_degree_set_s"),
    ("linesets", "design_strength", "linesets.design_strength_s"),
    ("linesets", "verify_mub", "linesets.verify_mub_s"),
    ("linesets", "verify_equiangular", "linesets.verify_equiangular_s"),
    ("linesets", "lineset_to_json", "linesets.lineset_to_json_s"),
    ("linesets", "lineset_from_json", "linesets.lineset_from_json_s"),
    ("jacobi", "JacobiFamily.__init__", "jacobi.JacobiFamily_s"),
    ("jacobi", "expand_in_basis", "jacobi.expand_in_basis_s"),
    ("jacobi", "relative_bound", "jacobi.relative_bound_s"),
    ("schemes", "scheme_from_lineset", "schemes.scheme_from_lineset_s"),
    ("schemes", "gram_algebra_check", "schemes.gram_algebra_check_s"),
    ("schemes", "jacobi_idempotents", "schemes.jacobi_idempotents_s"),
    ("groupcodes", "cover_graph", "groupcodes.cover_graph_s"),
    ("groupcodes", "classify_difference_set", "groupcodes.classify_difference_set_s"),
    ("groupcodes", "singer_difference_set", "groupcodes.singer_difference_set_s"),
    ("groupcodes", "diffset_lines", "groupcodes.diffset_lines_s"),
    ("sics", "wh_orbit", "sics.wh_orbit_s"),
    ("sics", "appleby_candidates", "sics.appleby_candidates_s"),
    ("sics", "verify_sic", "sics.verify_sic_s"),
    ("cli", "main", "cli.main_self_s"),
]

#: (module, function or Class.method, counter, size counter or None).  A size
#: counter adds size(args, result) per call.
COUNTED = [
    ("finite_algebra", "GaloisField.mul", "finite_algebra.mul_calls", None),
    ("finite_algebra", "GaloisRing.mul", "finite_algebra.mul_calls", None),
    ("finite_algebra", "GaloisField.trace", "finite_algebra.trace_calls", None),
    ("finite_algebra", "GaloisRing.trace", "finite_algebra.trace_calls", None),
    # complex128 Gram matrix: n^2 entries of 16 bytes, computed, not measured
    ("linesets", "LineSet.gram", "linesets.gram_calls",
     ("linesets.gram_bytes", lambda args, result: 16 * args[0].n ** 2)),
    # wraps the span wrapper, so the span's self time leaves the counting out
    ("linesets", "lineset_to_json", "linesets.lineset_to_json_calls",
     ("linesets.json_bytes_written", lambda args, result: len(result))),
]

COUNTERS = sorted({c for _, _, c, _ in COUNTED} | {s[0] for *_, s in COUNTED if s})


class Tracer:
    """Holds the spans and counters of one process; install() rebinds the
    listed callables and uninstall() restores the originals."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def install(self):
        import linekit.cli  # noqa: F401  (loads every submodule)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "linekit" or name.startswith("linekit.")}
        for module, name, metric in SPANNED:
            self._rebind(modules, module, name, lambda fn, m=metric: self._spanned(m, fn))
        for module, name, counter, size in COUNTED:
            self._rebind(modules, module, name,
                         lambda fn, c=counter, s=size: self._counted(c, fn, s))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, modules, module, name, wrap):
        home = modules[f"linekit.{module}"]
        cls_name, _, attr = name.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, original, wrap(original))
            return
        original = getattr(home, attr)
        wrapper = wrap(original)
        for mod in modules.values():
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._set(mod, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _spanned(self, metric, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([metric, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][1:3] = [start, perf_counter()]
                stack.pop()

        return wrapper

    def _counted(self, counter, fn, size=None):
        counts = self.counts

        if size is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
        else:
            size_counter, measure = size

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[counter] += 1
                counts[size_counter] += measure(args, result)
                return result

        return wrapper


def self_times(spans):
    """{metric: summed self time}: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for (metric, start, end, _), inside in zip(spans, child):
        out[metric] += end - start - inside
    return out


def run_job(spans_path, job_id, argv):
    tracer = Tracer()
    tracer.install()
    import linekit.cli

    code = 1
    try:
        code = linekit.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
        raise
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job_id, "exit": code, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)
    return code


def microbench(seed, batch=500, repeats=5):
    """Warm per-call ns of mul and trace in GF(27), GF(31) and GR(4^4)."""
    from linekit import gf_create, gr_create

    rng = random.Random(seed)
    rings = {"gf": [gf_create(3, 3), gf_create(31, 1)], "gr": [gr_create(4)]}
    out = {}
    for kind, members in rings.items():
        work = []
        for R in members:
            els = R.elements()
            work.append((R, [(rng.choice(els), rng.choice(els)) for _ in range(batch)]))
        calls = batch * len(members)
        for op in ("mul", "trace"):
            times = []
            for _ in range(repeats + 1):  # the first repetition warms up
                start = perf_counter()
                for R, pairs in work:
                    if op == "mul":
                        f = R.mul
                        for a, b in pairs:
                            f(a, b)
                    else:
                        f = R.trace
                        for a, _ in pairs:
                            f(a)
                times.append((perf_counter() - start) / calls * 1e9)
            out[f"finite_algebra.{kind}_{op}_ns"] = statistics.median(times[1:])
    return out


def main(argv):
    if argv[:1] == ["--microbench"]:
        print(json.dumps(microbench(int(argv[1]))))
        return 0
    spans_path, job_id, sep, *rest = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON JOB_ID -- LINEKIT_ARGS...")
    return run_job(spans_path, job_id, rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
