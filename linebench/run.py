"""linekit benchmark: fresh ``python -m linekit`` processes, end to end.

Usage:
    python3 linebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 linebench/run.py --workload all --seed N --smoke

Run from the root of a source checkout; the program is imported from
``src``.  Jobs run one at a time from this process (a closed loop with one
client).  A run sets up the workload (scratch directory, seeded input files
built with the library, one warm-up ``import linekit`` process) SETUP_REPEATS
times, then runs passes over the workload's jobs until S seconds have gone,
at least one pass.  Each job's exit code and report fields go through the
correctness gate in workloads.py.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same untraced
passes, then one traced pass under tracer.py, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``failed`` counts jobs that
missed their expected outcome, by exit code or by any checked field;
``correct`` is false when any job missed it, except a job that fails in
exactly the way of its documented defect (workloads.excused).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
PY = sys.executable
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
SUBCOMMANDS = ("construct", "verify", "scheme", "export", "bounds")

#: (name, unit) of the end-to-end metrics in the JSON result of --trace 0.
#: job_p50_s and the per-subcommand sums are printed too but left out of the
#: result; README.md, "End-to-end metrics", says why.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of the per-layer metrics, printed with --trace 1.
PER_LAYER = (
    [(metric, "s") for _, _, metric in tracer.SPANNED]
    + [(name, "bytes" if "bytes" in name else "count") for name in tracer.COUNTERS]
    + [(f"finite_algebra.{k}_{op}_ns", "ns") for k in ("gf", "gr") for op in ("mul", "trace")]
    + [("cli.import_s", "s"), ("cli.import_sympy_s", "s")]
    + [(f"subcommand.{c}_s", "s") for c in SUBCOMMANDS]
    + [("trace_overhead_s", "s")]
)


@dataclass
class Result:
    job: workloads.Job
    wall: float
    code: int
    rss_mb: float
    mismatches: list
    excused: bool


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def environment(args):
    """The header printed before every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    git = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        def _git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        try:
            dirty = _git("status", "--porcelain", "--untracked-files=no")
            git = _git("rev-parse", "HEAD") + (" (dirty)" if dirty else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git": git,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(workload, seed, work, env):
    """Scratch dir, seeded inputs and one warm-up import; returns seconds."""
    start = perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    subprocess.run([PY, str(HERE / "make_inputs.py"), workload, str(seed), str(work)],
                   env=env, check=True)
    subprocess.run([PY, "-c", "import linekit"], env=env, check=True)
    return perf_counter() - start


def run_job(job, work, env, spans=None):
    """Spawn one job, wait for it with wait4 and gate its output."""
    argv = ["--format", job.fmt, *job.argv]
    if spans is None:
        cmd = [PY, "-m", "linekit", *argv]
    else:
        cmd = [PY, str(HERE / "tracer.py"), str(spans), job.id, "--", *argv]
    out_path, err_path = work / f"{job.id}.out", work / f"{job.id}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    mismatches = workloads.check(job, code, stdout)
    excused = bool(mismatches) and workloads.excused(job, code, stderr)
    return Result(job, wall, code, usage.ru_maxrss / 1024, mismatches, excused)


def run_passes(stages, rng, work, env, seconds):
    """Untraced passes until `seconds` have gone, at least one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append([run_job(job, work, env) for job in workloads.pass_order(stages, rng)])
    return passes


def pass_wall(passes, subcommand=None):
    """Median over passes of the summed job wall time (of one subcommand)."""
    return statistics.median(sum(r.wall for r in p if subcommand in (None, r.job.subcommand))
                             for p in passes)


def end_to_end(passes, setup_times):
    """The END_TO_END metrics, then the printed-only job_p50_s and the
    per-subcommand sums of the subcommands the workload runs."""
    jobs = [r for p in passes for r in p]
    out = {
        "setup_s": statistics.median(setup_times),
        "wall_s": pass_wall(passes),
        "peak_rss_mb": max(r.rss_mb for r in jobs),
        "job_p50_s": statistics.median(r.wall for r in jobs),
    }
    for sub in SUBCOMMANDS:
        if any(r.job.subcommand == sub for r in jobs):
            out[f"{sub}_s"] = pass_wall(passes, sub)
    return out


def import_times(env):
    """Median wall of a fresh import, and sympy's cumulative -X importtime."""
    walls, sympy = [], []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run([PY, "-c", "import linekit"], env=env, check=True)
        walls.append(perf_counter() - start)
    for _ in range(IMPORT_REPEATS):
        err = subprocess.run([PY, "-X", "importtime", "-c", "import linekit"], env=env,
                             check=True, capture_output=True, text=True).stderr
        # lines read "import time: self [us] | cumulative | package"
        rows = [line.split("|") for line in err.splitlines() if line.startswith("import time:")]
        sympy.append(sum(int(r[1]) for r in rows if r[2].strip() == "sympy") / 1e6)
    return {"cli.import_s": statistics.median(walls),
            "cli.import_sympy_s": statistics.median(sympy)}


def traced_pass(stages, rng, work, env):
    """One traced pass; returns its results and the per-layer sums."""
    results, spans, counts = [], Counter(), Counter()
    for job in workloads.pass_order(stages, rng):
        path = work / f"{job.id}.spans.json"
        results.append(run_job(job, work, env, spans=path))
        dump = json.loads(path.read_text(encoding="utf-8"))
        spans.update(tracer.self_times(dump["spans"]))
        counts.update(dump["counts"])
    return results, spans, counts


def per_layer(passes, stages, rng, work, env, seed):
    traced, spans, counts = traced_pass(stages, rng, work, env)
    micro = subprocess.run([PY, str(HERE / "tracer.py"), "--microbench", str(seed)], env=env,
                           check=True, capture_output=True, text=True).stdout
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(spans)
    metrics.update(counts)
    metrics.update(json.loads(micro.splitlines()[-1]))
    metrics.update(import_times(env))
    metrics.update({f"subcommand.{s}_s": pass_wall(passes, s) for s in SUBCOMMANDS})
    metrics["trace_overhead_s"] = sum(r.wall for r in traced) - pass_wall(passes)
    return traced, metrics


def run_workload(args, env):
    name = args.workload
    print("# env " + json.dumps(environment(args)), flush=True)
    rng = random.Random(f"{name}/{args.seed}")
    stages = workloads.stages(name, rng)
    work = ROOT / ".linebench" / f"{name}-{args.seed}-{os.getpid()}"
    try:
        setup_times = [set_up(name, args.seed, work, env)
                       for _ in range(1 if args.trace else SETUP_REPEATS)]
        passes = run_passes(stages, rng, work, env, args.seconds)
        results = [r for p in passes for r in p]
        if args.trace:
            traced, metrics = per_layer(passes, stages, rng, work, env, args.seed)
            results += traced
            units = PER_LAYER
        else:
            metrics = end_to_end(passes, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r.mismatches]
    for r in failed:
        note = " (known defect)" if r.excused else ""
        for field, expected, got in r.mismatches:
            print(f"MISMATCH job={r.job.id} field={field!r} expected={expected!r} "
                  f"got={got!r}{note}")
    unit_of = dict(units)
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {unit_of.get(metric, 's')}")
    print(f"fail_frac = {len(failed) / len(results):.6g} ratio "
          f"({len(failed)} of {len(results)} jobs, {len(passes)} passes)")
    print(json.dumps({
        "correct": all(r.excused for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units},
    }), flush=True)


def smoke(args, env):
    """One job per workload through set-up and the gate; returns the exit code."""
    bad = 0
    for name in args.names:
        rng = random.Random(f"{name}/{args.seed}")
        jobs = {j.id: j for j in workloads.pass_order(workloads.stages(name, rng), rng)}
        work = ROOT / ".linebench" / f"smoke-{name}-{os.getpid()}"
        try:
            set_up(name, args.seed, work, env)
            r = run_job(jobs[workloads.SMOKE[name]], work, env)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        verdict = "ok" if not r.mismatches else f"FAIL {r.mismatches}"
        print(f"smoke {name}: {r.job.id} exit={r.code} {r.wall:.3f} s {verdict}")
        bad += bool(r.mismatches)
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one job per workload through the gate, print no metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "linekit" / "__init__.py").is_file():
        print(f"error: no linekit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    args.names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.smoke:
        return smoke(args, env)
    for name in args.names:
        args.workload = name
        run_workload(args, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
