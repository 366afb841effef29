"""Run one scorekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload conv-1d --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from anywhere; the package is imported from the ``src/`` directory next
to ``perfbench/``. The workload's inputs are made from ``--seed``. With
``--trace 0`` the workload repeats for about ``--seconds`` seconds, closed
loop, one fresh process per pass, and the end-to-end metrics are printed. With ``--trace 1`` it runs once
untraced and once traced, and the per-layer metrics are printed together with
the tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the package sources
are missing. ``--workload all`` runs each workload in a fresh process and
prints a table.

Per run, ``.perfbench-work/<workload>/`` holds the inputs, the outputs,
``result.json`` (metrics, machine record, checks) and, when traced,
``spans.jsonl``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
NAMES = ("conv-1d", "highdim-sweep", "dense-eigen", "cli-serve")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_REPS = 3          # set-ups timed before the passes, and again after them
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS to the CPUs this process may use; numpy reads it on import."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    for var in BLAS_ENV:
        os.environ[var] = str(n)
    return n


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(threads) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_pinned": threads, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "git_sha": git_sha()}


def import_seconds() -> float:
    """Time `import scorekit` in a fresh interpreter, as a user pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import scorekit; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def setup_once(workload, workdir, seed) -> float:
    """One set-up: a fresh import plus writing the inputs."""
    t_import = import_seconds()
    t0 = time.perf_counter()
    workload.prepare(workdir, seed)
    return t_import + time.perf_counter() - t0


def timed_run(workload, workdir, seed):
    """One pass of the workload, timed from outside: (seconds, observations)."""
    t0 = time.perf_counter()
    obs = workload.run(workdir, seed)
    return time.perf_counter() - t0, obs


def run_pass(args) -> int:
    """One pass in this fresh process: untimed load, timed run, check.

    Prints the pass as one JSON line. Every pass is a new process, so each
    starts from the same state: within one process a second pass runs about
    15% faster (allocator and caches warm), which would make the median
    depend on how many passes fit into --seconds.
    """
    from tracer import Tracer
    from workloads import HEAVY, WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, args.workload)
    workload.load(workdir, args.seed)
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():   # the check stays untraced
        seconds, obs = timed_run(workload, workdir, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = workload.check(workdir, args.seed, obs)
    result = {"seconds": seconds, "peak_rss_mb": peak_rss_mb,
              "attempted": out.attempted, "failed": out.failed,
              "score_err": out.score_err, "problems": out.problems, "info": out.info}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        for layer in HEAVY[args.workload]:
            if tracer.stat(layer).calls == 0:
                out.problems.append(f"layer {layer} recorded no call on {args.workload}")
        t_first = tracer.spans[0][1] if tracer.spans else 0.0
        with open(os.path.join(workdir, "spans.jsonl"), "w") as f:
            for name, t0, t1, parent in tracer.spans:
                f.write(json.dumps([name, t0 - t_first, t1 - t_first, parent]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def one_pass(args, trace) -> dict:
    """Run one pass in a fresh interpreter and return what it printed."""
    argv = [sys.executable, os.path.abspath(__file__), "--pass",
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"seconds": 0.0, "peak_rss_mb": 0.0, "attempted": 1, "failed": 1,
                "score_err": None, "info": {},
                "problems": [f"pass exited {done.returncode} without a result"]}


def run_one(args, threads) -> int:
    import numpy as np
    from workloads import WORKLOADS

    import scorekit
    if os.path.dirname(os.path.abspath(scorekit.__file__)) != os.path.join(SRC, "scorekit"):
        print(f"perfbench: imported scorekit from {scorekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    machine = machine_record(threads)
    print("machine: " + json.dumps(machine), flush=True)

    setup_reps = [setup_once(workload, workdir, args.seed) for _ in range(SETUP_REPS)]
    start = time.perf_counter()
    passes = [one_pass(args, 0)]
    if args.trace:
        passes.append(one_pass(args, 1))
    else:
        while (not passes[-1]["problems"] and time.perf_counter() - start
               + statistics.median(p["seconds"] for p in passes) <= args.seconds):
            passes.append(one_pass(args, 0))
    times = [p["seconds"] for p in passes]

    problems = sorted({q for p in passes for q in p["problems"]})
    score_errs = {p["score_err"] for p in passes}
    if len(score_errs) != 1:
        problems.append(f"score_err differs between passes: {sorted(map(str, score_errs))}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info = {"passes": len(times), "pass_s": times, "fail_frac": failed / attempted,
            "score_err": passes[0]["score_err"]}
    info.update({k: v for k, v in passes[0]["info"].items() if k != "batch_ms"})
    untraced = [p for p in (passes[:1] if args.trace else passes) if "fit_s" in p["info"]]
    if untraced:
        batch_ms = [ms for p in untraced for ms in p["info"]["batch_ms"]]
        info.update(fit_s=statistics.median(p["info"]["fit_s"] for p in untraced),
                    predict_qps=statistics.median(p["info"]["predict_qps"] for p in untraced),
                    batch_p50_ms=float(np.percentile(batch_ms, 50)),
                    batch_p95_ms=float(np.percentile(batch_ms, 95)),
                    batch_samples=len(batch_ms))

    if not args.trace:
        # A second round after the passes: the speed of a shared machine
        # drifts over tens of seconds, and a fresh import is short enough to
        # sample only one such window. The median then spans the whole run.
        setup_reps += [setup_once(workload, workdir, args.seed)
                       for _ in range(SETUP_REPS)]
        info["setup_reps_s"] = setup_reps
        values = {"setup_s": statistics.median(setup_reps),
                  "wall_s": statistics.median(times),
                  "peak_rss_mb": passes[0]["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        metrics = passes[1].get("layers", {})
        metrics["trace.overhead_ratio"] = {"value": times[1] / times[0] if times[0] else 0.0,
                                           "unit": "ratio"}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       trace=args.trace, info=info, problems=problems,
                       machine=machine), f, indent=1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(times)} pass(es), BLAS threads {threads}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_frac {info['fail_frac']:.6g} ({failed}/{attempted})")
    for key in ("score_err", "fit_s", "predict_qps", "batch_p50_ms", "batch_p95_ms"):
        if info.get(key) is not None:
            print(f"  {key} {info[key]:.6g}")
    if "batch_samples" in info:
        print(f"  batch_samples {info['batch_samples']}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own fresh process (so peak RSS is per workload)."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        try:
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result (exit {done.returncode})",
                  file=sys.stderr)
            return done.returncode or 1
        with open(os.path.join(WORK, name, "result.json")) as f:
            results[name]["info"] = json.load(f)["info"]
    if not args.trace:
        print(f"\n{'workload':14s} " + " ".join(f"{k:>12s}" for k in END_TO_END)
              + f" {'fail_frac':>10s} {'score_err':>10s}")
        for name, r in results.items():
            print(f"{name:14s} " + " ".join(f"{r['metrics'][k]['value']:12.5g}"
                                            for k in END_TO_END)
                  + f" {r['info']['fail_frac']:10.3g} {r['info']['score_err']:10.4g}")
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": m for n, r in results.items()
                            for k, m in r["metrics"].items()}}
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)   # internal: one pass, see run_pass
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scorekit", "__init__.py")):
        print(f"perfbench: no scorekit sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_pass(args) if args.one_pass else run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
