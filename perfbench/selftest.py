"""Self-test of the benchmark itself (not of scorekit).

    python3 perfbench/selftest.py

Checks, in a few seconds, that

* a path scheme's run time is counted once: the sweep's ``.timings.csv``
  sidecar repeats the shared recursion time on every snapshot row, so
  summing it overstates the work, while the benchmark's outside timing
  does not read it;
* the tracer sees calls made through names imported into other modules,
  its self times add up to the traced time, and it restores every
  attribute it replaced;
* ``BENCHMARK.json`` lists exactly the workloads and metrics the benchmark
  prints.

Exit code 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import shutil
import sys

import run

FAILURES = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def check_path_time_counted_once(workdir):
    from workloads import Sweep, read_records

    ts = [100, 200, 300, 400, 500, 600]

    class PathSweep(Sweep):
        def config(self, seed):
            return {"schema_version": 1, "distribution": "gaussian",
                    "dimensions": [1], "sample_sizes": [1024], "seeds": [seed],
                    "eval_size": 64,
                    "estimators": [{"id": "nu_method", "kind": "curl_free",
                                    "iterations": ts}]}

    sweep = PathSweep()
    sweep.prepare(workdir, 0)
    wall_s, obs = run.timed_run(sweep, workdir, 0)
    expect(obs["rc"] == 0, "path sweep exits 0")
    rows = read_records(os.path.join(workdir, "rows.timings.csv"))
    fit_s = [float(r["fit_ms"]) / 1e3 for r in rows]
    expect(len(fit_s) == len(ts) and len(set(fit_s)) == 1,
           f"every snapshot row repeats the one path time ({fit_s[0]:.3f} s)")
    expect(fit_s[0] <= wall_s < sum(fit_s) / 3,
           f"outside wall {wall_s:.3f} s holds the path time once; the "
           f"sidecar sum would claim {sum(fit_s):.3f} s")
    literal = re.compile(r"""["'](fit_ms|predict_ms)["']|timings\.csv["']""")
    for name in ("run.py", "workloads.py", "tracer.py"):
        with open(os.path.join(run.HERE, name)) as f:
            expect(not literal.search(f.read()),
                   f"{name} reads no timing column of the package")


def _attributes():
    import scorekit
    from tracer import METHODS, MODULES
    mods = [scorekit] + [sys.modules[f"scorekit.{m}"] for m in MODULES]
    snap = {(m.__name__, a): v for m in mods for a, v in vars(m).items()}
    for short, classes in METHODS.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"scorekit.{short}"], cls_name)
            snap.update({(cls_name, a): v for a, v in vars(cls).items()})
    return snap


def check_tracer():
    import numpy as np
    import scorekit
    from tracer import Tracer

    before = _attributes()
    X = np.random.default_rng(0).standard_normal((64, 2))
    spec = scorekit.MatrixKernelSpec(
        "curl_free", scorekit.ScalarRadialKernel("imq", 1.0))
    with Tracer() as tr:
        same = scorekit.estimators.h_vector is scorekit.kernels.h_vector
        est = scorekit.fit_tikhonov(X, spec, 1e-2)
        est.predict(X[:5])
    expect(same and before[("scorekit.estimators", "h_vector")]
           is before[("scorekit.kernels", "h_vector")],
           "the by-name import of h_vector is replaced by the same wrapper")
    expect(tr.stat("kernels.h_vector").calls == 1,
           "h_vector called from estimators is seen")
    expect(tr.stat("estimators.fit_tikhonov").calls == 1
           and tr.stat("estimators.predict").calls == 1,
           "package-level fit_tikhonov and method predict are seen")
    expect(tr.stat("kernels.radial").calls > 0
           and tr.stat("kernels.radial").counts["elems"] > 0,
           "radial methods patched on their class are seen")
    roots = sum(end - start for _, start, end, parent in tr.spans if parent < 0)
    selfs = sum(s.self_s for s in tr.stats.values())
    expect(abs(roots - selfs) <= 1e-9 + 1e-6 * roots,
           f"self times add up to the traced time ({selfs:.6f} s vs {roots:.6f} s)")
    expect(tr.stat("estimators.fit_tikhonov").peak_bytes > 0,
           "tracemalloc peak recorded inside a fit")
    after = _attributes()
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) is not after.get(k))
    expect(not changed, f"every replaced attribute is restored {changed}")


def check_benchmark_json():
    from tracer import Tracer
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect(tuple(w["name"] for w in spec["workloads"]) == run.NAMES,
           "BENCHMARK.json workloads are the benchmark's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics are the ones --trace 0 prints")
    layers = Tracer().layer_metrics()
    layers["trace.overhead_ratio"] = {"unit": "ratio"}
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == {k: v["unit"] for k, v in layers.items()},
           "BENCHMARK.json per_layer metrics are the ones --trace 1 prints")


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.WORK, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    check_path_time_counted_once(workdir)
    check_tracer()
    check_benchmark_json()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
