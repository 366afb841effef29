"""The benchmark's workloads.

Each workload writes its inputs from a seed (``prepare``), rebuilds in the
pass's process what ``run`` and ``check`` keep in memory (``load``, untimed),
runs the timed part through scorekit's public entry points (``run``), and
checks the outputs (``check``). Every timing is taken here, around the
calls; nothing reads the ``fit_ms``/``predict_ms`` columns of the package's
``.timings.csv`` sidecar, because path schemes repeat one recursion's run
time on every snapshot row.

The load is one caller in a closed loop: each call starts when the previous
one has returned.
"""

import csv
import json
import math
import os
import statistics
import time

import numpy as np

import scorekit
import scorekit.cli


def read_records(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


class Outcome:
    """What one iteration produced: operation counts, accuracy, problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.score_err = math.nan
        self.problems = []
        self.info = {}

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok


# ======================================================================
# sweeps through the grid-exp / conv-exp subcommands
# ======================================================================

class Sweep:
    """One CLI sweep; its rows, summary and (conv-exp) slopes are checked."""

    subcommand = "grid-exp"

    def config(self, seed):
        raise NotImplementedError

    def prepare(self, workdir, seed):
        write_json(os.path.join(workdir, "config.json"), self.config(seed))

    def load(self, workdir, seed):
        pass

    def run(self, workdir, seed):
        argv = [self.subcommand, "--config", os.path.join(workdir, "config.json"),
                "--out", os.path.join(workdir, "rows.csv"), "--threads", "1"]
        return {"rc": scorekit.cli.main(argv)}

    def check(self, workdir, seed, obs):
        out = Outcome()
        out.attempted = 1
        if not out.expect(obs["rc"] == 0, f"{self.subcommand} exited {obs['rc']}"):
            out.failed = 1
            return out
        rows = read_records(os.path.join(workdir, "rows.csv"))
        failed = [r for r in rows if r["reason"]]
        out.attempted += len(rows)
        out.failed = len(failed)
        out.expect(not failed, f"{len(failed)} sweep rows failed, first: "
                   + (failed[0]["reason"] if failed else ""))
        summary = read_records(os.path.join(workdir, "rows.summary.csv"))
        for s in summary:
            s["M"], s["d"] = int(s["M"]), int(s["d"])
            s["median_error"] = float(s["median_error"])
        errs = [s["median_error"] for s in summary]
        out.expect(all(math.isfinite(e) for e in errs), "non-finite summary error")
        out.score_err = statistics.median(errs)
        self.check_summary(workdir, seed, summary, out)
        return out

    def check_summary(self, workdir, seed, summary, out):
        pass


CONV_SIZES = (256, 1024, 4096)


class Conv1d(Sweep):
    subcommand = "conv-exp"

    def config(self, seed):
        return {
            "schema_version": 1, "distribution": "gaussian", "dimensions": [1],
            "sample_sizes": list(CONV_SIZES), "seeds": [seed], "eval_size": 1024,
            "estimators": [
                {"id": "tikhonov", "kind": "curl_free"},
                {"id": "nu_method", "kind": "curl_free",
                 "iterations": [1, 3, 10, 31, 100, 316]},
            ],
        }

    def check_summary(self, workdir, seed, summary, out):
        # Paper criterion 5 asks for slopes in [-0.7, -0.1] of the median over
        # eight seeds; tests/test_acceptance.py checks that. At one seed the
        # slope ranges from -0.86 to -0.25 over seeds 0-22 and adjacent sizes
        # can swap, so this checks that the error falls from the smallest to
        # the largest M and keeps only the -0.1 end of the slope range.
        for name in ("tikhonov", "nu_method"):
            meds = [s["median_error"] for s in sorted(
                (s for s in summary if s["estimator"] == name), key=lambda s: s["M"])]
            out.expect(len(meds) == len(CONV_SIZES) and meds[-1] < meds[0],
                       f"{name}: median error does not fall with M: {meds}")
        slopes = read_records(os.path.join(workdir, "rows.slopes.csv"))
        out.expect(len(slopes) == 2, f"expected 2 slope rows, got {len(slopes)}")
        for s in slopes:
            out.expect(s["status"] == "ok" and float(s["slope"]) <= -0.1,
                       f"{s['estimator']}: slope {s['slope']} ({s['status']}) "
                       "is above -0.1")


class HighdimSweep(Sweep):
    def config(self, seed):
        return {
            "schema_version": 1, "distribution": "grid", "dimensions": [64, 128],
            "sample_sizes": [512], "seeds": [seed], "eval_size": 1024,
            "estimators": [
                {"id": "tikhonov", "kind": "curl_free"},
                {"id": "tikhonov_cg", "kind": "curl_free"},
                {"id": "nu_method", "kind": "curl_free"},
                {"id": "spectral_cutoff", "kind": "diagonal"},
                {"id": "truncated_tikhonov", "kind": "diagonal"},
            ],
        }

    def check_summary(self, workdir, seed, summary, out):
        # paper criterion 6: every curl-free fit beats every diagonal one
        for d in (64, 128):
            curl = [s["median_error"] for s in summary
                    if s["d"] == d and s["kind"] == "curl_free"]
            diag = [s["median_error"] for s in summary
                    if s["d"] == d and s["kind"] == "diagonal"]
            out.expect(len(curl) == 3 and len(diag) == 2
                       and max(curl) < min(diag),
                       f"d={d}: curl-free {curl} not all below diagonal {diag}")


class DenseEigen(Sweep):
    D, M = 8, 512

    def config(self, seed):
        return {
            "schema_version": 1, "distribution": "grid", "dimensions": [self.D],
            "sample_sizes": [self.M], "seeds": [seed], "eval_size": 1024,
            "estimators": [
                {"id": "truncated_tikhonov", "kind": "curl_free"},
                # ranks of half or more of Md overfit (error above the zero
                # predictor); 0.05 is the grid point the summary selects
                {"id": "spectral_cutoff", "kind": "curl_free",
                 "fractions": [0.05, 0.5, 0.9]},
                {"id": "landweber", "kind": "curl_free"},
                {"id": "nystrom", "kind": "curl_free", "subset_fraction": 0.25},
            ],
        }

    def check_summary(self, workdir, seed, summary, out):
        dist = scorekit.make_grid_distribution(self.D, 0)
        Q = scorekit.sample(dist, 4096, np.random.SeedSequence(seed, spawn_key=(7,)))
        zero_err = float(np.mean(np.square(scorekit.score_batch(dist, Q)).sum(axis=1))
                         / self.D)
        out.info["zero_predictor_err"] = zero_err
        for s in summary:
            out.expect(s["median_error"] < zero_err,
                       f"{s['estimator']}: error {s['median_error']} does not beat "
                       f"the zero predictor ({zero_err})")


# ======================================================================
# fit -> save -> load -> predict round trip
# ======================================================================

class CliServe:
    """Two CLI fits, two CLI predictions, then in-process batch predictions.

    The diagonal nu-method fit goes through the CLI's dense mode, which
    builds the Md x Md Kronecker Gram (12288^2 here, about 1.2 GB). That is a
    known defect; the shape is kept so that fixing it shows in fit_s and
    peak_rss_mb.
    """

    D, M, QUERIES = 16, 768, 20000
    BATCHES, BATCH = 256, 64
    ESTIMATORS = {
        "cf": {"id": "tikhonov", "kind": "curl_free", "lambdas": [1e-3]},
        "diag": {"id": "nu_method", "kind": "diagonal", "iterations": [100]},
    }

    def _mixture(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
        codes = rng.choice(2 ** self.D, size=self.D, replace=False)
        means = ((codes[:, None] >> np.arange(self.D)[None, :]) & 1).astype(float)
        return rng, means

    def _draw(self, rng, means, n):
        comp = rng.integers(0, len(means), size=n)
        return means[comp] + rng.standard_normal((n, self.D))

    def load(self, workdir, seed):
        rng, means = self._mixture(seed)
        self.train = self._draw(rng, means, self.M)
        # 17 significant digits round-trip exactly, so these are the very
        # queries the CLI reads back
        self.queries = self._draw(rng, means, self.QUERIES)

    def prepare(self, workdir, seed):
        self.load(workdir, seed)
        scorekit.save_samples_csv(self.train, os.path.join(workdir, "train.csv"))
        scorekit.save_samples_csv(self.queries, os.path.join(workdir, "queries.csv"))
        for tag, est in self.ESTIMATORS.items():
            write_json(os.path.join(workdir, f"fit_{tag}.json"),
                       {"schema_version": 1, "samples": "train.csv", "estimator": est})
            write_json(os.path.join(workdir, f"predict_{tag}.json"),
                       {"schema_version": 1, "estimator": f"{tag}.bin",
                        "queries": "queries.csv"})

    def run(self, workdir, seed):
        obs = {"rc": {}, "batch_ms": []}
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        t0 = time.perf_counter()
        for tag in self.ESTIMATORS:
            obs["rc"]["fit " + tag] = scorekit.cli.main(
                ["fit", "--config", path(f"fit_{tag}.json"), "--out", path(f"{tag}.bin")])
        t1 = time.perf_counter()
        for tag in self.ESTIMATORS:
            obs["rc"]["predict " + tag] = scorekit.cli.main(
                ["predict", "--config", path(f"predict_{tag}.json"),
                 "--out", path(f"pred_{tag}.csv")])
        t2 = time.perf_counter()
        obs["fit_s"], obs["predict_s"] = t1 - t0, t2 - t1
        if obs["rc"]["fit cf"] != 0:
            return obs
        est = scorekit.load_estimator(path("cf.bin"))
        Q = self.queries[:self.BATCHES * self.BATCH]
        preds, obs["batch_errors"] = [], 0
        for lo in range(0, len(Q), self.BATCH):
            tb = time.perf_counter()
            try:
                preds.append(est.predict(Q[lo:lo + self.BATCH]))
            except Exception as exc:   # counted as a failed operation
                obs["batch_errors"] += 1
                obs.setdefault("batch_error", repr(exc))
            obs["batch_ms"].append((time.perf_counter() - tb) * 1e3)
        obs["batch_pred"] = np.concatenate(preds) if preds else None
        return obs

    def check(self, workdir, seed, obs):
        out = Outcome()
        out.attempted = len(obs["rc"]) + len(obs["batch_ms"])
        bad = {k: v for k, v in obs["rc"].items() if v != 0}
        out.failed = len(bad) + obs.get("batch_errors", 0)
        out.expect(not bad, f"CLI calls exited nonzero: {bad}")
        out.expect(not obs.get("batch_errors"),
                   f"{obs.get('batch_errors')} batch predictions raised: "
                   f"{obs.get('batch_error')}")
        out.info.update(fit_s=obs["fit_s"],
                        predict_qps=len(self.ESTIMATORS) * self.QUERIES / obs["predict_s"],
                        batch_ms=obs["batch_ms"])
        if bad:
            return out
        Q, pred = self.queries, {}
        for tag in self.ESTIMATORS:
            pred[tag] = scorekit.load_samples_csv(os.path.join(workdir, f"pred_{tag}.csv"))
            ref = scorekit.load_estimator(os.path.join(workdir, f"{tag}.bin")).predict(Q)
            out.expect(pred[tag].shape == ref.shape and np.array_equal(pred[tag], ref),
                       f"{tag}: CLI predictions differ from in-process predict")
        if not obs["batch_errors"]:
            batch, ref = obs["batch_pred"], pred["cf"][:len(obs["batch_pred"])]
            rel = float(np.max(np.abs(batch - ref)) / np.max(np.abs(ref)))
            out.expect(rel <= 1e-10, f"batched predictions differ from full by {rel:.3e}")
        _, means = self._mixture(seed)
        dist = scorekit.MixtureDistribution(means, np.full(self.D, 1.0 / self.D))
        truth = scorekit.score_batch(dist, Q)
        out.score_err = float(np.mean(np.square(truth - pred["cf"]).sum(axis=1)) / self.D)
        out.expect(math.isfinite(out.score_err), "non-finite score error")
        return out


WORKLOADS = {
    "conv-1d": Conv1d(),
    "highdim-sweep": HighdimSweep(),
    "dense-eigen": DenseEigen(),
    "cli-serve": CliServe(),
}

# Layers each workload must reach; the traced run fails if one records no
# call there. Where a layer is bypassed is listed in README.md.
_SWEEP = ("bench.run_grid_rows", "bench.write", "cli.main")
HEAVY = {
    "conv-1d": _SWEEP + (
        "kernels.radial", "kernels.h_vector", "kernels.zeta_batch",
        "kernels.sq_dists", "kernels.DenseGram.matvec", "spectral_linalg.solve_spd",
        "kernels.cross_apply", "estimators.predict", "estimators.fit_tikhonov",
        "estimators.nu_method_path"),
    "highdim-sweep": _SWEEP + (
        "kernels.sq_dists", "kernels.ImplicitGram.matvec",
        "spectral_linalg.conjugate_gradient", "spectral_linalg.sym_eig",
        "kernels.cross_apply", "oracles.score_batch", "oracles.sample",
        "oracles.median_bandwidth", "estimators.fit_tikhonov",
        "estimators.fit_tikhonov_cg", "estimators.nu_method_path",
        "estimators.fit_spectral_cutoff", "estimators.fit_truncated_tikhonov"),
    "dense-eigen": _SWEEP + (
        "kernels.cross_gram", "spectral_linalg.sym_eig",
        "spectral_linalg.power_iteration", "estimators.fit_truncated_tikhonov",
        "estimators.fit_spectral_cutoff", "estimators.landweber_path",
        "estimators.fit_nystrom"),
    "cli-serve": (
        "cli.main", "kernels.cross_gram", "kernels.DenseGram.matvec",
        "kernels.ImplicitGram.matvec", "spectral_linalg.conjugate_gradient",
        "kernels.cross_apply", "estimators.predict", "estimators.fit_tikhonov",
        "estimators.fit_nu_method", "estimators.save_estimator",
        "estimators.load_estimator", "oracles.save_samples_csv",
        "oracles.load_samples_csv"),
}
