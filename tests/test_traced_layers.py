"""The benchmark's traced layers still exist in the package.

perfbench/tracer.py reports LAYER_METRICS and perfbench/workloads.py
requires each workload to reach the layers in HEAVY; a traced run fails if
one records no call. This reads both (without changing them) and checks
that each layer name, through tracer.RENAME, is a public scorekit function
the tracer wraps or a method it patches, so a refactor that drops or renames
one fails here instead of in the traced benchmark run. Each workload also
runs traced at a small shape, and must reach every layer it requires, and
the benchmark's own self-test checks of its tracer and of BENCHMARK.json
pass.
"""

import importlib
import importlib.util
import inspect
import json
import os
import sys

import pytest

from scorekit import bench

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

LAYERS = sorted({layer for layer, _ in tracer.LAYER_METRICS}
                | {layer for heavy in workloads.HEAVY.values() for layer in heavy})


def _traced_names(layer):
    """The tracer names whose spans are reported under layer."""
    return [name for name, target in tracer.RENAME.items() if target == layer] or [layer]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_is_a_traced_scorekit_callable(layer):
    for name in _traced_names(layer):
        short, *attrs = name.split(".")
        assert short in tracer.MODULES, f"{name}: module not traced"
        module = importlib.import_module(f"scorekit.{short}")
        if len(attrs) == 1:
            # what Tracer.__enter__ wraps: a public function defined there
            obj = getattr(module, attrs[0], None)
            assert inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not attrs[0].startswith("_"), f"{name} is not a public function"
        else:
            cls_name, meth = attrs
            assert meth in tracer.METHODS.get(short, {}).get(cls_name, ()), \
                f"{name} is not a patched method"
            assert callable(getattr(module, cls_name).__dict__.get(meth)), \
                f"{name} is not defined on its class"


def test_cli_serve_reaches_every_required_layer(tmp_path):
    # M d = 4800 is over the dense limit, as at the workload's own shape: the
    # curl-free fit is matrix-free and the diagonal one reads its dense
    # M x M Gram
    serve = workloads.CliServe()
    serve.M, serve.QUERIES, serve.BATCHES = 300, 256, 2
    serve.prepare(str(tmp_path), 0)
    with tracer.Tracer() as traced:
        obs = serve.run(str(tmp_path), 0)
    assert set(obs["rc"].values()) == {0}
    assert [layer for layer in workloads.HEAVY["cli-serve"]
            if traced.stat(layer).calls == 0] == []


# the sweep workloads' configs at small shapes; highdim-sweep keeps Md = 4608
# over the dense limit, so its curl-free fits stay matrix-free
SMALL_SWEEPS = {
    "conv-1d": {"sample_sizes": [16, 48, 160], "eval_size": 32},
    "highdim-sweep": {"dimensions": [64], "sample_sizes": [72], "eval_size": 32},
    "dense-eigen": {"sample_sizes": [64], "eval_size": 32},
}


@pytest.mark.parametrize("name", sorted(SMALL_SWEEPS))
def test_sweep_reaches_every_required_layer(tmp_path, name):
    sweep = workloads.WORKLOADS[name]
    config = dict(sweep.config(0), **SMALL_SWEEPS[name])
    (tmp_path / "config.json").write_text(json.dumps(config))
    with tracer.Tracer() as traced:
        obs = sweep.run(str(tmp_path), 0)
    assert obs["rc"] == 0
    assert [layer for layer in workloads.HEAVY[name]
            if traced.stat(layer).calls == 0] == []


def test_conv_1d_builds_each_table_once(tmp_path):
    # each size's Gram and h come from one pass of three M x M tables
    # (phi'', phi''' and phi'), its predictions from three eval x M tables;
    # cross_gram and a second h pass added 28,160 elements here
    sweep = workloads.WORKLOADS["conv-1d"]
    config = dict(sweep.config(0), **SMALL_SWEEPS["conv-1d"])
    (tmp_path / "config.json").write_text(json.dumps(config))
    with tracer.Tracer() as traced:
        obs = sweep.run(str(tmp_path), 0)
    assert obs["rc"] == 0
    assert traced.stat("kernels.cross_gram").calls == 0
    sizes, queries = config["sample_sizes"], config["eval_size"]
    bound = 3 * sum(M * M for M in sizes) + 3 * queries * sum(sizes)
    assert traced.stat("kernels.radial").counts["elems"] <= bound


def test_loose_tikhonov_cells_spend_no_cg_iteration(tmp_path, monkeypatch):
    # the small highdim-sweep shape with its curl-free tikhonov_cg entry
    # alone: each cell reads the problem's Lanczos basis and makes one Gram
    # product for its true residual, so CG runs no iteration
    bases, orig = [], bench.lanczos

    def recorded(*args, **kwargs):
        bases.append(orig(*args, **kwargs))
        return bases[-1]
    monkeypatch.setattr(bench, "lanczos", recorded)
    sweep = workloads.WORKLOADS["highdim-sweep"]
    config = dict(sweep.config(0), **SMALL_SWEEPS["highdim-sweep"],
                  estimators=[{"id": "tikhonov_cg", "kind": "curl_free"}])
    (tmp_path / "config.json").write_text(json.dumps(config))
    with tracer.Tracer() as traced:
        obs = sweep.run(str(tmp_path), 0)
    assert obs["rc"] == 0
    cells, basis = len(bench.LAMBDA_GRID), sum(len(b.V) for b in bases)
    assert traced.stat("estimators.fit_tikhonov_cg").calls == cells
    assert traced.stat("spectral_linalg.conjugate_gradient").counts.get("iters", 0) == 0
    assert traced.stat("kernels.ImplicitGram.matvec").calls <= basis + cells
    assert len(bases) == 1


@pytest.fixture
def selftest(monkeypatch):
    """perfbench/selftest.py, which imports its sibling modules by name as
    it does when run as a script; they leave sys.modules afterwards."""
    monkeypatch.syspath_prepend(PERFBENCH)
    siblings = ("run", "tracer", "workloads")
    saved = {name: sys.modules.pop(name) for name in siblings if name in sys.modules}
    yield _load("selftest")
    for name in siblings:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


# main() is left out: it also runs a sweep that writes under .perfbench-work
@pytest.mark.parametrize("check", ["check_tracer", "check_benchmark_json"])
def test_benchmark_selftest_check_passes(selftest, check):
    getattr(selftest, check)()
    assert selftest.FAILURES == []
