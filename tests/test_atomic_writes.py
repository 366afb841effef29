"""Every file the package writes appears atomically: a write that fails part
way leaves the previous file byte-identical and no temporary file behind."""

import json
import os
import stat

import numpy as np
import pytest

from scorekit import atomic, bench
from scorekit.bench import SummaryRow, write_summary_csv
from scorekit.cli import main
from scorekit.estimators import fit_tikhonov, save_estimator
from scorekit.kernels import MatrixKernelSpec, ScalarRadialKernel
from scorekit.oracles import save_samples_csv

OLD = b"previous contents\n"


class _FailingFile:
    """Writes half of the first chunk it is given, then fails like a full disk."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        self._f.flush()
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()
        return False


@pytest.fixture
def failing_disk(monkeypatch):
    def failing_open(fd, *args, **kwargs):
        return _FailingFile(open(fd, *args, **kwargs))
    monkeypatch.setattr(atomic, "open", failing_open, raising=False)


def estimator():
    X = np.random.default_rng(0).standard_normal((5, 2))
    return fit_tikhonov(X, MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 1.0)), 0.1)


def write_plot(path, inputs):
    # the CLI reports a failed write as exit 1
    if main(["plot", "--config", str(inputs / "plot.json"), "--out", str(path)]) != 0:
        raise OSError("plot exited nonzero")


WRITERS = {
    "save_estimator": lambda path, inputs: save_estimator(estimator(), path),
    "bench csv": lambda path, inputs: bench.write_rows_csv(
        bench.run_grid_rows(bench.parse_experiment_config({
            "schema_version": 1, "distribution": "grid", "dimensions": [2],
            "sample_sizes": [8], "seeds": [0], "eval_size": 8,
            "estimators": [{"id": "oracle"}]})), path),
    "save_samples_csv": lambda path, inputs: save_samples_csv(np.eye(3), path),
    "plot svg": write_plot,
}


@pytest.fixture
def dirs(tmp_path):
    """(target file holding OLD, in a directory of its own; the plot inputs'
    directory). Requested before failing_disk, so the inputs write normally."""
    (tmp_path / "out").mkdir()
    (tmp_path / "in").mkdir()
    write_summary_csv([SummaryRow("tikhonov", "curl_free", 2, 16, "lam=0.1", 0.5, 2),
                       SummaryRow("tikhonov", "curl_free", 2, 32, "lam=0.1", 0.25, 2)],
                      tmp_path / "in" / "in.csv")
    (tmp_path / "in" / "plot.json").write_text(
        json.dumps({"schema_version": 1, "input": "in.csv"}))
    target = tmp_path / "out" / "target"
    target.write_bytes(OLD)
    return target, tmp_path / "in"


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_the_previous_file(dirs, failing_disk, writer):
    target, inputs = dirs
    with pytest.raises(OSError):
        WRITERS[writer](target, inputs)
    assert target.read_bytes() == OLD
    assert os.listdir(target.parent) == ["target"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_the_file_with_plain_open_permissions(dirs, writer):
    target, inputs = dirs
    WRITERS[writer](target, inputs)
    assert target.read_bytes() != OLD
    assert os.listdir(target.parent) == ["target"]
    with open(inputs / "reference", "w"):
        pass
    assert stat.S_IMODE(os.stat(target).st_mode) == \
        stat.S_IMODE(os.stat(inputs / "reference").st_mode)
