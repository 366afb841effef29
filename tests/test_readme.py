"""Every JSON config in README.md parses with the reader of its kind, and
its Python blocks run, so documentation that drifts from the code fails here.

A JSON block's kind is the subcommand that opens the paragraph before it, as
in "`fit` pins a single estimator ...".
"""

import json
import os
import re

import pytest

from scorekit.bench import _parse_estimator, parse_experiment_config, read_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
with open(README, encoding="utf-8") as f:
    TEXT = f.read()


def json_blocks() -> list:
    """(subcommand, parsed config) for each ```json block of the README."""
    return [(re.findall(r"^`([a-z-]+)` ", TEXT[:m.start()], re.M)[-1], json.loads(m[1]))
            for m in re.finditer(r"^```json\n(.*?)^```", TEXT, re.M | re.S)]


BLOCKS = json_blocks()


def test_each_config_kind_is_documented_once():
    assert sorted(command for command, _ in BLOCKS) == ["fit", "grid-exp", "plot", "predict"]


@pytest.mark.parametrize("command, data", BLOCKS, ids=[command for command, _ in BLOCKS])
def test_a_documented_config_parses(command, data):
    if command == "grid-exp":
        parse_experiment_config(data)
        return
    assert read_config(command, data) is data
    if command == "fit":
        _parse_estimator(data["estimator"], "config.estimator")


def test_the_python_blocks_run_in_order(tmp_path, monkeypatch):
    # a later block may read what an earlier one defined (save/load reads est)
    blocks = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
