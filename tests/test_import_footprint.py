"""What importing the package loads. Every CLI call and every sweep runs in
a fresh interpreter and pays for each module the import pulls in, so the
distances and the softmax are computed in numpy, and neither scipy.spatial
(with scipy.sparse, the k-d tree and qhull) nor scipy.special is loaded."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["scorekit", "scorekit.cli"])
def test_import_loads_neither_scipy_spatial_nor_scipy_special(module):
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import {module}; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'spatial'], ['scipy', 'special'])))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
