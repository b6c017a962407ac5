"""Process settings shared by the benchmark's entry points.

Call ``configure()`` before anything imports numpy: BLAS is held to one
thread, ``GROUPLIN_CAP`` is removed so every workload runs under the default
caps, and ``src/`` of the checkout (the current directory) is put first on
the import path of this process and of every CLI child.
"""

from __future__ import annotations

import os
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def configure() -> bool:
    """Returns False when the checkout has no ``src/grouplin`` to measure."""
    if not os.path.isfile(os.path.join(SRC, "grouplin", "__init__.py")):
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GROUPLIN_CAP", None)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    return True
