"""Locate and import the sievar package from the checkout's ``src`` directory.

Importing this module pins BLAS to one thread, so it must be imported before
numpy. Otherwise numpy's OpenBLAS starts its own worker threads and a
two-thread workload runs more threads than the machine has cores.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable sievar source tree."""


def load():
    """Import sievar from ``<checkout>/src`` and nowhere else."""
    if "numpy" in sys.modules and "sievar" not in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    package = SRC / "sievar" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no sievar package at {package.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sievar

    if Path(sievar.__file__).resolve() != package.resolve():
        raise ProgramMissing(f"imported sievar from {sievar.__file__}, expected {package}")
    return sievar


def metrics(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)[kind]
