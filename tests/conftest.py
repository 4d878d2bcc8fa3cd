from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so run_study's worker processes
# run under the tests as they do under the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import sievar  # noqa: E402


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or exited
    but not reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid returned pid {pid})")


@pytest.fixture(scope="session")
def dgp2():
    return sievar.builtin_dgp(2)


@pytest.fixture(scope="session")
def bump34():
    return sievar.RelaxationFn.symmetric_bump(3.0, 4.0)


@pytest.fixture(scope="session")
def dgp2_pop_irf(dgp2, bump34):
    """Population IRF reference for DGP 2, delta = +1, horizon 12."""
    return sievar.population_irf(
        dgp2, sievar.ShockSpec(1.0, bump34, 12), replications=20_000, seed=900
    )


def make_plan(x: np.ndarray, knots=(0.0,), degree=3, lags=2) -> sievar.SievePlan:
    kv = sievar.KnotVector(degree, tuple(knots), float(np.min(x)), float(np.max(x)))
    return sievar.SievePlan(x_blocks=(kv,) * lags)
