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


def study_fits(cfg, tag: str, paths, group=None):
    """Per path the study's fit of estimator ``tag`` as a fitted model, its
    row of the group fit ``group`` (``study._fit_group`` of ``paths`` when
    not given) mapped by ``estimator._fitted``, or the exception that fails
    it."""
    if group is None:
        group = sievar.study._fit_group(cfg, tag, paths)
    if group.plan is None:
        return list(group.rows)
    layouts = {
        row: sievar.study._layout(cfg, tag, path) for path, row in zip(paths, group.rows)
        if not isinstance(row, Exception)
    }
    models = sievar.estimator._fitted([layouts[r] for r in range(len(group.plan.mu))], group)
    return [row if isinstance(row, Exception) else models[row] for row in group.rows]


def study_fit(cfg, tag: str, path):
    """The study's fit of estimator ``tag`` to one path, a group of one of
    ``study._fit_group``; a failed fit raises its exception."""
    (fit,) = study_fits(cfg, tag, [path])
    if isinstance(fit, Exception):
        raise fit
    return fit
