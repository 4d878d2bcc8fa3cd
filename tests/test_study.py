from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievar
from sievar import study as study_mod
from sievar.irf import IncompatibleShockError
from sievar.model import PathDivergedError
from sievar.study import (
    StudyConfig,
    default_study_config,
    derive_seed,
    run_study,
    run_study_variant_phi_shift,
    target_mode,
)

DESK = dict(mc_replications=40, pop_replications=4000)


def small_cfg(**overrides):
    base = dict(dgp_id=2, n=240, deltas=(1.0,), estimators=("sieve",), master_seed=5)
    base.update(DESK)
    base.update(overrides)
    return StudyConfig(**base)


def test_reproducible_and_thread_invariant():
    cfg = small_cfg(dgp_id=5, mc_replications=60, estimators=study_mod.ESTIMATOR_TAGS)
    a = run_study(cfg)
    b = run_study(cfg)
    assert a.processes == 1
    for threads in (2, 3):
        c = run_study(replace(cfg, threads=threads))
        # conftest pins BLAS, so the worker processes run
        assert c.processes == threads
        assert (c.n_ok, c.failed, c.clamped) == (a.n_ok, a.failed, a.clamped)
        for key in a.mse:
            np.testing.assert_array_equal(a.mse[key], b.mse[key])
            np.testing.assert_array_equal(a.mse[key], c.mse[key])
            np.testing.assert_array_equal(a.bias[key], c.bias[key])
            np.testing.assert_array_equal(a.se[key], c.se[key])
        for d in cfg.deltas:
            np.testing.assert_array_equal(a.population[d].values, c.population[d].values)


def test_worker_failures_match_one_process(monkeypatch):
    cfg = small_cfg(mc_replications=60, pop_replications=500, max_failure_fraction=0.1)
    # one failing replication in each process's share at three threads
    bad = {derive_seed(cfg.master_seed, 2, r) for r in (3, 31, 59)}
    real_fit = study_mod._fit_one

    def fit(cfg, tag, path, first):
        if path.seed in bad:
            raise np.linalg.LinAlgError("singular matrix")
        return real_fit(cfg, tag, path, first)

    monkeypatch.setattr(study_mod, "_fit_one", fit)
    serial = run_study(cfg)
    assert serial.failed == (3, 31, 59)
    for threads in (2, 3):
        res = run_study(replace(cfg, threads=threads))
        assert res.processes == threads
        assert res.failed == serial.failed
        assert res.failure_causes == serial.failure_causes == {"LinAlgError": 3}
        for key in serial.mse:
            np.testing.assert_array_equal(res.mse[key], serial.mse[key])


@pytest.mark.parametrize("bad_rep", [5, 30])
def test_worker_exception_reraised_without_leftover_child(monkeypatch, bad_rep):
    """An error that is no replication failure stops the study, whether it is
    raised in the calling process's share (5) or in the worker's (30)."""
    cfg = small_cfg(pop_replications=500, threads=2)
    bad = derive_seed(cfg.master_seed, 2, bad_rep)
    real_fit = study_mod._fit_one

    def fit(cfg, tag, path, first):
        if path.seed == bad:
            raise KeyError(f"replication {bad_rep}")
        return real_fit(cfg, tag, path, first)

    monkeypatch.setattr(study_mod, "_fit_one", fit)
    with pytest.raises(KeyError, match=f"replication {bad_rep}") as info:
        run_study(cfg)
    in_worker = any("worker process" in note for note in getattr(info.value, "__notes__", ()))
    assert in_worker == (bad_rep >= cfg.mc_replications // 2)


def test_worker_that_dies_is_reported(monkeypatch):
    cfg = small_cfg(pop_replications=500, threads=2)
    parent = os.getpid()
    real_fit = study_mod._fit_one

    def fit(cfg, tag, path, first):
        if os.getpid() != parent:
            os._exit(3)
        return real_fit(cfg, tag, path, first)

    monkeypatch.setattr(study_mod, "_fit_one", fit)
    with pytest.raises(ChildProcessError, match="without sending its results"):
        run_study(cfg)


BLAS_PROBE = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import sievar
from sievar.study import StudyConfig, run_study
cfg = StudyConfig(dgp_id=2, mc_replications=4, pop_replications=500, estimators=("sieve",), threads=2)
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
print(json.dumps({"env": [os.environ.get(v) for v in names], "processes": run_study(cfg).processes}))
"""


@pytest.mark.parametrize(
    "mode, openblas, env, processes",
    [
        ("sievar-first", None, ["1", "1", "1"], 2),
        ("sievar-first", "2", ["2", "1", "1"], 1),  # the caller's value is kept
        ("numpy-first", None, [None, None, None], 1),  # too late to pin
        ("numpy-first", "1", ["1", None, None], 1),
    ],
)
def test_import_pins_blas_or_falls_back_to_one_process(mode, openblas, env, processes):
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if openblas is not None:
        child_env["OPENBLAS_NUM_THREADS"] = openblas
    src = str(Path(sievar.__file__).resolve().parent.parent)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child_env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE, mode], env=child_env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {"env": env, "processes": processes}


def test_study_builds_the_dgp_spec_once(monkeypatch):
    cfg = small_cfg(mc_replications=3, pop_replications=64, estimators=study_mod.ESTIMATOR_TAGS)
    calls = []
    real = study_mod.builtin_dgp
    monkeypatch.setattr(study_mod, "builtin_dgp", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert run_study(cfg).n_ok == 3
    # the configuration knows its lag order, so the fits build no spec
    assert len(calls) == 1


def _bits(obj):
    """A nested tuple that two objects share when their numbers are bit-equal."""
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return (type(obj),) + tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, _bits(v)) for k, v in obj.items())
    if isinstance(obj, float):
        return obj.hex()
    return obj


@pytest.mark.parametrize("phi_shift", [False, True])
def test_study_fits_share_first_stage_and_equal_public_fits(monkeypatch, phi_shift):
    cfg = default_study_config(7, n=300, mc_replications=3, pop_replications=64, phi_shift=phi_shift)
    fits = []
    real_fit = study_mod._fit_one

    def recording_fit(cfg, tag, path, first):
        fit = real_fit(cfg, tag, path, first)
        fits.append((tag, path, fit))
        return fit

    stacked = []
    real_responses = study_mod._responses

    def recording_responses(plans, *args):
        stacked.append(plans)
        return real_responses(plans, *args)

    monkeypatch.setattr(study_mod, "_fit_one", recording_fit)
    monkeypatch.setattr(study_mod, "_responses", recording_responses)
    assert run_study(cfg).n_ok == 3
    assert [tag for tag, _, _ in fits] == list(cfg.estimators) * 3
    # the three replications form one group, and each estimator's stacked
    # call reads the step plans of exactly the public fits
    assert [len(plans) for plans in stacked] == [3] * len(cfg.estimators)
    for e, plans in enumerate(stacked):
        for r, plan in enumerate(plans):
            assert _bits(plan) == _bits(fits[3 * r + e][2]._step_plan)
    for r in range(3):
        rep = fits[3 * r : 3 * r + 3]
        # one first-stage fit per replication, shared by its estimators
        assert all(fit.first_stage is rep[0][2].first_stage for _, _, fit in rep)
        for tag, path, fit in rep:
            if tag == "sieve":
                public = sievar.fit_two_step(path, study_mod._study_plan(cfg, path.x))
            elif tag == "parametric_true":
                form = sievar.benchmark_true_form(7)
                if phi_shift:
                    form = replace(form, terms=tuple((j, "smooth_phi_shift") for j, _ in form.terms))
                public = sievar.fit_parametric(path, cfg.p, form)
            else:
                public = sievar.fit_parametric(path, cfg.p, sievar.max0_prior_form(cfg.p))
            assert _bits(fit) == _bits(public)
            assert _bits(fit._step_plan) == _bits(public._step_plan)


def _group_inputs(cfg, count, seed):
    """``count`` paths of the config's DGP, its estimators' shocks, and zero targets."""
    spec = sievar.builtin_dgp(cfg.dgp_id, phi_shift=cfg.phi_shift)
    paths = [sievar.simulate(spec, cfg.n, derive_seed(seed, r)) for r in range(count)]
    shocks = tuple(sievar.ShockSpec(delta, cfg.relaxation, cfg.horizon) for delta in cfg.deltas)
    return paths, shocks, np.zeros((len(shocks), cfg.horizon + 1, spec.d))


def _as_bits(outcome):
    return outcome if isinstance(outcome, str) else outcome.tobytes()


def _check_group_against_singles(cfg, paths, shocks, targets):
    """A group's outcomes and clamped count equal those of its replications
    run as groups of one; returns the group's outcomes."""
    group, clamped = study_mod._replicate_group(cfg, paths, shocks, targets)
    singles = [study_mod._replicate_group(cfg, [path], shocks, targets) for path in paths]
    assert [_as_bits(o) for o in group] == [_as_bits(out[0]) for out, _ in singles]
    assert clamped == sum(count for _, count in singles)
    return group


@pytest.mark.parametrize("narrow", [False, True])
@pytest.mark.parametrize("dgp_id, phi_shift", [(i, False) for i in range(1, 8)] + [(7, True)])
def test_group_errors_equal_groups_of_one_and_public_irfs(dgp_id, phi_shift, narrow):
    # a narrow bump leaves some impact times unshocked, so the replications
    # of a group iterate different numbers of columns
    cfg = default_study_config(dgp_id, n=600, horizon=6, deltas=(1.0, -0.5), phi_shift=phi_shift,
                               estimators=study_mod.ESTIMATOR_TAGS)
    if narrow:
        cfg = replace(cfg, relaxation=sievar.RelaxationFn.symmetric_bump(0.8, 2.0))
    paths, shocks, targets = _group_inputs(cfg, 4, 40 + dgp_id)
    group = _check_group_against_singles(cfg, paths, shocks, targets)
    # a group of one has the bits of the public fits and estimated_irf
    for path, errors in zip(paths, group):
        assert not isinstance(errors, str)
        for e, tag in enumerate(cfg.estimators):
            fit = study_mod._fit_one(cfg, tag, path)
            for k, shock in enumerate(shocks):
                expected = sievar.estimated_irf(fit, path, shock).values - targets[k]
                assert errors[e * len(shocks) + k].tobytes() == expected.tobytes()


def test_group_with_a_ridge_fallback_replication():
    cfg = default_study_config(2, n=300, horizon=4, estimators=("parametric_true", "parametric_max0"))
    paths, shocks, targets = _group_inputs(cfg, 3, 7)
    # with every X positive, max0 of a lag duplicates its linear column
    paths[1] = replace(paths[1], x=paths[1].x + 20.0)
    for tag in cfg.estimators:
        fit = study_mod._fit_one(cfg, tag, paths[1])
        assert fit.regularized
        assert not study_mod._fit_one(cfg, tag, paths[0]).regularized
    group = _check_group_against_singles(cfg, paths, shocks, targets)
    fit = study_mod._fit_one(cfg, "parametric_max0", paths[1])
    expected = sievar.estimated_irf(fit, paths[1], shocks[0]).values - targets[0]
    assert group[1][1].tobytes() == expected.tobytes()


def test_group_with_replications_failing_in_their_fits(monkeypatch):
    cfg = default_study_config(7, n=600, horizon=4, mc_replications=5)
    paths, shocks, targets = _group_inputs(cfg, 5, 11)
    # a sample whose range misses the interior knots at -3 and 3
    paths[1] = replace(paths[1], x=0.1 * paths[1].x)
    real_fit = study_mod._fit_one

    def fit(cfg, tag, path, first=None):
        if path is paths[3] and tag == "parametric_max0":
            raise np.linalg.LinAlgError("singular matrix")
        return real_fit(cfg, tag, path, first)

    monkeypatch.setattr(study_mod, "_fit_one", fit)
    group = _check_group_against_singles(cfg, paths, shocks, targets)
    assert [o if isinstance(o, str) else "ok" for o in group] == ["ok", "ValueError", "ok", "LinAlgError", "ok"]


def _with_cube(fit, x, scale):
    """The fit with scale * X_t^3 added to its Y equation and its Y residuals
    moved to match, so it still reproduces its sample; at a large scale a
    shocked path overflows within a few steps."""
    impact = ((fit.impact[0][0] + (sievar.NonlinFn("cube", scale),),) + fit.impact[0][1:],)
    return replace(fit, impact=impact, residuals2=fit.residuals2 - scale * x[fit.p :, None] ** 3)


def test_group_with_a_replication_diverging_in_its_irf(monkeypatch):
    # DGP 3's X loads on the lagged Y, which carries the cube back into X
    cfg = default_study_config(3, n=400, horizon=8, estimators=("parametric_true", "sieve"))
    paths, shocks, targets = _group_inputs(cfg, 4, 13)
    bad = _with_cube(study_mod._fit_one(cfg, "sieve", paths[2]), paths[2].x, 1e4)
    with pytest.raises(PathDivergedError):
        sievar.estimated_irf(bad, paths[2], shocks[0])
    real_fit = study_mod._fit_one

    study_cfg = replace(cfg, mc_replications=12, pop_replications=500, max_failure_fraction=0.2)
    bad_seed = derive_seed(study_cfg.master_seed, 2, 5)

    def fit(cfg, tag, path, first=None):
        # every sieve fit gets the term, so the group's fits share one layout
        out = real_fit(cfg, tag, path, first)
        explosive = path is paths[2] or path.seed == bad_seed
        return _with_cube(out, path.x, 1e4 if explosive else 0.0) if tag == "sieve" else out

    monkeypatch.setattr(study_mod, "_fit_one", fit)
    group = _check_group_against_singles(cfg, paths, shocks, targets)
    assert [o if isinstance(o, str) else "ok" for o in group] == ["ok", "ok", "PathDivergedError", "ok"]
    # in a study, at any process count, the failure stays with replication 5
    results = [run_study(replace(study_cfg, threads=threads)) for threads in (1, 2, 3)]
    for res in results:
        assert res.failed == (5,) and res.failure_causes == {"PathDivergedError": 1}
        for key in res.mse:
            assert res.mse[key].tobytes() == results[0].mse[key].tobytes()
            assert res.se[key].tobytes() == results[0].se[key].tobytes()


def test_group_with_a_replication_diverging_in_its_sample_check(monkeypatch):
    # at h = 0 a fit's responses read only its residuals at the shocked
    # impact times, so an inf residual where the shock is zero is stepped
    # through by the sample check alone
    cfg = default_study_config(3, n=400, horizon=0, estimators=("parametric_true", "sieve"),
                               relaxation=sievar.RelaxationFn.symmetric_bump(2.0, 4.0))
    paths, shocks, targets = _group_inputs(cfg, 4, 17)
    study_cfg = replace(cfg, mc_replications=12, pop_replications=500, max_failure_fraction=0.2)
    bad_seed = derive_seed(study_cfg.master_seed, 2, 5)
    real_fit = study_mod._fit_one

    def fit(cfg, tag, path, first=None):
        out = real_fit(cfg, tag, path, first)
        if tag == "sieve" and (path is paths[1] or path.seed == bad_seed):
            t = int(np.argmax(np.abs(out.first_stage.residuals)))
            assert sievar.relax_eval(cfg.relaxation, out.first_stage.residuals[t]) == 0.0
            residuals2 = out.residuals2.copy()
            residuals2[t] = np.inf
            out = replace(out, residuals2=residuals2)
        return out

    fits = [fit(cfg, "sieve", path) for path in paths]
    plans = [f._step_plan for f in fits]
    samples = [sievar.irf._sample(f, path.x, path.y) for f, path in zip(fits, paths)]
    diverged = sievar.irf._check_samples(plans, samples, True)
    assert diverged.columns.tolist() == [False, True, False, False] and diverged.step == 1
    impacts = [[sievar.irf._impact(shocks[0], f.first_stage.residuals) for f in fits]]
    # the responses run the sample check and report the union of both
    # divergences, here the check's alone
    union = sievar.irf._responses(plans, samples, impacts, 0, True, 4096)[2]
    assert union.columns.tolist() == diverged.columns.tolist() and union.step == 1
    with pytest.raises(PathDivergedError, match=r"at step 1$"):
        sievar.estimated_irf(fits[1], paths[1], shocks[0])
    monkeypatch.setattr(study_mod, "_fit_one", fit)
    group = _check_group_against_singles(cfg, paths, shocks, targets)
    assert [o if isinstance(o, str) else "ok" for o in group] == ["ok", "PathDivergedError", "ok", "ok"]
    for threads in (1, 2):
        res = run_study(replace(study_cfg, threads=threads))
        assert res.failed == (5,) and res.failure_causes == {"PathDivergedError": 1}


@settings(max_examples=8, deadline=None)
@given(m=st.integers(1, 25), threads=st.integers(1, 3), group=st.integers(1, 7))
def test_study_splits_each_batch_into_equal_shares_of_capped_groups(m, threads, group):
    cfg = small_cfg(n=60, horizon=2, mc_replications=m, pop_replications=200)
    seeds = [derive_seed(cfg.master_seed, 2, r) for r in range(m)]
    calls = []
    real_map = study_mod.map_in_processes

    def recording_map(fn, items, processes):
        calls.append((items, processes))
        return real_map(fn, items, processes)

    # batches of 10 leave a short last one; the columns give groups of ``group``
    with mock.patch.object(study_mod, "SIMULATION_BATCH", 10), \
            mock.patch.object(study_mod, "GROUP_COLUMNS", group * (cfg.n - cfg.p)):
        serial = run_study(cfg)
        with mock.patch.object(study_mod, "map_in_processes", recording_map):
            res = run_study(replace(cfg, threads=threads))
    assert res.processes == min(threads, m)
    assert len(calls) == -(-m // 10)
    for b, (groups, processes) in enumerate(calls):
        batch = seeds[10 * b : 10 * (b + 1)]
        assert processes == res.processes
        assert [path.seed for g in groups for path in g] == batch
        assert all(0 < len(g) <= group for g in groups)
        # map_in_processes hands process i the contiguous groups
        # len(groups) * i // P onwards, which must hold its equal share
        shares = min(processes, len(groups))
        cuts = [len(groups) * i // shares for i in range(shares + 1)]
        sizes = [sum(len(g) for g in groups[a:c]) for a, c in zip(cuts, cuts[1:])]
        procs = min(processes, len(batch))
        assert sizes == [len(batch) * (i + 1) // procs - len(batch) * i // procs for i in range(procs)]
    assert (res.n_ok, res.failed, res.clamped) == (serial.n_ok, serial.failed, serial.clamped)
    for key in serial.mse:
        for moment in ("mse", "bias", "se"):
            assert getattr(res, moment)[key].tobytes() == getattr(serial, moment)[key].tobytes()


def test_one_innovation_draw():
    """The package draws standard normals in one place, ``model._innovations``,
    which clips and scales them for every stream."""
    sites = []
    for path in sorted(Path(sievar.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "standard_normal" \
                        or isinstance(node, ast.Name) and node.id == "standard_normal":
                    sites.append((path.stem, getattr(top, "name", None)))
    assert sites == [("model", "_innovations")]


def test_tracer_hooks_resolve():
    """Every (module, function) the benchmark's tracer wraps still exists on
    sievar; its install raises AttributeError otherwise."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py").read_text()
    table = next(
        node.value for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED_FUNCTIONS" for t in node.targets)
    )
    hooks = [(entry.elts[0].value, [m.value for m in entry.elts[1].elts]) for entry in table.elts]
    assert hooks
    for name, modules in hooks:
        for module in modules:
            assert callable(getattr(getattr(sievar, module), name.rsplit(".", 1)[1])), (module, name)
    assert callable(sievar.NonlinFn.__call__)
    # the converse: an import kept only for the tracer names a hook, is
    # used nowhere else in its module, and goes when the hook goes
    wrapped = {(module, name.rsplit(".", 1)[1]) for name, modules in hooks for module in modules}
    kept = []
    for path in sorted(Path(sievar.__file__).parent.glob("*.py")):
        text = path.read_text()
        module = path.stem
        for line in text.splitlines():
            if "tracer" in line and line.lstrip().startswith("#"):
                names = re.fullmatch(r"# tracer-only imports \(perfbench wraps them here\): (.+)", line.strip())
                assert names, (module, line)
                kept += [(module, name) for name in names[1].split(", ")]
        loads = {node.id for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Name)}
        for name in (name for m, name in kept if m == module):
            assert name not in loads, f"{module} calls {name}, which it imports for the tracer only"
    assert kept
    for module, name in kept:
        assert (module, name) in wrapped, f"{module} keeps {name} for a hook that perfbench no longer has"


def test_derived_seeds_disjoint():
    seeds = {derive_seed(5, 2, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(5, 2, 0) != derive_seed(6, 2, 0)


def test_mse_dominates_squared_bias():
    res = run_study(small_cfg())
    for key in res.mse:
        gap = res.mse[key] - res.bias[key] ** 2 + 3.0 * res.se[key]
        assert np.all(gap >= 0.0)


def test_zero_replications_rejected():
    with pytest.raises(ValueError, match="positive"):
        small_cfg(mc_replications=0)


def test_unknown_estimator_rejected():
    with pytest.raises(ValueError, match="unknown estimator"):
        small_cfg(estimators=("sieve", "magic"))


def test_incompatible_relaxation_rejected():
    with pytest.raises(IncompatibleShockError):
        run_study(small_cfg(deltas=(5.0,)))


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(threads=0), "threads"),
        (dict(burn_in=-1), "burn_in"),
        (dict(horizon=-1), "horizon"),
        (dict(n=13, horizon=12), "n must exceed"),
        (dict(max_failure_fraction=-0.1), "max_failure_fraction"),
        (dict(max_failure_fraction=1.5), "max_failure_fraction"),
        (dict(deltas=()), "deltas must not be empty"),
        (dict(estimators=()), "estimators must not be empty"),
        (dict(pop_replications=0), "pop_replications must be positive"),
    ],
)
def test_invalid_config_rejected(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_cfg(**overrides)


def test_clamped_counter_kept():
    cfg = small_cfg(mc_replications=5, pop_replications=500, horizon=3, domain=(-1.0, 1.0))
    res = run_study(cfg)
    assert res.failure_causes == {}
    shock = sievar.ShockSpec(1.0, cfg.relaxation, cfg.horizon)
    clamped = 0
    for r in range(cfg.mc_replications):
        path = sievar.simulate(sievar.builtin_dgp(2), cfg.n, derive_seed(cfg.master_seed, 2, r))
        fit = sievar.fit_two_step(path, study_mod._study_plan(cfg, path.x))
        clamped += sievar.estimated_irf(fit, path, shock).clamped
    assert res.clamped == clamped > 0


def test_paper_scale_switch():
    cfg = default_study_config(2)
    assert (cfg.mc_replications, cfg.pop_replications) == (200, 20_000)
    scaled = cfg.paper_scale()
    assert (scaled.mc_replications, scaled.pop_replications) == (10_000, 100_000)


def test_default_dgp7_settings():
    cfg = default_study_config(7)
    assert cfg.n == 2400
    assert cfg.deltas == (2.0,)
    assert cfg.knots == (-3.0, -1.0, 1.0, 3.0)
    assert cfg.relaxation.c == 5.0 and cfg.relaxation.alpha == 3.9


def test_phi_shift_variant_requires_dgp7():
    with pytest.raises(ValueError, match="DGP 7"):
        run_study_variant_phi_shift(small_cfg())


def test_phi_shift_config_echo():
    cfg = default_study_config(7, mc_replications=10, pop_replications=2000, horizon=4)
    res = run_study_variant_phi_shift(cfg)
    assert res.config.phi_shift is True
    assert res.n_ok == 10


def test_matched_target_reduces_to_run_study():
    cfg = small_cfg()
    a = run_study(cfg)
    b = target_mode(cfg, "relaxed_target")
    for key in a.mse:
        np.testing.assert_array_equal(a.mse[key], b.mse[key])


def test_nonrelaxed_target_raises_short_horizon_bias():
    cfg = small_cfg(mc_replications=60, pop_replications=10_000, master_seed=31)
    matched = run_study(cfg)
    with pytest.warns(sievar.SupportWarning):
        mismatched = target_mode(cfg, "nonrelaxed_target")
    key = ("sieve", 1.0)
    b_matched = np.mean(np.abs(matched.bias[key][:4, 1]))
    b_mismatched = np.mean(np.abs(mismatched.bias[key][:4, 1]))
    assert b_mismatched > b_matched


def test_nonrelaxed_estimator_has_higher_mse():
    mses_rel, mses_non = [], []
    with pytest.warns(sievar.SupportWarning):
        for rep in range(5):
            cfg = small_cfg(mc_replications=60, pop_replications=10_000,
                            master_seed=100 + rep, target_relaxed=False)
            mses_rel.append(run_study(cfg).mse[("sieve", 1.0)][0, 1])
            mses_non.append(run_study(replace(cfg, estimator_relaxed=False)).mse[("sieve", 1.0)][0, 1])
    assert np.median(mses_non) >= np.median(mses_rel)


def _diverging_draws(monkeypatch, bad_seeds):
    """Make the innovations of the seeds in ``bad_seeds`` all inf, so that
    their simulated rows leave the finite range at the first step."""
    real_draw = sievar.model.draw_innovations
    monkeypatch.setattr(
        sievar.model, "draw_innovations",
        lambda spec, n, seed: np.full((n, spec.d), np.inf) if seed in bad_seeds else real_draw(spec, n, seed),
    )


def test_failed_replications_excluded_and_abort(monkeypatch):
    cfg = small_cfg(mc_replications=150, pop_replications=500, max_failure_fraction=0.01)
    _diverging_draws(monkeypatch, {derive_seed(cfg.master_seed, 2, 2)})
    res = run_study(cfg)
    assert res.n_ok == 149
    assert res.failed == (2,) and res.failure_causes == {"PathDivergedError": 1}
    monkeypatch.undo()

    cfg = small_cfg(mc_replications=20, pop_replications=500)
    _diverging_draws(monkeypatch, {derive_seed(cfg.master_seed, 2, r) for r in range(20)})
    with pytest.raises(RuntimeError, match="replications failed"):
        run_study(cfg)
    # with every failure allowed there are still no moments to report
    with pytest.raises(RuntimeError, match=r"all 20 replications failed; causes: \{'PathDivergedError': 20\}"):
        run_study(replace(cfg, max_failure_fraction=1.0))
    monkeypatch.undo()

    # one row of a full simulation batch leaves the finite range; the other
    # rows keep the batch's paths
    cfg = small_cfg(mc_replications=study_mod.SIMULATION_BATCH + 10, pop_replications=500,
                    horizon=2, burn_in=50, max_failure_fraction=0.01)
    clean = run_study(cfg)
    _diverging_draws(monkeypatch, {derive_seed(cfg.master_seed, 2, 137)})
    batches = []
    real_rows = study_mod._simulate_rows
    monkeypatch.setattr(study_mod, "_simulate_rows", lambda *a: batches.append(len(a[2])) or real_rows(*a))
    res = run_study(cfg)
    assert batches == [study_mod.SIMULATION_BATCH, 10]
    assert res.failed == (137,)
    assert res.failure_causes == {"PathDivergedError": 1}
    assert res.n_ok == cfg.mc_replications - 1
    assert res.clamped < clean.clamped
    # the failure cause of a path passes through a worker's share too
    forked = run_study(replace(cfg, threads=2))
    assert forked.processes == 2
    assert (forked.failed, forked.failure_causes) == (res.failed, res.failure_causes)
    for key in res.mse:
        assert forked.mse[key].tobytes() == res.mse[key].tobytes()


@pytest.mark.parametrize("dgp_id", [2, 7])
def test_simulation_batch_only_moves_rounding(dgp_id, monkeypatch):
    cfg = default_study_config(dgp_id, n=400, mc_replications=60, pop_replications=500,
                               horizon=4, master_seed=9)
    big = run_study(cfg)
    batches = []
    real_rows = study_mod._simulate_rows
    monkeypatch.setattr(study_mod, "_simulate_rows", lambda *a: batches.append(len(a[2])) or real_rows(*a))
    monkeypatch.setattr(study_mod, "SIMULATION_BATCH", 25)
    small = run_study(cfg)
    assert batches == [25, 25, 10]
    assert small.n_ok == big.n_ok == 60 and small.clamped == big.clamped
    for key in big.mse:
        for moment in ("mse", "bias", "se"):
            a, b = getattr(big, moment)[key], getattr(small, moment)[key]
            if dgp_id == 7:  # diagonal lags: batching does not touch the rounding
                np.testing.assert_array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_failed_replication_contributes_nothing(monkeypatch):
    """A replication failing in its last stacked IRF adds no partial errors,
    and the replications that shared its group keep theirs."""
    cfg = small_cfg(dgp_id=3, mc_replications=10, pop_replications=500,
                    estimators=("parametric_true", "sieve"), max_failure_fraction=0.2)
    bad = derive_seed(cfg.master_seed, 2, 3)
    real_fit = study_mod._fit_one

    def cubed(scale):
        def fit(cfg, tag, path, first=None):
            # every sieve fit gets the term, so the group's fits share one layout
            out = real_fit(cfg, tag, path, first)
            return _with_cube(out, path.x, scale if path.seed == bad else 0.0) if tag == "sieve" else out

        return fit

    # replication 3's sieve IRF, its last, diverges in the group's stacked call
    monkeypatch.setattr(study_mod, "_fit_one", cubed(1e4))
    late = run_study(cfg)

    def fail_on_call(fn, k):
        count = {"n": 0}

        def flaky(*args):
            count["n"] += 1
            if count["n"] == k:
                raise np.linalg.LinAlgError("singular matrix")
            return fn(*args)

        return flaky

    # replication 3's parametric fit is the 7th stage-II fit (two per replication)
    monkeypatch.setattr(study_mod, "_fit_one", cubed(0.0))
    monkeypatch.setattr(study_mod, "_fit_stage_two", fail_on_call(study_mod._fit_stage_two, 7))
    early = run_study(cfg)
    assert late.failed == early.failed == (3,)
    assert late.failure_causes == {"PathDivergedError": 1}
    assert early.failure_causes == {"LinAlgError": 1}
    for key in late.mse:
        np.testing.assert_array_equal(late.mse[key], early.mse[key])
        np.testing.assert_array_equal(late.bias[key], early.bias[key])
        np.testing.assert_array_equal(late.se[key], early.se[key])


def test_self_consistency_parametric_rate():
    """Correctly specified parametric fits: bias -> 0, MSE ~ 1/n."""
    mses, biases = {}, {}
    for n in (240, 960, 3840):
        cfg = StudyConfig(
            dgp_id=2, n=n, mc_replications=100, pop_replications=20_000,
            deltas=(1.0,), estimators=("parametric_true",), master_seed=77,
        )
        res = run_study(cfg)
        mses[n] = float(np.mean(res.mse[("parametric_true", 1.0)][:4, 1]))
        biases[n] = float(np.mean(np.abs(res.bias[("parametric_true", 1.0)][:4, 1])))
    assert biases[3840] < biases[240]
    scaled = {n: mses[n] * n for n in mses}
    assert max(scaled.values()) / min(scaled.values()) < 2.0


def test_rows_schema():
    res = run_study(small_cfg(mc_replications=5, pop_replications=500, horizon=3))
    rows = res.rows()
    assert len(rows) == 1 * 1 * 2 * 4  # estimators x deltas x vars x horizons
    tag, delta, var, h, mse, bias, se, n_ok = rows[0]
    assert tag == "sieve" and var == "X" and h == 0 and n_ok == 5


@pytest.mark.parametrize("n", [1, 2, 50, 1000])
def test_moments_match_mean_and_variance_and_leave_errors_unchanged(n):
    rng = np.random.default_rng(n)
    errors = rng.normal(size=(n, 3, 5, 2)) * rng.uniform(0.1, 10.0, size=(1, 3, 5, 2)) + 100.0
    before = errors.copy()
    bias, mse, se = study_mod._moments(errors)
    assert errors.tobytes() == before.tobytes()
    np.testing.assert_allclose(bias, errors.mean(axis=0), rtol=1e-13)
    np.testing.assert_allclose(mse, np.square(errors).mean(axis=0), rtol=1e-13)
    np.testing.assert_allclose(se, np.sqrt(errors.var(axis=0) / n), rtol=1e-9, atol=1e-13)
