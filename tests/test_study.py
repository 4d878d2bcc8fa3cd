from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

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
    cfg = small_cfg()
    a = run_study(cfg)
    b = run_study(cfg)
    c = run_study(replace(cfg, threads=4))
    for key in a.mse:
        np.testing.assert_array_equal(a.mse[key], b.mse[key])
        np.testing.assert_array_equal(a.mse[key], c.mse[key])
        np.testing.assert_array_equal(a.bias[key], c.bias[key])
    for d in cfg.deltas:
        np.testing.assert_array_equal(a.population[d].values, c.population[d].values)


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


def test_failed_replications_excluded_and_abort(monkeypatch):
    real_simulate = study_mod.simulate
    calls = {"n": 0}

    def flaky(spec, n, seed, burn_in):
        calls["n"] += 1
        if calls["n"] == 3:
            raise PathDivergedError("path diverged at step 1")
        return real_simulate(spec, n, seed, burn_in)

    def diverged_batch(spec, n, seeds, burn_in):
        raise PathDivergedError("path diverged at step 1")

    monkeypatch.setattr(study_mod, "simulate_batch", diverged_batch)
    monkeypatch.setattr(study_mod, "simulate", flaky)
    cfg = small_cfg(mc_replications=150, pop_replications=500, max_failure_fraction=0.01)
    res = run_study(cfg)
    assert res.n_ok == 149
    assert len(res.failed) == 1

    def always_fail(spec, n, seed, burn_in):
        raise PathDivergedError("path diverged at step 1")

    monkeypatch.setattr(study_mod, "simulate", always_fail)
    with pytest.raises(RuntimeError, match="replications failed"):
        run_study(small_cfg(mc_replications=20, pop_replications=500))

    # one row of a full simulation batch leaves the finite range
    monkeypatch.undo()
    cfg = small_cfg(mc_replications=study_mod.SIMULATION_BATCH + 10, pop_replications=500,
                    horizon=2, burn_in=50, max_failure_fraction=0.01)
    bad = derive_seed(cfg.master_seed, 2, 137)
    real_draw = sievar.model.draw_innovations
    monkeypatch.setattr(
        sievar.model, "draw_innovations",
        lambda spec, n, seed: np.full((n, spec.d), np.inf) if seed == bad else real_draw(spec, n, seed),
    )
    batches = []
    real_batch = study_mod.simulate_batch
    monkeypatch.setattr(study_mod, "simulate_batch", lambda *a: batches.append(len(a[2])) or real_batch(*a))
    res = run_study(cfg)
    assert batches == [study_mod.SIMULATION_BATCH, 10]
    assert res.failed == (137,)
    assert res.failure_causes == {"PathDivergedError": 1}
    assert res.n_ok == cfg.mc_replications - 1


@pytest.mark.parametrize("dgp_id", [2, 7])
def test_simulation_batch_only_moves_rounding(dgp_id, monkeypatch):
    cfg = default_study_config(dgp_id, n=400, mc_replications=60, pop_replications=500,
                               horizon=4, master_seed=9)
    big = run_study(cfg)
    batches = []
    real_batch = study_mod.simulate_batch
    monkeypatch.setattr(study_mod, "simulate_batch", lambda *a: batches.append(len(a[2])) or real_batch(*a))
    monkeypatch.setattr(study_mod, "SIMULATION_BATCH", study_mod.REPLICATION_CHUNK)
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
    """A replication failing in its last IRF adds no partial error sums."""
    cfg = small_cfg(mc_replications=10, pop_replications=500,
                    estimators=("parametric_true", "sieve"), max_failure_fraction=0.2)

    def fail_on_call(fn, k):
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == k:
                raise np.linalg.LinAlgError("singular matrix")
            return fn(*args)

        return flaky

    # replication 3's sieve IRF is the 8th estimated_irf call (two per replication)
    monkeypatch.setattr(study_mod, "estimated_irf", fail_on_call(study_mod.estimated_irf, 8))
    late = run_study(cfg)
    monkeypatch.undo()
    # replication 3's parametric fit is the 4th fit_parametric call
    monkeypatch.setattr(study_mod, "fit_parametric", fail_on_call(study_mod.fit_parametric, 4))
    early = run_study(cfg)
    for res in (late, early):
        assert res.failed == (3,)
        assert res.failure_causes == {"LinAlgError": 1}
    for key in late.mse:
        np.testing.assert_array_equal(late.mse[key], early.mse[key])
        np.testing.assert_array_equal(late.bias[key], early.bias[key])


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
