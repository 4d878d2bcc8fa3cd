"""Numeric dependence and stability diagnostics.

The physical dependence measure is estimated by coupling: two independent
stationary states are iterated forward with shared innovations and the L^r
distance of the iterates is recorded per horizon. Contractivity and
stability are probed through finite-difference Jacobians of the
companion-form state map along sampled states and innovation sequences;
the reported constants are maxima over the sample, hence lower bounds on
the true suprema.

Every forward iteration runs batched over all samples. The coupling copies
and the probe's domain box reach the stationary law through the burn-in
that the population reference runs (``irf._burn_in``): one stream is read
step-major over all columns, ``DRAW_STEPS`` steps at a time into one reused
block, so memory does not grow with the burn-in's length. The probe's
per-sample burn-ins, which keep a stream each, are one ``final_states``
call, and its h-step finite-difference paths and its one-step innovation
perturbations are one ``iterate_paths`` call each. All spectral norms come
from one stacked SVD, and ``check_contractivity`` is the probe at one step.
Every Gaussian draw, of the burn-ins, the shared coupling future and the
probe's samples, is clipped and scaled by ``model._innovations``, as the
simulations' and the population reference's are. Each probe sample keeps
its own random stream, so the numbers match a sample-by-sample probe
exactly when the lag matrices are diagonal; otherwise a many-row matrix
product can round differently, which moves the constants at rounding level
(about 1e-11 relative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .irf import _burn_in
from .model import ModelSpec, _innovations, derive_seed, final_states, iterate_paths, philox

__all__ = [
    "DependenceProfile",
    "StabilityReport",
    "estimate_delta_r",
    "check_contractivity",
    "find_h_star",
]

FD_STEP = 1e-5
CONTRACTIVE_MARGIN = 1e-3


@dataclass(frozen=True)
class DependenceProfile:
    r: float
    delta_hat: np.ndarray
    a1: float
    a2: float
    tau: float
    fit_residual: float
    replications: int

    @property
    def h_max(self) -> int:
        return self.delta_hat.size


def estimate_delta_r(
    spec: ModelSpec,
    r: float = 2.0,
    h_max: int = 10,
    replications: int = 1000,
    seed: int = 0,
    burn_in: int = 500,
    components: tuple[int, ...] | None = None,
) -> DependenceProfile:
    """Coupled-simulation estimate of the dependence profile and its decay.

    Per replication, a stationary state and an independent copy are iterated
    h_max steps with shared innovations; delta_hat(h) is the L^r norm of the
    gap over the ``components`` (all by default), r >= 1. log delta_hat is
    then regressed on h for the exp(-a2 h) fit (tau fixed at one).

    Both copies burn in from a zero state over one stream,
    ``derive_seed(seed, 11)``, read step-major over 2R columns: copy a is
    columns [0, R) and copy b columns [R, 2R), and one loop runs both
    burn-ins ``DRAW_STEPS`` steps at a time, so memory does not grow with
    ``burn_in``. (The stream of tag 12, which copy b once read, is retired.)
    Both copies then iterate in one call over the shared innovations of
    ``derive_seed(seed, 13)``, drawn as an (R, h_max, d) array.
    """
    if replications < 100:
        raise ValueError("need at least 100 coupling replications")
    if burn_in < 1:
        # two zero states would couple trivially
        raise ValueError("burn_in must be at least 1")
    if h_max < 1:
        raise ValueError(f"h_max must be at least 1, got {h_max}")
    if not (math.isfinite(r) and r >= 1.0):
        raise ValueError(f"r must be a finite number of at least 1, got {r}")
    comps = tuple(components) if components is not None else tuple(range(spec.d))
    if not comps or len(set(comps)) < len(comps) or not all(0 <= c < spec.d for c in comps):
        raise ValueError(f"components must be distinct indices in 0..{spec.d - 1}, got {comps}")
    states = _burn_in(spec, philox(derive_seed(seed, 11)), 2 * replications, burn_in)
    shared = _innovations(spec, philox(derive_seed(seed, 13)), (replications, h_max, spec.d))
    paths, _ = iterate_paths(spec, states.transpose(2, 0, 1), np.concatenate([shared, shared]))
    gap = np.linalg.norm(paths[:replications, :, comps] - paths[replications:, :, comps], axis=2)
    delta_hat = np.mean(gap**r, axis=0) ** (1.0 / r)

    positive = delta_hat > 0.0
    if positive.sum() >= 2:
        h = np.arange(1, h_max + 1, dtype=float)[positive]
        logd = np.log(delta_hat[positive])
        design = np.column_stack([np.ones_like(h), -h])
        coef, *_ = np.linalg.lstsq(design, logd, rcond=None)
        a1, a2 = float(math.exp(coef[0])), float(coef[1])
        resid = float(np.sqrt(np.mean((logd - design @ coef) ** 2)))
    else:
        a1, a2, resid = 0.0, math.inf, 0.0
    return DependenceProfile(
        r=r, delta_hat=delta_hat, a1=a1, a2=a2, tau=1.0,
        fit_residual=resid, replications=replications,
    )


@dataclass(frozen=True)
class StabilityReport:
    contractive: bool
    c_z: float
    c_eps: float
    h_star: int | None
    decay: tuple[float, ...]
    samples: int


def _domain_box(spec: ModelSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds per lag and component of 512 states burnt in 400 steps, flat."""
    states = _burn_in(spec, philox(derive_seed(seed, 21)), 512, 400)
    return states.min(axis=2).ravel(), states.max(axis=2).ravel()


def _sample_states_eps(
    spec: ModelSpec, samples: int, seed: int, h_cap: int, box: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(samples, p, d) start states and (samples, h_cap, d) innovations.

    Even samples come from the stationary law, odd ones uniformly from the
    sampled box. Sample k draws from its own stream ``(seed, 31, k)`` and its
    burn-in from ``(seed, 32, k)``, so any prefix of the samples is the same
    for every sample count. The burn-ins run in one batched ``final_states`` call.
    """
    p = max(spec.p, 1)
    sigma = np.asarray(spec.innovation.sigma)
    bound = spec.innovation.bound
    lo, hi = box
    states = np.empty((samples, p, spec.d))
    eps = np.empty((samples, h_cap, spec.d))
    burn = np.stack([
        _innovations(spec, philox(derive_seed(seed, 32, k)), (400, spec.d)) for k in range(0, samples, 2)
    ])
    states[::2] = final_states(spec, np.zeros((burn.shape[0], p, spec.d)), burn)
    for k in range(samples):
        gen = philox(derive_seed(seed, 31, k))
        if k % 2 == 0:
            _innovations(spec, gen, (h_cap, spec.d), out=eps[k])
        else:
            states[k] = gen.uniform(lo, hi).reshape(p, spec.d)
            eps[k] = gen.uniform(-bound * sigma, bound * sigma, size=(h_cap, spec.d))
    return states, eps


def _fd_rows(center: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(S, 2n, n) copies of the (S, n) centers, row 2i moved by +steps[i] in
    coordinate i and row 2i + 1 by -steps[i]."""
    n = center.shape[1]
    rows = np.repeat(center[:, None, :], 2 * n, axis=1)
    idx = np.arange(n)
    rows[:, 2 * idx, idx] += steps
    rows[:, 2 * idx + 1, idx] += -steps
    return rows


def _max_spectral_norm(mats: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Largest spectral norm of the (..., m, n) matrices, maximised over ``axes``."""
    return np.linalg.svd(mats, compute_uv=False).max(axis=-1).max(axis=axes)


def _lipschitz_profile(
    spec: ModelSpec, h_cap: int, samples: int, seed: int
) -> tuple[np.ndarray, float]:
    """Max sampled spectral norm of the h-step state Jacobian, h = 1..h_cap.

    Jacobians are two-sided finite differences in the companion state with
    shared innovations; one-sided differences are also formed so kinks
    contribute their worst subgradient. All samples and their perturbed
    rows iterate in one batched call per stage.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    p = max(spec.p, 1)
    d = spec.d
    dim = p * d
    states, eps = _sample_states_eps(spec, samples, seed, h_cap, _domain_box(spec, seed))

    # state sensitivity: per sample, its base row then the +/- rows of each coordinate
    flat = states.reshape(samples, dim)
    steps = FD_STEP * np.maximum(1.0, np.abs(flat))
    rows = np.concatenate([flat[:, None, :], _fd_rows(flat, steps)], axis=1)
    start = rows.reshape(-1, p, d)
    paths, _ = iterate_paths(spec, start, np.repeat(eps, 1 + 2 * dim, axis=0))
    traj = np.concatenate([start, paths], axis=1).reshape(samples, 1 + 2 * dim, p + h_cap, d)
    # companion state after h steps, h = 1..h_cap: (S, h_cap, 1 + 2 dim, dim)
    comp = np.stack([traj[:, :, h : h + p].reshape(samples, -1, dim) for h in range(1, h_cap + 1)], axis=1)
    base, plus, minus = comp[:, :, :1], comp[:, :, 1::2], comp[:, :, 2::2]
    step_cols = steps[:, None, None, :]
    jacobians = np.stack([
        np.swapaxes(plus - minus, 2, 3) / (2.0 * step_cols),
        np.swapaxes(plus - base, 2, 3) / step_cols,
        np.swapaxes(base - minus, 2, 3) / step_cols,
    ])  # (3, S, h_cap, dim out, dim in)
    c_z = _max_spectral_norm(jacobians, (0, 1))

    # innovation sensitivity of the one-step map
    eps_steps = FD_STEP * np.maximum(1.0, np.abs(eps[:, 0]))
    eps_rows = _fd_rows(eps[:, 0], eps_steps).reshape(-1, 1, d)
    one_step, _ = iterate_paths(spec, np.repeat(states, 2 * d, axis=0), eps_rows)
    z1 = one_step[:, 0, :].reshape(samples, 2 * d, d)
    j_eps = np.swapaxes(z1[:, ::2] - z1[:, 1::2], 1, 2) / (2.0 * eps_steps[:, None, :])
    c_eps = float(_max_spectral_norm(j_eps, (0,)))
    return c_z, c_eps


def check_contractivity(spec: ModelSpec, samples: int = 200, seed: int = 0) -> StabilityReport:
    """One-step contractivity probe: C_Z below one means contractive.

    The estimate is a maximum over stationary-law samples plus uniform draws
    over the sampled domain box, so it is a lower bound on the supremum.
    This is ``find_h_star`` at ``h_cap = 1``, every field included.
    """
    return find_h_star(spec, 1, samples, seed)


def find_h_star(
    spec: ModelSpec, h_cap: int = 10, samples: int = 200, seed: int = 0
) -> StabilityReport:
    """Smallest iterate whose sampled state Lipschitz constant drops below one.

    All samples iterate h_cap steps in one batch with their own streams (see
    the module notes on rounding), so the first entry of ``decay`` is the
    one-step constant of ``check_contractivity``.
    """
    if h_cap < 1:
        raise ValueError("h_cap must be at least 1")
    c_z, c_eps = _lipschitz_profile(spec, h_cap, samples, seed)
    below = np.nonzero(c_z < 1.0 - CONTRACTIVE_MARGIN)[0]
    h_star = int(below[0]) + 1 if below.size else None
    return StabilityReport(
        contractive=bool(c_z[0] < 1.0 - CONTRACTIVE_MARGIN),
        c_z=float(c_z[0]),
        c_eps=c_eps,
        h_star=h_star,
        decay=tuple(float(v) for v in c_z),
        samples=samples,
    )
