"""Numeric dependence and stability diagnostics.

The physical dependence measure is estimated by coupling: two independent
stationary states are iterated forward with shared innovations and the L^r
distance of the iterates is recorded per horizon. Contractivity and
stability are probed through finite-difference Jacobians of the
companion-form state map along sampled states and innovation sequences;
the reported constants are maxima over the sample, hence lower bounds on
the true suprema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, derive_seed, draw_clipped, iterate_paths, philox

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


def _stationary_states(spec: ModelSpec, size: int, seed: int, burn_in: int) -> np.ndarray:
    sigma = np.asarray(spec.innovation.sigma)
    eps = draw_clipped(philox(seed), (size, burn_in, spec.d), spec.innovation.bound) * sigma
    warm, _ = iterate_paths(spec, np.zeros((size, max(spec.p, 1), spec.d)), eps)
    return warm[:, -max(spec.p, 1) :, :]


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
    gap. log delta_hat is then regressed on h for the exp(-a2 h) fit (tau
    fixed at one).
    """
    if replications < 100:
        raise ValueError("need at least 100 coupling replications")
    comps = tuple(components) if components is not None else tuple(range(spec.d))
    state_a = _stationary_states(spec, replications, derive_seed(seed, 11), burn_in)
    state_b = _stationary_states(spec, replications, derive_seed(seed, 12), burn_in)
    sigma = np.asarray(spec.innovation.sigma)
    shared = draw_clipped(
        philox(derive_seed(seed, 13)), (replications, h_max, spec.d), spec.innovation.bound
    ) * sigma
    path_a, _ = iterate_paths(spec, state_a, shared)
    path_b, _ = iterate_paths(spec, state_b, shared)
    gap = np.linalg.norm(path_a[:, :, comps] - path_b[:, :, comps], axis=2)
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
    states = _stationary_states(spec, 512, derive_seed(seed, 21), 400)
    flat = states.reshape(states.shape[0], -1)
    return flat.min(axis=0), flat.max(axis=0)


def _sample_state_eps(
    spec: ModelSpec, index: int, seed: int, h_cap: int, box: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    # even indices: stationary law; odd indices: uniform over the sampled box
    p = max(spec.p, 1)
    sigma = np.asarray(spec.innovation.sigma)
    bound = spec.innovation.bound
    gen = philox(derive_seed(seed, 31, index))
    if index % 2 == 0:
        state = _stationary_states(spec, 1, derive_seed(seed, 32, index), 400)[0]
        eps = draw_clipped(gen, (h_cap, spec.d), bound) * sigma
    else:
        lo, hi = box
        state = gen.uniform(lo, hi).reshape(p, spec.d)
        eps = gen.uniform(-bound * sigma, bound * sigma, size=(h_cap, spec.d))
    return state, eps


def _lipschitz_profile(
    spec: ModelSpec, h_cap: int, samples: int, seed: int
) -> tuple[np.ndarray, float]:
    """Max sampled spectral norm of the h-step state Jacobian, h = 1..h_cap.

    Jacobians are two-sided finite differences in the companion state with
    shared innovations; one-sided differences are also formed so kinks
    contribute their worst subgradient.
    """
    p = max(spec.p, 1)
    d = spec.d
    dim = p * d
    box = _domain_box(spec, seed)
    c_z = np.zeros(h_cap)
    c_eps = 0.0
    for s_idx in range(samples):
        state, eps = _sample_state_eps(spec, s_idx, seed, h_cap, box)
        flat = state.reshape(dim)
        steps = FD_STEP * np.maximum(1.0, np.abs(flat))
        batch = [flat]
        for i in range(dim):
            for sign in (1.0, -1.0):
                pert = flat.copy()
                pert[i] += sign * steps[i]
                batch.append(pert)
        states = np.stack(batch).reshape(-1, p, d)
        eps_tiled = np.broadcast_to(eps, (states.shape[0], h_cap, d))
        paths, _ = iterate_paths(spec, states, eps_tiled)
        traj = np.concatenate([states, paths], axis=1)
        for h in range(1, h_cap + 1):
            stacked = traj[:, h : h + p, :].reshape(states.shape[0], dim)
            base = stacked[0]
            plus = stacked[1::2]
            minus = stacked[2::2]
            j_central = (plus - minus).T / (2.0 * steps)
            j_fwd = (plus - base).T / steps
            j_bwd = (base - minus).T / steps
            norm = max(
                np.linalg.norm(j_central, ord=2),
                np.linalg.norm(j_fwd, ord=2),
                np.linalg.norm(j_bwd, ord=2),
            )
            c_z[h - 1] = max(c_z[h - 1], norm)
        # innovation sensitivity of the one-step map
        eps_steps = FD_STEP * np.maximum(1.0, np.abs(eps[0]))
        eps_batch = [eps[:1]]
        for i in range(d):
            for sign in (1.0, -1.0):
                pert = eps[:1].copy()
                pert[0, i] += sign * eps_steps[i]
                eps_batch.append(pert)
        eps_states = np.broadcast_to(state, (len(eps_batch), p, d))
        one_step, _ = iterate_paths(spec, eps_states, np.stack(eps_batch))
        z1 = one_step[:, 0, :]
        j_eps = (z1[1::2] - z1[2::2]).T / (2.0 * eps_steps)
        c_eps = max(c_eps, float(np.linalg.norm(j_eps, ord=2)))
    return c_z, c_eps


def check_contractivity(spec: ModelSpec, samples: int = 200, seed: int = 0) -> StabilityReport:
    """One-step contractivity probe: C_Z below one means contractive.

    The estimate is a maximum over stationary-law samples plus uniform draws
    over the sampled domain box, so it is a lower bound on the supremum.
    """
    c_z, c_eps = _lipschitz_profile(spec, 1, samples, seed)
    contractive = bool(c_z[0] < 1.0 - CONTRACTIVE_MARGIN)
    return StabilityReport(
        contractive=contractive,
        c_z=float(c_z[0]),
        c_eps=c_eps,
        h_star=1 if contractive else None,
        decay=(float(c_z[0]),),
        samples=samples,
    )


def find_h_star(
    spec: ModelSpec, h_cap: int = 10, samples: int = 200, seed: int = 0
) -> StabilityReport:
    """Smallest iterate whose sampled state Lipschitz constant drops below one."""
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
