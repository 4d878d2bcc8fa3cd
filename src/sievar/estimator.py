"""Two-step semiparametric estimation.

Stage I regresses the structural series on its own and the outcome lags;
stage II regresses each outcome component on the sieve design with the
stage-I residual in the generated-regressor slot. The fitted object is a
full model specification, so simulation and impulse-response routines
consume it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    KnotVector,
    SievePlan,
    block_to_full_coeffs,
    block_width,
    build_design,
)
from .model import (
    InnovationLaw,
    LagPolynomial,
    ModelSpec,
    NonlinFn,
    SimPath,
)

__all__ = [
    "OlsFit",
    "FirstStageFit",
    "FittedModel",
    "ParametricForm",
    "ols",
    "first_stage",
    "fit_two_step",
    "fit_infeasible",
    "fit_parametric",
    "benchmark_true_form",
    "max0_prior_form",
    "select_K",
    "sieve_dimension_target",
]

RANK_RTOL = 1e-10
RIDGE_SCALE = 1e-8
GENERATED_SOURCES = ("first_stage", "true_innovations")


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    rank: int
    regularized: bool


def ols(xmat: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares via SVD with relative rank cutoff 1e-10.

    Rank-deficient systems fall back to a small ridge (1e-8 * tr(X'X)/K added
    to the Gram diagonal, solved through augmented rows) and are flagged.
    """
    xmat = np.asarray(xmat, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = xmat.shape
    if n <= k:
        raise ValueError("underdetermined: need more rows than columns")
    coef, _, rank, _ = np.linalg.lstsq(xmat, y, rcond=RANK_RTOL)
    regularized = bool(rank < k)
    if regularized:
        lam = RIDGE_SCALE * float(np.sum(xmat**2)) / k
        aug = np.vstack([xmat, math.sqrt(lam) * np.eye(k)])
        pad = np.zeros((k,) + y.shape[1:])
        coef, _, _, _ = np.linalg.lstsq(aug, np.concatenate([y, pad]), rcond=None)
    return OlsFit(coef, y - xmat @ coef, int(rank), regularized)


@dataclass(frozen=True)
class FirstStageFit:
    """Stage-I linear fit of X_t on (1, X and Y lags)."""

    pi1: np.ndarray
    residuals: np.ndarray
    sigma1: float
    regularized: bool


@dataclass(frozen=True)
class ParametricForm:
    """Fixed nonlinear transforms for the parametric benchmark estimators.

    ``terms`` lists (lag, kind) transform columns; linear X lags 1..p are
    included when ``x_lags_linear`` is set. Lag-0 linear effects load on the
    generated regressor, exactly as in the sieve design.
    """

    terms: tuple[tuple[int, str], ...]
    x_lags_linear: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((int(j), str(k)) for j, k in self.terms))

    @property
    def x_terms(self) -> tuple[tuple[int, NonlinFn], ...]:
        """(lag, transform) pairs of the nonlinear X columns, in column order."""
        return tuple((j, NonlinFn(kind)) for j, kind in self.terms)


def _as_xy(data) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    if isinstance(data, tuple):
        x, y = data
        eps = None
    else:
        x, y = data.x, data.y
        eps = getattr(data, "eps", None)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    return x, y, eps


def lag_block(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Rows t = p+1..n of (1, X_{t-1..t-p}, Y_{t-1..t-p})."""
    n = x.size
    cols = [np.ones((n - p, 1))]
    cols += [x[p - k : n - k, None] for k in range(1, p + 1)]
    cols += [y[p - k : n - k, :] for k in range(1, p + 1)]
    return np.column_stack(cols)


def first_stage(x: np.ndarray, y: np.ndarray, p: int) -> FirstStageFit:
    w1 = lag_block(x, y, p)
    fit = ols(w1, x[p:])
    sigma1 = float(np.sqrt(np.mean(fit.residuals**2)))
    return FirstStageFit(fit.coefficients, fit.residuals, sigma1, fit.regularized)


@dataclass(frozen=True)
class FittedModel(ModelSpec):
    """A fitted model is a valid model specification plus estimation detail.

    The impact splines are stored with their linear channel folded into
    ``b0_21`` (the generated-regressor coefficient) and the lag matrices, so
    ``impact_function`` exposes the identified total lag-wise impact.
    ``generated`` names what filled the generated-regressor slot in stage II:
    ``"first_stage"`` residuals (the model then reproduces its sample from
    its residuals) or the ``"true_innovations"`` of an infeasible fit.
    """

    plan: SievePlan | None = None
    parametric_form: ParametricForm | None = None
    first_stage: FirstStageFit | None = None
    residuals2: np.ndarray | None = None
    coefficients: tuple[dict[str, float], ...] = ()
    regularized: bool = False
    n_obs: int = 0
    generated: str = "first_stage"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.first_stage is None or self.residuals2 is None:
            raise ValueError("fitted model requires first-stage and stage-II residuals")
        if self.generated not in GENERATED_SOURCES:
            raise ValueError(f"generated regressor source must be one of {GENERATED_SOURCES}")

    def impact_function(self, equation: int, lag: int):
        """Identified total impact of X_{t-lag} on one equation, zero at zero.

        Lag 0 adds the effective shock loading; lags >= 1 add the fitted
        linear lag coefficient.
        """
        terms = self.impact[equation][lag]
        if lag == 0:
            slope = float(self.b0_21[equation])
        else:
            slope = float(self.lags.coeffs[lag - 1][1 + equation, 0])

        def total(x):
            x = np.asarray(x, dtype=float)
            out = slope * x
            for term in terms:
                out = out + term(x) - term(0.0)
            return out

        return total


def _infer_bound(first: FirstStageFit, resid2: np.ndarray, sigma2: np.ndarray) -> float:
    ratios = [3.0]
    if first.sigma1 > 0:
        ratios.append(float(np.max(np.abs(first.residuals))) / first.sigma1)
    for i, s in enumerate(sigma2):
        if s > 0:
            ratios.append(float(np.max(np.abs(resid2[:, i]))) / s)
    return max(ratios)


def _fit_stage_two(
    layout: SievePlan | ParametricForm,
    x: np.ndarray,
    y: np.ndarray,
    generated: np.ndarray,
    first: FirstStageFit,
    p: int,
    source: str = "first_stage",
) -> FittedModel:
    """Stage-II least squares on ``layout``'s design, mapped back to the model.

    The coefficient vector is read in design column order. Spline blocks are
    converted to full-basis splines normalized to vanish at zero (their value
    at zero moves into the intercept); transform terms keep their fitted scale.
    """
    design = build_design(layout, x, y, generated, p)
    fit = ols(design.values, y[p:, :])
    d_y = y.shape[1]
    mu = np.zeros(1 + d_y)
    lag_mats = np.zeros((p, 1 + d_y, 1 + d_y))
    mu[0] = first.pi1[0]
    for k in range(1, p + 1):
        lag_mats[k - 1][0, 0] = first.pi1[k]
        lag_mats[k - 1][0, 1:] = first.pi1[p + (k - 1) * d_y + 1 : p + k * d_y + 1]
    impact: list[list[tuple[NonlinFn, ...]]] = [[() for _ in range(p + 1)] for _ in range(d_y)]
    b0_21 = np.zeros(d_y)
    for i in range(d_y):
        coef = fit.coefficients[:, i]
        mu[1 + i] = coef[0]
        col = 1
        for j, term in layout.x_terms:
            if isinstance(term, KnotVector):
                width = block_width(term)
                # a contiguous copy: a strided view changes the last bit of the conversion
                full = block_to_full_coeffs(term, np.array(coef[col : col + width]))
                at_zero = float(NonlinFn("spline", 1.0, knots=term, coeffs=tuple(full))(0.0))
                mu[1 + i] += at_zero
                fn = NonlinFn("spline", 1.0, knots=term, coeffs=tuple(full - at_zero))
            else:
                width = 1
                fn = NonlinFn(term.kind, float(coef[col]))
            impact[i][j] += (fn,)
            col += width
        if layout.x_lags_linear:
            lag_mats[:p, 1 + i, 0] = coef[col : col + p]
            col += p
        lag_mats[:p, 1 + i, 1:] = coef[col : col + p * d_y].reshape(p, d_y)
        b0_21[i] = coef[col + p * d_y]
    resid2 = fit.residuals
    sigma2 = np.sqrt(np.mean(resid2**2, axis=0))
    law = InnovationLaw(sigma=(first.sigma1, *sigma2), bound=_infer_bound(first, resid2, sigma2))
    sieve = isinstance(layout, SievePlan)
    return FittedModel(
        d_y=d_y,
        p=p,
        mu=mu,
        lags=LagPolynomial(lag_mats),
        impact=tuple(tuple(row) for row in impact),
        b0_21=b0_21,
        innovation=law,
        plan=layout if sieve else None,
        parametric_form=None if sieve else layout,
        first_stage=first,
        residuals2=resid2,
        coefficients=tuple(
            dict(zip(design.column_labels, (float(b) for b in fit.coefficients[:, i])))
            for i in range(d_y)
        ),
        regularized=first.regularized or fit.regularized,
        n_obs=x.size,
        generated=source,
    )


def fit_two_step(data, plan: SievePlan) -> FittedModel:
    """Feasible two-step fit: stage-I residuals fill the generated slot."""
    x, y, _ = _as_xy(data)
    first = first_stage(x, y, plan.p)
    return _fit_stage_two(plan, x, y, first.residuals, first, plan.p)


def fit_infeasible(data, plan: SievePlan) -> FittedModel:
    """Stage II with the true structural innovations (simulated data only)."""
    x, y, eps = _as_xy(data)
    if eps is None:
        raise ValueError("infeasible fit requires simulated data carrying true innovations")
    first = first_stage(x, y, plan.p)
    generated = np.asarray(eps, dtype=float)[plan.p :, 0]
    return _fit_stage_two(plan, x, y, generated, first, plan.p, "true_innovations")


def fit_parametric(data, p: int, form: ParametricForm) -> FittedModel:
    """Two-step fit with fixed transform columns instead of spline blocks."""
    x, y, _ = _as_xy(data)
    first = first_stage(x, y, p)
    return _fit_stage_two(form, x, y, first.residuals, first, p)


def benchmark_true_form(dgp_id: int) -> ParametricForm:
    """The regression form implied by a priori knowledge of each benchmark."""
    if dgp_id in (1, 2, 3, 4, 5, 6):
        return ParametricForm(terms=((0, "max0"), (1, "max0")), x_lags_linear=True)
    if dgp_id == 7:
        return ParametricForm(terms=((0, "smooth_phi"), (1, "smooth_phi")), x_lags_linear=False)
    raise ValueError(f"dgp id must be in 1..7, got {dgp_id}")


def max0_prior_form(p: int = 1) -> ParametricForm:
    """The benchmark-simulation prior: linear lags plus censored transforms."""
    return ParametricForm(terms=tuple((j, "max0") for j in range(p + 1)), x_lags_linear=True)


def sieve_dimension_target(n: int, s: float, d: int) -> int:
    """round((n / log n)^(d / (2s + d))), the optimal-rate sieve size."""
    if n < 10 or s < 1 or d < 1:
        raise ValueError("need n >= 10, s >= 1, d >= 1")
    return int(round((n / math.log(n)) ** (d / (2.0 * s + d))))


def select_K(n: int, s: float = 2.0, d: int = 1, degree: int = 3) -> int:
    """Advisory interior-knot count: rate target minus the polynomial block."""
    return max(sieve_dimension_target(n, s, d) - (degree + 1), 0)
