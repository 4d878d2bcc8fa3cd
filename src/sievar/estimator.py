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
from typing import NamedTuple

import numpy as np

# tracer-only imports (perfbench wraps them here): build_design
from .basis import (  # noqa: F401
    SievePlan,
    _full_coeffs,
    basis_rows,
    block_width,
    build_design,
    check_design,
    design_labels,
    layout_tables,
    regression_rows,
)
from .model import (
    InnovationLaw,
    LagPolynomial,
    ModelSpec,
    NonlinFn,
    _plan,
    _plan_lookup,
    _span_tables,
    _StepPlan,
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


def _lstsq(stack: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one least-squares solver: each of R regressions at once.

    ``stack`` is (R, k + m, n) C-ordered, each regression's k regressor rows
    then its m response rows, so that ``stack[r].T`` = [X | y] reaches
    LAPACK in Fortran order. One stacked QR (``mode="r"``) of [X | y] gives
    each R factor, whose top k rows hold R_X and Q'y (Golub & Van Loan,
    Matrix Computations, 5.3). A regression has rank k unless a singular
    value of R_X is at most 1e-10 times its largest (``RANK_RTOL``); a
    rank-deficient one falls back to a small ridge, 1e-8 * tr(X'X)/k added
    to the Gram diagonal, solved by the same QR of its augmented rows
    [R; sqrt(lambda) I] (which has the R factor of [X y; sqrt(lambda) I 0]),
    and is flagged. One stacked ``solve`` of the triangular systems gives
    the coefficients. Each step is one LAPACK call or one elementwise pass
    per regression, so a regression's results have the same bits in any
    stack. Returns the (R, k, m) coefficients, the (R, m, n) residuals, the
    ranks and the ridge flags.
    """
    r = np.linalg.qr(stack.transpose(0, 2, 1), mode="r")
    s = np.linalg.svd(r[:, :k, :k], compute_uv=False)
    rank = np.count_nonzero(s > RANK_RTOL * s[:, :1], axis=1)
    ridge = rank < k
    top = r[:, :k]
    if ridge.any():
        lam = RIDGE_SCALE * np.sum(np.square(stack[ridge, :k]), axis=(1, 2)) / k
        rows = r.shape[1]
        aug = np.zeros((lam.size, stack.shape[1], rows + k))
        aug[:, :, :rows] = r[ridge].transpose(0, 2, 1)
        aug[:, np.arange(k), rows + np.arange(k)] = np.sqrt(lam)[:, None]
        top[ridge] = np.linalg.qr(aug.transpose(0, 2, 1), mode="r")[:, :k]
    coef = np.linalg.solve(top[:, :, :k], top[:, :, k:])
    residuals = stack[:, k:] - np.matmul(coef.transpose(0, 2, 1), stack[:, :k])
    return coef, residuals, rank, ridge


def ols(xmat: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares of ``y`` (n or (n, m)) on ``xmat`` (n, k), n >= k: a
    group of one of the package's one solver, ``_lstsq``.

    A QR factorization of [X | y] (``np.linalg.qr(mode="r")``) gives R. The
    fit has rank k unless a singular value of R_X is at most 1e-10 times
    its largest; a rank-deficient fit falls back to a small ridge (1e-8 *
    tr(X'X)/k added to the Gram diagonal, solved by the same QR of its
    augmented rows) and is flagged ``regularized``. The coefficients solve
    the triangular system R_X b = Q'y.
    """
    xmat = np.asarray(xmat, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = xmat.shape
    if n < k:
        raise ValueError("underdetermined: need at least as many rows as columns")
    coef, residuals, rank, ridge = _lstsq(np.concatenate([xmat.T, y.reshape(n, -1).T])[None], k)
    return OlsFit(
        coef[0].reshape((k,) + y.shape[1:]), residuals[0].T.reshape(y.shape), int(rank[0]), bool(ridge[0])
    )


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


# stage I regresses X_t on (1, X and Y lags 1..p): a layout with no X terms
_STAGE_ONE = ParametricForm(terms=())


class StageOne(NamedTuple):
    """Stage I of a group's samples as arrays, row r that of its r-th
    fitted sample; ``rows`` holds per sample its row, or the exception that
    fails it alone (with none fitted, the arrays are None)."""

    rows: list
    pi1: np.ndarray | None = None  # (R, 1 + p + p d_y)
    residuals: np.ndarray | None = None  # (R, n - p)
    sigma1: np.ndarray | None = None  # (R,)
    ridge: np.ndarray | None = None  # (R,)

    def take(self, rows) -> "StageOne":
        """Rows ``rows`` of the arrays, as the fit of those samples alone."""
        rows = list(rows)
        if rows == self.rows == list(range(len(self.pi1))):
            return self
        return StageOne(list(range(len(rows))), *(a[rows] for a in self[1:]))

    def fit(self, r: int) -> FirstStageFit:
        """Row ``r`` as the public fit of its sample."""
        return FirstStageFit(self.pi1[r], self.residuals[r], float(self.sigma1[r]), bool(self.ridge[r]))


class GroupFit(NamedTuple):
    """Stage II of a group's samples as arrays, rows and failures as in
    ``StageOne``; ``_fitted`` maps the rows to public fitted models."""

    rows: list
    plan: _StepPlan | None = None  # the R models as ``model._forward`` reads them
    residuals: np.ndarray | None = None  # (R, d_y, n - p)
    first: StageOne | None = None  # stage I of the R samples
    ridge: np.ndarray | None = None  # (R,) stage-II ridge flags
    coef: np.ndarray | None = None  # (R, k, d_y), in design column order
    x_terms: tuple = ()  # per X term, (R, d_y) scales or (R, d_y, dim) spline coefficients


def _raise_failure(fit):
    """A group of one's fit, or its sample's failure raised."""
    if isinstance(fit.rows[0], Exception):
        raise fit.rows[0]
    return fit


def _finite_only(stack: np.ndarray, fit_subset, kind):
    """None when every regression of ``stack`` is finite; otherwise the fit
    (a ``kind``) ``fit_subset(kept indices)`` of the finite ones, whose
    ``rows`` give each other sample the ``ValueError`` its fit raises alone."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    if finite.all():
        return None
    kept = np.flatnonzero(finite)
    fit = fit_subset(kept) if kept.size else kind([])
    rows = iter(fit.rows)
    return fit._replace(rows=[next(rows) if ok else ValueError("design matrix contains non-finite entries")
                              for ok in finite])


def _stage_one(x: np.ndarray, y: np.ndarray, p: int) -> StageOne:
    """Stage I of R samples at once, ``x`` (R, n) and ``y`` (R, d_y, n): one
    stacked regression of X_t on (1, X and Y lags)."""
    stack = regression_rows([_STAGE_ONE], [], x, y, p, (x[:, None, p:],))
    k = stack.shape[1] - 1
    if stack.shape[2] < k:
        raise ValueError("underdetermined: need at least as many rows as columns")
    failed = _finite_only(stack, lambda kept: _stage_one(x[kept], y[kept], p), StageOne)
    if failed is not None:
        return failed
    coef, residuals, _, ridge = _lstsq(stack, k)
    residuals = residuals[:, 0]
    sigma1 = np.sqrt(np.mean(np.square(residuals), axis=-1))
    return StageOne(list(range(len(x))), coef[:, :, 0], residuals, sigma1, ridge)


def first_stage(x: np.ndarray, y: np.ndarray, p: int) -> FirstStageFit:
    """Stage I of one sample, a group of one of ``_stage_one``."""
    x, y, _ = _as_xy((x, y))
    return _raise_failure(_stage_one(x[None], y.T[None], p)).fit(0)


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


def _stage_two(layouts, x: np.ndarray, y: np.ndarray, first: StageOne, p: int, generated=None) -> GroupFit:
    """Stage II of R samples at once, ``x`` (R, n) and ``y`` (R, d_y, n),
    with their stage-I fit ``first``: one stacked design of ``layouts``
    (one per sample, differing at most in their knot bounds), one stacked
    solve and ``_group_fit``. ``generated`` (R, n - p), the stage-I
    residuals by default, fills the generated-regressor slot. A sample's
    fit has the same bits in any group."""
    layout = layouts[0]
    n, d_y = x.shape[1], y.shape[1]
    check_design(layout, n, p, d_y)
    if generated is None:
        generated = first.residuals
    tables = layout_tables(layouts)
    stack = regression_rows(layouts, tables, x, y, p, (generated[:, None], y[:, :, p:]))
    failed = _finite_only(stack, lambda kept: _stage_two(
        [layouts[i] for i in kept], x[kept], y[kept], first.take(kept), p, generated[kept]
    ), GroupFit)
    if failed is not None:
        return failed
    coef, residuals, _, ridge = _lstsq(stack, stack.shape[1] - d_y)
    return _group_fit(layouts, tables, coef, residuals, ridge, first, p)


def _group_fit(layouts, tables, coef: np.ndarray, residuals: np.ndarray, ridge: np.ndarray, first: StageOne,
               p: int) -> GroupFit:
    """The one map from a group's stage-II coefficients, (R, k, d_y) in
    design column order, to its models' step plan (``model._plan``). Spline
    blocks become full-basis splines that vanish at zero (their value at
    zero moves into the intercept), their span tables computed for the
    whole group at once; transform terms keep their fitted scale."""
    layout = layouts[0]
    count, _, d_y = coef.shape
    d = 1 + d_y
    mu = np.zeros((count, d))
    lags = np.zeros((count, p, d, d))
    mu[:, 0] = first.pi1[:, 0]
    for k in range(1, p + 1):
        lags[:, k - 1, 0, 0] = first.pi1[:, k]
        lags[:, k - 1, 0, 1:] = first.pi1[:, p + (k - 1) * d_y + 1 : p + k * d_y + 1]
    mu[:, 1:] = coef[:, 0]
    # per X term its (R, d_y) scales or (R, d_y, dim) spline coefficients,
    # and per equation its plan entry; a table's lookup and values at zero
    # once for all its terms
    x_terms, entries, features = [], [], {}
    col = 1
    for (j, term), tab in zip(layout.x_terms, tables):
        if tab is None:
            x_terms.append(coef[:, col])
            entries += [(i, j, term.kind, term.kind, coef[:, col, i], None) for i in range(d_y)]
            col += 1
            continue
        width = block_width(term)
        block = coef[:, col : col + width].transpose(0, 2, 1)
        full = _full_coeffs(term.degree, tab.greville[:, None], tab.projection[:, None], block)
        if id(tab) not in features:
            look = tab.lookup
            at_zero = basis_rows(tab, np.zeros((count, 1)))[:, None]
            features[id(tab)] = _plan_lookup(look.interior, look.lo[:, 0], look.hi[:, 0], look.left), at_zero
        lookup, at_zero = features[id(tab)]
        value = np.sum(full * at_zero, axis=-1)
        mu[:, 1:] += value
        x_terms.append(full - value[..., None])
        spans = np.ascontiguousarray(_span_tables(x_terms[-1], tab.power[:, None]).swapaxes(0, 1))
        spans.flags.writeable = False
        entries += [(i, j, id(tab), lookup, np.ones(count), spans[i]) for i in range(d_y)]
        col += width
    if layout.x_lags_linear:
        lags[:, :, 1:, 0] = coef[:, col : col + p]
        col += p
    lags[:, :, 1:, 1:] = coef[:, col : col + p * d_y].reshape(count, p, d_y, d_y).transpose(0, 1, 3, 2)
    # each equation sums its terms by lag, then in column order: a stable sort
    entries.sort(key=lambda entry: entry[:2])
    plan = _plan(p, d_y, lags, mu, coef[:, col + p * d_y], entries)
    return GroupFit(list(range(count)), plan, residuals, first, ridge, coef, tuple(x_terms))


def _fitted(layouts, fit: GroupFit, source: str = "first_stage") -> list:
    """The public path's map from a group fit's rows to fitted models, row r
    fitted with ``layouts[r]``; ``source`` names what filled the generated
    slot. Its models' step plans are the rows of the group's plan."""
    layout, plan, first = layouts[0], fit.plan, fit.first
    p, d_y = plan.p, plan.d_y
    sigma = np.column_stack([first.sigma1, np.sqrt(np.mean(np.square(fit.residuals), axis=-1))])
    # the clip bound: the largest standardized residual of any component, at least 3
    peaks = np.column_stack([np.max(np.abs(first.residuals), axis=-1), np.max(np.abs(fit.residuals), axis=-1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.max(np.where(sigma > 0, peaks / sigma, 3.0), axis=1, initial=3.0)
    labels = design_labels(layout, p, d_y)
    sieve = isinstance(layout, SievePlan)
    models = []
    for r, own in enumerate(layouts):
        impact: list[list[tuple[NonlinFn, ...]]] = [[() for _ in range(p + 1)] for _ in range(d_y)]
        for (j, term), values in zip(own.x_terms, fit.x_terms):
            for i in range(d_y):
                if isinstance(term, NonlinFn):
                    fn = NonlinFn(term.kind, float(values[r, i]))
                else:
                    fn = NonlinFn("spline", 1.0, knots=term, coeffs=tuple(values[r, i].tolist()))
                impact[i][j] += (fn,)
        models.append(FittedModel(
            d_y=d_y,
            p=p,
            mu=plan.mu[r],
            lags=LagPolynomial(plan.a[r]),
            impact=tuple(tuple(row) for row in impact),
            b0_21=plan.b0_21[r],
            innovation=InnovationLaw(sigma=tuple(sigma[r].tolist()), bound=float(bound[r])),
            plan=own if sieve else None,
            parametric_form=None if sieve else layout,
            first_stage=first.fit(r),
            residuals2=fit.residuals[r].T,
            coefficients=tuple(dict(zip(labels, fit.coef[r, :, i].tolist())) for i in range(d_y)),
            regularized=bool(first.ridge[r] or fit.ridge[r]),
            n_obs=fit.residuals.shape[-1] + p,
            generated=source,
        ))
    return models


def _group_of_one(data, layout, p: int, infeasible: bool = False) -> FittedModel:
    """The fit of one sample through the group path."""
    x, y, eps = _as_xy(data)
    generated, source = None, "first_stage"
    if infeasible:
        if eps is None:
            raise ValueError("infeasible fit requires simulated data carrying true innovations")
        generated, source = np.asarray(eps, dtype=float)[None, p:, 0], "true_innovations"
    first = _raise_failure(_stage_one(x[None], y.T[None], p))
    fit = _raise_failure(_stage_two([layout], x[None], y.T[None], first, p, generated))
    return _fitted([layout], fit, source)[0]


def fit_two_step(data, plan: SievePlan) -> FittedModel:
    """Feasible two-step fit: stage-I residuals fill the generated slot."""
    return _group_of_one(data, plan, plan.p)


def fit_infeasible(data, plan: SievePlan) -> FittedModel:
    """Stage II with the true structural innovations (simulated data only)."""
    return _group_of_one(data, plan, plan.p, infeasible=True)


def fit_parametric(data, p: int, form: ParametricForm) -> FittedModel:
    """Two-step fit with fixed transform columns instead of spline blocks."""
    return _group_of_one(data, form, p)


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
