"""CSV schemas for simulated paths, datasets, IRF tables and study tables;
JSON codecs for model specifications and the lossless fitted-model bundle."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .basis import KnotVector, SievePlan
from .estimator import FirstStageFit, FittedModel, ParametricForm
from .irf import IrfResult
from .model import InnovationLaw, LagPolynomial, ModelSpec, NonlinFn, SimPath
from .study import StudyResult

__all__ = [
    "DataSet",
    "write_simpath",
    "read_dataset",
    "write_irfs",
    "write_study",
    "save_fitted",
    "load_fitted",
    "spec_to_config",
    "spec_from_config",
]


def _knots_to_config(kv: KnotVector) -> dict:
    return {"degree": kv.degree, "interior": list(kv.interior), "lo": kv.lo, "hi": kv.hi}


def _knots_from_config(cfg: dict) -> KnotVector:
    return KnotVector(
        int(cfg["degree"]), tuple(float(k) for k in cfg["interior"]),
        float(cfg["lo"]), float(cfg["hi"]),
    )


def _term_to_config(term: NonlinFn) -> dict:
    out = {"kind": term.kind, "scale": term.scale}
    if term.kind == "spline":
        out.update(_knots_to_config(term.knots), coeffs=list(term.coeffs))
    return out


def _term_from_config(cfg: dict) -> NonlinFn:
    kind = cfg["kind"]
    scale = float(cfg.get("scale", 1.0))
    if kind != "spline":
        return NonlinFn(kind, scale)
    return NonlinFn(
        kind, scale, knots=_knots_from_config(cfg), coeffs=tuple(float(c) for c in cfg["coeffs"])
    )


def spec_to_config(spec: ModelSpec) -> dict:
    """JSON-ready description of a model, the CLI `model` config block."""
    return {
        "d_y": spec.d_y,
        "p": spec.p,
        "mu": [float(v) for v in spec.mu],
        "lags": [[[float(v) for v in row] for row in mat] for mat in spec.lags.coeffs],
        "impact": [
            [[_term_to_config(t) for t in terms] for terms in row] for row in spec.impact
        ],
        "b0_21": [float(v) for v in spec.b0_21],
        "innovation": {"sigma": list(spec.innovation.sigma), "bound": spec.innovation.bound},
    }


def spec_from_config(cfg: dict) -> ModelSpec:
    """Inverse of spec_to_config; rejects unknown keys."""
    known = {"d_y", "p", "mu", "lags", "impact", "b0_21", "innovation"}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    d_y, p = int(cfg["d_y"]), int(cfg["p"])
    d = 1 + d_y
    lag_list = cfg.get("lags", [])
    lags = LagPolynomial(np.asarray(lag_list, dtype=float) if lag_list else np.zeros((0, d, d)))
    impact = tuple(
        tuple(tuple(_term_from_config(t) for t in terms) for terms in row)
        for row in cfg.get("impact", [[[]] * (p + 1)] * d_y)
    )
    inn = cfg.get("innovation", {})
    law = InnovationLaw(
        sigma=tuple(float(s) for s in inn.get("sigma", (1.0,) * d)),
        bound=float(inn.get("bound", 3.0)),
    )
    return ModelSpec(
        d_y=d_y, p=p,
        mu=np.asarray(cfg.get("mu", np.zeros(d)), dtype=float),
        lags=lags, impact=impact,
        b0_21=np.asarray(cfg.get("b0_21", np.zeros(d_y)), dtype=float),
        innovation=law,
    )


def _fmt(v: float) -> str:
    return repr(float(v))


def write_simpath(path: SimPath, file: Path) -> None:
    """Header: t,X,Y1..YdY,eps1..epsd."""
    d_y = path.d_y
    header = ["t", "X"] + [f"Y{i + 1}" for i in range(d_y)] + [
        f"eps{i + 1}" for i in range(1 + d_y)
    ]
    with open(file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(path.n):
            row = [t + 1, _fmt(path.x[t])]
            row += [_fmt(v) for v in path.y[t]]
            row += [_fmt(v) for v in path.eps[t]]
            writer.writerow(row)


@dataclass(frozen=True)
class DataSet:
    """Ingested numeric table with a declared structural column."""

    columns: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    dropped_rows: int

    @property
    def n(self) -> int:
        return self.x.size


def read_dataset(
    file: Path, structural: str | None = None, columns: list[str] | None = None
) -> DataSet:
    """Load a CSV sample; rows with any missing or non-numeric cell are dropped.

    The structural column defaults to the first data column; a column named
    't' is treated as an index and skipped.
    """
    with open(file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{file}: empty file, header row is mandatory") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    usable = [h for h in header if h != "t" and not h.startswith("eps")]
    if columns is not None:
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{file}: columns not found: {missing}")
        usable = list(columns)
    if structural is None:
        structural = usable[0]
    if structural not in usable:
        raise ValueError(f"{file}: structural column {structural!r} not among {usable}")
    ordered = [structural] + [c for c in usable if c != structural]
    idx = [header.index(c) for c in ordered]
    data: list[list[float]] = []
    dropped = 0
    for row in rows:
        try:
            vals = [float(row[i]) for i in idx]
        except (ValueError, IndexError):
            dropped += 1
            continue
        if any(not np.isfinite(v) for v in vals):
            dropped += 1
            continue
        data.append(vals)
    if not data:
        raise ValueError(f"{file}: no complete rows after dropping {dropped} gaps")
    table = np.asarray(data, dtype=float)
    return DataSet(columns=tuple(ordered), x=table[:, 0], y=table[:, 1:], dropped_rows=dropped)


def write_irfs(results: list[IrfResult], file: Path) -> None:
    """Header: h,var,value,method,delta."""
    with open(file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "var", "value", "method", "delta"])
        for res in results:
            for h in range(res.values.shape[0]):
                for v, name in enumerate(res.variables):
                    writer.writerow([h, name, _fmt(res.values[h, v]), res.method, _fmt(res.delta)])


def write_study(result: StudyResult, file: Path) -> None:
    """Header: estimator,delta,var,h,mse,bias,se,n_ok,population,population_mc_se;
    the last two are the population reference's value and MC standard error
    at (delta, var, h)."""
    with open(file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["estimator", "delta", "var", "h", "mse", "bias", "se", "n_ok", "population", "population_mc_se"]
        )
        for tag, delta, var, h, mse, bias, se, n_ok in result.rows():
            pop = result.population[delta]
            v = pop.variables.index(var)
            writer.writerow([
                tag, _fmt(delta), var, h, _fmt(mse), _fmt(bias), _fmt(se), n_ok,
                _fmt(pop.values[h, v]), _fmt(pop.mc_se[h, v]),
            ])


def save_fitted(fit: FittedModel, file: Path) -> None:
    """Write the fitted model as one JSON document: the model, the plan or
    form, the coefficient tables, the first stage, the residuals and the
    generated-regressor source.

    Floats are written by ``repr``, so the bundle round-trips exactly.
    """
    doc = {
        "model": spec_to_config(fit),
        "plan": None if fit.plan is None else [
            None if kv is None else _knots_to_config(kv) for kv in fit.plan.x_blocks
        ],
        "parametric_form": None if fit.parametric_form is None else {
            "terms": [list(t) for t in fit.parametric_form.terms],
            "x_lags_linear": fit.parametric_form.x_lags_linear,
        },
        "coefficients": [dict(table) for table in fit.coefficients],
        "first_stage": {
            "pi1": fit.first_stage.pi1.tolist(),
            "residuals": fit.first_stage.residuals.tolist(),
            "regularized": fit.first_stage.regularized,
        },
        "residuals2": fit.residuals2.tolist(),
        "regularized": fit.regularized,
        "n_obs": fit.n_obs,
        "generated": fit.generated,
    }
    Path(file).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_fitted(file: Path) -> FittedModel:
    """Reconstruct the fitted model written by ``save_fitted``; exact round-trip.
    A bundle without a ``generated`` key loads as a first-stage fit."""
    doc = json.loads(Path(file).read_text(encoding="utf-8"))
    spec = spec_from_config(doc["model"])
    first = doc["first_stage"]
    plan, form = doc["plan"], doc["parametric_form"]
    return FittedModel(
        # fields, not vars: an iterated spec also caches its impact plan
        **{f.name: getattr(spec, f.name) for f in fields(spec)},
        plan=None if plan is None else SievePlan(
            x_blocks=tuple(None if kv is None else _knots_from_config(kv) for kv in plan)
        ),
        parametric_form=None if form is None else ParametricForm(
            terms=tuple(form["terms"]), x_lags_linear=form["x_lags_linear"]
        ),
        first_stage=FirstStageFit(
            np.asarray(first["pi1"], dtype=float),
            np.asarray(first["residuals"], dtype=float),
            spec.innovation.sigma[0],
            first["regularized"],
        ),
        residuals2=np.asarray(doc["residuals2"], dtype=float),
        coefficients=tuple(doc["coefficients"]),
        regularized=doc["regularized"],
        n_obs=doc["n_obs"],
        generated=doc.get("generated", "first_stage"),
    )
