"""Command-line surface: simulate | estimate | irf | mc | diagnose | relax-check.

Every run resolves its JSON config (unknown keys rejected), derives a
content digest, writes results plus the resolved config echo into
<out>/<command>-<digest>/, and is deterministic given config and seed.
Exit codes: 0 success, 2 config or data error, 3 shock-compatibility error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dataio
from .basis import KnotVector, SievePlan, knots_from_quantiles
from .diagnostics import estimate_delta_r, find_h_star
from .estimator import fit_parametric, fit_two_step, max0_prior_form
from .irf import (
    IncompatibleShockError,
    IrfResult,
    RelaxationFn,
    ShockSpec,
    check_compatibility,
    estimated_irf,
    linear_irf,
    linearized_reduction,
    population_irf,
)
from .model import (
    InnovationLaw,
    LagPolynomial,
    ModelSpec,
    PathDivergedError,
    builtin_dgp,
    simulate,
)
from .study import default_study_config, run_study
from .svgplot import Series, render_panels

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPAT = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


def _check_keys(cfg: dict, allowed: set[str], context: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _relaxation_from(cfg: dict | None) -> RelaxationFn:
    if cfg is None:
        return RelaxationFn.symmetric_bump(3.0, 4.0)
    _check_keys(cfg, {"kind", "c", "alpha", "a", "b"}, "relaxation")
    kind = cfg.get("kind", "symmetric_bump")
    if kind == "constant_one":
        return RelaxationFn.constant_one()
    if kind == "symmetric_bump":
        return RelaxationFn.symmetric_bump(float(cfg["c"]), float(cfg["alpha"]))
    if kind == "interval_bump":
        return RelaxationFn.interval_bump(float(cfg["a"]), float(cfg["b"]), float(cfg["alpha"]))
    raise ConfigError(f"unknown relaxation kind {kind!r}")


def _plan_from(cfg: dict | None, x: np.ndarray, p: int) -> SievePlan:
    """Sieve config: degree, knots = list | "quantile:<count>", domain = [a,b] | "data"."""
    cfg = dict(cfg or {})
    _check_keys(cfg, {"degree", "knots", "domain"}, "sieve")
    degree = int(cfg.get("degree", 3))
    domain = cfg.get("domain", "data")
    knots = cfg.get("knots", [0.0])
    try:
        if isinstance(knots, str):
            if not knots.startswith("quantile:"):
                raise ConfigError("knots must be a list or 'quantile:<count>'")
            count = int(knots.split(":", 1)[1])
            kv = knots_from_quantiles(x, count, degree)
            if domain != "data":
                kv = KnotVector(degree, kv.interior, float(domain[0]), float(domain[1]))
        else:
            if domain == "data":
                lo, hi = float(np.min(x)), float(np.max(x))
            else:
                lo, hi = float(domain[0]), float(domain[1])
            kv = KnotVector(degree, tuple(float(k) for k in knots), lo, hi)
    except ValueError as exc:
        raise ConfigError(f"invalid sieve config: {exc}") from exc
    return SievePlan(x_blocks=tuple(kv for _ in range(p + 1)))


def _resolve_out_dir(base: str, command: str, cfg: dict) -> Path:
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    out = Path(base) / f"{command}-{digest}"
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _config_values():
    """Raise a ValueError of a config value's conversion or argument check as
    a ConfigError. LinAlgError is a ValueError too, but a numeric failure."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _peak_rss_mb() -> dict[str, float]:
    """Peak resident memory so far of this process and of its reaped children,
    such as forked workers, in MiB."""
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB on Linux
    return {
        who: resource.getrusage(which).ru_maxrss * unit / 2**20
        for who, which in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))
    }


def _echo_config(out_dir: Path, cfg: dict) -> None:
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    try:
        cfg = json.loads(Path(args.config).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _source_sample(cfg: dict, seed_override: int | None):
    """Data source: either a CSV table or a simulated built-in DGP."""
    if "data" in cfg and cfg["data"] is not None:
        dcfg = dict(cfg["data"])
        _check_keys(dcfg, {"path", "structural", "columns"}, "data")
        try:
            dataset = dataio.read_dataset(
                Path(dcfg["path"]), dcfg.get("structural"), dcfg.get("columns")
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if dataset.dropped_rows:
            print(f"dropped {dataset.dropped_rows} rows with gaps", file=sys.stderr)
        return dataset, None
    if "model" in cfg and cfg["model"] is not None:
        try:
            spec = dataio.spec_from_config(cfg["model"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"invalid model config: {exc}") from exc
    elif "dgp" in cfg:
        dgp_id = int(cfg["dgp"])
        if not 1 <= dgp_id <= 7:
            raise ConfigError(f"dgp id must be in 1..7, got {dgp_id}")
        spec = builtin_dgp(dgp_id, phi_shift=bool(cfg.get("phi_shift", False)))
    else:
        raise ConfigError("one of 'data', 'dgp', or 'model' must be given")
    seed = int(cfg.get("seed", 0)) if seed_override is None else seed_override
    n = int(cfg.get("n", 240))
    burn_in = int(cfg.get("burn_in", 500))
    return simulate(spec, n, seed, burn_in), spec


def cmd_simulate(cfg: dict, args) -> int:
    _check_keys(cfg, {"dgp", "model", "n", "seed", "burn_in", "phi_shift"}, "simulate")
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    out_dir = _resolve_out_dir(args.out, "simulate", cfg)
    path, _ = _source_sample(cfg, None)
    dataio.write_simpath(path, out_dir / "path.csv")
    _echo_config(out_dir, {"n": 240, "burn_in": 500} | cfg)
    print(out_dir)
    return EXIT_OK


def cmd_estimate(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {"dgp", "model", "n", "seed", "burn_in", "phi_shift", "data", "p", "sieve", "grid_points"},
        "estimate",
    )
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = _resolve_out_dir(args.out, "estimate", cfg)
    sample, spec = _source_sample(cfg, None)
    p = int(cfg.get("p", spec.p if spec is not None else 1))
    plan = _plan_from(cfg.get("sieve"), np.asarray(sample.x), p)
    fit = fit_two_step(sample, plan)
    dataio.save_fitted(fit, out_dir / "fitted.json")
    grid_points = int(cfg.get("grid_points", 101))
    lo = min(kv.lo for kv in plan.x_blocks if kv is not None)
    hi = max(kv.hi for kv in plan.x_blocks if kv is not None)
    grid = np.linspace(lo, hi, grid_points)
    with open(out_dir / "function_grid.csv", "w", encoding="utf-8") as fh:
        fh.write("equation,lag,x,value\n")
        for i in range(fit.d_y):
            for j in range(p + 1):
                vals = fit.impact_function(i, j)(grid)
                for xv, gv in zip(grid, vals):
                    fh.write(f"{i},{j},{float(xv)!r},{float(gv)!r}\n")
    resolved = {"p": p, "grid_points": grid_points,
                "sieve": dict(cfg.get("sieve") or {"degree": 3, "knots": [0.0], "domain": "data"})}
    _echo_config(out_dir, resolved | cfg)
    print(out_dir)
    return EXIT_OK


def cmd_irf(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {
            "dgp", "model", "n", "seed", "burn_in", "phi_shift", "data", "p", "sieve",
            "fit_bundle", "methods", "deltas", "horizon", "relaxation",
            "population_replications",
        },
        "irf",
    )
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = _resolve_out_dir(args.out, "irf", cfg)
    sample, spec = _source_sample(cfg, None)
    x = np.asarray(sample.x)
    p = int(cfg.get("p", spec.p if spec is not None else 1))
    horizon = int(cfg.get("horizon", 12))
    deltas = [float(d) for d in cfg.get("deltas", [1.0])]
    rho = _relaxation_from(cfg.get("relaxation"))
    methods = list(cfg.get("methods", ["sieve", "linear"]))
    known = {"sieve", "parametric_max0", "linear", "population"}
    if not set(methods) <= known:
        raise ConfigError(f"methods must be a subset of {sorted(known)}")
    if "population" in methods and args.threads < 1:
        raise ConfigError("threads must be at least 1")

    if spec is not None and rho.kind != "constant_one":
        for delta in deltas:
            verdict = check_compatibility(rho, delta, spec.innovation.support(0))
            if not verdict.compatible:
                raise IncompatibleShockError(
                    f"relaxation incompatible with delta={delta:g}: "
                    f"worst margin {verdict.worst_margin:.6g}"
                )

    results: list[IrfResult] = []
    for delta in deltas:
        shock = ShockSpec(delta, rho, horizon)
        if "sieve" in methods:
            if cfg.get("fit_bundle"):
                fit = dataio.load_fitted(Path(cfg["fit_bundle"]))
            else:
                fit = fit_two_step(sample, _plan_from(cfg.get("sieve"), x, p))
            results.append(estimated_irf(fit, sample, shock))
        if "parametric_max0" in methods:
            pfit = fit_parametric(sample, p, max0_prior_form(p))
            res = estimated_irf(pfit, sample, shock)
            results.append(
                IrfResult(res.values, res.variables, "parametric_max0", delta,
                          res.relaxation, res.n_used, res.seed, res.clamped)
            )
        if "linear" in methods:
            lfit = fit_two_step(sample, SievePlan(x_blocks=(None,) * (p + 1)))
            results.append(linear_irf(lfit.lags, lfit.b0_21, delta, horizon))
        if "population" in methods:
            if spec is None:
                raise ConfigError("population IRFs need a built-in dgp source")
            results.append(
                population_irf(
                    spec, shock,
                    replications=int(cfg.get("population_replications", 20_000)),
                    seed=int(cfg.get("seed", 0)),
                    threads=args.threads,
                )
            )
    dataio.write_irfs(results, out_dir / "irf.csv")
    resolved = {"p": p, "horizon": horizon, "deltas": deltas, "methods": methods,
                "relaxation": {"kind": rho.kind, "c": rho.c, "alpha": rho.alpha,
                               "a": rho.a, "b": rho.b}}
    cfg = resolved | cfg

    d_y = results[0].values.shape[1] - 1
    panels = []
    for v in range(1 + d_y):
        name = results[0].variables[v]
        series = [
            Series(f"{r.method} d={r.delta:g}", np.arange(r.values.shape[0]), r.values[:, v])
            for r in results
        ]
        panels.append({"title": f"response of {name}", "xlabel": "horizon", "series": series})
    (out_dir / "irf.svg").write_text(render_panels(panels))
    _echo_config(out_dir, cfg)
    print(out_dir)
    return EXIT_OK


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


# mc config key (sieve keys prefixed "sieve.") -> (StudyConfig field, converter)
MC_OVERRIDES = {
    "n": ("n", int),
    "replications": ("mc_replications", int),
    "population_replications": ("pop_replications", int),
    "deltas": ("deltas", _floats),
    "horizon": ("horizon", int),
    "estimators": ("estimators", tuple),
    "relaxation": ("relaxation", _relaxation_from),
    "seed": ("master_seed", int),
    "burn_in": ("burn_in", int),
    "phi_shift": ("phi_shift", bool),
    "target_relaxed": ("target_relaxed", bool),
    "estimator_relaxed": ("estimator_relaxed", bool),
    "sieve.degree": ("degree", int),
    "sieve.knots": ("knots", _floats),
    "sieve.domain": ("domain", lambda v: None if v == "data" else (float(v[0]), float(v[1]))),
}


def cmd_mc(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {
            "dgp", "n", "replications", "population_replications", "deltas",
            "horizon", "estimators", "relaxation", "sieve", "seed", "phi_shift",
            "target_relaxed", "estimator_relaxed", "burn_in", "paper_scale",
        },
        "mc",
    )
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.paper_scale:
        cfg["paper_scale"] = True
    out_dir = _resolve_out_dir(args.out, "mc", cfg)
    if "dgp" not in cfg:
        raise ConfigError("'dgp' is required")
    dgp_id = int(cfg["dgp"])
    if not 1 <= dgp_id <= 7:
        raise ConfigError(f"dgp id must be in 1..7, got {dgp_id}")
    sieve = dict(cfg.get("sieve") or {})
    _check_keys(sieve, {"degree", "knots", "domain"}, "sieve")

    flat = cfg | {f"sieve.{k}": v for k, v in sieve.items()}
    overrides = {
        field: convert(flat[key]) for key, (field, convert) in MC_OVERRIDES.items() if key in flat
    }
    overrides["threads"] = args.threads
    study_cfg = default_study_config(dgp_id)
    if args.paper_scale or cfg.get("paper_scale"):
        study_cfg = study_cfg.paper_scale()
    try:
        study_cfg = dataclasses.replace(study_cfg, **overrides)
    except ValueError as exc:
        raise ConfigError(f"invalid study config: {exc}") from exc
    result = run_study(study_cfg)
    dataio.write_study(result, out_dir / "study.csv")
    manifest = {
        "sievar_version": __version__,
        "numpy_version": np.__version__,
        "n_ok": result.n_ok,
        "failed": len(result.failed),
        "failure_causes": result.failure_causes,
        "clamped": result.clamped,
        "threads": study_cfg.threads,
        "processes": result.processes,
        "population_max_mc_se": [
            {"delta": delta, "max_mc_se": float(np.max(irf.mc_se))}
            for delta, irf in sorted(result.population.items())
        ],
        "peak_rss_mb": _peak_rss_mb(),
    }
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    spec_d = result.population[study_cfg.deltas[0]].values.shape[1]
    panels = []
    for metric, store in (("MSE", result.mse), ("bias", result.bias)):
        for v in range(1, spec_d):
            name = result.population[study_cfg.deltas[0]].variables[v]
            series = [
                Series(f"{tag} d={delta:g}", np.arange(study_cfg.horizon + 1), store[(tag, delta)][:, v])
                for (tag, delta) in sorted(store)
            ]
            panels.append({"title": f"{metric}, {name}", "xlabel": "horizon", "series": series})
    (out_dir / "study.svg").write_text(render_panels(panels))
    resolved = dataclasses.asdict(study_cfg)
    resolved["relaxation"] = study_cfg.relaxation.describe()
    _echo_config(out_dir, cfg | {"resolved": resolved})
    print(out_dir)
    return EXIT_OK


def _ar_spec(coeffs: list[float]) -> ModelSpec:
    p = len(coeffs)
    lag_mats = np.array([[[float(c)]] for c in coeffs]) if p else np.zeros((0, 1, 1))
    return ModelSpec(
        d_y=0, p=p, mu=np.zeros(1), lags=LagPolynomial(lag_mats), impact=(),
        b0_21=np.zeros(0), innovation=InnovationLaw(sigma=(1.0,), bound=3.0),
    )


def cmd_diagnose(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {"dgp", "ar", "model", "mode", "r", "h_max", "replications", "samples", "h_cap", "seed", "phi_shift"},
        "diagnose",
    )
    mode = cfg.get("mode", "both")
    if mode not in ("dependence", "stability", "both"):
        raise ConfigError(f"mode must be 'dependence', 'stability' or 'both', got {mode!r}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = _resolve_out_dir(args.out, "diagnose", cfg)
    with _config_values():
        if "ar" in cfg:
            spec = _ar_spec(list(cfg["ar"]))
        elif "model" in cfg:
            try:
                spec = dataio.spec_from_config(cfg["model"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"invalid model config: {exc}") from exc
        elif "dgp" in cfg:
            spec = builtin_dgp(int(cfg["dgp"]), phi_shift=bool(cfg.get("phi_shift", False)))
        else:
            raise ConfigError("one of 'dgp', 'ar', or 'model' must be given")
        seed = int(cfg.get("seed", 0))
    lines = []
    manifest = {
        "sievar_version": __version__, "numpy_version": np.__version__, "mode": mode, "seed": seed,
        "replications": None, "fit_residual": None, "dependence_s": None,
        "samples": None, "h_cap": None, "h_star": None, "c_z": None, "stability_s": None,
    }
    if mode in ("dependence", "both"):
        start = time.perf_counter()
        with _config_values():
            profile = estimate_delta_r(
                spec,
                r=float(cfg.get("r", 2.0)),
                h_max=int(cfg.get("h_max", 10)),
                replications=int(cfg.get("replications", 2000)),
                seed=seed,
            )
        manifest.update(
            replications=profile.replications, fit_residual=profile.fit_residual,
            dependence_s=time.perf_counter() - start,
        )
        with open(out_dir / "dependence.csv", "w", encoding="utf-8") as fh:
            fh.write("h,delta_r\n")
            for h, v in enumerate(profile.delta_hat, start=1):
                fh.write(f"{h},{float(v)!r}\n")
        lines += [
            f"physical dependence (r={profile.r:g}, {profile.replications} couplings)",
            f"  fit: a1={profile.a1:.6g}  a2={profile.a2:.6g}  tau={profile.tau:g}"
            f"  (log-fit rms {profile.fit_residual:.3g})",
        ]
    if mode in ("stability", "both"):
        start = time.perf_counter()
        with _config_values():
            h_cap = int(cfg.get("h_cap", 10))
            report = find_h_star(spec, h_cap=h_cap, samples=int(cfg.get("samples", 200)), seed=seed)
        manifest.update(
            samples=report.samples, h_cap=h_cap, h_star=report.h_star, c_z=report.c_z,
            stability_s=time.perf_counter() - start,
        )
        lines += [
            f"stability probe ({report.samples} samples; estimates are lower bounds)",
            f"  contractive: {report.contractive}  C_Z={report.c_z:.6g}  C_eps={report.c_eps:.6g}",
            f"  h_star: {report.h_star}  decay: "
            + " ".join(f"{v:.4g}" for v in report.decay),
        ]
    manifest["peak_rss_mb"] = _peak_rss_mb()
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    _echo_config(out_dir, cfg)
    return EXIT_OK


def cmd_relax_check(cfg: dict, args) -> int:
    _check_keys(cfg, {"relaxation", "deltas", "support"}, "relax-check")
    rho = _relaxation_from(cfg.get("relaxation"))
    support = cfg.get("support", [-3.0, 3.0])
    deltas = [float(d) for d in cfg.get("deltas", [1.0])]
    all_ok = True
    for delta in deltas:
        verdict = check_compatibility(rho, delta, (float(support[0]), float(support[1])))
        status = "compatible" if verdict.compatible else "INCOMPATIBLE"
        print(
            f"delta={delta:+g}: {status} (worst margin {verdict.worst_margin:.6g} "
            f"at e={verdict.worst_point:.4g})"
        )
        all_ok = all_ok and verdict.compatible
    return EXIT_OK if all_ok else EXIT_COMPAT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievar",
        description="Simulate, estimate, and analyze block-recursive nonlinear "
        "structural autoregressions with sieve impulse responses.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="number of processes that population IRFs and mc's replications run in "
        "(forked workers, used when BLAS is pinned to one thread); results do not "
        "depend on it",
    )
    parser.add_argument("--out", default="runs", help="output base directory")
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the published replication counts (mc only)",
    )
    parser.add_argument(
        "command",
        choices=["simulate", "estimate", "irf", "mc", "diagnose", "relax-check"],
    )
    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "irf": cmd_irf,
    "mc": cmd_mc,
    "diagnose": cmd_diagnose,
    "relax-check": cmd_relax_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        handler = COMMANDS[args.command]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return handler(cfg, args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibleShockError as exc:
        print(f"shock compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except (PathDivergedError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
