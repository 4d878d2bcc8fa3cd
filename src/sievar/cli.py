"""Command-line surface: simulate | estimate | irf | mc | diagnose | relax-check.

Each config key is declared once in KEYS, with converter and default, and
each command in COMMANDS lists the keys it accepts. A run resolves its JSON
config against that table (unknown keys and bad values are config errors)
before it creates <out>/<command>-<digest>/, where it writes its results,
config.json (the resolved config) and run.json (the run manifest). Runs are
deterministic given config and seed. Exit codes: 0 success, 2 config or data
error, 3 shock-compatibility error, 4 numeric failure.
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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__, dataio
from .basis import KnotVector, SievePlan, knots_from_quantiles
from .diagnostics import estimate_delta_r, find_h_star
from .estimator import fit_parametric, fit_two_step, max0_prior_form
from .irf import (
    IncompatibleShockError,
    RelaxationFn,
    ShockSpec,
    _estimated_irfs,
    _require_compatible,
    check_compatibility,
    linear_irf,
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

IRF_METHODS = ("sieve", "parametric_max0", "linear", "population")


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _config_values(context: str = ""):
    """Raise a failed conversion or argument check of a config value as a
    ConfigError. LinAlgError is a ValueError too, but a numeric failure."""
    try:
        yield
    except (ConfigError, np.linalg.LinAlgError):
        raise
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"{context}: {message}" if context else message) from exc


def _typed(kind: type | tuple[type, ...], what: str, cast: Callable = lambda v: v) -> Callable:
    """A converter taking JSON values of Python type `kind` (a bool only when
    `kind` is bool) and returning them cast."""
    def convert(v):
        if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
            raise TypeError(f"expected {what}, got {v!r}")
        return cast(v)
    return convert


_int = _typed(int, "an integer")
_float = _typed((int, float), "a number", float)
_bool = _typed(bool, "true or false")
_str = _typed(str, "a string")
_object = _typed(dict, "a JSON object")


def _int_from(low: int) -> Callable:
    """An integer of at least ``low``."""
    def convert(v) -> int:
        if _int(v) < low:
            raise ValueError(f"expected an integer of at least {low}, got {v}")
        return v
    return convert


def _list_of(item: Callable, length: int | None = None, nonempty: bool = False) -> Callable:
    what = f"a list of {length}" if length else "a non-empty list" if nonempty else "a list"

    def convert(v) -> tuple:
        if not isinstance(v, list) or length not in (None, len(v)) or (nonempty and not v):
            raise TypeError(f"expected {what}, got {v!r}")
        return tuple(item(x) for x in v)
    return convert


def _choice(*options: str) -> Callable:
    def convert(v) -> str:
        if v not in options:
            raise ValueError(f"expected one of {list(options)}, got {v!r}")
        return v
    return convert


def _knots(v):
    """A list of interior knots, or "quantile:<count>"."""
    if isinstance(v, str):
        if not (v.startswith("quantile:") and v[9:].isdigit()):
            raise ValueError(f"knots must be a list or 'quantile:<count>', got {v!r}")
        return v
    return _list_of(_float)(v)


def _domain(v):
    """An interval [a, b], or "data" for the sample range."""
    return v if v == "data" else _list_of(_float, 2)(v)


def _relaxation(v: dict) -> RelaxationFn:
    """The shock relaxation; a kind left out is the symmetric bump."""
    return RelaxationFn(**{"kind": "symmetric_bump"} | v)


@dataclass(frozen=True)
class Key:
    """A config key. ``convert`` checks its JSON value and returns what the
    run uses; ``default`` is the JSON value taken when the key is absent or
    null (None: no default); ``table`` makes the value an object with keys of
    its own, resolved before ``convert``; ``study`` names the StudyConfig
    field that ``mc`` sets from it, when that is not the key's own name."""

    convert: Callable[[Any], Any] = lambda v: v
    default: Any = None
    table: dict[str, Key] | None = None
    study: str | None = None


SIEVE = {"degree": Key(_int, 3), "knots": Key(_knots, [0.0]), "domain": Key(_domain, "data")}
RELAXATION = {
    "kind": Key(_choice("symmetric_bump", "interval_bump", "constant_one")),
    "c": Key(_float), "alpha": Key(_float), "a": Key(_float), "b": Key(_float),
}
DATA = {"path": Key(_str), "structural": Key(_str), "columns": Key(_list_of(_str))}
KEYS = {
    # the sample: a CSV table, or simulated from a model
    "data": Key(table=DATA),
    "model": Key(_object),
    "dgp": Key(_int),
    "ar": Key(_list_of(_float)),
    "phi_shift": Key(_bool, False),
    "n": Key(_int_from(1), 240),
    "burn_in": Key(_int_from(0), 500),
    "seed": Key(_int, 0, study="master_seed"),
    # fits and responses
    "p": Key(_int),  # default: the model's lag order, 1 for a data table
    "sieve": Key(default={}, table=SIEVE),
    "grid_points": Key(_int_from(1), 101),
    "fit_bundle": Key(_str),
    "methods": Key(_list_of(_choice(*IRF_METHODS), nonempty=True), ["sieve", "linear"]),
    "deltas": Key(_list_of(_float, nonempty=True), [1.0]),
    "horizon": Key(_int_from(0), 12),
    "relaxation": Key(_relaxation, {"c": 3.0, "alpha": 4.0}, RELAXATION),
    "population_replications": Key(_int_from(1), 20_000, study="pop_replications"),
    "replications": Key(_int, 2000, study="mc_replications"),
    "estimators": Key(_list_of(_str, nonempty=True)),
    "target_relaxed": Key(_bool, True),
    "estimator_relaxed": Key(_bool, True),
    "paper_scale": Key(_bool, False),
    # diagnostics and the compatibility check
    "mode": Key(_choice("dependence", "stability", "both"), "both"),
    "r": Key(_float, 2.0),
    "h_max": Key(_int, 10),
    "samples": Key(_int, 200),
    "h_cap": Key(_int, 10),
    "support": Key(_list_of(_float, 2), [-3.0, 3.0]),
}


def _resolve(raw: dict, table: dict[str, Key], fill: bool = True, path: str = "") -> dict:
    """Check and convert a config object against its key table; absent or
    null keys take their defaults when ``fill`` is set and are left out
    otherwise. ``path`` prefixes the keys of a nested object in messages."""
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(path + name for name in unknown)}")
    resolved = {}
    for name, key in table.items():
        value = raw.get(name)
        if value is None and fill:
            value = key.default
        if value is None:
            continue
        with _config_values(path + name):
            if key.table is not None:
                value = _resolve(_object(value), key.table, fill, f"{path}{name}.")
            resolved[name] = key.convert(value)
    return resolved


def _peak_rss_mb() -> dict[str, float]:
    """Peak resident memory so far of this process and of its reaped children,
    such as forked workers, in MiB."""
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB on Linux
    return {
        who: resource.getrusage(which).ru_maxrss * unit / 2**20
        for who, which in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))
    }


@dataclass
class Run:
    """A command's run directory, <out>/<command>-<digest>/, named by the
    config as given after the flag overrides and created on first use."""

    command: str
    raw: dict
    out: Path
    threads: int

    @cached_property
    def dir(self) -> Path:
        digest = hashlib.sha256(json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:12]
        path = self.out / f"{self.command}-{digest}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def finish(self, cfg: dict, seed: int, **fields) -> int:
        """Write config.json (the resolved config) and run.json (versions,
        seed, peak memory and the command's own fields)."""
        manifest = {
            "sievar_version": __version__, "numpy_version": np.__version__,
            "seed": seed, "peak_rss_mb": _peak_rss_mb(), **fields,
        }
        for name, doc in (("config.json", cfg), ("run.json", manifest)):
            text = json.dumps(doc, indent=2, sort_keys=True, default=dataclasses.asdict)
            (self.dir / name).write_text(text + "\n")
        print(self.dir)
        return EXIT_OK


def _ar_spec(coeffs: tuple[float, ...]) -> ModelSpec:
    p = len(coeffs)
    lag_mats = np.array([[[c]] for c in coeffs]) if p else np.zeros((0, 1, 1))
    return ModelSpec(
        d_y=0, p=p, mu=np.zeros(1), lags=LagPolynomial(lag_mats), impact=(),
        b0_21=np.zeros(0), innovation=InnovationLaw(sigma=(1.0,), bound=3.0),
    )


def _spec(cfg: dict) -> ModelSpec | None:
    """The model of the run's source: `model`, a built-in `dgp` or `ar`
    coefficients; None when the sample is a `data` table."""
    if "data" in cfg:
        return None
    if "model" in cfg:
        with _config_values("model"):
            return dataio.spec_from_config(cfg["model"])
    with _config_values():
        if "dgp" in cfg:
            return builtin_dgp(cfg["dgp"], phi_shift=cfg["phi_shift"])
        if "ar" in cfg:
            return _ar_spec(cfg["ar"])
    raise ConfigError("the config names no source: give data, model, dgp or ar")


def _sample(cfg: dict):
    """The run's sample, and its model when it is simulated."""
    spec = _spec(cfg)
    if spec is not None:
        if cfg["n"] <= spec.p:
            raise ConfigError(f"n: must exceed the lag order ({spec.p}), got {cfg['n']}")
        return simulate(spec, cfg["n"], cfg["seed"], cfg["burn_in"]), spec
    data = cfg["data"]
    with _config_values("data"):
        dataset = dataio.read_dataset(Path(data["path"]), data.get("structural"), data.get("columns"))
    if dataset.dropped_rows:
        print(f"dropped {dataset.dropped_rows} rows with gaps", file=sys.stderr)
    return dataset, None


def _plan_from(sieve: dict, x: np.ndarray, p: int) -> SievePlan:
    """One knot vector for every lag: degree, knots (a list or
    "quantile:<count>") and domain ([a, b] or "data")."""
    degree, knots, domain = sieve["degree"], sieve["knots"], sieve["domain"]
    with _config_values("sieve"):
        if isinstance(knots, str):
            kv = knots_from_quantiles(x, int(knots.removeprefix("quantile:")), degree)
            if domain != "data":
                kv = KnotVector(degree, kv.interior, *domain)
        else:
            lo, hi = (float(np.min(x)), float(np.max(x))) if domain == "data" else domain
            kv = KnotVector(degree, knots, lo, hi)
    return SievePlan(x_blocks=(kv,) * (p + 1))


def cmd_simulate(cfg: dict, run: Run) -> int:
    path, _ = _sample(cfg)
    dataio.write_simpath(path, run.dir / "path.csv")
    return run.finish(cfg, cfg["seed"])


def cmd_estimate(cfg: dict, run: Run) -> int:
    sample, spec = _sample(cfg)
    p = cfg.setdefault("p", spec.p if spec is not None else 1)
    plan = _plan_from(cfg["sieve"], np.asarray(sample.x), p)
    fit = fit_two_step(sample, plan)
    dataio.save_fitted(fit, run.dir / "fitted.json")
    kv = plan.x_blocks[0]  # every lag shares one knot vector
    grid = np.linspace(kv.lo, kv.hi, cfg["grid_points"])
    with open(run.dir / "function_grid.csv", "w", encoding="utf-8") as fh:
        fh.write("equation,lag,x,value\n")
        for i in range(fit.d_y):
            for j in range(p + 1):
                vals = fit.impact_function(i, j)(grid)
                for xv, gv in zip(grid, vals):
                    fh.write(f"{i},{j},{float(xv)!r},{float(gv)!r}\n")
    return run.finish(cfg, cfg["seed"])


def cmd_irf(cfg: dict, run: Run) -> int:
    sample, spec = _sample(cfg)
    p = cfg.setdefault("p", spec.p if spec is not None else 1)
    methods, horizon, rho = cfg["methods"], cfg["horizon"], cfg["relaxation"]
    if "population" in methods and spec is None:
        raise ConfigError("population IRFs need a model source, not a data table")
    if spec is not None and rho.kind != "constant_one":
        for delta in cfg["deltas"]:
            _require_compatible(rho, delta, spec.innovation.support(0))

    # each estimator is fitted once and serves every shock size
    fits = {}
    if "sieve" in methods:
        fits["sieve"] = (
            dataio.load_fitted(Path(cfg["fit_bundle"])) if cfg.get("fit_bundle")
            else fit_two_step(sample, _plan_from(cfg["sieve"], np.asarray(sample.x), p))
        )
    if "parametric_max0" in methods:
        fits["parametric_max0"] = fit_parametric(sample, p, max0_prior_form(p))
    if "linear" in methods:
        fits["linear"] = fit_two_step(sample, SievePlan(x_blocks=(None,) * (p + 1)))

    shocks = [ShockSpec(delta, rho, horizon) for delta in cfg["deltas"]]
    # one sample check per fit serves every shock size
    estimated = {
        method: _estimated_irfs(fits[method], sample, shocks)
        for method in ("sieve", "parametric_max0") if method in methods
    }

    def response(method: str, k: int):
        if method == "sieve":
            return estimated[method][k]
        if method == "parametric_max0":
            return dataclasses.replace(estimated[method][k], method=method)
        if method == "linear":
            return linear_irf(fits[method].lags, fits[method].b0_21, shocks[k].delta, horizon)
        return population_irf(
            spec, shocks[k], replications=cfg["population_replications"], seed=cfg["seed"],
            threads=run.threads,
        )

    results = [
        response(method, k) for k in range(len(shocks)) for method in IRF_METHODS if method in methods
    ]
    dataio.write_irfs(results, run.dir / "irf.csv")
    d_y = results[0].values.shape[1] - 1
    panels = []
    for v in range(1 + d_y):
        name = results[0].variables[v]
        series = [
            Series(f"{r.method} d={r.delta:g}", np.arange(r.values.shape[0]), r.values[:, v])
            for r in results
        ]
        panels.append({"title": f"response of {name}", "xlabel": "horizon", "series": series})
    (run.dir / "irf.svg").write_text(render_panels(panels))
    return run.finish(cfg, cfg["seed"])


def cmd_mc(cfg: dict, run: Run) -> int:
    if "dgp" not in cfg:
        raise ConfigError("'dgp' is required")
    overrides = {
        KEYS[k].study or k: v for k, v in cfg.items() if k not in ("dgp", "paper_scale", "sieve")
    }
    overrides |= cfg.get("sieve", {})
    if overrides.get("domain") == "data":
        overrides["domain"] = None
    with _config_values("invalid study config"):
        study_cfg = default_study_config(cfg["dgp"])
        if cfg.get("paper_scale"):
            study_cfg = study_cfg.paper_scale()
        study_cfg = dataclasses.replace(study_cfg, threads=run.threads, **overrides)
    result = run_study(study_cfg)
    dataio.write_study(result, run.dir / "study.csv")

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
    (run.dir / "study.svg").write_text(render_panels(panels))
    return run.finish(
        cfg | {"resolved": study_cfg}, study_cfg.master_seed,
        n_ok=result.n_ok,
        failed=len(result.failed),
        failure_causes=result.failure_causes,
        regularized=result.regularized,
        clamped=result.clamped,
        threads=study_cfg.threads,
        processes=result.processes,
        stage_seconds=result.stage_seconds,
        population_max_mc_se=[
            {"delta": delta, "max_mc_se": float(np.max(irf.mc_se))}
            for delta, irf in sorted(result.population.items())
        ],
    )


def cmd_diagnose(cfg: dict, run: Run) -> int:
    spec = _spec(cfg)
    mode, seed = cfg["mode"], cfg["seed"]
    fields = dict.fromkeys(
        ("replications", "fit_residual", "dependence_s", "samples", "h_cap", "h_star", "c_z", "stability_s")
    )
    lines, profile = [], None
    if mode in ("dependence", "both"):
        start = time.perf_counter()
        with _config_values():
            profile = estimate_delta_r(
                spec, r=cfg["r"], h_max=cfg["h_max"], replications=cfg["replications"], seed=seed
            )
        fields.update(
            replications=profile.replications, fit_residual=profile.fit_residual,
            dependence_s=time.perf_counter() - start,
        )
        lines += [
            f"physical dependence (r={profile.r:g}, {profile.replications} couplings)",
            f"  fit: a1={profile.a1:.6g}  a2={profile.a2:.6g}  tau={profile.tau:g}"
            f"  (log-fit rms {profile.fit_residual:.3g})",
        ]
    if mode in ("stability", "both"):
        start = time.perf_counter()
        with _config_values():
            report = find_h_star(spec, h_cap=cfg["h_cap"], samples=cfg["samples"], seed=seed)
        fields.update(
            samples=report.samples, h_cap=cfg["h_cap"], h_star=report.h_star, c_z=report.c_z,
            stability_s=time.perf_counter() - start,
        )
        lines += [
            f"stability probe ({report.samples} samples; estimates are lower bounds)",
            f"  contractive: {report.contractive}  C_Z={report.c_z:.6g}  C_eps={report.c_eps:.6g}",
            f"  h_star: {report.h_star}  decay: "
            + " ".join(f"{v:.4g}" for v in report.decay),
        ]
    if profile is not None:
        with open(run.dir / "dependence.csv", "w", encoding="utf-8") as fh:
            fh.write("h,delta_r\n")
            for h, v in enumerate(profile.delta_hat, start=1):
                fh.write(f"{h},{float(v)!r}\n")
    (run.dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return run.finish(cfg, seed, mode=mode, **fields)


def cmd_relax_check(cfg: dict, run: Run) -> int:
    all_ok = True
    for delta in cfg["deltas"]:
        with _config_values("support"):
            verdict = check_compatibility(cfg["relaxation"], delta, cfg["support"])
        status = "compatible" if verdict.compatible else "INCOMPATIBLE"
        print(
            f"delta={delta:+g}: {status} (worst margin {verdict.worst_margin:.6g} "
            f"at e={verdict.worst_point:.4g})"
        )
        all_ok = all_ok and verdict.compatible
    return EXIT_OK if all_ok else EXIT_COMPAT


@dataclass(frozen=True)
class Command:
    """A command's handler and the config keys it accepts; ``fill`` is False
    for ``mc``, whose absent keys keep the study config's defaults."""

    run: Callable[[dict, Run], int]
    keys: tuple[str, ...]
    fill: bool = True


_SOURCE = ("dgp", "model", "n", "seed", "burn_in", "phi_shift")
COMMANDS = {
    "simulate": Command(cmd_simulate, _SOURCE),
    "estimate": Command(cmd_estimate, _SOURCE + ("data", "p", "sieve", "grid_points")),
    "irf": Command(cmd_irf, _SOURCE + (
        "data", "p", "sieve", "fit_bundle", "methods", "deltas", "horizon", "relaxation",
        "population_replications",
    )),
    "mc": Command(cmd_mc, (
        "dgp", "n", "seed", "burn_in", "phi_shift", "replications", "population_replications",
        "deltas", "horizon", "estimators", "relaxation", "sieve", "target_relaxed",
        "estimator_relaxed", "paper_scale",
    ), fill=False),
    "diagnose": Command(cmd_diagnose, (
        "dgp", "ar", "model", "seed", "phi_shift", "mode", "r", "h_max", "replications",
        "samples", "h_cap",
    )),
    "relax-check": Command(cmd_relax_check, ("relaxation", "deltas", "support")),
}


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
    parser.add_argument("command", choices=list(COMMANDS))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        with _config_values("config"):
            raw = _object(json.loads(Path(args.config).read_text())) if args.config else {}
        if args.seed is not None and "seed" in command.keys:
            raw["seed"] = args.seed
        if args.command == "simulate":
            raw.setdefault("seed", 0)  # simulate's run directory has always hashed the seed
        if args.paper_scale and "paper_scale" in command.keys:
            raw["paper_scale"] = True
        cfg = _resolve(raw, {k: KEYS[k] for k in command.keys}, command.fill)
        return command.run(cfg, Run(args.command, raw, Path(args.out), args.threads))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibleShockError as exc:
        print(f"shock compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    # run_study raises RuntimeError when more replications fail than allowed
    except (PathDivergedError, np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
