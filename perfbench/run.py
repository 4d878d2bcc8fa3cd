"""sievar benchmark: run one workload against the public API and print its metrics.

    python3 perfbench/run.py --workload study_dgp7 --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py): study_dgp7, diagnose_dgp2.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced calls and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 2 means
the checkout holds no sievar source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program  # pins BLAS to one thread; must come before numpy

WORKLOAD_NAMES = ("study_dgp7", "diagnose_dgp2")
# Printed, not gated: these exist only on the workloads they apply to.
# failure_rate is printed too; it is 0 on a healthy run, so the JSON carries
# it as attempted and failed instead of as a gated metric.
DERIVED = (("mc_rep_ms", "ms"), ("pop_rep_us", "us"), ("paper_scale_s", "s"))
# Times scaled to a nominal machine speed (see calibration.py).
SCALED = ("wall_s",) + tuple(name for name, _ in DERIVED)
SETUP_SAMPLES = 11
TRACE_DIR = program.ROOT / ".perfbench" / "traces"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0, help="target length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "threads": workload.threads,
        "seed": seed,
    }


def run_fresh(*args: str, timeout: float) -> dict:
    """Run this script in a fresh interpreter and return its last output line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args: argparse.Namespace) -> float:
    """Set-up time of one fresh interpreter: import, spec, checks, warm-up call."""
    return float(run_fresh("--workload", args.workload, "--seed", str(args.seed), "--setup-only", timeout=120)["setup_s"])


def timed_loop(seconds: float, plan):
    """Call ``plan(i)`` for i = 0, 1, ... until the loop is closest to ``seconds`` long.

    ``plan`` returns True once enough kinds of call have run to stop.
    """
    start = time.perf_counter()
    i = 0
    while True:
        done = plan(i)
        i += 1
        elapsed = time.perf_counter() - start
        if done and elapsed + 0.5 * elapsed / i >= seconds:
            return


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_start = time.perf_counter()
    try:
        program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import calibration
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - setup_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outcomes: dict[bool, list] = {False: [], True: []}
    layer_samples: list[dict] = []
    digests: set[str] = set()
    errors: list[str] = []
    traced_spans = []
    tracer = tracing.Tracer() if args.trace else None
    calib = calibration.Calibration(each_cpu=workload.threads > 1)

    def one_call(traced: bool) -> None:
        if traced:
            tracer.reset()
            tracer.install()
        try:
            outcome = workload.run()
        finally:
            if traced:
                tracer.uninstall()
        factor = calib.factor()  # the loops are timed after every call, so each factor brackets one call
        if outcome.result is not None:
            outcome.timings["raw_wall_s"] = outcome.timings["wall_s"]
            for name in SCALED:
                if name in outcome.timings:
                    outcome.timings[name] *= factor
        outcomes[traced].append(outcome)
        if outcome.result is None:
            return
        rows_digest = workloads.digest(workload.rows(outcome.result))
        if not digests:
            errors.extend(workload.check(outcome.result))
        digests.add(rows_digest)
        if traced:
            layer = tracing.layer_metrics(tracer.spans, tracer.counters(), outcome.timings)
            layer["study.failed"] = outcome.failed
            layer_samples.append(layer)
            traced_spans.extend(tracer.spans)

    if args.trace:
        def plan(i: int) -> bool:
            one_call(traced=i % 2 == 1)
            return i >= 1
    else:
        setup_samples = [setup_s * calib.factor()]
        setup_samples += [setup_probe(args) * calib.factor() for _ in range(SETUP_SAMPLES - 1)]

        def plan(i: int) -> bool:
            one_call(traced=False)
            return True

    timed_loop(args.seconds, plan)

    calls = outcomes[False] + outcomes[True]
    attempted = sum(o.attempted for o in calls)
    failed = sum(o.failed for o in calls)
    untraced_ok = [o for o in outcomes[False] if o.result is not None]
    if not untraced_ok or (args.trace and not layer_samples):
        print(f"error: every {args.workload} call failed", file=sys.stderr)
        return 1
    if len(digests) > 1:
        errors.append(f"{len(digests)} different result digests from identical inputs")
    if calib.busy:
        errors.append(f"other threads used CPU during {calib.busy} calibration loops, so scaled times read low")

    lines = []

    def show(name: str, value: float, unit: str) -> None:
        lines.append(f"metric {name} {value:.6g} {unit}")

    if args.trace:
        untraced_wall = median(o.timings["wall_s"] for o in untraced_ok)
        traced_wall = median(o.timings["wall_s"] for o in outcomes[True] if o.result is not None)
        metrics = {}
        for name, unit in ((m["name"], m["unit"]) for m in tracing.LAYER_METRICS):
            if name == "trace.overhead":
                value = traced_wall / untraced_wall - 1.0
            else:
                samples = [s[name] for s in layer_samples]
                if name not in tracing.EXACT_COUNTS:
                    value = median(samples)
                else:
                    value = samples[0]
                    if len(set(samples)) > 1:
                        errors.append(f"{name} differs between identical traced calls: {samples}")
            metrics[name] = {"value": value, "unit": unit}
            show(name, value, unit)
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracing.dump_spans(trace_path, traced_spans)
        lines.append(f"spans {len(traced_spans)} written to {trace_path.relative_to(program.ROOT)}")
    else:
        values = {
            "wall_s": median(o.timings["wall_s"] for o in untraced_ok),
            "setup_s": median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in program.metrics("end_to_end")}
        for name, metric in metrics.items():
            show(name, metric["value"], metric["unit"])
        for name, unit in DERIVED:
            if name in untraced_ok[0].timings:
                show(name, median(o.timings[name] for o in untraced_ok), unit)
        show("failure_rate", failed / attempted, "fraction")
    show("raw_wall_s", median(o.timings["raw_wall_s"] for o in untraced_ok), "s")
    show("calibration_loop_s", median(calib.samples), "s")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"calls {len(outcomes[False])} untraced + {len(outcomes[True])} traced")
    print("env " + json.dumps(environment(workload, args.seed)))
    print("digest sha256:" + " ".join(sorted(digests)))
    print(f"check {'ok' if not errors else 'FAILED'}")
    for error in errors:
        print(f"  {error}")
    print("\n".join(lines))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
