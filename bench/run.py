"""fluidbandit benchmark: one command, four workloads, a traced variant.

Run from the repository root:

    python3 bench/run.py --workload plan --seed 1 --seconds 5 --trace 0

Workloads: plan, eval-counts, eval-perarm, oracle (see workloads.py).
The package is imported from ./src in-process; nothing is installed,
no thread or process is started, and BLAS thread settings are left as
the environment has them (the record printed first says what they are).

--trace 0 prints the end-to-end metrics; set-up is repeated (see
SETUP_REPEATS) and reported as a median, and passes of traffic, spread
between the set-ups, run for --seconds in all (at least the workload's
min_passes), each followed on most workloads by REFERENCE_REPEATS timings
of a fixed reference computation (see pass_s).  --trace 1 patches
every layer boundary (tracing.py), runs one traced set-up and
min_passes pairs of (traced, untraced) passes, writes the spans to
.bench_out/ and prints the per-layer metrics.  Either way the last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # run start, before any package import

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import envinfo
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up runs SETUP_REPEATS times so setup_s is a median, except that a
# third repetition is skipped once set-ups have taken SETUP_SECONDS: the
# heavy set-ups (10 s LP solves, 60 MB JSON dumps) would otherwise eat the
# measuring budget of every run.
SETUP_REPEATS = 3
SETUP_SECONDS = 12.0

# End-to-end metrics (tracing off); every workload reports each one.
END_TO_END = {
    "setup_s": "s",         # imports + median set-up until inputs are ready
    # median wall seconds of one pass of traffic, at the reference host
    # speed on workloads with `host_scaled` passes: times
    # REFERENCE_S / median seconds of reference().  On a shared host the
    # speed of interpreter-bound code drifts by a quarter for minutes at
    # a time, which no run length averages out; the reference drifts with
    # it and no change to the package can move it.  The unscaled median
    # is printed alongside.
    "pass_s": "s",
    "peak_rss_mb": "MB",    # peak resident memory of this process
    "check_pass_frac": "fraction",  # correctness checks passed / attempted
}


def load_package() -> float:
    """Import numpy, scipy and fluidbandit from ./src; seconds since start."""
    if not (SRC / "fluidbandit" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no package source at {SRC}/fluidbandit\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import fluidbandit
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    if Path(fluidbandit.__file__).resolve().parent != SRC / "fluidbandit":
        sys.stderr.write(f"benchmark: imported {fluidbandit.__file__}, not ./src\n")
        raise SystemExit(2)
    return time.perf_counter() - _T0


def _percentile_note(samples: list[float]) -> str:
    """Highest of p90/p99 with at least ten samples beyond it, if any."""
    n = len(samples)
    for q, need in ((0.99, 1000), (0.9, 100)):
        if n >= need:
            cut = statistics.quantiles(samples, n=100)[int(q * 100) - 1]
            return f" p{int(q * 100)}={cut:.6g}"
    return ""


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The reference: seconds it takes on a quiet core of a 2-vCPU x86-64 VM,
# and how often it is timed after each pass.
REFERENCE_S = 0.03
REFERENCE_REPEATS = 2


def reference() -> float:
    """Seconds of a fixed computation that uses no package code.

    A mix like the package's own hot paths: dict updates in an
    interpreted loop (the oracle's DP) and small NumPy vector operations
    and sorts (the simulators).
    """
    import numpy as np

    t0 = time.perf_counter()
    table: dict = {}
    for i in range(60000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(450):
        a = np.sqrt(a * a + 1.0) - 0.5
        a.argsort()
    return time.perf_counter() - t0


def run_timed(wl, seconds: float, imports_s: float) -> tuple[dict, list]:
    # Passes are spread over the run, a share of --seconds after each
    # set-up, so that they sample the machine's speed drift (tens of
    # seconds on a shared host) instead of one stretch of it.
    setups, walls, refs, records = [], [], [], []

    def passes_until(measured: float, count: int = 0) -> None:
        while sum(walls) + sum(refs) < measured or len(records) < count:
            t0 = time.perf_counter()
            rec = wl.run_pass(len(records))
            walls.append(time.perf_counter() - t0)
            if wl.host_scaled:
                refs.extend(reference() for _ in range(REFERENCE_REPEATS))
            wl.collect(rec)
            records.append(rec)

    while len(setups) < 2 or (len(setups) < SETUP_REPEATS
                              and sum(setups) < SETUP_SECONDS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        passes_until(seconds * len(setups) / SETUP_REPEATS)
    passes_until(seconds, wl.min_passes)
    checks = wl.checks(records[:wl.min_passes])
    setup_s = imports_s + statistics.median(setups)
    pass_median = statistics.median(walls)
    pass_s = pass_median
    print(f"# setup_s {setup_s:.6g} s = imports {imports_s:.4g} s + median of "
          f"{len(setups)} set-ups {[round(s, 4) for s in setups]}")
    print(f"# pass seconds: median {pass_median:.6g} over n={len(walls)} passes"
          f"{_percentile_note(walls)} {[round(w, 4) for w in walls[:50]]}")
    if wl.host_scaled:
        ref_median = statistics.median(refs)
        pass_s = pass_median * REFERENCE_S / ref_median
        print(f"# reference seconds: median {ref_median:.6g} over n={len(refs)} "
              f"(nominal {REFERENCE_S}); pass_s = {pass_s:.6g} s at the "
              f"reference speed")
    names = {"plan": "plan_s", "oracle": "oracle_s"}
    if wl.name in names:
        print(f"# {names[wl.name]} = {pass_median:.6g} s median wall (n={len(walls)})")
    for name, value, unit in wl.summary(records):
        print(f"# {name} = {value:.6g} {unit}")
    passed = sum(c.ok for c in checks)
    metrics = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": _peak_rss_mb(),
        "check_pass_frac": passed / len(checks),
    }
    print(f"# check_fail_frac = {1.0 - metrics['check_pass_frac']:.6g} "
          f"({len(checks) - passed} of {len(checks)} checks failed)")
    return metrics, checks


def run_traced(wl, workload: str, seed: int, env: dict) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    tracer.install()
    wl.setup()
    tracer.uninstall()
    traced, untraced, records = [], [], []
    for i in range(wl.min_passes):
        tracer.install(wl.trace_models())
        t0 = time.perf_counter()
        rec = wl.run_pass(i)
        traced.append(time.perf_counter() - t0)
        tracer.uninstall()
        wl.collect(rec)
        records.append(rec)
        t0 = time.perf_counter()
        wl.run_pass(wl.min_passes + i)
        untraced.append(time.perf_counter() - t0)
    overhead = statistics.median(traced) - statistics.median(untraced)
    print(f"# traced pass seconds {statistics.median(traced):.6g} s, untraced "
          f"{statistics.median(untraced):.6g} s, overhead {overhead:.4g} s "
          f"(n={len(traced)} pairs)")
    metrics = tracing.layer_metrics(tracer, overhead)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "env": env,
                   "fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics, wl.checks(records)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    imports_s = load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    env = envinfo.record()
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, checks = run_traced(wl, args.workload, args.seed, env)
        else:
            metrics, checks = run_timed(wl, args.seconds, imports_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it, or it was never made
            pass

    for c in checks:
        print(f"# check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    units = END_TO_END if not args.trace else {
        k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    for name, value in metrics.items():
        print(f"# metric {name} = {value:.6g} {units[name]}")
    correct = wl.failed_ops == 0 and all(c.ok for c in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": wl.ops,
        "failed": wl.failed_ops,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
