"""Benchmark of the multigauss library and CLI: one workload per run.

    python3 perfbench/run.py --workload fit|sampling|cli --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/`` directory (nothing is installed).  A closed loop with one caller
issues one operation at a time, checks its output, and stops after the first
whole round once ``--seconds`` of operation time and at least 100 correct
operations are reached.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs a fixed number of rounds with every layer wrapped and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy is loaded (2-core machines)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Fresh ``-X importtime`` interpreters per traced run (medians reported).
IMPORTTIME_PROBES = 3
#: Fewest operations of a run, so that ten latency samples lie beyond its p90.
MIN_OPS = 100
#: Rounds of a traced run: fixed, so its counts repeat exactly for a seed.
TRACE_ROUNDS = {"fit": 10, "sampling": 1, "cli": 1}

_PROBE = ("import sys; sys.path.insert(0, {src!r}); import {module}; "
          "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def _probe_argv(module: str, *flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", _PROBE.format(src=SRC, module=module)]


def setup_seconds(module: str, host: HostSpeed) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to having ``module`` imported.

    Returns the median of the quiet-host times and the median of the raw times.
    """
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            host.sample(force=True)
        t0 = time.perf_counter()
        with subprocess.Popen(_probe_argv(module), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"a fresh interpreter could not import {module}")
        times.append(raw[-1] * host.scale())
    return statistics.median(times), statistics.median(raw)


def import_metrics(module: str) -> dict[str, float]:
    """Layer ``import``: medians over fresh ``python -X importtime`` runs."""
    keys = ("import.multigauss_ms", "import.scipy_ms", "import.cli_ms", "import.verify_ms")
    samples = {k: [] for k in keys}
    for _ in range(IMPORTTIME_PROBES):
        cumulative = {}
        scipy_self = 0
        proc = subprocess.run(_probe_argv(module, "-X", "importtime"), capture_output=True,
                              text=True, check=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the header line
            name = name.strip()
            cumulative[name] = int(cum_us)
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += int(self_us)
        samples["import.multigauss_ms"].append(cumulative.get("multigauss", 0) / 1e3)
        samples["import.scipy_ms"].append(scipy_self / 1e3)
        samples["import.cli_ms"].append(cumulative.get("multigauss.cli", 0) / 1e3)
        samples["import.verify_ms"].append(cumulative.get("multigauss.verify", 0) / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


def measure(workload, seconds: float, rounds: int | None, tracer, host: HostSpeed) -> dict:
    """Closed loop over whole rounds; returns latencies and failure counts.

    ``latencies`` and ``busy`` are in quiet-host seconds (see `hostspeed`);
    the stopping rule counts raw seconds.
    """
    latencies, raw, every, every_raw = [], [], [], []
    attempted, failed, busy, correct = 0, 0, 0.0, True
    raw_busy = 0.0
    r = 0
    while True:
        for op in workload.round(r):
            if tracer is not None:
                tracer.op_id = attempted
            host.sample()
            t0 = time.perf_counter()
            try:
                result, error = workload.run(op), None
            except Exception as exc:  # an operation that raises is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            scaled = dt * host.scale()
            raw_busy += dt
            busy += scaled
            every.append(scaled)
            every_raw.append(dt)
            attempted += 1
            if error is None:
                error = workload.check(op, result)
            if error is None:
                latencies.append(scaled)
                raw.append(dt)
                continue
            failed += 1
            if not op.fault:
                correct = False
                sys.stderr.write(f"FAILED {op.kind} M={op.m:g}: {error}\n")
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif raw_busy >= seconds and attempted >= MIN_OPS:
            break
    if len(latencies) < 2:  # a broken program: time every operation rather than none
        latencies, raw = every, every_raw
    return {"latencies": latencies, "raw": raw, "attempted": attempted, "failed": failed,
            "busy": busy, "raw_busy": raw_busy, "correct": correct, "rounds": r}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fit", "sampling", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "multigauss", "__init__.py")):
        sys.stderr.write(f"no package source under {SRC}: run from a checkout of the repo\n")
        return 2
    sys.path.insert(0, SRC)

    import workloads
    from tracing import Tracer

    cls = {"fit": workloads.Fit, "sampling": workloads.Sampling, "cli": workloads.Cli}[
        args.workload]
    importlib.import_module(cls.module)  # compiles the bytecode before any probe
    metrics = {}
    host = HostSpeed()
    if args.trace:
        metrics.update(import_metrics(cls.module))
    else:
        setup_s, raw_setup_s = setup_seconds(cls.module, host)

    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tracer = Tracer() if args.trace else None
    if args.workload == "cli":
        workload = cls(args.seed, run_dir, tracer)
    else:
        workload = cls(args.seed)
    if tracer is not None:
        tracer.install()

    res = measure(workload, args.seconds, TRACE_ROUNDS[args.workload] if args.trace else None,
                  tracer, host)
    shutil.rmtree(run_dir, ignore_errors=True)

    lat_ms = [t * 1e3 for t in res["latencies"]]
    if args.trace:
        tracer.save(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz"))
        metrics.update(tracer.metrics())
    else:
        if args.workload == "cli":
            peak_kb = workload.peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics.update({
            "setup_s": setup_s,
            "ops_per_s": (res["attempted"] - res["failed"]) / res["busy"],
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "peak_rss_mb": peak_kb / 1024.0,
        })
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {d["name"] for d in declared} != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    raw_ms = [t * 1e3 for t in res["raw"]]
    summary = (f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
               f"{res['attempted']} operations ({len(lat_ms)} correct, latency samples), "
               f"{res['raw_busy']:.2f} s busy ({res['busy']:.2f} s quiet-host); raw wall times: "
               f"ops_per_s {len(raw_ms) / res['raw_busy']:.4g}, "
               f"p50 {statistics.median(raw_ms):.4g} ms, "
               f"p90 {statistics.quantiles(raw_ms, n=10)[8]:.4g} ms")
    if not args.trace:
        summary += f", setup {raw_setup_s:.4g} s"
    sys.stderr.write(summary + "\n")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
