#!/usr/bin/env python3
"""Benchmark of the DeepStrike reproduction's user-facing pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fig5b-fxp --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, throughput,
peak memory); ``--trace 1`` runs untraced and traced units in pairs and
prints the per-layer breakdown, with the tracing overhead.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md for the workloads, metrics,
and what is deliberately left unmeasured.
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

ROOT = Path(__file__).resolve().parents[1]
SPAN_DIR = ROOT / ".perfbench"
#: Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 3
#: Fewest timed units (trace 0) and untraced/traced pairs (trace 1).
MIN_UNITS = 3
MIN_PAIRS = 2
PROBE_TIMEOUT_S = 120
#: Paper's reported CONV2 accuracy drop at 4500 strikes (Fig 5b).
PAPER_CONV2_DROP = 0.14
WORKLOADS = ("fig5b-fxp", "fig5b-fp32", "blackbox", "arms-race")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _prepare_environment() -> None:
    """Point imports at this checkout and cap BLAS threads at nproc
    (before numpy loads; children inherit the environment)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro package under {ROOT}")
    threads = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    sys.path.insert(0, src)


def _setup(name: str, seed: int, tracer=None):
    """Fresh interpreter to ready: import the CLI, load the victim,
    build one unit's engine/attack/sensor or study.  Returns the
    workload and the three phase times."""
    start = time.perf_counter()
    span = tracer.begin("cli.import") if tracer else None
    import repro.cli  # noqa: F401  (the import cost every CLI call pays)
    imported = time.perf_counter()
    if tracer:
        tracer.end(span)
        import tracing
        tracing.install(tracer)
    from repro import zoo
    victim = zoo.get_pretrained()
    loaded = time.perf_counter()
    import workloads
    workload = workloads.make(name, victim, seed)
    if tracer:
        tracer.call("setup.build", workload.build)
        tracer.uninstall()
    else:
        workload.build()
    built = time.perf_counter()
    return workload, {"import_s": imported - start,
                      "get_pretrained_s": loaded - imported,
                      "build_s": built - loaded}


def _probe_setup(name: str, seed: int):
    """Time one fresh interpreter from spawn to its ready line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return ready, json.loads(line)


def _tail(values):
    """Highest standard percentile with at least ten samples beyond it."""
    import numpy as np

    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None


def _describe(label: str, values) -> str:
    tail = _tail(values)
    text = (f"{label}: median {statistics.median(values):.4f} s, "
            f"n={len(values)}")
    if tail is None:
        return text + ", no percentile has 10 samples beyond it"
    return text + f", p{tail[0]:g} {tail[1]:.4f} s"


def _failed_ops(workload, reference, results, twins=None) -> int:
    """Operations failing any check, counted over the reference and
    every later unit, each at most once.  ``twins[i]``, if not None, is
    the untraced unit that the traced ``results[i]`` must reproduce.
    The run-level checks run here, outside the timed region."""
    bad_keys = workload.check(reference)
    twins = [None] + (twins or [None] * len(results))
    failed = 0
    for result, twin in zip([reference] + results, twins):
        bad = set(result.failed)
        if twin is not None:
            keys = set(result.ops) | set(twin.ops)
            bad |= {k for k in keys if result.ops.get(k) != twin.ops.get(k)}
        if workload.repeats_inputs:
            # Every unit repeats the reference call: it must emit the
            # same bytes, and a check failed on the reference fails
            # every copy.
            keys = set(result.ops) | set(reference.ops)
            bad |= bad_keys | {k for k in keys
                               if result.ops.get(k) != reference.ops.get(k)}
        failed += len(bad)
    return failed


def _units(section: str):
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _emit(correct, attempted, failed, metrics, section):
    units_of = _units(section)
    if set(metrics) != set(units_of):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(metrics) ^ set(units_of))}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units_of[name]}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()}}))


def _host_line() -> str:
    import numpy
    import scipy

    return (f"host: nproc={_nproc()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def run_end_to_end(name: str, seed: int, seconds: float) -> None:
    workload, _ = _setup(name, seed)
    # An untimed first unit finishes lazy imports and is the reference
    # the timed units are checked against.
    reference = workload.unit(0)

    # Set-up probes are spread between the timed units, so both sample
    # the whole run rather than one stretch of a drifting shared host.
    # The victim archive is in the page cache by now; every probe reads
    # it warm, as a repeated CLI call does.
    probes, timings, results = [], [], []
    start = time.perf_counter()
    while len(results) < MIN_UNITS or sum(timings) < seconds:
        if (len(probes) < SETUP_PROBES
                and sum(timings) >= seconds * len(probes) / SETUP_PROBES):
            probes.append(_probe_setup(name, seed))
        t0 = time.perf_counter()
        results.append(workload.unit(len(results) + 1))
        timings.append(time.perf_counter() - t0)
    while len(probes) < SETUP_PROBES:
        probes.append(_probe_setup(name, seed))
    elapsed = time.perf_counter() - start
    # Read before the checks, whose reruns are not the workload.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = _failed_ops(workload, reference, results)
    attempted = sum(len(r.ops) for r in [reference] + results)

    print(_host_line())
    print(f"workload {name}: closed loop, 1 client; {len(results)} timed "
          f"units ({sum(timings):.2f} s) and {SETUP_PROBES} set-up probes "
          f"in {elapsed:.2f} s (seed {seed})")
    print(_describe("unit time", timings))
    lags = [r.info["trigger_lag"] for r in results
            if r.info.get("trigger_lag") is not None]
    if lags:
        print(f"detector false triggers (before the first layer): "
              f"{sum(lag < 0 for lag in lags)} of {len(lags)} sessions")
    ready = [p[0] for p in probes]
    print(f"set-up (fresh interpreter to ready, {SETUP_PROBES} probes): "
          + ", ".join(f"{r:.3f}" for r in ready) + " s; phases of probe 1: "
          + ", ".join(f"{k} {v:.3f}" for k, v in probes[0][1].items()))
    metrics = {
        "setup_s": statistics.median(ready),
        "cells_per_s": statistics.median(
            r.info["cells"] / t for r, t in zip(results, timings)),
        "sessions_per_s": statistics.median(1.0 / t for t in timings),
        "peak_rss_mb": peak_mb,
    }
    _emit(failed == 0, attempted, failed, metrics, "end_to_end")


def run_traced(name: str, seed: int, seconds: float) -> None:
    import tracing

    tracer = tracing.Tracer()
    workload, phases = _setup(name, seed, tracer)
    reference = workload.unit(0)

    # Untraced and traced units alternate, in pairs over the same
    # inputs; the traced unit must reproduce the untraced bytes.
    plain_t, traced_t, results, twins = [], [], [], []
    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_PAIRS or time.perf_counter() - start < seconds:
        pairs += 1
        outputs = {}
        for traced in ((False, True) if pairs % 2 else (True, False)):
            if traced:
                tracer.unit = pairs
                tracing.install(tracer)
            t0 = time.perf_counter()
            try:
                outputs[traced] = workload.unit(pairs)
            finally:
                (traced_t if traced else plain_t).append(
                    time.perf_counter() - t0)
                if traced:
                    tracer.uninstall()
        results.extend((outputs[False], outputs[True]))
        twins.extend((None, outputs[False]))
    elapsed = time.perf_counter() - start

    failed = _failed_ops(workload, reference, results, twins)
    attempted = sum(len(r.ops) for r in [reference] + results)

    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(span_path)

    metrics = {"cli.import_s": phases["import_s"],
               "zoo.get_pretrained_s": phases["get_pretrained_s"],
               "setup.build_s": phases["build_s"]}
    metrics.update(tracing.layer_metrics(tracer, pairs))
    lags = [r.info["trigger_lag"] for r in results[1::2]
            if r.info.get("trigger_lag") is not None]
    early = [lag for lag in lags if lag < 0]
    metrics["detector.trigger_lag_ticks"] = statistics.mean(
        [lag for lag in lags if lag >= 0] or [0])
    metrics["detector.false_trigger_frac"] = \
        len(early) / len(lags) if lags else 0.0
    drops = reference.info.get("max_drops", {})
    for target in tracing.ENGINE_TARGETS:
        metrics[f"sim.max_drop.{target}"] = float(drops.get(target, 0.0))
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced_t, plain_t)) - 1.0

    print(_host_line())
    print(f"workload {name}: {pairs} untraced/traced unit pairs in "
          f"{elapsed:.2f} s (seed {seed}); {len(tracer.spans)} spans "
          f"written to {span_path.relative_to(ROOT)}")
    print(_describe("untraced unit time", plain_t))
    print(_describe("traced unit time", traced_t))
    if "conv2" in drops:
        print(f"sim.max_drop.conv2 {drops['conv2']:.4f} (paper Fig 5b: "
              f"~{PAPER_CONV2_DROP:.2f} at 4500 strikes; the simulator is "
              "not validated against hardware)")
    _emit(failed == 0, attempted, failed, metrics, "per_layer")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    _prepare_environment()
    if args.probe_setup:
        _, phases = _setup(args.workload, args.seed)
        print(json.dumps(phases), flush=True)
        return 0
    if args.trace:
        run_traced(args.workload, args.seed, args.seconds)
    else:
        run_end_to_end(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
