#!/usr/bin/env python3
"""Benchmark driver for qakge.

    python3 perfbench/run.py --workload corpus41-train --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
there, never from an installed copy. One process, one caller, a closed loop:
after set-up (repeated, the median reported) the workload's task runs back
to back until ``--seconds`` are used. The first task warms up (its outputs
are checked, its time is not reported); at least ``MIN_TASKS`` more run.
A fixed reference kernel (``reference.py``) is timed every half second
during the tasks, and each task's time is also reported in units of the
kernel time measured around it, which takes out how fast the shared host
happened to run.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs one set-up and task to warm up, again untraced, then
again traced, and prints every per-layer metric, the tracing overhead and the wall-time share
no span covers. Human-readable lines (with units and sample counts, and the
workload-specific numbers) come first; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from benchstats import median, percentile, reference_units
from benchtrace import EpochClock, Patches, Tracer, install_layers, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_TASKS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_library():
    """Import qakge from this checkout's ``src``; None if it is not there."""
    if not (SRC / "qakge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import qakge

    if Path(qakge.__file__).resolve().parent != (SRC / "qakge").resolve():
        return None
    return qakge


def machine_record() -> str:
    import numpy

    blas = ",".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARS)
    return (f"machine: nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"arch={platform.machine()} blas_threads[{blas}]")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_tasks(workload, state, run, seconds: float, clock, reference) -> None:
    """Closed loop: the next task starts when the previous one returned.

    Task 0 warms up: the first call of a task in a process runs slower, as
    the heap grows. After ``MIN_TASKS`` timed tasks, no task starts that the
    last task's duration says would overrun ``seconds``. Every task starts
    and ends with a reference sample, so the samples cover the stretches
    between hooks.
    """
    start = time.perf_counter()
    for n in itertools.count(0):
        reference.sample()
        first = len(reference.samples) - 1
        begin, t0 = time.perf_counter(), reference.now()
        if workload.task(state, run) and n > 0:
            run.task_s.append(reference.now() - t0)
            reference.sample()
            run.task_ref.append(reference_units(reference.stamps[first:],
                                                reference.samples[first:]))
        if n == 0:
            clock.epochs.clear()
            run.timings.clear()
        now = time.perf_counter()
        if n >= MIN_TASKS and (now - start) + (now - begin) > seconds:
            return


def repeated_setup(workload, seed, run) -> tuple[dict, list[float]]:
    """Set up at least ``SETUP_REPEATS`` times and for ``SETUP_SECONDS``;
    returns the last state and every set-up's duration."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        state = workload.setup(seed, run)
        times.append(time.perf_counter() - t0)
    return state, times


def report_line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value!r:>24} {unit:6s} {note}".rstrip())


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "share" if name.endswith("share") else "count"


def untraced_values(workload, seed: int, seconds: float, run, clock, reference) -> dict:
    """Set up repeatedly, run the timed loop; every end-to-end number."""
    state, setups = repeated_setup(workload, seed, run)
    run_tasks(workload, state, run, seconds, clock, reference)
    if not run.task_s or not clock.epochs:
        return {}
    epochs = f"n={len(clock.epochs)} epochs, exact={clock.exact}"
    tasks = f"median of n={len(run.task_s)} tasks"
    values = {
        "setup_s": (median(setups), "s", f"median of {len(setups)} set-ups"),
        "task_ref_p50": (median(run.task_ref), "ref", tasks),
        "task_s_p50": (median(run.task_s), "s", tasks),
        "reference_s_p50": (median(reference.samples), "s",
                            f"median of n={len(reference.samples)} reference samples"),
        "train_epoch_s_p50": (percentile(clock.epochs, 50), "s", epochs),
        "train_epoch_s_p90": (percentile(clock.epochs, 90), "s", epochs),
        "peak_rss_mb": (peak_rss_mib(), "MiB", "whole process"),
    }
    for name, samples in sorted(run.timings.items()):
        values[name] = (median(samples), "s", f"median of n={len(samples)}")
    values.update(run.report)
    return values


def one_pass(workload, seed: int, run) -> float:
    """One set-up and one task; returns its wall seconds."""
    t0 = time.perf_counter()
    workload.task(workload.setup(seed, run), run)
    return time.perf_counter() - t0


def traced_values(workload, seed: int, run) -> dict:
    """A warm-up pass, one pass untraced, then the same pass traced; per-layer
    numbers. The first pass in a process runs slower, as the heap grows."""
    one_pass(workload, seed, run)
    untraced = one_pass(workload, seed, run)
    tracer = Tracer()
    with Patches() as patches:
        install_layers(tracer, patches)
        traced = one_pass(workload, seed, run)
    print(f"tracing: untraced pass {untraced!r} s, traced pass {traced!r} s, "
          f"of which counting {tracer.total.get('trace.count', 0.0)!r} s")
    for name in patches.absent:
        print(f"absent layer: {name} no longer exists; its metrics read 0")
    for name, why in tracer.uncounted.items():
        print(f"uncounted layer: {name} ({why}); its counts are partial")
    layers = layer_metrics(tracer)
    layers["trace.overhead_share"] = traced / untraced - 1.0
    layers["trace.unattributed_share"] = 1.0 - tracer.covered / traced
    return {name: (value, layer_unit(name), "" if value else "zero on this workload")
            for name, value in layers.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # one caller, no thread pools, steadier timings
        os.environ.setdefault(var, "1")
    if load_library() is None:
        print(f"error: no qakge sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    from reference import Reference  # numpy is imported after the BLAS settings
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    print(machine_record())
    print(f"workload: {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    reference = Reference()
    run = Run(clock=reference.now)
    clock = EpochClock(reference.now)
    with Patches() as patches:
        clock.install(patches)
        if args.trace:
            values = traced_values(workload, args.seed, run)
            wanted = spec["per_layer"]
        else:
            reference.install(patches)
            values = untraced_values(workload, args.seed, args.seconds, run, clock, reference)
            wanted = spec["end_to_end"]
    for name in patches.absent:
        print(f"epoch clock: {name} absent; each epoch gets its train call's mean")

    if not values:
        print("error: no task completed", file=sys.stderr)
        for problem in run.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return 1
    listed = {m["name"] for m in wanted}
    for name, (value, unit, note) in values.items():
        if name not in listed:
            report_line(name, value, unit, f"(printed only{'; ' + note if note else ''})")
    metrics = {}
    for m in wanted:
        value, _, note = values[m["name"]]
        report_line(m["name"], value, m["unit"], f"({note})" if note else "")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report_line("failed_share", run.failed / run.attempted, "",
                f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    digest = hashlib.sha256(json.dumps(run.outputs, sort_keys=True).encode()).hexdigest()
    print(f"outputs: sha256={digest} over {sorted(run.outputs)}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
