#!/usr/bin/env python3
"""Run the benchmark over several seeds; report spreads and check determinism.

    python3 perfbench/sweep.py --workload heldout-plan --seeds 1-10
    python3 perfbench/sweep.py --workload corpus41-train --seeds 1001 --repeat 2

For every end-to-end metric (or per-layer metric with ``--trace 1``) this
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and their distance as a share of the median next to the bound
in ``BENCHMARK.json``. With ``--repeat 2`` or more each seed runs that many
times and every repeat must print bit-identical outputs and quality numbers
(MRR, Hits@10, plan F1, coverage); any difference is reported as drift.
Runs are sequential, one process at a time. Exits 1 on a failed run, a
spread wider than its bound, or drift.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUALITY_LINES = ("mrr", "hits_at_10", "plan_rule_f1", "plan_dim_f1", "planner_covered",
                 "retrieval_covered", "outputs:")


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    quality = [ln for ln in lines if ln.split(" ", 1)[0] in QUALITY_LINES]
    return json.loads(lines[-1]), quality


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write every run's metrics here as JSON")
    args = ap.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bad = False
    record: dict[str, list] = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            firsts = None
            for rep in range(args.repeat):
                result, quality = run_once(workload, seed, args.seconds, args.trace)
                record.setdefault(workload, []).append({"seed": seed, "repeat": rep, **result})
                status = "ok" if result["correct"] else "INCORRECT"
                bad |= not result["correct"]
                if firsts is None:
                    firsts = quality
                    for name in values:
                        values[name].append(result["metrics"][name]["value"])
                elif quality != firsts:
                    status = "DRIFT"
                    bad = True
                print(f"{workload} seed={seed} repeat={rep} {status} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for m in metrics:
            xs = values[m["name"]]
            if len(xs) < 2:
                print(f"  {m['name']}: {xs} (one seed: no spread)")
                continue
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "WIDE")
                bad |= spread > bound and m["name"] != "setup_s"
            print(f"  {m['name']:34s} median={q2!r} q1={q1!r} q3={q3!r} "
                  f"spread={spread:.4f} bound={bound} {verdict}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
