"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over the median),
against the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload desk --seeds 0-9 [--record] [--out FILE]

Runs are made one after another, each its own process, with the
``run_seconds`` of BENCHMARK.json. ``--out`` also writes every run's
result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    p.add_argument("--record", action="store_true", help="record each seed's reference outputs")
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}

    doc = {}
    status = 0
    for workload in args.workload:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", "0"] + (["--record"] if args.record else []),
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      + "\n".join(lines[-15:]) + proc.stderr[-2000:])
                status = 1
                continue
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        if len(runs) >= 2:
            for name in runs[0]["metrics"]:
                summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
                s = summary[name]
                bound = bounds.get(name)
                mark = "" if bound is None else f"  bound {bound:g} ({'ok' if s['spread'] <= bound else 'WIDER'})"
                print(f"  {workload:<9} {name:<22} median {s['median']:.6g}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{mark}")
        doc[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
