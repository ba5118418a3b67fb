"""hmmsid benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): ``desk`` (the desk-scale experiment),
``phrase`` (long utterances, 24-state order-2 models, Viterbi scoring)
and ``frontend`` (WAV -> LPC cepstra -> caches -> read back).

A run times several set-ups (``setup_s`` is the median), each in a fresh
interpreter (startup.py): import hmmsid and build the inputs from the
seed. Then it repeats whole timed passes while another pass still fits in
``--seconds`` (at least one); ``wall_s`` is the median pass. Every time is
reported rescaled to reference machine speed, from calibration loops
sampled between operations (speed.py), and the raw times beside them.
``peak_rss_mb`` is read after the first pass, so it does not depend on how
many passes fit. ``--trace 1`` is a separate run instead: it sets up and
runs one pass with spans around every call into the hmmsid modules and
reports per-layer numbers (raw seconds). Every later pass's outputs are
checked against those of the first; the first pass's are checked against
an independent recomputation and, where one is recorded for the seed,
against the seed commit's outputs under ``perfbench/reference``.

It prints a human-readable report, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics listed in BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``). The full record, with the environment,
goes to ``.bench_results/``. Exit status: 0 when every check passes,
1 when an output is wrong, 2 when the program's sources are missing.
``--record`` writes the reference for the seed instead of comparing.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("desk", "phrase", "frontend"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write the reference outputs for this seed instead of comparing")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def tail(samples):
    """Highest of p99/p90 with at least 10 samples beyond it, else None."""
    import numpy as np

    for q in (99, 90):
        value = float(np.percentile(samples, q))
        if sum(s > value for s in samples) >= 10:
            return value, f"p{q}"
    return None


def end_to_end(name, setups, passes, peak_rss_mb) -> dict:
    """{metric: (value or None, unit, detail)} for the workload's metrics;
    None marks a metric this workload does not exercise or cannot give.
    Times are rescaled to reference machine speed (speed.py); the ``raw``
    metrics are as measured."""
    ops = [op for p in passes for op in p.ops]
    walls = [p.wall_s for p in passes]
    speeds = [f for p in passes for f in p.speed]
    m = {
        "setup_s": (statistics.median(s for s, _ in setups), "s",
                    f"median of {len(setups)} set-ups"),
        "setup_raw_s": (statistics.median(r for _, r in setups), "s", "as measured"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} timed passes"),
        "wall_raw_s": (statistics.median(p.raw_wall_s for p in passes), "s", "as measured"),
        "machine_speed": (statistics.median(speeds), "x",
                          f"median of {len(speeds)} calibration samples, 1 = reference"),
    }

    def op_group(kind, prefix, unit, scale, rate_name, rate_unit):
        secs = [op.seconds for op in ops if op.kind == kind and not op.failed]
        if not secs:
            for key in (rate_name, f"{prefix}_p50", f"{prefix}_tail"):
                m[key] = (None, rate_unit if key == rate_name else unit, f"no {kind} operations")
            return
        m[rate_name] = (len(secs) / sum(secs), rate_unit, f"{len(secs)} {kind} calls")
        m[f"{prefix}_p50"] = (scale * statistics.median(secs), unit, f"n={len(secs)}")
        t = tail(secs)
        m[f"{prefix}_tail"] = ((scale * t[0], unit, f"{t[1]}, n={len(secs)}") if t else
                               (None, unit, f"no percentile with 10 samples beyond it, n={len(secs)}"))

    op_group("enroll", "model_s", "s", 1.0, "models_per_s", "models/s")
    op_group("identify", "trial_ms", "ms", 1000.0, "trials_per_s", "trials/s")
    audio = sum(p.audio_s for p in passes)
    m["audio_x_realtime"] = ((audio / sum(walls), "x", f"{audio:.1f} audio s in {len(walls)} passes")
                             if audio else (None, "x", "no audio"))
    op_group("extract", "utt_ms", "ms", 1000.0, "utts_per_s", "utts/s")
    primary = "utts_per_s" if name == "frontend" else "trials_per_s"
    m["ops_per_s"] = (m[primary][0], "1/s", f"= {primary}, this workload's repeated operation")
    m["peak_rss_mb"] = (peak_rss_mb, "MB",
                        "max resident set of this process through the first pass")
    failed = sum(op.failed for op in ops)
    m["failed_ops_frac"] = (failed / len(ops) if ops else 0.0, "ratio",
                            f"{failed} of {len(ops)} enroll/identify/extract calls raised")
    return m


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def timed_setup(args, workdir):
    """One set-up in a fresh interpreter (startup.py): (rescaled, raw) seconds."""
    cmd = [sys.executable, os.path.join(HERE, "startup.py"), args.workload, str(args.seed),
           workdir] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    timing = json.loads(out.strip().splitlines()[-1])
    return timing["scaled_s"], timing["raw_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hmmsid", "__init__.py")):
        print(f"error: hmmsid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    import hmmsid

    if os.path.dirname(os.path.dirname(os.path.abspath(hmmsid.__file__))) != SRC:
        print(f"error: imported hmmsid from {hmmsid.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(workdir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir, tiny=args.tiny)

        wl.prepare()
        metrics = layers = None
        problems = []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(hmmsid)
            try:
                with tracer.span("bench.setup"):
                    state = wl.setup()
                root = len(tracer.start)
                with tracer.span("bench.pass"):
                    passes = [wl.run_pass(state)]
            finally:
                tracer.uninstall()
            layers = tracing.layer_metrics(tracer, root, tracing.span_cost())
            tracer.write(os.path.join(results_dir, f"{tag}-spans.json.gz"))
            summary = checks.summarize(args.workload, passes[0].outputs)
        else:
            setups = [timed_setup(args, workdir) for _ in range(SETUP_REPEATS)]
            state = wl.setup()
            start = time.perf_counter()
            passes = [wl.run_pass(state)]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            summary = checks.summarize(args.workload, passes[0].outputs)
            while (time.perf_counter() - start
                   + statistics.median(p.raw_wall_s for p in passes)) <= args.seconds:
                p = wl.run_pass(state)
                if checks.summarize(args.workload, p.outputs) != summary:
                    problems.append(f"pass {len(passes)} produced different outputs from pass 0")
                p.outputs = None  # the first pass's outputs are checked in full below
                passes.append(p)
            metrics = end_to_end(args.workload, setups, passes, peak_rss_mb)

        problems += [f"pass {i}: {err.strip().splitlines()[-1]}"
                     for i, p in enumerate(passes) for err in p.errors]
        underflow = None
        if args.workload == "frontend":
            problems += checks.oracle_frontend(passes[0].outputs, wl.config)
        else:
            found, underflow = checks.oracle_speaker(passes[0].outputs, wl.params["scoring"])
            problems += found
        reference_note = "independent recomputation only (no recorded reference for this seed)"
        if args.record:
            if not problems:
                reference_note = "recorded " + checks.write_reference(args.workload, args.seed, summary)
        elif not args.tiny:
            ref = checks.load_reference(args.workload, args.seed)
            if ref is not None:
                problems += checks.compare(args.workload, summary, ref)
                reference_note = f"seed commit's outputs ({os.path.relpath(checks.reference_path(args.workload, args.seed), ROOT)})"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    why = next(w["why"] for w in contract["workloads"] if w["name"] == args.workload)
    report(args, why, wl.params, env, metrics, layers, summary, problems, reference_note, underflow)

    values = layers if args.trace else metrics
    out_metrics = {}
    for spec in wanted:
        value, unit = values[spec["name"]][:2]
        if value is None or unit != spec["unit"]:
            raise SystemExit(f"metric {spec['name']} is not measured by workload {args.workload}"
                             f" or its unit {unit} differs from BENCHMARK.json")
        out_metrics[spec["name"]] = {"value": value, "unit": unit}
    ops = [op for p in passes for op in p.ops]
    result = {"correct": not problems, "attempted": len(ops),
              "failed": sum(op.failed for op in ops), "metrics": out_metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "why": why, "params": wl.params,
              "environment": env, "reference": reference_note, "problems": problems,
              "forward_underflow": underflow,
              "end_to_end": {k: list(v) for k, v in (metrics or {}).items()},
              "per_layer": {k: list(v) for k, v in (layers or {}).items()}, "result": result}
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0 if not problems else 1


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(args, why, params, env, metrics, layers, summary, problems, reference_note, underflow):
    print(f"hmmsid benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"why: {why}")
    print("environment: " + json.dumps(env))
    print("parameters: " + json.dumps(params))
    if metrics is not None:
        print("end-to-end (tracing off):")
        for name, (value, unit, detail) in metrics.items():
            print(f"  {name:<18} {_fmt(value):>12} {unit:<9} {detail}")
    if layers is not None:
        print("per-layer (traced run, raw seconds):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<38} {_fmt(value):>14} {unit}")
    if "variants" in summary:
        for label, v in summary["variants"].items():
            acc = ", ".join(f"{c} {a:.1f}%" for c, a in v["accuracy"].items())
            print(f"accuracy {label}: {acc}")
    print(f"reference check: {reference_note}")
    if underflow and underflow["scores_off"]:
        print("known defect, not counted as a failure: the scaled forward pass left float64's "
              f"normal range and drifted in {underflow['scores_off']} scores of "
              f"{underflow['trials_affected']} trials (up to {underflow['max_error_nats']:.1f} "
              f"nats from the exact log-likelihood); {underflow['decisions_unlike_exact']} "
              "decisions differ from the exact-likelihood decision")
    if problems:
        print(f"CHECK FAILED ({len(problems)} problems):")
        for line in problems[:20]:
            print(f"  {line}")
    else:
        print("checks: all outputs correct")


if __name__ == "__main__":
    sys.exit(main())
