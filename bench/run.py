"""Benchmark of the disknorms package: one workload per run, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` in process.  With ``--trace 0`` the run measures the end-to-end
metrics: set-up time in fresh interpreters, then whole rounds of the
workload's operations until ``--seconds`` have passed; times are reported
at reference speed (see ``speed.py``).  With ``--trace 1``
it wraps each layer of the package (see ``layers.py``), runs the workload's
fixed number of trace rounds, so that counts repeat exactly for a seed, and
reports the per-layer metrics.  Either way every output is checked
afterwards, and the last line of standard output is the JSON result.
Result and trace files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 11


def load_package():
    """Import disknorms and its CLI from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "disknorms", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}/disknorms")
    sys.path[:0] = [SRC, BENCH]
    import disknorms
    import disknorms.cli
    if not os.path.abspath(disknorms.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: disknorms imported from {disknorms.__file__}, not from {SRC}")
    return disknorms, disknorms.cli


def make_workload(name: str, dn, cli):
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    return workloads.WORKLOADS[name](dn, cli, OUT_DIR)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time, raw and scaled to reference speed, of a fresh interpreter
    that imports the package and the CLI and generates the workload's
    inputs; one unmeasured warm-up.

    A set-up spans many switches of the machine's speed, so its time is
    scaled by the median of the calibrations taken between interpreters,
    not by the two around it.  No timeout is passed: with one, subprocess
    polls for the child's exit in sleeps of up to 50 ms, which would
    quantize the measurement."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times, calibrations = [], [speed.calibration()]
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
        calibrations.append(speed.calibration())
    raw = statistics.median(times)
    return raw, speed.scaled(raw, statistics.median(calibrations))


def run(args) -> dict:
    dn, cli = load_package()
    import layers
    import oracles
    wl = make_workload(args.workload, dn, cli)
    problems = [f"oracle self-check: {e}" for e in oracles.self_check(dn)]
    setup_raw_s, setup_s = (None, None) if args.trace else measure_setup(args.workload, args.seed)
    items = wl.make_inputs(args.seed)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install(dn)
    rounds = []
    t0 = time.perf_counter()
    while True:
        item = items[len(rounds) % len(items)]
        rounds.append((item, wl.run_round(item)))
        if args.trace:
            if len(rounds) >= wl.trace_rounds:
                break
        elif time.perf_counter() - t0 >= args.seconds:
            break
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layer_metrics, layer_self = tracer.metrics()
        tracer.uninstall()

    for item, ops in rounds:
        wl.check_round(item, ops)
    if hasattr(wl, "check_run"):
        problems += wl.check_run()
    ops = [op for _, ops in rounds for op in ops]
    failed = [op for op in ops if op.failed]
    timed = [op for op in ops if op.calibration_s is not None]
    scaled = speed.scaled_sequence([op.seconds for op in timed],
                                   [op.calibration_s for op in timed])

    if tracer is None:
        # times at reference speed (speed.py); the upper median is a
        # latency some operation had, never the mean of two different kinds
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(ops) / sum(scaled),
            "op_p50_ms": statistics.median_high(scaled) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = layer_metrics
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if tracer else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }

    tag = f"{args.workload}-{args.seed}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(rounds), elapsed_s=elapsed,
                  raw={"setup_s": setup_raw_s, "ops_per_s": len(ops) / elapsed,
                       "op_p50_ms": statistics.median_high(op.seconds for op in ops) * 1e3},
                  problems=problems, python=sys.version.split()[0], nproc=os.cpu_count(),
                  ops=[{"name": op.name, "seconds": op.seconds,
                        "calibration_s": op.calibration_s, "error": op.error,
                        "problems": op.problems} for op in ops])
    if tracer is not None:
        total = sum(layer_self.values()) or 1.0
        record["layer_self_s"] = layer_self
        record["layer_share"] = {k: v / total for k, v in layer_self.items()}
    name = ("trace-" if args.trace else "result-") + tag + ".json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    messages = problems + [f"{op.name} failed: {op.error or '; '.join(op.problems)}"
                           for op in failed]
    for message in dict.fromkeys(messages):
        print(f"bench: {message} (x{messages.count(message)})", file=sys.stderr)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("member-verdicts", "closed-form-sweep", "cli-pointwise"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        dn, cli = load_package()
        make_workload(args.workload, dn, cli).make_inputs(args.seed)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
