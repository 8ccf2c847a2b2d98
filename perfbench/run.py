#!/usr/bin/env python3
"""Pipeline ledger: one benchmark run of the Jrpm Fig. 1 pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper-suite|forge-strict>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the Jrpm libraries and the ledger harness from source into
.bench_build/ (Release), runs the harness, and prints two lines: a
detail line (the seed, the pass-time estimator and every untraced pass
time) and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are every end-to-end metric BENCHMARK.json
names, with --trace 1 every per-layer metric, on every workload.  The
traced run's spans are written to
.bench_build/spans-<workload>-<seed>.json.  Exits non-zero without a
result when the build, the run or a determinism check fails, or when
the metrics differ from the ones BENCHMARK.json names.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "jrpm_ledger"
WORKLOADS = ("paper-suite", "forge-strict")

# Hard limits so a hung build or run cannot outlive the run's budget.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def declared():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json
    declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in bench[kind]}
                 for kind in ("end_to_end", "per_layer"))


def run(cmd, timeout, stdout):
    """Run @p cmd in its own process group and return its output; on a
    timeout kill the whole group (a build's compilers too) and wait."""
    with subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def build():
    """Configure (a no-op check once configured), then let the build
    tool decide what is stale."""
    run(["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
    run(["cmake", "--build", str(BUILD), "--target", "jrpm_ledger",
         "-j", "4"], BUILD_TIMEOUT_S, sys.stderr)


def measure(args):
    return json.loads(run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, subprocess.PIPE))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        e2e_units, layer_units = declared()
        units = layer_units if args.trace else e2e_units
        build()
        doc = measure(args)
        e2e, layer, attempted, failed = metrics.summarize(doc)
        shown = layer if args.trace else e2e
        if set(shown) != set(units):
            raise KeyError(
                "metrics differ from BENCHMARK.json: missing %s, "
                "undeclared %s" % (sorted(set(units) - set(shown)),
                                   sorted(set(shown) - set(units))))
    except (subprocess.SubprocessError, OSError, ValueError,
            KeyError, metrics.NonDeterminism) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    if args.trace:
        spans = BUILD / ("spans-%s-%d.json" % (args.workload, args.seed))
        spans.write_text(json.dumps(doc["spans"]))
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed,
        "estimator": metrics.ESTIMATORS[args.workload],
        "pipelines_per_pass": len(doc["passes"][0]["pipelines"]),
        "pass_wall_s": [p["wall_ms"] / 1000.0 for p in doc["passes"]
                        if p["kind"] == "untraced"],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(shown.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
