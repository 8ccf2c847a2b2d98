#!/usr/bin/env python3
"""Repeatability report for the pipeline ledger.

Runs perfbench/run.py (untraced) once per seed on each workload and
prints, per end-to-end metric, the median, the quartiles and the
run-to-run spread ((q3 - q1) / median) against the metric's bound in
BENCHMARK.json.  A spread passes when it is below a third of the
bound; setup_s has no spread requirement, only its median is compared.
For pipelines_per_s it also prints the spread each pass-time
estimator (mean, median and fastest pass) would give.

    python3 perfbench/report.py [--workloads a,b] [--runs 10]
                                [--seed0 1] [--seed-step 100003]
                                [--save FILE] [--load FILE]
                                [--against FILE]

Run i uses seed seed0 + i * seed-step.  The step keeps the runs'
forge-strict candidate windows (scenarios seed, seed + 1, ...) apart,
so that the runs do not share scenarios.

--save writes every run's result to FILE and --load reports on such a
file without running; --against FILE compares this
set's medians with a saved set's and flags a metric whose median got
worse by more than its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect result %s"
                         % (workload, seed, result))
    return {"seed": seed, "detail": detail,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def worse_by(new, old, better):
    """How much worse @p new is than @p old, as a share of @p old."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    return (old - new) / old if better == "higher" else (new - old) / old


def report(results, bench, against):
    specs = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        n = len(runs)
        print("\n%s: %d runs, seeds %s" % (
            workload, n, ",".join(str(r["seed"]) for r in runs)))
        print("  %-24s %12s %12s %12s %8s %6s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, spec in specs.items():
            values = [r["metrics"][name] for r in runs
                      if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3, spread = metrics.quartiles(values)
            bound = spec["bound"]
            if name == "setup_s":
                verdict = "median only"
            else:
                verdict = "ok" if spread < bound / 3 else "TOO NOISY"
                ok = ok and spread <= bound
            if against and workload in against:
                old = [r["metrics"][name] for r in against[workload]
                       if name in r["metrics"]]
                if old:
                    w = worse_by(med, statistics.median(old), spec["better"])
                    verdict += "; %s than saved by %.4f" % (
                        "worse" if w > 0 else "better", abs(w))
                    if w > bound:
                        verdict += " REGRESSED"
                        ok = False
            print("  %-24s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" % (
                name, q1, med, q3, spread, bound, verdict))
        for est in ("mean", "median", "min"):
            rates = [r["detail"]["pipelines_per_pass"] / metrics.pass_time(
                r["detail"]["pass_wall_s"], est) for r in runs]
            print("  pipelines_per_s with the %-6s pass: spread %.4f" % (
                est, metrics.quartiles(rates)[3]))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seed-step", type=int, default=100003)
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--save")
    ap.add_argument("--load", help="report on a saved set instead of running")
    ap.add_argument("--against")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    results = {}
    if args.load:
        results = json.loads(pathlib.Path(args.load).read_text())
        workloads = []
    for w in workloads:
        results[w] = []
        for i in range(args.runs):
            r = run_once(w, args.seed0 + i * args.seed_step, seconds)
            print("%s seed %d: %s" % (w, r["seed"], json.dumps(r["metrics"])),
                  file=sys.stderr, flush=True)
            results[w].append(r)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(results, indent=1))
    against = json.loads(pathlib.Path(args.against).read_text()) \
        if args.against else None
    return 0 if report(results, bench, against) else 1


if __name__ == "__main__":
    sys.exit(main())
