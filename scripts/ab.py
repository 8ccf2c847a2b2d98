#!/usr/bin/env python3
"""Interleaved A/B of the pipeline ledger across two checkouts.

Runs perfbench/run.py (untraced) in a base and a change checkout,
N pairs per workload, alternating which side runs first, and prints
per end-to-end metric each side's median and quartiles, the ratio of
the medians (change / base) and how many pairs the change won.

    python3 scripts/ab.py --base DIR --change DIR [--pairs 10]
                          [--seed0 7000001] [--seed-step 100003]
                          [--claim workload:metric ...]
                          [--save FILE] [--load FILE]

Every workload of BENCHMARK.json runs at its run_seconds on both
sides.  Pair i runs both sides on seed seed0 + i * seed-step; pick
seed0 so that the seeds were not used while the change was written.
Each checkout runs through its own perfbench/ (run.py's build before
the first pair, report.py's run_once per run), so no build lands
inside a timed pair.

Verdicts per metric and workload, against BENCHMARK.json's bounds:
  gain        the change won at least 9/10 of the pairs (ties count
              for neither side) and the medians differ, in the
              better direction, by more than the base's interquartile
              range;
  worse       the change's median is worse than the base's by more
              than the metric's bound;
  unresolved  the base's own spread ((q3 - q1) / median) exceeds the
              bound, and not every change run beats every base run;
  within      none of the above: no change beyond the bound.
Each --claim must come out "gain"; the exit status is non-zero when a
claim fails or any metric comes out "worse".  --save writes every
run's metrics; --load reports on such a file without running.
"""

import argparse
import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import metrics  # noqa: E402
from report import worse_by  # noqa: E402

SIDES = ("base", "change")


def perfbench_module(checkout, name, side):
    """perfbench/<name>.py of @p checkout, loaded under its own name
    so that its paths are the checkout's."""
    spec = importlib.util.spec_from_file_location(
        "%s_%s" % (name, side), checkout / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def median(values):
    return metrics.quartiles(values)[1]


def better(new, old, direction):
    return new > old if direction == "higher" else new < old


def verdict(base, change, spec):
    """The verdict on one metric; see the module docstring."""
    pairs = len(base)
    wins = sum(better(c, b, spec["better"]) for b, c in zip(base, change))
    bq1, bmed, bq3, spread = metrics.quartiles(base)
    cmed = median(change)
    if (wins * 10 >= pairs * 9 and better(cmed, bmed, spec["better"]) and
            abs(cmed - bmed) > bq3 - bq1):
        return wins, "gain"
    if worse_by(cmed, bmed, spec["better"]) > spec["bound"]:
        return wins, "worse"
    if spread > spec["bound"]:
        separated = (min(change) > max(base) if spec["better"] == "higher"
                     else max(change) < min(base))
        if not separated:
            return wins, "unresolved"
    return wins, "within"


def report(results, specs, claims):
    ok = True
    for workload, pairs in results.items():
        n = len(pairs)
        print("\n%s: %d pairs, seeds %s" % (
            workload, n, ",".join(str(p["seed"]) for p in pairs)))
        print("  %-24s %-6s %11s %11s %11s %8s %5s  %s" % (
            "metric", "side", "q1", "median", "q3", "ratio", "wins",
            "verdict"))
        for name, spec in specs.items():
            if not all(name in p[s] for p in pairs for s in SIDES):
                continue
            base = [p["base"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            wins, v = verdict(base, change, spec)
            ratio = median(change) / median(base)
            claimed = (workload, name) in claims
            if v == "worse" or (claimed and v != "gain"):
                ok = False
            for side, values in (("base", base), ("change", change)):
                q1, med, q3, _ = metrics.quartiles(values)
                tail = ("%8.3f %2d/%-2d  %s%s" % (
                    ratio, wins, n, v, " (claimed)" if claimed else "")
                    if side == "change" else "")
                print("  %-24s %-6s %11.6g %11.6g %11.6g %s" % (
                    name if side == "base" else "", side, q1, med, q3,
                    tail))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=pathlib.Path)
    ap.add_argument("--change", type=pathlib.Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=7000001)
    ap.add_argument("--seed-step", type=int, default=100003)
    ap.add_argument("--claim", action="append", default=[],
                    help="workload:metric that must come out a gain")
    ap.add_argument("--save")
    ap.add_argument("--load", help="report on a saved set instead of running")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    if args.load:
        results = json.loads(pathlib.Path(args.load).read_text())
    else:
        if not (args.base and args.change):
            ap.error("--base and --change are required without --load")
        if args.pairs < 2:
            ap.error("--pairs must be at least 2 to give quartiles")
        checkouts = {"base": args.base, "change": args.change}
        for side in SIDES:
            perfbench_module(checkouts[side], "run", side).build()
        run_once = {side: perfbench_module(checkouts[side], "report",
                                           side).run_once
                    for side in SIDES}
        results = {}
        for w in (w["name"] for w in bench["workloads"]):
            results[w] = []
            for i in range(args.pairs):
                seed = args.seed0 + i * args.seed_step
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once[side](
                        w, seed, bench["run_seconds"])["metrics"]
                print("%s pair %d seed %d: %s" % (w, i, seed, json.dumps(
                    {s: pair[s] for s in SIDES})), file=sys.stderr,
                    flush=True)
                results[w].append(pair)
                if args.save:
                    pathlib.Path(args.save).write_text(
                        json.dumps(results, indent=1))
    return 0 if report(results, specs, claims) else 1


if __name__ == "__main__":
    sys.exit(main())
