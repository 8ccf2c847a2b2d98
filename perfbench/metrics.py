"""Metric math for the pipeline ledger.

Turns the raw JSON document that jrpm_ledger prints (pass wall times,
per-pipeline simulated results, spans) into the end-to-end and
per-layer metrics named in BENCHMARK.json.  Everything here is a pure
function of that document, so test_metrics.py can check it without a
build.
"""

import math
import statistics

# The paper's 4-CPU TLS speed-up bands per benchmark category, from
# DESIGN.md "Expected result shapes" (FP 3-4x, multimedia 2-3x,
# integer 1.5-2.5x), which summarises Fig. 8 of the Jrpm paper.
PAPER_BANDS = {"fp": (3.0, 4.0), "multimedia": (2.0, 3.0),
               "integer": (1.5, 2.5)}

# The pass-time estimator of each workload, chosen from measured
# repeatability (perfbench/LEDGER.md).  The shared host slows the
# simulator by up to 2x in spells from seconds to minutes long.  On
# paper-suite the fastest pass drops the spells inside a run: over
# eight 10-run sets of 50 s runs its spread was at most 0.20, against
# up to 0.26 for the mean pass.  forge-strict's passes are few and
# long; over its last five sets the mean pass's spread was at most
# 0.09, the fastest pass's up to 0.11.
ESTIMATORS = {"paper-suite": "min", "forge-strict": "mean"}


class NonDeterminism(Exception):
    """Two passes of one run simulated different counts."""


# Simulated-time results must repeat exactly whatever order a seed
# gives the pipelines, so sums of floats use math.fsum, which rounds
# exactly and so does not depend on order (statistics.fmean uses it).


def geomean(xs):
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def pass_time(times, estimator):
    """One pass's host time from a run's pass times: their mean, their
    median or the fastest."""
    if not times:
        raise ValueError("no passes")
    if estimator == "mean":
        return statistics.fmean(times)
    if estimator == "median":
        return statistics.median(times)
    if estimator == "min":
        return min(times)
    raise ValueError("unknown estimator " + estimator)


def ok_frac(pipelines):
    """Correct pipelines over attempted ones; a pipeline that threw or
    fatal()ed (ok false) counts as failed."""
    if not pipelines:
        raise ValueError("no pipelines attempted")
    good = sum(1 for p in pipelines if p["ok"] and p["correct"])
    return good / len(pipelines)


def prediction_error(pairs):
    """Mean |predicted - actual| / actual over (predicted, actual)
    TLS speed-up pairs."""
    pairs = list(pairs)
    return math.fsum(abs(p - a) / a for p, a in pairs) / len(pairs)


def paper_band_error(speedups_by_category, bands=PAPER_BANDS):
    """Sum over categories of how far the category's geomean speed-up
    lies outside its paper band (0 inside the band)."""
    err = 0.0
    for cat, xs in speedups_by_category.items():
        lo, hi = bands[cat]
        g = geomean(xs)
        err += max(0.0, lo - g, g - hi)
    return err


def quartiles(values):
    """(q1, median, q3, spread) with spread = (q3 - q1) / median, the
    quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def span_summary(spans, keep=None):
    """Self time per span name, and per root span the share of its
    duration that its direct children cover.

    A span's self time is its duration minus the time its children
    cover.  Children of one span run one after another, never
    overlapping, so their durations add up.  With @p keep, a predicate
    on a span, only the spans it accepts count; it must accept a span
    and its parent alike (select by pipeline id).
    Returns (self_ms by name, [(root index, coverage)]).
    """
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0 and (keep is None or keep(s)):
            child_ms[s["parent"]] += s["end_ms"] - s["start_ms"]
    self_ms = {}
    coverage = []
    for i, s in enumerate(spans):
        if keep is not None and not keep(s):
            continue
        dur = s["end_ms"] - s["start_ms"]
        self_ms[s["name"]] = self_ms.get(s["name"], 0.0) + dur - child_ms[i]
        if s["parent"] < 0 and child_ms[i] > 0:
            coverage.append((i, child_ms[i] / dur if dur > 0 else 1.0))
    return self_ms, coverage


def check_deterministic(passes, key, fields):
    """Raise NonDeterminism when one pipeline (named by @p key) shows
    different @p fields in two passes."""
    seen = {}
    for p in passes:
        for rec in p["pipelines"]:
            if not rec["ok"]:
                continue
            got = tuple(rec[f] for f in fields)
            ref = seen.setdefault(rec[key], got)
            if got != ref:
                raise NonDeterminism(
                    "%s %s: simulated %s differ between passes: %s vs %s"
                    % (key, rec[key], "/".join(fields), ref, got))


def _passes(doc, kind):
    return [p for p in doc["passes"] if p["kind"] == kind]


def _ok(pipelines):
    return [p for p in pipelines if p["ok"]]


def model_metrics(suite):
    """The simulated-time results of one pass over the Table 3 suite
    (its pipelines that ran): Fig. 8 and Fig. 9 geomeans, the
    prediction error, the profiling slowdown and the distance from the
    paper's bands."""
    by_cat = {}
    for r in suite:
        by_cat.setdefault(r["category"], []).append(r["actual_speedup"])
    return {
        "tls_speedup_geomean": geomean(r["actual_speedup"] for r in suite),
        "total_speedup_geomean": geomean(
            r["total_speedup"] for r in suite),
        "prediction_error": prediction_error(
            (r["seq_cycles"] / r["predicted_tls_cycles"],
             r["actual_speedup"]) for r in suite),
        "profiling_slowdown_mean": statistics.fmean(
            r["profiling_slowdown"] - 1.0 for r in suite),
        "paper_band_error": paper_band_error(by_cat),
    }


def summarize(doc, estimator=None):
    """All metrics of one run: returns (end_to_end, per_layer,
    attempted, failed).  Every workload gives every metric; the
    per-layer ones only when the run was traced.  Raises
    NonDeterminism on a determinism failure."""
    workload = doc["workload"]
    estimator = estimator or ESTIMATORS[workload]
    untraced = _passes(doc, "untraced")
    traced = _passes(doc, "traced")
    # forge-strict takes the model metrics from its model pass over
    # the suite; its pipelines count as attempted too.
    # A traced paper-suite run's probe scenario counts too.
    model_pass = doc.get("model_pass")
    every = [rec for p in doc["passes"]
             for rec in p["pipelines"] + p.get("probes", [])]
    if model_pass:
        every += model_pass["pipelines"]
    if "probe_ref" in doc:
        every.append(doc["probe_ref"])
    attempted = len(every)
    failed = attempted - sum(1 for r in every if r["ok"] and r["correct"])

    # Traced passes re-run the stages one by one; their plain and TLS
    # runs must be the pipeline's own.
    key = "scenario_seed" if workload == "forge-strict" else "name"
    check_deterministic(untraced, key, ("sim_cycles", "sim_insts"))
    check_deterministic(doc["passes"], key, ("seq_cycles", "tls_cycles"))

    wall_s = [p["wall_ms"] / 1000.0 for p in untraced]
    t_pass = pass_time(wall_s, estimator)
    first = untraced[0]["pipelines"]
    good = _ok(first)
    e2e = {
        "setup_s": statistics.median(doc["setup_ms"]) / 1000.0,
        "pipelines_per_s": len(first) / t_pass,
        "sim_mcycles_per_s": (
            sum(r["sim_cycles"] for r in good) / t_pass / 1e6),
        "peak_rss_mb": doc["peak_rss_mb"],
        "ok_frac": ok_frac(every),
    }
    e2e.update(model_metrics(
        _ok(model_pass["pipelines"]) if model_pass else good))

    layer = {}
    if traced:
        layer = _per_layer(doc, workload, untraced, traced, good)
    return e2e, layer, attempted, failed


def _per_layer(doc, workload, untraced, traced, good):
    """Per-layer metrics from the traced passes' spans and records.
    The forge and oracle layers come from forge-strict's own cases,
    or from paper-suite's strict-oracle probe scenario."""
    med = statistics.median
    spans = doc["spans"]
    forge = workload == "forge-strict"
    root = "case" if forge else "pipeline"
    probes = [r for p in traced for r in p.get("probes", [])]
    probe_ids = {r["pipeline"] for r in probes}
    self_ms, coverage = span_summary(
        spans, lambda s: s["pipeline"] not in probe_ids)
    n_traced = len(traced)

    def per_pass(name, self_ms=self_ms):
        return self_ms.get(name, 0.0) / n_traced

    roots = [s for s in spans if s["parent"] < 0 and s["name"] == root]
    root_ms = sum(s["end_ms"] - s["start_ms"] for s in roots)
    untraced_ms = statistics.fmean(p["wall_ms"] for p in untraced)
    tr = [r for p in traced for r in p["pipelines"] if r["ok"]]

    def total(field):
        return sum(r[field] for r in good)

    seq_ms = per_pass("tls.seq")
    prof_ms = per_pass("tracer.profiled")
    spec_ms = per_pass("tls.spec")
    out = {
        "workloads.build_ms": med(doc["setup_ms"]),
        "driver.overhead_ms": med(p["driver_overhead_ms"]
                                  for p in untraced),
        "jit.analyze_ms": per_pass("jit.analyze"),
        "jit.compile_ms": per_pass("jit.compile"),
        "jit.emitted_insts": sum(r["emitted_insts"] for r in tr) / n_traced,
        "tls.seq_run_ms": seq_ms,
        "tls.seq_mcycles_per_s": (
            sum(r["seq_run_cycles"] for r in tr) / n_traced / seq_ms / 1e3),
        "tls.seq_share": seq_ms * n_traced / root_ms,
        "tracer.profiled_run_ms": prof_ms,
        "tracer.host_overhead": (
            prof_ms * n_traced / sum(r["plain_on_profile_ms"] for r in tr)
            - 1.0),
        "tracer.profiled_share": prof_ms * n_traced / root_ms,
        "profile.select_ms": per_pass("profile.select"),
        "profile.loops_selected": total("loops_selected"),
        "tls.spec_run_ms": spec_ms,
        "tls.spec_mcycles_per_s": (
            sum(r["spec_cycles"] for r in tr) / n_traced / spec_ms / 1e3),
        "tls.spec_share": spec_ms * n_traced / root_ms,
        "tls.window_inst_frac": total("window_insts") / total("tls_insts"),
        "tls.sig_false_pos_frac": (
            total("sig_false_positives") / max(1, total("sig_hits"))),
        "tls.inst_overhead": total("tls_insts") / total("seq_insts") - 1.0,
        "tls.violations": total("violations"),
        "tls.commits": total("commits"),
        "tls.overflow_stalls": total("overflow_stalls"),
        "tls.sim_cycles": total("tls_cycles"),
        "memory.l1_miss_rate": total("l1_misses") / (
            total("l1_hits") + total("l1_misses")),
        "memory.l2_miss_rate": total("l2_misses") / max(
            1, total("l2_hits") + total("l2_misses")),
        "vm.gc_cycles": total("gc_cycles"),
        "bench.trace_overhead_frac": root_ms / n_traced / untraced_ms - 1.0,
        "bench.span_coverage_min": min(c for _, c in coverage),
    }

    if forge:
        oracle_recs, oracle_self = tr, self_ms
        out["forge.generate_ms"] = med(doc["generate_ms"])
        out["workloads.build_ms"] -= out["forge.generate_ms"]
    else:
        check_deterministic([{"pipelines": [doc["probe_ref"]]},
                             {"pipelines": probes}], "scenario_seed",
                            ("seq_cycles", "tls_cycles"))
        oracle_recs = [r for r in probes if r["ok"]]
        oracle_self = span_summary(
            spans, lambda s: s["pipeline"] in probe_ids)[0]
        out["forge.generate_ms"] = med(r["generate_ms"] for r in probes)
    out["oracle.capture_ms"] = sum(
        r["strict_run_ms"] - r["oracle_off_run_ms"]
        for r in oracle_recs) / n_traced
    out["oracle.compare_ms"] = per_pass("oracle.compare", oracle_self)
    out["oracle.image_mb"] = max(
        (r["image_mb"] for r in oracle_recs), default=0.0)
    return out
