#!/usr/bin/env python3
"""Tests of the pipeline ledger's own metric math (perfbench/metrics.py).

    python3 perfbench/test_metrics.py
"""

import json
import math
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import metrics  # noqa: E402


def span(name, start, end, parent=-1, pipeline=0):
    return {"name": name, "start_ms": start, "end_ms": end,
            "parent": parent, "pipeline": pipeline}


def pipeline(name, ok=True, correct=True, **fields):
    rec = {"name": name, "ok": ok, "correct": correct}
    rec.update(fields)
    return rec


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(metrics.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(metrics.geomean([3.0]), 3.0)
        self.assertAlmostEqual(metrics.geomean(iter([1.0, 10.0, 100.0])),
                               10.0)

    def test_rejects_empty_and_nonpositive(self):
        with self.assertRaises(ValueError):
            metrics.geomean([])
        with self.assertRaises(ValueError):
            metrics.geomean([1.0, 0.0])


class PaperBandTest(unittest.TestCase):
    def test_bands_are_design_md(self):
        self.assertEqual(metrics.PAPER_BANDS, {
            "fp": (3.0, 4.0), "multimedia": (2.0, 3.0),
            "integer": (1.5, 2.5)})

    def test_inside_every_band_is_zero(self):
        self.assertEqual(metrics.paper_band_error(
            {"fp": [3.5], "multimedia": [2.0, 3.0], "integer": [2.5]}), 0.0)

    def test_below_and_above(self):
        # FP geomean 2.41 is 0.59 below 3; integer 3.0 is 0.5 above 2.5.
        err = metrics.paper_band_error(
            {"fp": [2.41], "multimedia": [2.5], "integer": [3.0]})
        self.assertAlmostEqual(err, 0.59 + 0.5)

    def test_uses_category_geomean(self):
        # geomean(1, 4) = 2 < 3: 1.0 outside the FP band.
        self.assertAlmostEqual(
            metrics.paper_band_error({"fp": [1.0, 4.0]}), 1.0)


class PredictionErrorTest(unittest.TestCase):
    def test_mean_relative_error(self):
        # |2-1|/1 = 1 and |3-4|/4 = 0.25 -> mean 0.625
        self.assertAlmostEqual(
            metrics.prediction_error([(2.0, 1.0), (3.0, 4.0)]), 0.625)

    def test_exact_prediction(self):
        self.assertEqual(metrics.prediction_error([(2.5, 2.5)]), 0.0)


class OkFracTest(unittest.TestCase):
    def test_counts_wrong_and_errored_as_failed(self):
        recs = [pipeline("a"), pipeline("b", correct=False),
                pipeline("c", ok=False, correct=False, error="fatal"),
                pipeline("d")]
        self.assertEqual(metrics.ok_frac(recs), 0.5)

    def test_errored_pipeline_never_correct(self):
        # A pipeline that threw is failed even if a stale flag says
        # its outputs matched.
        self.assertEqual(metrics.ok_frac(
            [pipeline("a", ok=False, correct=True)]), 0.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.ok_frac([])


class PassTimeTest(unittest.TestCase):
    def test_mean_median_and_min(self):
        times = [3.0, 1.0, 2.0, 10.0]
        self.assertEqual(metrics.pass_time(times, "mean"), 4.0)
        self.assertEqual(metrics.pass_time(times, "median"), 2.5)
        self.assertEqual(metrics.pass_time(times, "min"), 1.0)

    def test_estimator_per_workload(self):
        self.assertEqual(metrics.ESTIMATORS,
                         {"paper-suite": "min", "forge-strict": "mean"})

    def test_unknown_estimator_or_no_passes(self):
        with self.assertRaises(ValueError):
            metrics.pass_time([1.0], "mode")
        with self.assertRaises(ValueError):
            metrics.pass_time([], "median")

    def test_quartile_spread_matches_statistics(self):
        q1, med, q3, spread = metrics.quartiles(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(spread, 1.0)


class SpanTest(unittest.TestCase):
    def test_self_time_and_coverage(self):
        spans = [span("pipeline", 0, 100),
                 span("tls.seq", 0, 30, parent=0),
                 span("tls.spec", 30, 95, parent=0),
                 span("jit.compile", 95, 99, parent=2),
                 span("jit.compile", 100, 110)]
        self_ms, cov = metrics.span_summary(spans)
        self.assertAlmostEqual(self_ms["pipeline"], 5)
        self.assertAlmostEqual(self_ms["tls.seq"], 30)
        self.assertAlmostEqual(self_ms["tls.spec"], 61)
        self.assertAlmostEqual(self_ms["jit.compile"], 14)
        # Only roots with children get a coverage figure.
        self.assertEqual(cov, [(0, 0.95)])


class SpanKeepTest(unittest.TestCase):
    def test_keep_selects_pipelines(self):
        spans = [span("pipeline", 0, 100, pipeline=0),
                 span("tls.spec", 0, 90, parent=0, pipeline=0),
                 span("probe", 100, 200, pipeline=1),
                 span("tls.spec", 100, 150, parent=2, pipeline=1),
                 span("oracle.compare", 150, 190, parent=2, pipeline=1)]
        own, cov = metrics.span_summary(spans, lambda s: s["pipeline"] == 0)
        self.assertEqual(own, {"pipeline": 10, "tls.spec": 90})
        self.assertEqual(cov, [(0, 0.9)])
        probe, _ = metrics.span_summary(spans,
                                        lambda s: s["pipeline"] == 1)
        self.assertEqual(probe, {"probe": 10, "tls.spec": 50,
                                 "oracle.compare": 40})


class DeterminismTest(unittest.TestCase):
    def test_equal_passes_pass(self):
        p = {"pipelines": [pipeline("a", sim_cycles=5, sim_insts=3)]}
        metrics.check_deterministic([p, p], "name",
                                    ("sim_cycles", "sim_insts"))

    def test_differing_counts_fail(self):
        a = {"pipelines": [pipeline("a", sim_cycles=5, sim_insts=3)]}
        b = {"pipelines": [pipeline("a", sim_cycles=6, sim_insts=3)]}
        with self.assertRaises(metrics.NonDeterminism):
            metrics.check_deterministic([a, b], "name",
                                        ("sim_cycles", "sim_insts"))

    def test_failed_pipelines_are_skipped(self):
        a = {"pipelines": [pipeline("a", sim_cycles=5, sim_insts=3)]}
        b = {"pipelines": [pipeline("a", ok=False, sim_cycles=0,
                                    sim_insts=0)]}
        metrics.check_deterministic([a, b], "name",
                                    ("sim_cycles", "sim_insts"))


def paper_doc(walls):
    recs = [
        pipeline("A", category="fp", sim_cycles=100, sim_insts=10,
                 seq_cycles=80, tls_cycles=20, predicted_tls_cycles=40.0,
                 actual_speedup=4.0, total_speedup=2.0,
                 profiling_slowdown=1.1),
        pipeline("B", category="integer", sim_cycles=200, sim_insts=20,
                 seq_cycles=90, tls_cycles=45, predicted_tls_cycles=45.0,
                 actual_speedup=2.0, total_speedup=1.0,
                 profiling_slowdown=1.3),
        pipeline("C", ok=False, correct=False, error="boom"),
    ]
    return {
        "workload": "paper-suite",
        "setup_ms": [3.0, 1.0, 2.0],
        "peak_rss_mb": 7.5,
        "passes": [{"kind": "untraced", "wall_ms": w, "pipelines": recs}
                   for w in walls],
        "spans": [],
    }


class SummarizeTest(unittest.TestCase):
    def test_paper_suite_end_to_end(self):
        e2e, layer, attempted, failed = metrics.summarize(
            paper_doc([3000.0, 1000.0, 2000.0]))
        self.assertEqual(layer, {})
        self.assertEqual((attempted, failed), (9, 3))
        self.assertAlmostEqual(e2e["setup_s"], 0.002)
        # The fastest pass took 1 s.
        self.assertAlmostEqual(e2e["pipelines_per_s"], 3 / 1.0)
        self.assertAlmostEqual(e2e["sim_mcycles_per_s"], 300 / 1.0 / 1e6)
        self.assertAlmostEqual(e2e["ok_frac"], 2 / 3)
        self.assertAlmostEqual(e2e["tls_speedup_geomean"], math.sqrt(8))
        self.assertAlmostEqual(e2e["total_speedup_geomean"], math.sqrt(2))
        # predicted speed-ups 80/40 = 2 vs 4 and 90/45 = 2 vs 2.
        self.assertAlmostEqual(e2e["prediction_error"], 0.25)
        self.assertAlmostEqual(e2e["profiling_slowdown_mean"], 0.2)
        # FP 4.0 and integer 2.0 both sit inside their bands.
        self.assertEqual(e2e["paper_band_error"], 0.0)
        self.assertEqual(e2e["peak_rss_mb"], 7.5)

    def test_other_estimators(self):
        doc = paper_doc([3000.0, 1000.0, 1500.0])
        self.assertAlmostEqual(
            metrics.summarize(doc, "mean")[0]["pipelines_per_s"],
            3 / (5.5 / 3))
        self.assertAlmostEqual(
            metrics.summarize(doc, "median")[0]["pipelines_per_s"], 2.0)

    def test_nondeterminism_is_loud(self):
        doc = paper_doc([1000.0, 1000.0])
        second = [dict(r) for r in doc["passes"][1]["pipelines"]]
        second[0]["sim_cycles"] = 101
        doc["passes"][1]["pipelines"] = second
        with self.assertRaises(metrics.NonDeterminism):
            metrics.summarize(doc)


# Every field jrpm_ledger writes, for documents that exercise every
# metric.
COUNTERS = dict(sim_cycles=1000, sim_insts=900, seq_cycles=400,
                tls_cycles=200, loops_selected=2, seq_insts=300,
                tls_insts=360, window_insts=90, sig_hits=10,
                sig_false_positives=1, violations=3, commits=50,
                overflow_stalls=0, l1_hits=90, l1_misses=10, l2_hits=8,
                l2_misses=2, gc_cycles=0)
MODEL = dict(category="fp", predicted_tls_cycles=100.0,
             actual_speedup=2.0, total_speedup=1.5,
             profiling_slowdown=1.1)
TRACED = dict(seq_cycles=400, seq_run_cycles=400, tls_cycles=200,
              spec_cycles=300, plain_on_profile_ms=10.0,
              emitted_insts=70)
ORACLE = dict(image_mb=64, strict_run_ms=50.0, oracle_off_run_ms=5.0)


def full_doc(workload):
    forge = workload == "forge-strict"
    key = "scenario_seed" if forge else "name"
    root = "case" if forge else "pipeline"
    untraced = dict(COUNTERS, **({} if forge else MODEL))
    untraced.update({key: 7, "ok": True, "correct": True, "wall_ms": 9.0})
    traced = dict(TRACED, **(ORACLE if forge else {}))
    traced.update({key: 7, "ok": True, "correct": True, "wall_ms": 12.0,
                   "pipeline": 0})
    spans = [span(root, 0, 100, pipeline=0)]
    for name, t0, t1 in (("jit.analyze", 0, 1), ("tls.seq", 1, 20),
                         ("tracer.profiled", 20, 30),
                         ("profile.select", 30, 31), ("tls.spec", 31, 99)):
        spans.append(span(name, t0, t1, parent=0, pipeline=0))
    spans.append(span("jit.compile", 100, 102, pipeline=0))
    passes = [{"kind": "untraced", "wall_ms": 90.0,
               "driver_overhead_ms": 0.5, "pipelines": [untraced]},
              {"kind": "traced", "pipelines": [traced]}]
    doc = {"workload": workload, "setup_ms": [3.0], "peak_rss_mb": 9.0,
           "passes": passes, "spans": spans}
    if forge:
        spans.append(span("oracle.compare", 98, 99, parent=5, pipeline=0))
        doc["generate_ms"] = [1.0]
        doc["model_pass"] = {"pipelines": [
            dict(COUNTERS, **MODEL, name="A", ok=True, correct=True)]}
    else:
        probe = dict(TRACED, **ORACLE, scenario_seed=5, ok=True,
                     correct=True, pipeline=1, generate_ms=0.1)
        passes[1]["probes"] = [probe]
        doc["probe_ref"] = dict(COUNTERS, scenario_seed=5, ok=True,
                                correct=True, seq_cycles=400,
                                tls_cycles=200)
        spans.append(span("probe", 200, 300, pipeline=1))
        spans.append(span("oracle.compare", 280, 290, parent=len(spans) - 1,
                          pipeline=1))
    return doc


class ManifestTest(unittest.TestCase):
    """Every workload gives exactly the metrics BENCHMARK.json names."""

    def setUp(self):
        bench = json.loads(
            (pathlib.Path(metrics.__file__).parent.parent /
             "BENCHMARK.json").read_text())
        self.e2e = {m["name"] for m in bench["end_to_end"]}
        self.layer = {m["name"] for m in bench["per_layer"]}

    def test_every_metric_on_every_workload(self):
        for workload in ("paper-suite", "forge-strict"):
            with self.subTest(workload=workload):
                e2e, layer, attempted, failed = metrics.summarize(
                    full_doc(workload))
                self.assertEqual(set(e2e), self.e2e)
                self.assertEqual(set(layer), self.layer)
                self.assertEqual(failed, 0)

    def test_forge_model_metrics_come_from_the_model_pass(self):
        e2e = metrics.summarize(full_doc("forge-strict"))[0]
        self.assertAlmostEqual(e2e["tls_speedup_geomean"], 2.0)
        self.assertAlmostEqual(e2e["paper_band_error"], 1.0)
        # seq 400 / predicted 100 = 4 vs actual 2.
        self.assertAlmostEqual(e2e["prediction_error"], 1.0)

    def test_probe_stays_out_of_paper_suite_layers(self):
        layer = metrics.summarize(full_doc("paper-suite"))[1]
        self.assertAlmostEqual(layer["tls.spec_run_ms"], 68.0)
        self.assertAlmostEqual(layer["jit.compile_ms"], 2.0)
        self.assertAlmostEqual(layer["oracle.compare_ms"], 10.0)
        self.assertAlmostEqual(layer["oracle.capture_ms"], 45.0)
        self.assertAlmostEqual(layer["forge.generate_ms"], 0.1)

    def test_probe_nondeterminism_is_loud(self):
        doc = full_doc("paper-suite")
        doc["probe_ref"]["tls_cycles"] = 201
        with self.assertRaises(metrics.NonDeterminism):
            metrics.summarize(doc)


if __name__ == "__main__":
    unittest.main()
