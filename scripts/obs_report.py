#!/usr/bin/env python3
"""Render the speculation observatory's outputs as one HTML page.

Inputs (all optional, any combination):

 * a campaign analytics JSON written by
   ``bench_forge_campaign --analytics-out=`` — campaign verdict,
   per-metric percentiles, per-axis breakdowns, squash-cause and
   variable-class tallies, top squash loops, and the embedded host
   profiler snapshot;
 * a metrics registry dump written by ``--metrics-out=foo.json`` —
   its ``hostprof.*`` gauges render the same attribution flamegraph
   for a single run, and its ``tls.*`` counters a telemetry table;
 * the committed ``BENCH_simspeed.json`` trajectory — rendered as a
   throughput-over-time timeline per benchmark.

The output is fully self-contained (inline CSS + SVG, no external
assets, no JavaScript dependencies), so it can be archived as a CI
artifact and opened anywhere.

Usage:
    scripts/obs_report.py --analytics analytics.json \
        --metrics metrics.json --trajectory BENCH_simspeed.json \
        --out report.html
"""

import argparse
import html
import json
import sys
from pathlib import Path

# ----------------------------------------------------------------- util

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]


def esc(s):
    return html.escape(str(s))


def fmt_sec(v):
    if v >= 1.0:
        return "%.3f s" % v
    if v >= 1e-3:
        return "%.3f ms" % (v * 1e3)
    return "%.1f us" % (v * 1e6)


def fmt_num(v):
    if isinstance(v, float) and not v.is_integer():
        return "%.4g" % v
    return "{:,}".format(int(v))


# ------------------------------------------------- hostprof flamegraph

def hostprof_rows_from_analytics(analytics):
    return analytics.get("hostprof") or []


def hostprof_rows_from_metrics(metrics):
    """Rebuild slot rows from flat ``hostprof.<slot>.<field>`` gauges."""
    slots = {}
    for name, m in metrics.items():
        if not name.startswith("hostprof.") or name == "hostprof.tsc_hz":
            continue
        parts = name.split(".")
        if len(parts) != 3:
            continue
        _, slot, field = parts
        slots.setdefault(slot, {})[field] = m.get("value", 0)
    rows = []
    for slot, f in slots.items():
        rows.append({
            "slot": slot,
            "parent": None,   # flat dump carries no parent edges
            "totalSec": f.get("total_sec", 0.0),
            "selfSec": f.get("self_sec", 0.0),
            "scopes": int(f.get("scopes", 0)),
        })
    return rows


def flamegraph_svg(rows, title):
    """Icicle-style attribution chart from slot rows with declared
    parents.  Width is proportional to inclusive time; the unattributed
    remainder of each parent shows as its self time."""
    rows = [r for r in rows if r.get("totalSec", 0) > 0 or
            r.get("scopes", 0) > 0]
    if not rows:
        return "<p class='note'>no host-profiler samples " \
               "(run with --hostprof)</p>"
    by_name = {r["slot"]: r for r in rows}
    children = {}
    roots = []
    for r in rows:
        p = r.get("parent")
        if p and p in by_name:
            children.setdefault(p, []).append(r)
        else:
            roots.append(r)
    depth_of = {}

    def depth(r, d):
        depth_of[r["slot"]] = d
        for c in children.get(r["slot"], []):
            depth(c, d + 1)

    for r in roots:
        depth(r, 0)
    maxd = max(depth_of.values()) if depth_of else 0

    width, rowh, gap = 960.0, 26, 2
    total = sum(r["totalSec"] for r in roots) or 1.0
    svg = []
    height = (maxd + 1) * (rowh + gap) + 20

    def emit(r, x, w, d, color_i):
        if w < 0.5:
            return
        y = d * (rowh + gap)
        label = r["slot"]
        pct = 100.0 * r["totalSec"] / total
        tip = "%s: %s inclusive (%s self, %s scopes, %.1f%%)" % (
            label, fmt_sec(r["totalSec"]), fmt_sec(r["selfSec"]),
            fmt_num(r["scopes"]), pct)
        svg.append(
            "<g><title>%s</title>"
            "<rect x='%.1f' y='%d' width='%.1f' height='%d' rx='2' "
            "fill='%s'/>" % (esc(tip), x, y, max(w - 1, 0.5), rowh,
                             PALETTE[color_i % len(PALETTE)]))
        if w > 60:
            svg.append(
                "<text x='%.1f' y='%d' font-size='11' fill='#fff'>"
                "%s %.1f%%</text>" % (x + 4, y + 17, esc(label), pct))
        svg.append("</g>")
        # children packed left, sized by their inclusive share
        cx = x
        for i, c in enumerate(sorted(children.get(r["slot"], []),
                                     key=lambda c: -c["totalSec"])):
            cw = w * (c["totalSec"] / r["totalSec"]) \
                if r["totalSec"] > 0 else 0
            emit(c, cx, cw, d + 1, color_i + i + 1)
            cx += cw

    x = 0.0
    for i, r in enumerate(sorted(roots, key=lambda r: -r["totalSec"])):
        w = width * (r["totalSec"] / total)
        emit(r, x, w, 0, i)
        x += w
    out = ["<h3>%s</h3>" % esc(title)]
    out.append("<svg viewBox='0 0 %d %d' width='100%%' "
               "preserveAspectRatio='xMinYMin meet'>" % (width, height))
    out.extend(svg)
    out.append("</svg>")
    # self-time table, hottest first
    out.append("<table><tr><th>slot</th><th>inclusive</th>"
               "<th>self</th><th>scopes</th><th>self %</th></tr>")
    tot_self = sum(r["selfSec"] for r in rows) or 1.0
    for r in sorted(rows, key=lambda r: -r["selfSec"]):
        out.append(
            "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
            "<td>%.1f%%</td></tr>" % (
                esc(r["slot"]), fmt_sec(r["totalSec"]),
                fmt_sec(r["selfSec"]), fmt_num(r["scopes"]),
                100.0 * r["selfSec"] / tot_self))
    out.append("</table>")
    return "\n".join(out)


# --------------------------------------------------- campaign sections

def pct_table(metrics):
    out = ["<table><tr><th>metric</th><th>n</th><th>min</th>"
           "<th>p50</th><th>p90</th><th>p99</th><th>max</th>"
           "<th>mean</th></tr>"]
    for name, s in metrics.items():
        out.append(
            "<tr><td>%s</td><td>%s</td>" % (esc(name), fmt_num(s["n"]))
            + "".join("<td>%s</td>" % fmt_num(s[k])
                      for k in ("min", "p50", "p90", "p99", "max",
                                "mean"))
            + "</tr>")
    out.append("</table>")
    return "\n".join(out)


def tally_bars(tally, title):
    total = sum(tally.values())
    out = ["<h3>%s</h3>" % esc(title)]
    if not total:
        out.append("<p class='note'>none recorded</p>")
        return "\n".join(out)
    out.append("<table>")
    for i, (name, v) in enumerate(
            sorted(tally.items(), key=lambda kv: -kv[1])):
        w = 300.0 * v / total
        out.append(
            "<tr><td>%s</td><td>%s</td><td>"
            "<svg width='310' height='14'><rect width='%.1f' "
            "height='14' fill='%s'/></svg></td></tr>" % (
                esc(name), fmt_num(v), w,
                PALETTE[i % len(PALETTE)]))
    out.append("</table>")
    return "\n".join(out)


def campaign_sections(a):
    out = ["<h2>Campaign</h2>"]
    out.append(
        "<p>seed <code>%s</code> — %s cases, %s failing, %s pipeline "
        "errors, %s divergent (%s oracle-detected), %s watchdog, %s "
        "forced decompositions</p>" % (
            (esc(a.get("seed", "?")),) + tuple(map(fmt_num, (
                a.get("cases", 0), a.get("failures", 0),
                a.get("pipelineErrors", 0), a.get("divergences", 0),
                a.get("oracleDetected", 0), a.get("watchdogs", 0),
                a.get("forcedRuns", 0))))))
    if a.get("fleet"):
        f = a["fleet"]
        out.append("<h3>Fleet crash isolation</h3>")
        out.append(
            "<p>multi-process campaign%s: %s worker deaths "
            "(%s crashes, %s timeouts), %s retries, %s quarantined, "
            "%s reshards, %s torn manifest records</p>" % (
                (" (resumed from manifest)"
                 if f.get("resumed") else ""),
                fmt_num(f.get("workerDeaths", 0)),
                fmt_num(f.get("crashes", 0)),
                fmt_num(f.get("timeouts", 0)),
                fmt_num(f.get("retries", 0)),
                fmt_num(f.get("quarantined", 0)),
                fmt_num(f.get("reshards", 0)),
                fmt_num(f.get("tornRecords", 0))))
    if a.get("metrics"):
        out.append("<h3>Per-metric percentiles</h3>")
        out.append(pct_table(a["metrics"]))
    if a.get("perAxis"):
        out.append("<h3>Per-axis breakdown</h3>")
        out.append("<table><tr><th>axis</th><th>cases</th>"
                   "<th>speedup p50</th><th>speedup p90</th>"
                   "<th>violations p90</th></tr>")
        for axis, d in a["perAxis"].items():
            out.append(
                "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
                "<td>%s</td></tr>" % (
                    esc(axis), fmt_num(d.get("cases", 0)),
                    fmt_num(d["speedup"]["p50"]),
                    fmt_num(d["speedup"]["p90"]),
                    fmt_num(d["violations"]["p90"])))
        out.append("</table>")
    if "squashCauses" in a:
        out.append(tally_bars(a["squashCauses"],
                              "Squash events by cause"))
    if "violationsByClass" in a:
        out.append(tally_bars(a["violationsByClass"],
                              "RAW violations by variable class"))
    if a.get("topSquashLoops"):
        out.append("<h3>Top squash-cause loops</h3>")
        out.append("<table><tr><th>scenario seed</th><th>loop</th>"
                   "<th>squash events</th></tr>")
        for t in a["topSquashLoops"]:
            out.append("<tr><td><code>%s</code></td><td>%s</td>"
                       "<td>%s</td></tr>" % (
                           esc(t["seed"]), fmt_num(t["loopId"]),
                           fmt_num(t["squashes"])))
        out.append("</table>")
    return "\n".join(out)


# -------------------------------------------------- telemetry (metrics)

def telemetry_section(metrics):
    tls = {k: v.get("value", 0) for k, v in metrics.items()
           if k.startswith("tls.") and v.get("kind") != "histogram"}
    if not tls:
        return ""
    out = ["<h2>Dependence telemetry (tls.* counters)</h2>", "<table>",
           "<tr><th>counter</th><th>value</th></tr>"]
    for k in sorted(tls):
        out.append("<tr><td><code>%s</code></td><td>%s</td></tr>"
                   % (esc(k), fmt_num(tls[k])))
    out.append("</table>")
    return "\n".join(out)


# ------------------------------------------------------------ timeline

def timeline_section(trajectory):
    """Throughput over trajectory entries, one polyline per bench."""
    if not trajectory:
        return ""
    benches = {}
    for i, entry in enumerate(trajectory):
        for name, rate in entry.get("rates", {}).items():
            benches.setdefault(name, []).append((i, rate))
    if not benches:
        return ""
    width, height, pad = 960, 300, 45
    n = len(trajectory)
    out = ["<h2>Simulator-speed trajectory</h2>",
           "<svg viewBox='0 0 %d %d' width='100%%'>" % (width, height)]
    import math
    allr = [r for pts in benches.values() for _, r in pts if r > 0]
    lo = math.log10(min(allr))
    hi = math.log10(max(allr))
    span = (hi - lo) or 1.0

    def xy(i, r):
        x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
        y = height - pad - (height - 2 * pad) * \
            ((math.log10(r) - lo) / span)
        return x, y

    # log-decade gridlines
    for d in range(int(math.floor(lo)), int(math.ceil(hi)) + 1):
        _, y = xy(0, 10 ** d)
        out.append("<line x1='%d' y1='%.1f' x2='%d' y2='%.1f' "
                   "stroke='#ddd'/>" % (pad, y, width - pad, y))
        out.append("<text x='2' y='%.1f' font-size='10' fill='#888'>"
                   "1e%d</text>" % (y + 3, d))
    for ci, (name, pts) in enumerate(sorted(benches.items())):
        color = PALETTE[ci % len(PALETTE)]
        path = " ".join("%.1f,%.1f" % xy(i, r) for i, r in pts
                        if r > 0)
        out.append("<polyline points='%s' fill='none' stroke='%s' "
                   "stroke-width='2'><title>%s</title></polyline>"
                   % (path, color, esc(name)))
        x, y = xy(*pts[-1])
        out.append("<circle cx='%.1f' cy='%.1f' r='3' fill='%s'/>"
                   % (x, y, color))
    # legend
    lx = pad
    for ci, name in enumerate(sorted(benches)):
        out.append("<rect x='%d' y='%d' width='9' height='9' "
                   "fill='%s'/>" % (lx, 6, PALETTE[ci % len(PALETTE)]))
        out.append("<text x='%d' y='14' font-size='10'>%s</text>"
                   % (lx + 12, esc(name)))
        lx += 12 + 7 * len(name) + 14
    # x labels: entry labels, clipped
    for i, entry in enumerate(trajectory):
        x, _ = xy(i, 10 ** lo)
        label = entry.get("label", str(i))[:28]
        out.append("<text x='%.1f' y='%d' font-size='9' fill='#666' "
                   "transform='rotate(12 %.1f %d)'>%s</text>"
                   % (x, height - 26, x, height - 26, esc(label)))
    out.append("</svg>")
    out.append("<p class='note'>log-scale throughput "
               "(sim_cycles/s, bytecodes/s) per trajectory entry, "
               "oldest left</p>")
    return "\n".join(out)


# ---------------------------------------------------------------- main

CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', sans-serif;
       margin: 24px auto; max-width: 1000px; color: #222; }
h1 { border-bottom: 2px solid #4e79a7; padding-bottom: 6px; }
h2 { margin-top: 32px; border-bottom: 1px solid #ddd; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { padding: 3px 10px; text-align: right; }
th { background: #f0f3f7; }
td:first-child, th:first-child { text-align: left; }
tr:nth-child(even) { background: #fafbfc; }
code { background: #f4f4f4; padding: 0 3px; }
.note { color: #888; font-style: italic; }
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--analytics", type=Path,
                    help="campaign analytics JSON (--analytics-out=)")
    ap.add_argument("--metrics", type=Path,
                    help="metrics registry JSON (--metrics-out=)")
    ap.add_argument("--trajectory", type=Path,
                    help="BENCH_simspeed.json-style trajectory")
    ap.add_argument("--out", type=Path, required=True,
                    help="output HTML path")
    ap.add_argument("--title", default="Jrpm speculation observatory")
    args = ap.parse_args()
    if not (args.analytics or args.metrics or args.trajectory):
        ap.error("need at least one of --analytics / --metrics / "
                 "--trajectory")

    body = ["<h1>%s</h1>" % esc(args.title)]

    analytics = json.loads(args.analytics.read_text()) \
        if args.analytics else None
    metrics = json.loads(args.metrics.read_text()) \
        if args.metrics else None

    hp_rows, hp_title = [], ""
    if analytics and hostprof_rows_from_analytics(analytics):
        hp_rows = hostprof_rows_from_analytics(analytics)
        hp_title = "campaign process attribution"
    elif metrics:
        hp_rows = hostprof_rows_from_metrics(metrics)
        hp_title = "run attribution (flat: no parent edges in " \
                   "metrics dump)"
    if hp_rows or analytics:
        body.append("<h2>Host-cycle attribution</h2>")
        body.append(flamegraph_svg(hp_rows, hp_title))
    if analytics:
        body.append(campaign_sections(analytics))
    if metrics:
        body.append(telemetry_section(metrics))
    if args.trajectory:
        body.append(timeline_section(
            json.loads(args.trajectory.read_text())))

    doc = ("<!doctype html><html><head><meta charset='utf-8'>"
           "<title>%s</title><style>%s</style></head><body>%s"
           "</body></html>" % (esc(args.title), CSS,
                               "\n".join(body)))
    args.out.write_text(doc)
    print("wrote %s (%d bytes)" % (args.out, len(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
