#!/usr/bin/env python3
"""Plot time-vs-size series from committed BENCH_*.json artifacts as SVG.

The vendored Criterion stub persists one JSON object per bench target
(``scripts/bench_all.sh``; see EXPERIMENTS.md) mapping each benchmark name
to ``{"min_ns": ..., "median_ns": ..., "p50_ns": ..., "p95_ns": ...,
"p99_ns": ..., "max_ns": ..., "samples": ...}``, plus a ``"host"`` entry
(``nproc``, ``cpu``, ``date``) that is shown in the chart's subtitle.
Benchmark names are slash-separated; when the last component is a number it
is a swept parameter (database facts |D|, delta size, budget, ...), e.g.::

    scaling/local/256                  -> series "scaling/local", x = 256
    obs_overhead/traced/2048           -> series "obs_overhead/traced", x = 2048

This script groups such names into series and renders one log-log SVG chart
per input file (median ns vs the swept parameter), with a dashed ``p95_ns``
tail line per series (the latency-histogram summary measured by the stub).
Names without a numeric suffix are listed in the chart footer but not
plotted. Standard library only — no matplotlib in the
offline build image.

Usage:
    python3 scripts/plot_bench.py BENCH_scaling.json [more.json ...] [-o DIR]
"""

import argparse
import json
import math
import sys
from pathlib import Path

# Categorical palette (validated, fixed assignment order — never cycled;
# series beyond the eighth fold into the footer rather than invent a hue).
SERIES_COLORS = [
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
]
SURFACE = "#fcfcfb"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
GRID = "#e7e6e2"

WIDTH, HEIGHT = 760, 440
MARGIN = {"left": 86, "right": 24, "top": 64, "bottom": 56}


def load_series(path):
    """Splits a bench artifact into plottable series, leftover names and its
    host line."""
    data = json.loads(Path(path).read_text())
    host = data.pop("host")
    host = f"{host['nproc']} CPUs, {host['cpu']}, {host['date']}"
    series, leftovers = {}, []
    for name, record in sorted(data.items()):
        parts = name.split("/")
        try:
            x = float(parts[-1])
        except ValueError:
            leftovers.append(name)
            continue
        if "median_ns" not in record:
            # A bench's own summary statistic (e.g. a paired ratio), not a
            # timing.
            leftovers.append(name)
            continue
        point = (x, record["median_ns"], record["p95_ns"])
        series.setdefault("/".join(parts[:-1]), []).append(point)
    for points in series.values():
        points.sort()
    return series, leftovers, host


def fmt_time(ns):
    for unit, scale in [("s", 1e9), ("ms", 1e6), ("µs", 1e3)]:
        if ns >= scale:
            value = ns / scale
            return f"{value:.0f} {unit}" if value >= 10 else f"{value:.1f} {unit}"
    return f"{ns:.0f} ns"


def fmt_x(x):
    return f"{x:g}"


def log_ticks(lo, hi):
    """Powers of ten covering [lo, hi] (at least two ticks)."""
    first, last = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
    if first == last:
        last += 1
    return [10.0**e for e in range(first, last + 1)]


def svg_escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render(title, series, leftovers, host):
    """One log-log SVG line chart: median time vs the swept parameter."""
    plotted = list(series.items())[: len(SERIES_COLORS)]
    dropped = [name for name, _ in list(series.items())[len(SERIES_COLORS):]]
    xs = [x for _, pts in plotted for x, _, _ in pts]
    ys = [y for _, pts in plotted for _, y, _ in pts]
    ys += [p95 for _, pts in plotted for _, _, p95 in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_lo <= 0:  # log scale needs positive x; nudge a swept 0 to 0.5
        xs = [max(x, 0.5) for x in xs]
        x_lo = min(xs)
    x_ticks = log_ticks(x_lo, x_hi)
    y_ticks = log_ticks(min(ys), max(ys))
    plot_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    plot_h = HEIGHT - MARGIN["top"] - MARGIN["bottom"]

    def sx(x):
        lo, hi = math.log10(x_ticks[0]), math.log10(x_ticks[-1])
        return MARGIN["left"] + (math.log10(max(x, 0.5)) - lo) / (hi - lo) * plot_w

    def sy(y):
        lo, hi = math.log10(y_ticks[0]), math.log10(y_ticks[-1])
        return MARGIN["top"] + plot_h - (math.log10(y) - lo) / (hi - lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="system-ui, sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="{SURFACE}"/>',
        f'<text x="{MARGIN["left"]}" y="26" font-size="15" font-weight="600" '
        f'fill="{TEXT_PRIMARY}">{svg_escape(title)}</text>',
        f'<text x="{MARGIN["left"]}" y="44" font-size="11" '
        f'fill="{TEXT_SECONDARY}">'
        + svg_escape(
            f"median wall-clock (log) vs swept parameter (log); dashed = p95; {host}"
        )
        + "</text>",
    ]
    # Recessive grid + tick labels.
    for y in y_ticks:
        py = sy(y)
        out.append(
            f'<line x1="{MARGIN["left"]}" y1="{py:.1f}" '
            f'x2="{WIDTH - MARGIN["right"]}" y2="{py:.1f}" '
            f'stroke="{GRID}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN["left"] - 8}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end" fill="{TEXT_SECONDARY}">{fmt_time(y)}</text>'
        )
    base = MARGIN["top"] + plot_h
    for x in x_ticks:
        px = sx(x)
        out.append(
            f'<line x1="{px:.1f}" y1="{base}" x2="{px:.1f}" y2="{base + 4}" '
            f'stroke="{TEXT_SECONDARY}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{base + 18}" font-size="11" '
            f'text-anchor="middle" fill="{TEXT_SECONDARY}">{fmt_x(x)}</text>'
        )
    out.append(
        f'<line x1="{MARGIN["left"]}" y1="{base}" '
        f'x2="{WIDTH - MARGIN["right"]}" y2="{base}" '
        f'stroke="{TEXT_SECONDARY}" stroke-width="1"/>'
    )

    for i, (name, points) in enumerate(plotted):
        color = SERIES_COLORS[i]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y, _ in points)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round"/>'
        )
        tail_path = " ".join(f"{sx(x):.1f},{sy(p95):.1f}" for x, _, p95 in points)
        out.append(
            f'<polyline points="{tail_path}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" stroke-dasharray="5 4" opacity="0.65" '
            f'stroke-linejoin="round"/>'
        )
        for x, y, p95 in points:
            label = f"{svg_escape(name)}: {fmt_x(x)} → {fmt_time(y)} (p95 {fmt_time(p95)})"
            out.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                f'fill="{color}" stroke="{SURFACE}" stroke-width="2">'
                f"<title>{label}</title>"
                f"</circle>"
            )
        # Legend row (color chip + name in text ink, never series-colored).
        lx = MARGIN["left"] + (i % 4) * 170
        ly = HEIGHT - 26 + (i // 4) * 14
        out.append(f'<rect x="{lx}" y="{ly - 8}" width="9" height="9" rx="2" fill="{color}"/>')
        out.append(
            f'<text x="{lx + 14}" y="{ly}" font-size="11" '
            f'fill="{TEXT_PRIMARY}">{svg_escape(name)}</text>'
        )
    footer = []
    if leftovers:
        footer.append(f"{len(leftovers)} non-swept benchmark(s) not plotted")
    if dropped:
        footer.append(f"{len(dropped)} series beyond the 8-color budget omitted")
    if footer:
        out.append(
            f'<text x="{WIDTH - MARGIN["right"]}" y="{HEIGHT - 8}" font-size="10" '
            f'text-anchor="end" fill="{TEXT_SECONDARY}">{svg_escape("; ".join(footer))}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+", help="BENCH_*.json files")
    parser.add_argument("-o", "--outdir", default="plots", help="output directory")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for artifact in args.artifacts:
        series, leftovers, host = load_series(artifact)
        stem = Path(artifact).stem
        if not series:
            print(f"{artifact}: no numeric-suffixed series to plot (skipped)")
            continue
        svg = render(stem, series, leftovers, host)
        target = outdir / f"{stem}.svg"
        target.write_text(svg)
        print(f"{artifact}: {len(series)} series -> {target}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
