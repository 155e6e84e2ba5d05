"""Self-contained HTML dashboard for fleet telemetry.

``render_dashboard`` turns a fleet report dict (the parsed
``FLEET_report.json``) into ONE html file: inline CSS, inline SVG charts
and a few lines of inline JS for collapsing alert detail — zero external
resources, zero network requests, so the artifact opens anywhere
(CI artifact viewers, ``file://`` URLs, air-gapped boxes).

Charts per episode that carries a ``timeline`` section:

* fleet timeline — line chart of the fleet-wide signals with domain
  events (vertical dashes) and alert annotations (markers);
* bandwidth-share stack — per-tenant remote-store shares resampled onto
  the fleet time grid and stacked;
* tier byte-flow — host / disk / remote byte counters over time;
* tenant swimlanes — one lane per tenant from admit to exit, degraded
  windows shaded, tenant-scoped alerts marked;
* alert table — every fired alert with its flight recorder behind a
  ``<details>`` fold.

Everything is computed from the report dict; the renderer holds no
state and never touches the filesystem except in :func:`write_dashboard`.
"""

from __future__ import annotations

import html
import json
from typing import List, Optional, Sequence

from repro.obs.provenance import write_atomic

#: Qualitative palette (colorblind-safe-ish, dark-on-light).
PALETTE = (
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
    "#ff8ab7", "#a463f2", "#97bbf5", "#9c6b4e", "#9498a0",
)

#: Cap on swimlane rows; lanes are ranked by degraded time so the
#: interesting tenants survive truncation.
MAX_LANES = 48

_SEVERITY_COLOR = {"violation": "#d62728", "warning": "#b8860b"}


def _fmt(value: float) -> str:
    """Compact axis-label formatting (1.5k, 2.3M, ...)."""
    value = float(value)
    for cut, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= cut:
            return f"{value / cut:.3g}{suffix}"
    return f"{value:.4g}"


def _esc(text) -> str:
    return html.escape(str(text), quote=True)


class _Frame:
    """Maps data coordinates into an SVG plot frame."""

    def __init__(
        self,
        t_lo: float,
        t_hi: float,
        v_lo: float,
        v_hi: float,
        width: int = 860,
        height: int = 220,
        margin_left: int = 58,
        margin_bottom: int = 26,
        margin_top: int = 10,
        margin_right: int = 12,
    ) -> None:
        self.t_lo, self.t_hi = t_lo, max(t_hi, t_lo + 1e-9)
        self.v_lo, self.v_hi = v_lo, max(v_hi, v_lo + 1e-9)
        self.width, self.height = width, height
        self.x0, self.x1 = margin_left, width - margin_right
        self.y0, self.y1 = height - margin_bottom, margin_top

    def x(self, t: float) -> float:
        frac = (t - self.t_lo) / (self.t_hi - self.t_lo)
        return self.x0 + frac * (self.x1 - self.x0)

    def y(self, v: float) -> float:
        frac = (v - self.v_lo) / (self.v_hi - self.v_lo)
        return self.y0 + frac * (self.y1 - self.y0)

    def axes(self, v_ticks: int = 4, t_ticks: int = 6) -> List[str]:
        parts = [
            f'<line x1="{self.x0}" y1="{self.y0:.1f}" x2="{self.x1}" '
            f'y2="{self.y0:.1f}" class="axis"/>',
            f'<line x1="{self.x0}" y1="{self.y0:.1f}" x2="{self.x0}" '
            f'y2="{self.y1:.1f}" class="axis"/>',
        ]
        for i in range(v_ticks + 1):
            v = self.v_lo + (self.v_hi - self.v_lo) * i / v_ticks
            y = self.y(v)
            parts.append(
                f'<line x1="{self.x0 - 3}" y1="{y:.1f}" x2="{self.x1}" '
                f'y2="{y:.1f}" class="grid"/>'
            )
            parts.append(
                f'<text x="{self.x0 - 6}" y="{y + 3:.1f}" '
                f'class="tick" text-anchor="end">{_fmt(v)}</text>'
            )
        for i in range(t_ticks + 1):
            t = self.t_lo + (self.t_hi - self.t_lo) * i / t_ticks
            x = self.x(t)
            parts.append(
                f'<text x="{x:.1f}" y="{self.y0 + 16:.1f}" class="tick" '
                f'text-anchor="middle">{_fmt(t / 3600.0)}h</text>'
            )
        return parts


def _polyline(frame: _Frame, ts: Sequence[float], vs: Sequence[float],
              color: str, title: str = "") -> str:
    if not ts:
        return ""
    points = " ".join(
        f"{frame.x(t):.1f},{frame.y(v):.1f}" for t, v in zip(ts, vs)
    )
    tip = f"<title>{_esc(title)}</title>" if title else ""
    return (
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        f'stroke-width="1.6">{tip}</polyline>'
    )


def _legend(names: Sequence[str], colors: Sequence[str]) -> str:
    chips = "".join(
        f'<span class="chip"><span class="swatch" '
        f'style="background:{color}"></span>{_esc(name)}</span>'
        for name, color in zip(names, colors)
    )
    return f'<div class="legend">{chips}</div>'


def _event_markers(frame: _Frame, events: Sequence[dict]) -> List[str]:
    parts = []
    for event in events:
        t = event.get("t", 0.0)
        if not (frame.t_lo <= t <= frame.t_hi):
            continue
        x = frame.x(t)
        label = event.get("domain") or event.get("tenant") or event.get("kind")
        parts.append(
            f'<line x1="{x:.1f}" y1="{frame.y1}" x2="{x:.1f}" '
            f'y2="{frame.y0}" class="event">'
            f"<title>{_esc(event.get('kind'))} {_esc(label)} "
            f"@ {_fmt(t)}s</title></line>"
        )
    return parts


def _alert_markers(frame: _Frame, alerts: Sequence[dict]) -> List[str]:
    parts = []
    for alert in alerts:
        t = alert.get("t", 0.0)
        if not (frame.t_lo <= t <= frame.t_hi):
            continue
        x = frame.x(t)
        color = _SEVERITY_COLOR.get(alert.get("severity"), "#b8860b")
        parts.append(
            f'<path d="M {x:.1f} {frame.y1 + 2} l 5 9 l -10 0 z" '
            f'fill="{color}"><title>{_esc(alert.get("rule"))} '
            f'({_esc(alert.get("severity"))}) '
            f'{_esc(alert.get("tenant", "fleet"))} @ {_fmt(t)}s: '
            f'{_esc(alert.get("signal"))}={_fmt(alert.get("value", 0.0))}'
            f"</title></path>"
        )
    return parts


def _svg(frame: _Frame, body: List[str]) -> str:
    return (
        f'<svg viewBox="0 0 {frame.width} {frame.height}" '
        f'width="{frame.width}" height="{frame.height}" '
        f'xmlns="http://www.w3.org/2000/svg">' + "".join(body) + "</svg>"
    )


def _section(title: str, body: str) -> str:
    return f"<section><h2>{_esc(title)}</h2>{body}</section>"


def _line_chart(
    ts: Sequence[float],
    series: dict,
    events: Sequence[dict] = (),
    alerts: Sequence[dict] = (),
) -> str:
    if not ts:
        return '<p class="empty">no samples</p>'
    v_hi = max((max(vs) for vs in series.values() if vs), default=1.0)
    frame = _Frame(ts[0], ts[-1], 0.0, v_hi * 1.05 or 1.0)
    body = frame.axes()
    body += _event_markers(frame, events)
    names, colors = [], []
    for i, (name, vs) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        names.append(name)
        colors.append(color)
        body.append(_polyline(frame, ts, vs, color, title=name))
    body += _alert_markers(frame, alerts)
    return _svg(frame, body) + _legend(names, colors)


def _resample(ts: Sequence[float], vs: Sequence[float],
              grid: Sequence[float]) -> List[float]:
    """Step-function lookup of (ts, vs) onto ``grid`` (previous value)."""
    out, j, last = [], 0, 0.0
    for t in grid:
        while j < len(ts) and ts[j] <= t:
            last = vs[j]
            j += 1
        out.append(last if j else 0.0)
    return out


def _stack_chart(grid: Sequence[float], tenants: dict, signal: str) -> str:
    """Stacked area of one per-tenant signal on the fleet time grid."""
    if not grid:
        return '<p class="empty">no samples</p>'
    layers = []
    for name, payload in tenants.items():
        vs = payload.get("series", {}).get(signal)
        if vs and any(vs):
            layers.append(
                (name, _resample(payload.get("t", []), vs, grid))
            )
    if not layers:
        return '<p class="empty">no bandwidth claims sampled</p>'
    totals = [0.0] * len(grid)
    stacked = []
    for name, vs in layers:
        base = list(totals)
        totals = [a + b for a, b in zip(totals, vs)]
        stacked.append((name, base, list(totals)))
    frame = _Frame(grid[0], grid[-1], 0.0, max(max(totals), 1.0) * 1.05)
    body = frame.axes()
    names, colors = [], []
    for i, (name, lo, hi) in enumerate(stacked):
        color = PALETTE[i % len(PALETTE)]
        names.append(name)
        colors.append(color)
        upper = " ".join(
            f"{frame.x(t):.1f},{frame.y(v):.1f}" for t, v in zip(grid, hi)
        )
        lower = " ".join(
            f"{frame.x(t):.1f},{frame.y(v):.1f}"
            for t, v in zip(reversed(grid), reversed(lo))
        )
        body.append(
            f'<polygon points="{upper} {lower}" fill="{color}" '
            f'fill-opacity="0.65" stroke="none">'
            f"<title>{_esc(name)}</title></polygon>"
        )
    if len(names) > 10:
        names, colors = names[:10] + [f"... {len(names) - 10} more"], \
            list(colors[:10]) + ["#ccc"]
    return _svg(frame, body) + _legend(names, colors)


def _degraded_intervals(payload: dict, t_end: float) -> List[tuple]:
    """(start, end) degraded windows from a tenant's transition log."""
    intervals, open_at = [], None
    for transition in payload.get("transitions", []):
        if transition["kind"] == "degraded":
            if open_at is None:
                open_at = transition["t"]
        elif open_at is not None:
            intervals.append((open_at, transition["t"]))
            open_at = None
    if open_at is not None:
        intervals.append((open_at, t_end))
    return intervals


def _swimlanes(timeline: dict, alerts: Sequence[dict]) -> str:
    tenants = timeline.get("tenants", {})
    if not tenants:
        return '<p class="empty">no tenants sampled</p>'
    ranked = sorted(
        tenants.items(),
        key=lambda kv: (
            -(kv[1].get("degraded_integral_closed_s", 0.0)
              + kv[1].get("degraded_open_tail_s", 0.0)),
            kv[0],
        ),
    )
    shown = ranked[:MAX_LANES]
    fleet_t = timeline.get("fleet", {}).get("t", [])
    t_lo = fleet_t[0] if fleet_t else 0.0
    t_hi = fleet_t[-1] if fleet_t else 1.0
    lane_h = 14
    height = 30 + lane_h * len(shown) + 24
    frame = _Frame(t_lo, t_hi, 0.0, 1.0, height=height,
                   margin_left=150, margin_top=8, margin_bottom=22)
    parts = []
    by_tenant: dict = {}
    for alert in alerts:
        if alert.get("tenant"):
            by_tenant.setdefault(alert["tenant"], []).append(alert)
    for i, (name, payload) in enumerate(shown):
        y = frame.y1 + 8 + i * lane_h
        ts = payload.get("t", [])
        if not ts:
            continue
        x_lo, x_hi = frame.x(ts[0]), frame.x(ts[-1])
        parts.append(
            f'<text x="{frame.x0 - 6}" y="{y + 9:.1f}" class="tick" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
        parts.append(
            f'<rect x="{x_lo:.1f}" y="{y}" width="{max(x_hi - x_lo, 1):.1f}" '
            f'height="{lane_h - 4}" class="lane">'
            f"<title>{_esc(name)}: {_fmt(ts[0])}s - {_fmt(ts[-1])}s"
            f"</title></rect>"
        )
        for start, end in _degraded_intervals(payload, ts[-1]):
            x_s, x_e = frame.x(start), frame.x(end)
            parts.append(
                f'<rect x="{x_s:.1f}" y="{y}" '
                f'width="{max(x_e - x_s, 1):.1f}" height="{lane_h - 4}" '
                f'class="degraded"><title>{_esc(name)} degraded '
                f"{_fmt(end - start)}s</title></rect>"
            )
        for alert in by_tenant.get(name, []):
            x = frame.x(alert.get("t", 0.0))
            color = _SEVERITY_COLOR.get(alert.get("severity"), "#b8860b")
            parts.append(
                f'<path d="M {x:.1f} {y - 1} l 4 7 l -8 0 z" fill="{color}">'
                f'<title>{_esc(alert.get("rule"))} @ '
                f'{_fmt(alert.get("t", 0.0))}s</title></path>'
            )
    for i in range(7):
        t = t_lo + (t_hi - t_lo) * i / 6
        x = frame.x(t)
        parts.append(
            f'<text x="{x:.1f}" y="{height - 6}" class="tick" '
            f'text-anchor="middle">{_fmt(t / 3600.0)}h</text>'
        )
    note = (
        f'<p class="note">showing {len(shown)} of {len(tenants)} tenants '
        f"(ranked by degraded time)</p>" if len(shown) < len(tenants) else ""
    )
    return _svg(frame, parts) + note


def _alert_table(alerts_block: Optional[dict]) -> str:
    if not alerts_block:
        return '<p class="empty">telemetry ran without an alert engine</p>'
    fired = alerts_block.get("fired", [])
    counts = alerts_block.get("counts", {})
    header = (
        f'<p>{counts.get("total", 0)} alert(s): '
        f'{counts.get("violation", 0)} violation, '
        f'{counts.get("warning", 0)} warning; '
        f'{alerts_block.get("evaluations", 0)} rule evaluations</p>'
    )
    if not fired:
        return header + '<p class="empty">no alerts fired</p>'
    rows = []
    for i, alert in enumerate(fired):
        color = _SEVERITY_COLOR.get(alert.get("severity"), "#b8860b")
        recorder = alert.get("flight_recorder", {})
        correlated = alert.get("correlated_event")
        context = json.dumps(
            {
                "triggering_samples": alert.get("triggering_samples", []),
                "correlated_event": correlated,
                "flight_recorder": recorder,
            },
            indent=2,
            sort_keys=True,
        )
        correlated_text = (
            f"{correlated.get('kind')} "
            f"{correlated.get('domain', correlated.get('tenant', ''))} "
            f"@ {_fmt(correlated.get('t', 0.0))}s"
            if correlated
            else "-"
        )
        rows.append(
            "<tr>"
            f'<td><span class="sev" style="background:{color}">'
            f'{_esc(alert.get("severity"))}</span></td>'
            f'<td>{_esc(alert.get("rule"))}</td>'
            f'<td>{_esc(alert.get("tenant", "fleet"))}</td>'
            f'<td>{_fmt(alert.get("t", 0.0))}s</td>'
            f'<td><code>{_esc(alert.get("signal"))} = '
            f'{_fmt(alert.get("value", 0.0))} '
            f'(threshold {_fmt(alert.get("threshold", 0.0))})</code></td>'
            f"<td>{_esc(correlated_text)}</td>"
            f'<td><details><summary>last '
            f'{len(recorder.get("t", []))} samples</summary>'
            f"<pre>{_esc(context)}</pre></details></td>"
            "</tr>"
        )
    return header + (
        "<table><thead><tr><th>severity</th><th>rule</th><th>scope</th>"
        "<th>at</th><th>trigger</th><th>correlated event</th>"
        "<th>flight recorder</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 24px auto;
       max-width: 960px; color: #1a1a1a; }
h1 { font-size: 20px; } h2 { font-size: 15px; margin: 22px 0 6px; }
section { margin-bottom: 14px; }
.axis { stroke: #444; stroke-width: 1; }
.grid { stroke: #000; stroke-opacity: 0.06; }
.tick { font: 10px system-ui, sans-serif; fill: #555; }
.event { stroke: #d62728; stroke-width: 1; stroke-dasharray: 3 3;
         stroke-opacity: 0.6; }
.lane { fill: #4269d0; fill-opacity: 0.25; }
.degraded { fill: #ff725c; fill-opacity: 0.85; }
.legend { margin: 2px 0 0; }
.chip { margin-right: 10px; white-space: nowrap; font-size: 11px; }
.swatch { display: inline-block; width: 9px; height: 9px;
          margin-right: 3px; border-radius: 2px; }
.sev { color: #fff; padding: 1px 6px; border-radius: 3px; font-size: 11px; }
table { border-collapse: collapse; font-size: 12px; }
td, th { border: 1px solid #ddd; padding: 3px 7px; text-align: left;
         vertical-align: top; }
pre { max-height: 260px; overflow: auto; background: #f6f6f6;
      padding: 6px; font-size: 10px; }
.empty, .note { color: #777; font-style: italic; }
.meta { color: #555; font-size: 12px; }
code { font-size: 11px; }
"""

#: Tiny inline script — keeps <details> folds closed on print, nothing
#: else.  No external requests of any kind.
_JS = """
document.addEventListener('beforeprint',
  () => document.querySelectorAll('details[open]')
    .forEach(d => d.removeAttribute('open')));
"""

_FLEET_CHART_SIGNALS = (
    "running_tenants", "degraded_tenants", "admission_queue",
    "free_slots", "down_slots", "spare_queue",
)


def _episode_sections(episode: dict) -> str:
    timeline = episode.get("timeline")
    if not timeline:
        return _section(
            f"episode {episode.get('episode', '?')}",
            '<p class="empty">no timeline section (run with --timeline)</p>',
        )
    fleet = timeline.get("fleet", {})
    ts = fleet.get("t", [])
    series = fleet.get("series", {})
    events = timeline.get("events", [])
    alerts_block = timeline.get("alerts") or {}
    fired = alerts_block.get("fired", [])
    fleet_alerts = [a for a in fired if not a.get("tenant")]
    chart_series = {
        name: series[name]
        for name in _FLEET_CHART_SIGNALS
        if name in series
    }
    tier_series = {
        name: series[name]
        for name in ("host_bytes", "disk_bytes", "remote_bytes")
        if name in series
    }
    index = episode.get("episode", "?")
    parts = [
        _section(
            f"episode {index} · fleet timeline "
            f"({timeline.get('samples', 0)} samples "
            f"@ {timeline.get('period_s', 0)}s)",
            _line_chart(ts, chart_series, events, fleet_alerts),
        ),
        _section(
            f"episode {index} · remote-bandwidth shares (stacked)",
            _stack_chart(ts, timeline.get("tenants", {}), "share_remote"),
        ),
        _section(
            f"episode {index} · tier byte-flow",
            _line_chart(ts, tier_series, events, []),
        ),
        _section(
            f"episode {index} · tenant swimlanes",
            _swimlanes(timeline, fired),
        ),
        _section(
            f"episode {index} · alerts",
            _alert_table(alerts_block),
        ),
    ]
    return "".join(parts)


def render_dashboard(report: dict, title: str = "fleet telemetry") -> str:
    """One self-contained HTML page for a fleet report dict."""
    config = report.get("config", {})
    aggregates = report.get("aggregates", {})
    provenance = report.get("provenance", {})
    meta_bits = [
        f"jobs={config.get('jobs')}",
        f"episodes={config.get('episodes')}",
        f"seed={config.get('seed')}",
        f"slots={config.get('fleet_slots')}",
        f"arbitration={config.get('arbitration')}",
        f"violations={len(report.get('violations', []))}",
    ]
    if provenance.get("git_sha"):
        meta_bits.append(f"git={str(provenance['git_sha'])[:12]}")
    if aggregates.get("states"):
        meta_bits.append(
            "states: "
            + ", ".join(
                f"{k}={v}" for k, v in aggregates["states"].items()
            )
        )
    episodes = report.get("episodes", [])
    body = "".join(_episode_sections(e) for e in episodes)
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{_esc(title)}</h1>"
        f'<p class="meta">{_esc(" · ".join(meta_bits))}</p>'
        + body
        + f"<script>{_JS}</script></body></html>"
    )


def write_dashboard(report: dict, path: str,
                    title: str = "fleet telemetry") -> str:
    """Render and write the dashboard; returns ``path``."""
    write_atomic(path, render_dashboard(report, title=title))
    return path
