"""Self-refreshing fleet dashboard: one HTML page for a watched fleet.

Renders everything the :class:`~repro.fleet.watcher.FleetWatcher` knows into
a single dependency-free page that a browser re-polls on its own (a
``<meta http-equiv="refresh">`` tag — no JavaScript timers, no server):

* live flame graphs of the in-flight runs the watcher is tailing (each one
  the run's last sealed prefix, rendered via the existing
  :class:`FlameGraphBuilder`/``render_svg`` pipeline);
* sparkline trends computed in Python from the crash-safe health
  time-series (``repro.obs.timeseries``) — no client-side charting;
* store panels — run counts, quarantine inventory, degradation rollup and
  catalog-lock contention — served entirely from the catalog, the fleet
  query index and the always-on lock statistics.  Rendering a dashboard
  over a fully indexed store opens **no** profile files; only live views
  passed in explicitly are touched.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from ..core import metrics as M
from ..durable import atomic_write
from .flamegraph import FlameGraphBuilder
from .svg_export import render_svg

#: ``(section, name, label)`` rows the health panel charts by default.
DEFAULT_SPARKLINES: Tuple[Tuple[str, str, str], ...] = (
    ("gauges", "watcher.runs_live", "live runs"),
    ("gauges", "watcher.runs_stalled", "stalled runs"),
    ("gauges", "watcher.last_seal_age_s", "last seal age (s)"),
    ("counters", "watcher.seals_observed", "seals observed"),
    ("counters", "fleet.ingests", "runs ingested"),
    ("counters", "fleet.pruned_runs", "runs pruned"),
)

_PAGE_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8"/>
<meta http-equiv="refresh" content="{refresh_s}"/>
<title>{title}</title>
<style>
  body {{ font-family: -apple-system, 'Segoe UI', sans-serif; margin: 1.5rem; color: #1a1a1a; }}
  h1 {{ font-size: 1.3rem; }}
  h2 {{ font-size: 1.05rem; margin-top: 1.6rem; }}
  .meta {{ color: #666; font-size: 0.85rem; }}
  .panel {{ margin-top: 1rem; }}
  .cards {{ display: flex; flex-wrap: wrap; gap: 1rem; }}
  .card {{ border: 1px solid #ddd; border-radius: 6px; padding: 0.6rem 0.9rem; }}
  .card .big {{ font-size: 1.4rem; font-weight: 600; }}
  .stalled {{ color: #e15759; font-weight: 600; }}
  .issue {{ border-left: 4px solid #edc948; padding: 0.3rem 0.6rem; margin: 0.4rem 0; background: #fdf6e3; }}
  .issue.critical {{ border-color: #e15759; background: #fdecea; }}
  table {{ border-collapse: collapse; }}
  td, th {{ border: 1px solid #ddd; padding: 4px 8px; font-size: 0.85rem; text-align: left; }}
  .view {{ margin-top: 0.6rem; overflow-x: auto; }}
  .spark {{ display: inline-block; margin: 0 1rem 0.6rem 0; }}
  .spark .label {{ font-size: 0.8rem; color: #444; }}
</style>
</head>
<body>
<h1>{title}</h1>
<p class="meta">auto-refreshes every {refresh_s}s — close the tab to stop</p>
{body}
<script type="application/json" id="repro-dashboard-state">{state_json}</script>
</body>
</html>
"""


def _sparkline(points: Sequence[Tuple[float, float]], width: int = 240,
               height: int = 44) -> str:
    """A tiny inline SVG polyline for one metric series ('' when empty)."""
    if not points:
        return ""
    values = [value for _, value in points]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    pad = 3.0
    if len(points) == 1:
        coords = [(width / 2.0, height / 2.0)]
    else:
        step = (width - 2 * pad) / (len(points) - 1)
        coords = [(pad + index * step,
                   pad + (height - 2 * pad) * (1.0 - (value - low) / span))
                  for index, (_, value) in enumerate(points)]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    last_x, last_y = coords[-1]
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline points="{path}" fill="none" stroke="#4e79a7" '
            f'stroke-width="1.5"/>'
            f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" '
            f'fill="#4e79a7"/></svg>')


def _live_panel(live: Iterable, metric: str, top: int) -> Tuple[str, List[Dict]]:
    rows: List[str] = []
    state: List[Dict] = []
    builder = FlameGraphBuilder(metric=metric)
    for run in list(live)[:top]:
        name = escape(getattr(run, "name", "?"))
        nodes = int(getattr(run, "nodes", 0))
        total = float(getattr(run, "metric_total", 0.0))
        stalled = bool(getattr(run, "stalled", False))
        state.append({"name": getattr(run, "name", "?"), "nodes": nodes,
                      "metric_total": total, "stalled": stalled})
        badge = ' <span class="stalled">stalled (serving last sealed ' \
                'prefix)</span>' if stalled else ""
        header = (f"<h3>{name}{badge}</h3><p class=\"meta\">{nodes} node(s), "
                  f"{escape(metric)} total {total:.6g}</p>")
        view = getattr(run, "view", None)
        if view is None:
            rows.append(f'<div class="panel">{header}</div>')
            continue
        try:
            svg = render_svg(builder.top_down(view), title="")
        except Exception as error:  # a torn live file must not kill the page
            rows.append(f'<div class="panel">{header}<p class="stalled">'
                        f'flame graph unavailable: {escape(str(error))}'
                        f'</p></div>')
            continue
        rows.append(f'<div class="panel">{header}'
                    f'<div class="view">{svg}</div></div>')
    if not rows:
        return "<p>No live runs.</p>", state
    return "\n".join(rows), state


def _store_panels(store, metric: str) -> Tuple[str, Dict]:
    # Imported lazily: the gui layer must stay usable without pulling the
    # fleet package in for plain single-profile exports.
    from ..fleet.aggregate import FleetAggregator
    from ..fleet.store import catalog_lock_stats

    parts: List[str] = []
    state: Dict = {}
    records = store.runs()
    by_workload: Dict[str, int] = {}
    for record in records:
        by_workload[record.workload] = by_workload.get(record.workload, 0) + 1
    quarantined = store.quarantined()
    cards = [
        ("runs in store", len(records)),
        ("workloads", len(by_workload)),
        ("quarantined", len(quarantined)),
    ]
    parts.append('<div class="cards">' + "".join(
        f'<div class="card"><div class="big">{value}</div>{escape(label)}'
        f'</div>' for label, value in cards) + "</div>")
    state["runs"] = len(records)
    state["workloads"] = dict(by_workload)

    if by_workload:
        parts.append("<h2>Workloads</h2><table><tr><th>workload</th>"
                     "<th>runs</th><th>latest run</th></tr>")
        for workload in sorted(by_workload):
            latest = store.latest(workload=workload)
            latest_id = latest.run_id if latest is not None else "—"
            parts.append(f"<tr><td>{escape(workload)}</td>"
                         f"<td>{by_workload[workload]}</td>"
                         f"<td>{escape(latest_id)}</td></tr>")
        parts.append("</table>")

    if quarantined:
        parts.append("<h2>Quarantined runs</h2>")
        for record in quarantined:
            parts.append(f'<div class="issue critical">'
                         f'<strong>{escape(record.run_id)}</strong> '
                         f'({escape(record.workload)}) — '
                         f'{escape(record.quarantine_reason)}</div>')

    degradation: Dict = {}
    if records:
        aggregator = FleetAggregator.from_store(store)
        try:
            degradation = aggregator.degradation_report()
        finally:
            aggregator.close()
        counts = dict(degradation.get("counts", {}))
        state["degradation_counts"] = counts
        parts.append("<h2>Fleet query health</h2><table>"
                     "<tr><th>count</th><th>value</th></tr>")
        for key in sorted(counts):
            value = counts[key]
            if isinstance(value, dict):
                value = ", ".join(f"{k}={v}" for k, v in sorted(value.items())) or "—"
            parts.append(f"<tr><td>{escape(str(key))}</td>"
                         f"<td>{escape(str(value))}</td></tr>")
        parts.append("</table>")
        for entry in degradation.get("degraded_runs", []):
            parts.append(f'<div class="issue">degraded: '
                         f'{escape(str(entry.get("run_id")))} at the '
                         f'{escape(str(entry.get("stage")))} stage — '
                         f'{escape(str(entry.get("reason")))}</div>')

    lock = catalog_lock_stats()
    state["catalog_lock"] = dict(lock)
    parts.append("<h2>Catalog lock</h2><table><tr>" + "".join(
        f"<th>{escape(key)}</th>" for key in sorted(lock)) + "</tr><tr>" +
        "".join(f"<td>{lock[key]:g}</td>" for key in sorted(lock)) +
        "</tr></table>")
    return "\n".join(parts), state


def _health_panel(health, sparklines: Sequence[Tuple[str, str, str]]) -> str:
    parts: List[str] = []
    for section, name, label in sparklines:
        points = health.series(section, name)
        svg = _sparkline(points)
        if not svg:
            continue
        current = points[-1][1]
        parts.append(f'<div class="spark"><div class="label">'
                     f'{escape(label)} — now {current:g}</div>{svg}</div>')
    if not parts:
        return "<p>No health samples yet.</p>"
    return "\n".join(parts)


def _issues_panel(issue_log, top: int) -> str:
    rows = issue_log.records()
    if not rows:
        return "<p>No issues filed.</p>"
    parts: List[str] = []
    for row in rows[-top:][::-1]:
        severity = str(row.get("severity", "warning"))
        css = "issue critical" if severity == "critical" else "issue"
        workload = str(row.get("workload", ""))
        tag = f" [{escape(workload)}]" if workload else ""
        parts.append(f'<div class="{css}"><strong>'
                     f'{escape(str(row.get("analysis", "?")))}</strong>{tag} — '
                     f'{escape(str(row.get("node", "")))}<br/>'
                     f'{escape(str(row.get("message", "")))}</div>')
    parts.append(f'<p class="meta">{len(rows)} issue(s) on file, newest '
                 f'{min(top, len(rows))} shown</p>')
    return "\n".join(parts)


def render_dashboard(store=None, health=None, live: Optional[Iterable] = None,
                     issue_log=None, title: str = "repro fleet dashboard",
                     refresh_s: int = 5, metric: str = M.METRIC_GPU_TIME,
                     top: int = 10,
                     sparklines: Sequence[Tuple[str, str, str]] =
                     DEFAULT_SPARKLINES) -> str:
    """Render the fleet dashboard page; every input is optional.

    ``live`` is an iterable of the watcher's :class:`WatchedRun` entries (or
    anything exposing ``name``/``view``/``nodes``/``metric_total``); only
    these get flame-graphed.  Store panels are answered from the catalog and
    the fleet query index alone.
    """
    sections: List[str] = []
    state: Dict[str, object] = {}
    sections.append("<h2>Live runs</h2>")
    live_html, live_state = _live_panel(live or (), metric, top)
    sections.append(live_html)
    state["live"] = live_state
    sections.append("<h2>Health trends</h2>")
    sections.append(_health_panel(health, sparklines)
                    if health is not None else "<p>No health time-series.</p>")
    if store is not None:
        store_html, store_state = _store_panels(store, metric)
        sections.append(store_html)
        state["store"] = store_state
    sections.append("<h2>Issue log</h2>")
    sections.append(_issues_panel(issue_log, top)
                    if issue_log is not None else "<p>No issue log.</p>")
    return _PAGE_TEMPLATE.format(
        title=escape(title),
        refresh_s=int(refresh_s),
        body="\n".join(sections),
        state_json=json.dumps(state, sort_keys=True),
    )


def save_dashboard(path: str, **kwargs) -> str:
    """Atomically (re)write the dashboard page.

    Temp-plus-rename so the browser's next auto-refresh never reads a
    half-written page, no matter when the watcher's render job lands.
    """
    page = render_dashboard(**kwargs)
    with atomic_write(path, "w") as handle:
        handle.write(page)
    return path
