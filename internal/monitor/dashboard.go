package monitor

// The HTML drift dashboard served at the monitor's root and, under its
// own title, at the fleet aggregator's: a static page whose inline
// script polls GET /timeline and redraws an estimate sparkline against
// the alarm line, the KS drift trace, the labeled-accuracy credible
// band (when the label-feedback store feeds the timeline) and a
// recent-window table. The page draws whatever the fetched documents
// hold, so one page serves a replica and a fleet: the shard panel
// appears when the relative status document lists replicas, the KS
// trace prefers the fleet statistic when the aggregator computed one.
// The refresh cadence is configured server-side
// (Config.DashboardRefresh) and delivered to the page inside the
// timeline document, so operators tune it with a flag, not by editing
// JavaScript.

import (
	"io"
	"net/http"
	"strings"

	"blackboxval/internal/obs"
)

// TimelineDoc is the JSON document served at GET /timeline.
type TimelineDoc struct {
	// AlarmLine is the score below which a batch violates.
	AlarmLine float64 `json:"alarm_line"`
	// WindowBatches is how many batches aggregate into one window.
	WindowBatches int `json:"window_batches"`
	// Capacity is the ring bound on retained windows.
	Capacity int `json:"capacity"`
	// RefreshMillis is the dashboard's poll interval (0 = no auto-refresh).
	RefreshMillis int `json:"refresh_ms"`
	// Alarming is the monitor's live alarm state.
	Alarming bool `json:"alarming"`
	// Windows are the retained closed windows, oldest first.
	Windows []obs.Window `json:"windows"`
}

// TimelineDoc snapshots the drift timeline for the JSON endpoint.
func (m *Monitor) TimelineDoc() TimelineDoc {
	return TimelineDoc{
		AlarmLine:     m.AlarmLine(),
		WindowBatches: m.timeline.WindowBatches(),
		Capacity:      m.timeline.Capacity(),
		RefreshMillis: int(m.DashboardRefresh().Milliseconds()),
		Alarming:      m.Alarming(),
		Windows:       m.timeline.Windows(),
	}
}

// TimelineHandler serves GET /timeline: a snapshot of doc with its
// windows clipped by the shared ?limit= contract. The monitor and the
// fleet aggregator both serve their timelines through it.
func TimelineHandler(doc func() TimelineDoc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !obs.RequireGet(w, r) {
			return
		}
		d := doc()
		var ok bool
		if d.Windows, ok = obs.Limit(w, r, d.Windows); ok {
			obs.WriteJSON(w, d)
		}
	})
}

// DashboardHandler serves the drift dashboard at GET / under the given
// page title and heading.
func DashboardHandler(title, heading string) http.Handler {
	page := strings.NewReplacer("{{title}}", title, "{{heading}}", heading).Replace(dashboardHTML)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		if !obs.RequireGet(w, r) {
			return
		}
		obs.SetNoStore(w, "text/html; charset=utf-8")
		io.WriteString(w, page)
	})
}

// dashboardHTML is deliberately dependency-free: no template engine, no
// asset pipeline, one fetch target per panel. The page reads every
// dynamic value — including its own refresh interval — from the
// documents it fetches; {{title}} and {{heading}} are filled in by
// DashboardHandler.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{title}}</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }
  h1 { font-size: 1.2rem; }
  h2 { font-size: 1rem; }
  .status { margin: .5rem 0 1rem; }
  .badge { padding: .15rem .5rem; border-radius: .25rem; color: #fff; }
  .ok { background: #2a7d2a; }
  .alarm { background: #b02a2a; }
  .stale { background: #b07a2a; }
  svg { border: 1px solid #ddd; background: #fafafa; }
  table { border-collapse: collapse; margin-top: 1rem; }
  th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: right; }
  th { background: #f0f0f0; }
  td.bad { background: #f6d5d5; }
  td.name { text-align: left; }
  .meta { color: #666; font-size: .85rem; }
  button { font: inherit; padding: .1rem .5rem; }
</style>
</head>
<body>
<h1>{{heading}}</h1>
<div class="status">
  state: <span id="state" class="badge ok">loading…</span>
  <span id="stale" class="badge stale" style="display:none"></span>
  <span id="gaps" class="badge stale" style="display:none"></span>
  <span class="meta" id="meta"></span>
  <span class="meta" id="incidents" style="display:none"><a href="/debug/incidents/view">incidents</a></span>
</div>
<svg id="chart" width="720" height="160" viewBox="0 0 720 160"></svg>
<div id="shardbox" style="display:none">
<h2>Shards</h2>
<table>
  <thead><tr><th>replica</th><th>observed</th><th>max window</th><th>fails</th><th>state</th></tr></thead>
  <tbody id="shards"></tbody>
</table>
</div>
<table>
  <thead id="head"></thead>
  <tbody id="rows"></tbody>
</table>
<div id="slo" style="display:none">
<h2>Serving latency</h2>
<div class="meta" id="slometa"></div>
<table>
  <thead><tr><th>stage</th><th>count</th><th>p50</th><th>p99</th><th>p999</th><th>max</th></tr></thead>
  <tbody id="slorows"></tbody>
</table>
<div class="meta" id="sloex"></div>
</div>
<div id="hist" style="display:none">
<h2>Durable history</h2>
<div class="meta">
  <button id="older">&laquo; older</button>
  <button id="newer">newer &raquo;</button>
  <span id="histmeta"></span>
</div>
<svg id="histchart" width="720" height="160" viewBox="0 0 720 160"></svg>
</div>
<script>
"use strict";
// line breaks its path wherever a point is flagged as following a gap,
// so a sparkline never draws a connecting stroke across missing
// windows.
function line(points, color) {
  if (!points.length) return "";
  var d = points.map(function (p, i) { return (i && !p.gap ? "L" : "M") + p.x.toFixed(1) + " " + p.y.toFixed(1); }).join(" ");
  return '<path d="' + d + '" fill="none" stroke="' + color + '" stroke-width="1.5"/>';
}
function seriesMean(w, name) {
  var a = w.series && w.series[name];
  return a && a.count ? a.sum / a.count : null;
}
function seriesLast(w, name) {
  var a = w.series && w.series[name];
  return a && a.count ? a.last : null;
}
function hasSeries(windows, name) {
  return windows.some(function (w) { return seriesMean(w, name) !== null; });
}
// ksSeries names the KS drift trace to draw: the aggregator's KS of the
// merged serving distributions when present, else the replica's own.
function ksSeries(windows) {
  return hasSeries(windows, "fleet_ks_max") ? "fleet_ks_max" : "ks_max";
}
function band(los, his, color) {
  if (los.length < 2) return "";
  var pts = los.concat(his.slice().reverse());
  var d = pts.map(function (p, i) { return (i ? "L" : "M") + p.x.toFixed(1) + " " + p.y.toFixed(1); }).join(" ") + " Z";
  return '<path d="' + d + '" fill="' + color + '" fill-opacity="0.25" stroke="none"/>';
}
function fixed(v, digits) { return v === null ? "–" : v.toFixed(digits); }
// drawDrift renders a gap-aware drift chart into an svg element. The x
// axis is proportional to window INDEX, not array position, so
// non-contiguous windows (ring evictions, a restarted producer, a
// compacted bucket followed by raw windows) leave visible holes:
// shaded gap rects, broken series lines. spans may be null (live ring,
// every window spans one index) or the /timeline/range spans array.
// Returns the number of missing window indices.
function drawDrift(el, windows, spans, alarmLine) {
  var W = 720, H = 160, pad = 8;
  var alarmY = H - pad - Math.max(0, Math.min(1, alarmLine)) * (H - 2 * pad);
  if (!windows.length) {
    el.innerHTML = '<line x1="0" x2="' + W + '" y1="' + alarmY + '" y2="' + alarmY + '" stroke="#b02a2a" stroke-dasharray="4 3"/>';
    return 0;
  }
  var spanOf = function (i) { return spans && spans[i] > 1 ? spans[i] : 1; };
  var first = windows[0].index;
  var last = windows[windows.length - 1].index + spanOf(windows.length - 1) - 1;
  var range = Math.max(1, last - first);
  var xs = function (idx) { return last === first ? W / 2 : pad + (idx - first) * (W - 2 * pad) / range; };
  var ys = function (v) { return H - pad - Math.max(0, Math.min(1, v)) * (H - 2 * pad); };
  var ksName = ksSeries(windows);
  var est = [], ks = [], lab = [], lablo = [], labhi = [];
  var gapRects = "", missing = 0, prevEnd = null;
  windows.forEach(function (w, i) {
    var gap = prevEnd !== null && w.index > prevEnd + 1;
    if (gap) {
      missing += w.index - prevEnd - 1;
      gapRects += '<rect x="' + xs(prevEnd).toFixed(1) + '" y="0" width="' +
        (xs(w.index) - xs(prevEnd)).toFixed(1) + '" height="' + H + '" fill="#b07a2a" fill-opacity="0.15"/>';
    }
    var x = xs(w.index + (spanOf(i) - 1) / 2); // bucket midpoint
    var e = seriesMean(w, "estimate"); if (e !== null) est.push({x: x, y: ys(e), gap: gap});
    var k = seriesMean(w, ksName); if (k !== null) ks.push({x: x, y: ys(k), gap: gap});
    // The labeled-accuracy posterior: last value per window is the most
    // recent Beta interval the label joins produced there.
    var m = seriesLast(w, "labeled_acc_mean"), lo = seriesLast(w, "labeled_acc_lo95"), hi = seriesLast(w, "labeled_acc_hi95");
    if (m !== null && lo !== null && hi !== null) {
      lab.push({x: x, y: ys(m), gap: gap});
      lablo.push({x: x, y: ys(lo)});
      labhi.push({x: x, y: ys(hi)});
    }
    prevEnd = w.index + spanOf(i) - 1;
  });
  el.innerHTML =
    gapRects +
    '<line x1="0" x2="' + W + '" y1="' + alarmY + '" y2="' + alarmY + '" stroke="#b02a2a" stroke-dasharray="4 3"/>' +
    band(lablo, labhi, "#2a7d2a") + line(lab, "#2a7d2a") +
    line(est, "#2255aa") + line(ks, "#cc8800");
  return missing;
}
var lastAlarmLine = 0;
function render(doc) {
  var windows = doc.windows || [];
  lastAlarmLine = doc.alarm_line;
  var state = document.getElementById("state");
  state.textContent = doc.alarming ? "ALARM" : "ok";
  state.className = "badge " + (doc.alarming ? "alarm" : "ok");
  document.getElementById("meta").textContent =
    windows.length + " windows · " + doc.window_batches + " batch(es)/window · alarm line " +
    doc.alarm_line.toFixed(4) + (doc.refresh_ms > 0 ? " · refresh " + doc.refresh_ms + "ms" : "");

  var missing = drawDrift(document.getElementById("chart"), windows, null, doc.alarm_line);
  var gapBadge = document.getElementById("gaps");
  if (missing > 0) {
    gapBadge.style.display = "";
    gapBadge.textContent = "STALE · " + missing + " missing window" + (missing > 1 ? "s" : "");
  } else {
    gapBadge.style.display = "none";
  }

  // Optional columns appear only when the timeline carries their series:
  // the label-feedback posterior, and the aggregator's stale-shard count.
  var ksName = ksSeries(windows);
  var hasLab = hasSeries(windows, "labeled_acc_mean"), hasStale = hasSeries(windows, "fleet_stale_shards");
  document.getElementById("head").innerHTML = "<tr><th>window</th><th>batches</th><th>estimate</th>" +
    (hasLab ? "<th>labeled acc [95% CI]</th>" : "") + "<th>" + ksName + "</th>" +
    (hasStale ? "<th>stale shards</th>" : "") + "<th>alarm</th></tr>";
  var rows = windows.slice(-12).reverse().map(function (w) {
    var e = seriesMean(w, "estimate"), k = seriesMean(w, ksName), a = seriesMean(w, "alarm");
    var m = seriesLast(w, "labeled_acc_mean"), lo = seriesLast(w, "labeled_acc_lo95"), hi = seriesLast(w, "labeled_acc_hi95");
    var s = seriesMean(w, "fleet_stale_shards");
    var labCell = (m === null || lo === null || hi === null) ? "–" :
      m.toFixed(3) + " [" + lo.toFixed(3) + ", " + hi.toFixed(3) + "]";
    return "<tr><td>" + w.index + "</td><td>" + w.batches + "</td><td>" + fixed(e, 4) + "</td>" +
      (hasLab ? "<td>" + labCell + "</td>" : "") + "<td>" + fixed(k, 4) + "</td>" +
      (hasStale ? '<td class="' + (s ? "bad" : "") + '">' + (s === null ? "–" : s) + "</td>" : "") +
      '<td class="' + (a ? "bad" : "") + '">' + (a ? "yes" : "no") + "</td></tr>";
  });
  document.getElementById("rows").innerHTML = rows.join("");
}
// The shard panel reads the relative status document. Only the fleet
// aggregator's lists replicas; a replica's status path 404s, so the
// panel and the stale-shard badge stay hidden there.
function renderStatus(st) {
  var fleet = !!(st && st.replicas);
  document.getElementById("shardbox").style.display = fleet ? "" : "none";
  var staleBadge = document.getElementById("stale");
  if (fleet && st.stale_shards > 0) {
    staleBadge.style.display = "";
    staleBadge.textContent = st.stale_shards + " stale shard" + (st.stale_shards > 1 ? "s" : "");
  } else {
    staleBadge.style.display = "none";
  }
  if (!fleet) return;
  document.getElementById("shards").innerHTML = st.replicas.map(function (r) {
    return '<tr><td class="name">' + r.name + "</td><td>" + r.observed + "</td><td>" +
      (r.max_window < 0 ? "–" : r.max_window) + "</td><td>" + r.fails +
      '</td><td class="' + (r.stale ? "bad" : "") + '">' +
      (r.stale ? "STALE" : (r.alarming ? "alarming" : "ok")) + "</td></tr>";
  }).join("");
}
function ms(v) { return (v * 1000).toFixed(2) + "ms"; }
// The serving SLO panel reads the root /slo (absolute: the replica
// dashboard is usually mounted under the gateway's /monitor/). A
// gateway reports burn rates; the fleet-merged view reports the target.
// Without an /slo the panel stays hidden.
function renderSLO(doc) {
  var box = document.getElementById("slo");
  if (!doc) { box.style.display = "none"; return; }
  box.style.display = "";
  document.getElementById("slometa").textContent =
    doc.requests + " requests · " + doc.over_budget + " over a " + ms(doc.budget_seconds) + " budget · " +
    (typeof doc.burn_fast === "number"
      ? "burn fast " + doc.burn_fast.toFixed(2) + " / slow " + doc.burn_slow.toFixed(2)
      : "target " + (doc.target * 100).toFixed(2) + "%");
  document.getElementById("slorows").innerHTML = (doc.stages || []).map(function (s) {
    return '<tr><td class="name">' + s.stage + "</td><td>" + s.count + "</td><td>" +
      ms(s.p50) + "</td><td>" + ms(s.p99) + "</td><td>" + ms(s.p999) + "</td><td>" + ms(s.max) + "</td></tr>";
  }).join("");
  document.getElementById("sloex").textContent = (doc.exemplars || []).length
    ? "slowest: " + doc.exemplars.map(function (e) { return e.id + " (" + ms(e.v) + ")"; }).join(", ")
    : "";
}
// optionalJSON resolves to the parsed document, or null when the
// endpoint is absent on this process.
function optionalJSON(url) {
  return fetch(url).then(function (r) { return r.ok ? r.json() : null; }).catch(function () { return null; });
}
function poll() {
  Promise.all([
    fetch("timeline").then(function (r) { return r.json(); }),
    optionalJSON("status"),
    optionalJSON("/slo")
  ]).then(function (res) {
    render(res[0]);
    renderStatus(res[1]);
    renderSLO(res[2]);
    if (res[0].refresh_ms > 0) setTimeout(poll, res[0].refresh_ms);
  }).catch(function () { setTimeout(poll, 5000); });
}
poll();
// The incidents link appears only where the flight recorder is mounted.
optionalJSON("/debug/incidents").then(function (doc) {
  if (doc) document.getElementById("incidents").style.display = "";
});
// Durable history: pages through the on-disk window store at the
// relative timeline/range endpoint (same page works standalone and
// behind the gateway's /monitor/ mount). The panel only appears when
// the producer ran with -tsdb-dir — the probe fetch 404s otherwise.
var histState = { page: 96, from: 0, to: 0, min: 0, max: 0 };
function renderHist(doc) {
  histState.min = doc.min_index; histState.max = doc.max_index;
  histState.from = doc.from; histState.to = doc.to;
  var missing = drawDrift(document.getElementById("histchart"), doc.windows || [], doc.spans || null, lastAlarmLine);
  document.getElementById("histmeta").textContent =
    "windows " + doc.from + "–" + doc.to + " of " + doc.min_index + "–" + doc.max_index +
    " · " + (doc.windows || []).length + " persisted" +
    (missing > 0 ? " · " + missing + " missing" : "");
  document.getElementById("older").disabled = doc.from <= doc.min_index;
  document.getElementById("newer").disabled = doc.to >= doc.max_index;
}
function loadHist(from, to) {
  fetch("timeline/range?from=" + from + "&to=" + to)
    .then(function (r) { if (!r.ok) throw 0; return r.json(); })
    .then(renderHist).catch(function () {});
}
function histPage(to) {
  loadHist(Math.max(histState.min, to - histState.page + 1), to);
}
function initHist() {
  fetch("timeline/range?from=0&to=0")
    .then(function (r) { if (!r.ok) throw 0; return r.json(); })
    .then(function (doc) {
      document.getElementById("hist").style.display = "";
      document.getElementById("older").onclick = function () {
        histPage(Math.max(histState.min + histState.page - 1, histState.from - 1));
      };
      document.getElementById("newer").onclick = function () {
        histPage(Math.min(histState.max, histState.to + histState.page));
      };
      histPage(doc.max_index);
    }).catch(function () {});
}
initHist();
</script>
</body>
</html>
`
