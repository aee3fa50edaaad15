package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// StreamHandler serves a Sampler as Server-Sent Events: the retained
// history first, then every new sample as it is taken, one
//
//	event: sample
//	id: <seq>
//	data: {"seq":..,"t":..,"series":{...}}
//
// frame per sample, with keep-alive comments at DefaultKeepAliveInterval
// while idle. The handler holds the connection until the client
// disconnects.
func StreamHandler(s *Sampler) http.Handler {
	return StreamHandlerOpts(s, DefaultKeepAliveInterval)
}

// StreamHandlerOpts is StreamHandler with an explicit keep-alive interval
// (0 selects the default, negative disables keep-alives). The sampler
// normally emits a frame every SamplerOptions.Interval, but a paused
// sampler — or one with a long interval — would otherwise leave the
// connection silent long enough for intermediaries to drop it.
func StreamHandlerOpts(s *Sampler, keepAlive time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st, ok := NewSSEStream(w)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		if keepAlive >= 0 {
			stop := st.KeepAlive(r.Context(), keepAlive)
			defer stop()
		}

		backlog, ch, cancel := s.Subscribe(16)
		defer cancel()
		write := func(sm Sample) bool {
			b, err := json.Marshal(sm)
			if err != nil {
				return false
			}
			return st.WriteEvent("sample", strconv.FormatUint(sm.Seq, 10), b)
		}
		for _, sm := range backlog {
			if !write(sm) {
				return
			}
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case sm, ok := <-ch:
				if !ok || !write(sm) {
					return
				}
			}
		}
	})
}

// DashHandler serves the live dashboard: one self-contained HTML page
// (inline CSS/JS, SVG sparklines, zero external asset fetches) that
// subscribes to the SSE stream at streamPath and renders every series as a
// tile with its latest value and recent history.
func DashHandler(streamPath string) http.Handler {
	return DashHandlerOpts(streamPath, "")
}

// DashHandlerOpts is DashHandler plus an optional SLO report endpoint
// (tmplar's /debug/slo). When sloPath is non-empty the page polls it and
// renders an objectives panel above the metric tiles: state, burn rates,
// budget consumed, and — when an objective knows its most recent violating
// request — a link into /debug/traces for that exemplar's trace ID.
func DashHandlerOpts(streamPath, sloPath string) http.Handler {
	return DashHandlerFull(streamPath, sloPath, "")
}

// DashHandlerFull is DashHandlerOpts plus an optional continuous-profiler
// endpoint (tmplar's /debug/prof). When profPath is non-empty the page polls
// the capture list and renders a hot-functions panel from the newest
// finished capture's CPU table (falling back to heap when the CPU window
// caught no samples), linking each capture to its full table.
func DashHandlerFull(streamPath, sloPath, profPath string) http.Handler {
	return DashHandlerAll(streamPath, sloPath, profPath, "")
}

// DashHandlerAll is DashHandlerFull plus an optional planner-catalog
// endpoint (tmplar's /debug/catalog). When catalogPath is non-empty the page
// polls the catalog snapshot and renders a tenants panel: resident (grid,
// model) planner entries with refs/hits/age, plus the hit/miss/eviction
// counters.
func DashHandlerAll(streamPath, sloPath, profPath, catalogPath string) http.Handler {
	page := strings.Replace(dashHTML, "__STREAM_PATH__", streamPath, 1)
	page = strings.Replace(page, "__SLO_PATH__", sloPath, 1)
	page = strings.Replace(page, "__PROF_PATH__", profPath, 1)
	page = strings.Replace(page, "__CATALOG_PATH__", catalogPath, 1)
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(page))
	})
}

// dashHTML is the whole dashboard. It deliberately references nothing
// external — no fonts, scripts, stylesheets or images — so it renders on
// an air-gapped operations network exactly as it does in development.
const dashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>live metrics</title>
<style>
  :root { color-scheme: dark; }
  body { margin: 0; padding: 16px; background: #14171c; color: #d8dee6;
         font: 13px/1.4 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace; }
  header { display: flex; align-items: baseline; gap: 16px; margin-bottom: 12px; }
  h1 { font-size: 15px; margin: 0; font-weight: 600; }
  #status { color: #7d8590; }
  #status.live { color: #5cb870; }
  #filter { background: #1d2127; color: inherit; border: 1px solid #2c323b;
            border-radius: 4px; padding: 4px 8px; width: 280px; }
  #tiles { display: grid; grid-template-columns: repeat(auto-fill, minmax(260px, 1fr)); gap: 8px; }
  .tile { background: #1b1f26; border: 1px solid #2c323b; border-radius: 6px; padding: 8px 10px; }
  .tile .name { color: #9aa4b2; font-size: 11px; overflow-wrap: anywhere; }
  .tile .val { font-size: 18px; margin: 2px 0 4px; }
  .tile svg { display: block; width: 100%; height: 36px; }
  .tile polyline { fill: none; stroke: #4f9cf9; stroke-width: 1.5; }
  #slos { margin-bottom: 12px; }
  #slos table { border-collapse: collapse; width: 100%; background: #1b1f26;
                border: 1px solid #2c323b; border-radius: 6px; }
  #slos th, #slos td { text-align: left; padding: 5px 10px; border-bottom: 1px solid #2c323b; }
  #slos th { color: #9aa4b2; font-size: 11px; font-weight: 500; }
  #slos .objective { color: #9aa4b2; }
  #slos a { color: #4f9cf9; text-decoration: none; }
  #prof { margin-bottom: 12px; }
  #prof table { border-collapse: collapse; width: 100%; background: #1b1f26;
                border: 1px solid #2c323b; border-radius: 6px; }
  #prof th, #prof td { text-align: left; padding: 4px 10px; border-bottom: 1px solid #2c323b; }
  #prof th { color: #9aa4b2; font-size: 11px; font-weight: 500; }
  #prof caption { text-align: left; color: #9aa4b2; font-size: 11px; padding: 5px 10px;
                  background: #1b1f26; border: 1px solid #2c323b; border-bottom: none; }
  #prof .fn { overflow-wrap: anywhere; }
  #prof .num { text-align: right; }
  #prof a { color: #4f9cf9; text-decoration: none; }
  #catalog { margin-bottom: 12px; }
  #catalog table { border-collapse: collapse; width: 100%; background: #1b1f26;
                   border: 1px solid #2c323b; border-radius: 6px; }
  #catalog th, #catalog td { text-align: left; padding: 4px 10px; border-bottom: 1px solid #2c323b; }
  #catalog th { color: #9aa4b2; font-size: 11px; font-weight: 500; }
  #catalog caption { text-align: left; color: #9aa4b2; font-size: 11px; padding: 5px 10px;
                     background: #1b1f26; border: 1px solid #2c323b; border-bottom: none; }
  #catalog .num { text-align: right; }
  .st { padding: 1px 7px; border-radius: 8px; font-size: 11px; }
  .st-ok { background: #143a1f; color: #5cb870; }
  .st-warn { background: #3d3314; color: #d6a545; }
  .st-breach { background: #3f1a1a; color: #e06c6c; }
</style>
</head>
<body>
<header>
  <h1>live metrics</h1>
  <span id="status">connecting&hellip;</span>
  <input id="filter" type="search" placeholder="filter series (e.g. rate, heap, p99)">
</header>
<div id="slos"></div>
<div id="catalog"></div>
<div id="prof"></div>
<div id="tiles"></div>
<script>
"use strict";
const MAX_POINTS = 300;
const series = new Map();   // key -> [{t, v}, ...]
let lastSeq = -1, dirty = false;

const status = document.getElementById("status");
const tiles = document.getElementById("tiles");
const filter = document.getElementById("filter");
filter.addEventListener("input", () => { dirty = true; });

const es = new EventSource("__STREAM_PATH__");
es.addEventListener("open", () => { status.textContent = "live"; status.className = "live"; });
es.addEventListener("error", () => { status.textContent = "reconnecting…"; status.className = ""; });
es.addEventListener("sample", (ev) => {
  const sm = JSON.parse(ev.data);
  if (sm.seq <= lastSeq) return;   // backlog replay on reconnect
  lastSeq = sm.seq;
  const t = Date.parse(sm.t);
  for (const [key, v] of Object.entries(sm.series)) {
    let pts = series.get(key);
    if (!pts) { pts = []; series.set(key, pts); }
    pts.push({ t, v });
    if (pts.length > MAX_POINTS) pts.shift();
  }
  dirty = true;
});

function fmt(v) {
  if (!isFinite(v)) return String(v);
  const a = Math.abs(v);
  if (a >= 1e9) return (v / 1e9).toFixed(2) + "G";
  if (a >= 1e6) return (v / 1e6).toFixed(2) + "M";
  if (a >= 1e3) return (v / 1e3).toFixed(2) + "k";
  if (a > 0 && a < 0.01) return v.toExponential(2);
  return +v.toFixed(3) + "";
}

function spark(pts) {
  const w = 240, h = 36, pad = 2;
  if (pts.length < 2) return "";
  let lo = Infinity, hi = -Infinity;
  for (const p of pts) { if (p.v < lo) lo = p.v; if (p.v > hi) hi = p.v; }
  if (hi === lo) { hi += 1; lo -= 1; }
  const xs = (i) => pad + (w - 2 * pad) * i / (pts.length - 1);
  const ys = (v) => h - pad - (h - 2 * pad) * (v - lo) / (hi - lo);
  const coords = pts.map((p, i) => xs(i).toFixed(1) + "," + ys(p.v).toFixed(1)).join(" ");
  return '<svg viewBox="0 0 ' + w + ' ' + h + '" preserveAspectRatio="none">' +
         '<polyline points="' + coords + '"></polyline></svg>';
}

function render() {
  if (!dirty) return;
  dirty = false;
  const q = filter.value.trim().toLowerCase();
  const keys = [...series.keys()].filter(k => !q || k.toLowerCase().includes(q)).sort();
  const html = keys.map(k => {
    const pts = series.get(k);
    const last = pts[pts.length - 1];
    return '<div class="tile"><div class="name"></div><div class="val">' + fmt(last.v) +
           "</div>" + spark(pts) + "</div>";
  }).join("");
  tiles.innerHTML = html;
  // Series names are set via textContent: keys contain metric label values,
  // which must never be interpreted as markup.
  const names = tiles.querySelectorAll(".tile .name");
  keys.forEach((k, i) => { names[i].textContent = k; });
}
setInterval(render, 1000);

// --- SLO panel (only when the server exposes a report endpoint) -----------
const SLO_PATH = "__SLO_PATH__";
const sloBox = document.getElementById("slos");
function esc(s) {
  return String(s).replace(/[&<>"']/g, c => ({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;"
  })[c]);
}
async function pollSLOs() {
  if (!SLO_PATH) return;
  let report;
  try {
    report = await (await fetch(SLO_PATH)).json();
  } catch (e) { return; }
  const slos = report.slos || [];
  if (!slos.length) { sloBox.innerHTML = ""; return; }
  const rows = slos.map(s => {
    const ex = s.exemplar
      ? '<a href="/debug/traces?name=' + esc(s.exemplar.trace_id) + '" title="' +
        esc(s.exemplar.value) + 's">' + esc(s.exemplar.trace_id.slice(-6)) + "</a>"
      : "&mdash;";
    return "<tr><td>" + esc(s.name) + '</td><td><span class="st st-' + esc(s.state) + '">' +
      esc(s.state) + '</span></td><td class="objective">' + esc(s.objective) + "</td><td>" +
      fmt(s.short_burn) + " / " + fmt(s.long_burn) + "</td><td>" +
      (100 * s.budget_consumed).toFixed(1) + "%</td><td>" + ex + "</td></tr>";
  }).join("");
  sloBox.innerHTML = "<table><tr><th>slo</th><th>state</th><th>objective</th>" +
    "<th>burn (short/long)</th><th>budget used</th><th>exemplar</th></tr>" + rows + "</table>";
}
pollSLOs();
setInterval(pollSLOs, 5000);

// --- Hot functions panel (only when a continuous profiler is mounted) -----
const PROF_PATH = "__PROF_PATH__";
const profBox = document.getElementById("prof");
async function pollProf() {
  if (!PROF_PATH) return;
  let list;
  try {
    list = await (await fetch(PROF_PATH)).json();
  } catch (e) { return; }
  if (!list.enabled) { profBox.innerHTML = ""; return; }
  const done = (list.captures || []).find(c => c.state === "done");
  if (!done) { profBox.innerHTML = ""; return; }
  let cap;
  try {
    cap = await (await fetch(PROF_PATH + "/" + encodeURIComponent(done.id))).json();
  } catch (e) { return; }
  const tables = cap.tables || [];
  // Prefer the CPU window; a quiet window with zero samples falls back to
  // the heap snapshot, which a live process always populates.
  let tab = tables.find(t => t.kind === "cpu" && t.samples > 0) ||
            tables.find(t => t.kind === "heap" && t.samples > 0);
  if (!tab || !(tab.funcs || []).length) { profBox.innerHTML = ""; return; }
  const rows = tab.funcs.slice(0, 10).map(f =>
    '<tr><td class="fn">' + esc(f.name) + '</td><td class="num">' + fmt(f.flat) +
    '</td><td class="num">' + f.flat_pct.toFixed(1) + '%</td><td class="num">' +
    f.cum_pct.toFixed(1) + "%</td></tr>").join("");
  profBox.innerHTML = "<table><caption>hot functions &middot; " + esc(tab.kind) +
    " (" + esc(tab.unit) + ') &middot; capture <a href="' + PROF_PATH + "/" +
    encodeURIComponent(cap.id) + '">' + esc(cap.id) + "</a> &middot; " + esc(cap.reason) +
    "</caption><tr><th>function</th><th>flat</th><th>flat%</th><th>cum%</th></tr>" +
    rows + "</table>";
}
pollProf();
setInterval(pollProf, 10000);

// --- Planner catalog panel (only when the catalog endpoint is mounted) ----
const CATALOG_PATH = "__CATALOG_PATH__";
const catBox = document.getElementById("catalog");
async function pollCatalog() {
  if (!CATALOG_PATH) return;
  let snap;
  try {
    snap = await (await fetch(CATALOG_PATH)).json();
  } catch (e) { return; }
  const st = snap.stats || {};
  const total = (st.hits || 0) + (st.misses || 0);
  const rate = total ? (100 * st.hits / total).toFixed(1) + "%" : "&mdash;";
  const rows = (snap.entries || []).map(e =>
    "<tr><td>" + esc(e.grid) + "</td><td>" + (e.model ? esc(e.model) : "<em>default</em>") +
    "</td><td>" + esc(e.source) + '</td><td class="num">' + e.refs +
    '</td><td class="num">' + e.hits + '</td><td class="num">' +
    e.age_seconds.toFixed(1) + "s</td></tr>").join("");
  catBox.innerHTML = "<table><caption>planner catalog &middot; " +
    (snap.entries || []).length + "/" + snap.capacity + " entries &middot; hit rate " + rate +
    " &middot; evictions " + (st.evictions || 0) + " &middot; loading " +
    (snap.loading || []).length + "</caption>" +
    "<tr><th>grid</th><th>model</th><th>source</th><th>refs</th><th>hits</th><th>age</th></tr>" +
    rows + "</table>";
}
pollCatalog();
setInterval(pollCatalog, 5000);
</script>
</body>
</html>
`
