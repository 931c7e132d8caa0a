package fed

// The aggregator's HTTP surface, mounted by cmd/ppm-aggregate:
//
//	GET /          fleet dashboard: the monitor's page under the fleet's
//	               title, with the shard table the replica page hides
//	GET /timeline  merged fleet timeline, same document shape as a
//	               replica's /timeline so existing tooling points at either
//	GET /federate  fleet re-export of the merged view (aggregators compose)
//	GET /slo       fleet serving SLO view (merged per-stage latency
//	               quantiles + slowest exemplars; 404 until a gateway
//	               replica ships serving state)
//	GET /status    per-shard scrape health
//	GET /healthz   200 ok / 503 when the fleet alert engine is firing
//
// /metrics and /debug/* stay the caller's responsibility (cmd wires the
// shared obs registry) so the fed package needs no exposition logic.

import (
	"fmt"
	"net/http"

	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// TimelineDoc renders the merged fleet view in the replica timeline
// document shape (monitor.TimelineDoc), so dashboards and scripts work
// against a replica and a fleet interchangeably. WindowBatches is the
// fleet per-window batch total (shards × per-shard batches).
func (a *Aggregator) TimelineDoc() monitor.TimelineDoc {
	alarm := a.Alarming()
	a.mu.Lock()
	defer a.mu.Unlock()
	batches := 0
	for _, sh := range a.shards {
		if sh.doc != nil {
			batches += sh.doc.WindowBatches
		}
	}
	return monitor.TimelineDoc{
		AlarmLine:     a.alarmLine,
		WindowBatches: batches,
		Capacity:      a.cfg.Capacity,
		RefreshMillis: a.cfg.RefreshMillis,
		Alarming:      alarm,
		Windows:       append([]obs.Window(nil), a.fleet...),
	}
}

// Handler serves the aggregator's HTTP surface.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", monitor.DashboardHandler("ppm fleet timeline", "Fleet drift timeline"))
	mux.Handle("/timeline", monitor.TimelineHandler(a.TimelineDoc))
	mux.HandleFunc("/federate", func(w http.ResponseWriter, r *http.Request) {
		if obs.RequireGet(w, r) {
			obs.WriteJSON(w, a.FleetDoc())
		}
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if !obs.RequireGet(w, r) {
			return
		}
		serving := a.FleetServing()
		if serving == nil {
			http.Error(w, "no serving state federated yet", http.StatusNotFound)
			return
		}
		obs.WriteJSON(w, serving.View(5))
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if obs.RequireGet(w, r) {
			obs.WriteJSON(w, a.Status())
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !obs.RequireGet(w, r) {
			return
		}
		obs.SetNoStore(w, "text/plain; charset=utf-8")
		if a.Alarming() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "alarming")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}
