package monitor

import (
	"fmt"
	"net/http"

	"blackboxval/internal/obs"
)

// Handler exposes the monitor's state over HTTP for dashboards and
// scrapers:
//
//	GET /                  -> HTML drift dashboard (auto-refreshing)
//	GET /summary           -> Summary as JSON
//	GET /history?limit=N   -> the most recent N records (default all retained)
//	GET /alarming          -> {"alarming": bool, "alarm_line": x}
//	GET /timeline?limit=N  -> TimelineDoc clipped to the most recent N windows
//	GET /healthz           -> 200 ok
//
// Every ?limit= shares one validation contract with /debug/spans
// (obs.Limit): non-numeric or negative input is a 400, never a silent
// default.
//
// Mount it next to the prediction service so the validation state ships
// with the model.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", DashboardHandler("ppm drift timeline", "Performance-predictor drift timeline"))
	mux.Handle("/timeline", TimelineHandler(m.TimelineDoc))
	mux.HandleFunc("/summary", func(w http.ResponseWriter, r *http.Request) {
		if obs.RequireGet(w, r) {
			obs.WriteJSON(w, m.Summarize())
		}
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		if !obs.RequireGet(w, r) {
			return
		}
		if history, ok := obs.Limit(w, r, m.History()); ok {
			obs.WriteJSON(w, history)
		}
	})
	mux.HandleFunc("/alarming", func(w http.ResponseWriter, r *http.Request) {
		if obs.RequireGet(w, r) {
			obs.WriteJSON(w, map[string]any{
				"alarming":   m.Alarming(),
				"alarm_line": m.AlarmLine(),
			})
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		obs.SetNoStore(w, "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}
