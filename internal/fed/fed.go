// Package fed is the federation layer for fleet-scale sharded
// monitoring. Every gateway/monitor replica exposes its drift state at
// GET /federate as a versioned JSON document carrying window aggregates
// with their mergeable sufficient statistics — exact-sum accumulators
// and deterministic quantile sketches — plus the static per-class
// reference output distributions. An Aggregator (cmd/ppm-aggregate)
// scrapes N replicas on an interval, aligns their windows by index and
// merges them into one fleet-wide timeline over which the existing
// alert engine, dashboard and incident capture run unchanged.
//
// The layer extends DESIGN.md §8's determinism contract to
// distribution (§13): with serving batches dispatched round-robin
// across replicas, merge(shard₁..shardₙ) of aligned windows is
// bit-equal to the window a single node would have closed over the
// union stream — so a fleet reaches exactly the same verdicts as the
// monolith it replaced.
package fed

import (
	"net/http"

	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/stats"
)

// DocVersion is the /federate wire format version. Aggregators reject
// documents with a different version rather than mis-merging them.
const DocVersion = 1

// Doc is the versioned JSON document one replica serves at /federate:
// its retained timeline windows (each aggregate carrying the mergeable
// sketch and exact sum), the alarm geometry, and the drift-test
// reference distributions.
type Doc struct {
	// Version is the wire format version (DocVersion).
	Version int `json:"version"`
	// Replica is the self-reported replica name (may be empty; the
	// aggregator keys shards by its own configuration, not this field).
	Replica string `json:"replica"`
	// WindowBatches is the replica's commits-per-window.
	WindowBatches int `json:"window_batches"`
	// Capacity is the replica's timeline ring bound.
	Capacity int `json:"capacity"`
	// Quantiles is the percentile grid of the replica's timeline.
	Quantiles []float64 `json:"quantiles"`
	// AlarmLine is the replica's alarm threshold line.
	AlarmLine float64 `json:"alarm_line"`
	// Alarming is the replica's live alarm state.
	Alarming bool `json:"alarming"`
	// Observed counts batches the replica's monitor has committed —
	// the progress watermark scrapers use to tell traffic has drained.
	Observed int `json:"observed"`
	// Windows are the retained closed windows, oldest first.
	Windows []obs.Window `json:"windows"`
	// References are the per-class held-out output distributions keyed
	// by their proba_class_<c> series names, shipped so the aggregator
	// can run drift tests against merged serving distributions.
	References map[string]*stats.KLL `json:"references,omitempty"`
	// Serving is the replica's serving SLO state (per-stage cumulative
	// latency histograms); absent for replicas without a gateway. The
	// field is additive, so DocVersion is unchanged — old aggregators
	// ignore it, old replicas simply never send it.
	Serving *ServingDoc `json:"serving,omitempty"`
}

// BuildDoc snapshots a monitor into its /federate document.
func BuildDoc(mon *monitor.Monitor, replica string) Doc {
	tl := mon.Timeline()
	return Doc{
		Version:       DocVersion,
		Replica:       replica,
		WindowBatches: tl.WindowBatches(),
		Capacity:      tl.Capacity(),
		Quantiles:     tl.Quantiles(),
		AlarmLine:     mon.AlarmLine(),
		Alarming:      mon.Alarming(),
		Observed:      mon.Observed(),
		Windows:       tl.Windows(),
		References:    mon.ReferenceSketches(),
	}
}

// ReplicaHandler serves a monitor's federation document at GET
// <mount>/federate semantics: any GET to the handler returns the
// current Doc. Mounted by the gateway (top-level /federate) and
// ppm-monitor.
func ReplicaHandler(mon *monitor.Monitor, replica string) http.Handler {
	return ReplicaHandlerServing(mon, replica, nil)
}

// ReplicaHandlerServing is ReplicaHandler with a serving SLO provider:
// each GET snapshots the provider's ServingDoc into the document. The
// gateway passes its SLO tracker's snapshot; a nil provider (bare
// ppm-monitor) omits the section.
func ReplicaHandlerServing(mon *monitor.Monitor, replica string, serving func() *ServingDoc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !obs.RequireGet(w, r) {
			return
		}
		// Join the aggregator's sampled scrape trace: the federate_serve
		// span is the replica-side half of the scrape waterfall.
		if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
			if tc, err := obs.ParseTraceparent(tp); err == nil && tc.Sampled() {
				_, span := obs.StartSpan(obs.ContextWithTrace(r.Context(), tc), "federate_serve")
				span.SetAttr("replica", replica)
				defer span.End()
			}
		}
		doc := BuildDoc(mon, replica)
		if serving != nil {
			doc.Serving = serving()
		}
		obs.WriteJSON(w, doc)
	})
}

// minWindowIndex returns the smallest retained window index (ok=false
// when the document holds no windows).
func minWindowIndex(d *Doc) (int64, bool) {
	if d == nil || len(d.Windows) == 0 {
		return 0, false
	}
	return d.Windows[0].Index, true
}

// maxWindowIndex returns the largest retained window index.
func maxWindowIndex(d *Doc) (int64, bool) {
	if d == nil || len(d.Windows) == 0 {
		return 0, false
	}
	return d.Windows[len(d.Windows)-1].Index, true
}

// findWindow returns the window with the given index. Windows are
// stored oldest-first with consecutive indices, so this is a direct
// offset; it falls back to a scan if a replica served a gapped ring.
func findWindow(d *Doc, index int64) (obs.Window, bool) {
	min, ok := minWindowIndex(d)
	if !ok || index < min {
		return obs.Window{}, false
	}
	off := index - min
	if off < int64(len(d.Windows)) && d.Windows[off].Index == index {
		return d.Windows[off], true
	}
	for _, w := range d.Windows {
		if w.Index == index {
			return w, true
		}
	}
	return obs.Window{}, false
}
