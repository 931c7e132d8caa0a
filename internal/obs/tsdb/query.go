package tsdb

// query.go: the read path. Queries re-read segment files on demand —
// this is the audit/diagnostic path, so the store keeps no decoded
// window cache; the page cache makes repeated scans of warm segments
// cheap. Re-aggregation to a caller-chosen step reuses the same
// mergeable-statistics rules as compaction (sums via ExactSum merge,
// quantiles read off merged sketches, never averaged point estimates),
// so a range query at step=K over raw history equals the compacted
// record for the same bucket bit-for-bit.

import (
	"fmt"
	"os"
	"sort"

	"blackboxval/internal/obs"
)

// Point is one re-aggregated bucket of a per-series range query.
type Point struct {
	// Index is the bucket start in window-index space; the bucket
	// conceptually covers [Index, Index+step).
	Index int64 `json:"index"`
	// Span is how many raw window indices the merged records cover
	// (gaps make Span < step).
	Span int64 `json:"span"`
	// Windows is how many raw windows were folded into the bucket.
	Windows int64   `json:"windows"`
	Count   int     `json:"count"`
	Sum     float64 `json:"sum"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Last    float64 `json:"last"`
	// Quantiles are read off the merged persisted sketch ("p50", ...).
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// loadEntriesLocked reads every effective record overlapping the index
// range [from, to], sorted by window index. Level-0 records below the
// compactedThrough watermark are shadowed duplicates of a level-1
// bucket and are skipped. The active segment is included: its records
// were complete single writes, so the page cache serves them back
// consistently.
func (db *DB) loadEntriesLocked(from, to int64) []Entry {
	if to < from {
		return nil
	}
	infos := make([]*segmentInfo, 0, len(db.segments)+1)
	infos = append(infos, db.segments...)
	if db.actInfo != nil && db.actInfo.records > 0 {
		infos = append(infos, db.actInfo)
	}
	var out []Entry
	for _, info := range infos {
		if info.records == 0 || info.minIndex > to || info.endIndex <= from {
			continue
		}
		data, err := os.ReadFile(info.path)
		if err != nil {
			db.cfg.Logger.Warn("tsdb: segment read failed", "path", info.path, "err", err)
			continue
		}
		entries, _ := decodeSegment(data)
		for _, e := range entries {
			if e.Window.Index > to || e.end() <= from {
				continue
			}
			if info.level == 0 && e.Window.Index < db.compactedThrough {
				continue // shadowed by a compacted bucket
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window.Index < out[j].Window.Index })
	return out
}

// Entries returns the effective persisted records overlapping [from,
// to] in index order — raw windows where full resolution survives,
// compacted buckets where it does not. This is the backtest input.
func (db *DB) Entries(from, to int64) []Entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.queries.Add(1)
	return db.loadEntriesLocked(from, to)
}

// Bounds reports the lowest and highest window index with persisted
// data, or ok=false for an empty store.
func (db *DB) Bounds() (min, max int64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	infos := make([]*segmentInfo, 0, len(db.segments)+1)
	infos = append(infos, db.segments...)
	if db.actInfo != nil {
		infos = append(infos, db.actInfo)
	}
	for _, info := range infos {
		if info.records == 0 {
			continue
		}
		if !ok || info.minIndex < min {
			min = info.minIndex
		}
		if info.endIndex-1 > max {
			max = info.endIndex - 1
		}
		ok = true
	}
	return min, max, ok
}

// bucketStart maps an entry to its query bucket.
func bucketStart(idx, from, step int64) int64 {
	if idx < from {
		idx = from
	}
	return from + ((idx-from)/step)*step
}

// Range merges the persisted records overlapping [from, to] into one
// window per step-sized bucket and returns the windows with their
// covered spans (sum of merged record spans — the dashboard uses it to
// render gaps). step must be >= 1 and to >= from.
func (db *DB) Range(from, to, step int64) ([]obs.Window, []int64, error) {
	if err := checkRange(from, to, step); err != nil {
		return nil, nil, err
	}
	entries := db.Entries(from, to)
	var windows []obs.Window
	var spans []int64
	for i := 0; i < len(entries); {
		b := bucketStart(entries[i].Window.Index, from, step)
		j := i
		var ws []obs.Window
		var span int64
		for ; j < len(entries) && bucketStart(entries[j].Window.Index, from, step) == b; j++ {
			ws = append(ws, entries[j].Window)
			span += entries[j].Span
		}
		merged, _ := obs.MergeWindowSet(ws, db.cfg.Quantiles)
		merged.Index = b
		windows = append(windows, merged)
		spans = append(spans, span)
		i = j
	}
	return windows, spans, nil
}

// Query re-aggregates one series over [from, to] at the given step,
// with quantiles extracted from the merged persisted sketches.
func (db *DB) Query(series string, from, to, step int64) ([]Point, error) {
	if err := checkRange(from, to, step); err != nil {
		return nil, err
	}
	entries := db.Entries(from, to)
	var points []Point
	for i := 0; i < len(entries); {
		b := bucketStart(entries[i].Window.Index, from, step)
		j := i
		agg := obs.Aggregate{}
		p := Point{Index: b}
		for ; j < len(entries) && bucketStart(entries[j].Window.Index, from, step) == b; j++ {
			e := entries[j]
			if sa, ok := e.Window.Series[series]; ok {
				agg = obs.MergeAggregates(agg, sa, db.cfg.Quantiles)
				p.Span += e.Span
				p.Windows += e.Windows
			}
		}
		i = j
		if p.Windows == 0 {
			continue
		}
		p.Count = agg.Count
		p.Sum = agg.Sum
		p.Mean = agg.Mean()
		p.Min = agg.Min
		p.Max = agg.Max
		p.Last = agg.Last
		p.Quantiles = agg.Quantiles
		points = append(points, p)
	}
	return points, nil
}

func checkRange(from, to, step int64) error {
	if from < 0 || to < 0 {
		return fmt.Errorf("tsdb: negative range [%d, %d]", from, to)
	}
	if to < from {
		return fmt.Errorf("tsdb: empty range [%d, %d]", from, to)
	}
	if step < 1 {
		return fmt.Errorf("tsdb: step %d < 1", step)
	}
	return nil
}
