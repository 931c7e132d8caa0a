package obs

// merge.go: true cross-shard aggregation for timeline windows. The
// federation layer merges window aggregates from N replicas into one
// fleet view, and every field here is computed from sufficient
// statistics, never from per-shard point estimates — no mean of shard
// means (counts weight the exact sums), no max of shard p99s (the
// mergeable sketches combine first, then the quantile is read off the
// merged distribution). With shards fed round-robin, the merged window
// is bit-identical to the window a single node would have closed over
// the union stream; see DESIGN.md §13 for the contract.

import (
	"sort"
	"time"

	"blackboxval/internal/stats"
)

// cloneAggregate deep-copies a so merged results never alias shard
// payloads (the aggregator mutates merged state across scrape cycles).
func cloneAggregate(a Aggregate) Aggregate {
	out := a
	if a.Quantiles != nil {
		out.Quantiles = make(map[string]float64, len(a.Quantiles))
		for k, v := range a.Quantiles {
			out.Quantiles[k] = v
		}
	}
	if a.SumExact != nil {
		out.SumExact = a.SumExact.Clone()
	}
	if a.Sketch != nil {
		out.Sketch = a.Sketch.Clone()
	}
	return out
}

// MergeAggregates combines two per-series aggregates in stream order (a
// before b). quantiles is the percentile grid, in (0,100), to read off
// the merged sketch. Inputs are not modified.
//
// Merge rules, chosen so that merging shard aggregates reproduces the
// single-node aggregate exactly:
//
//   - Count: integer sum.
//   - Min/Max: exact extremes of the union.
//   - Sum: merged ExactSum rounded once (falls back to adding the
//     rounded shard sums only when a shard predates the exact field).
//   - Last: the later operand's Last (shard order is stream order).
//   - Quantiles: read from the merged sketch — never aggregated from
//     the operands' quantile estimates.
func MergeAggregates(a, b Aggregate, quantiles []float64) Aggregate {
	if a.Count == 0 && b.Count == 0 {
		return cloneAggregate(a)
	}
	if a.Count == 0 {
		return cloneAggregate(b)
	}
	if b.Count == 0 {
		return cloneAggregate(a)
	}
	out := Aggregate{
		Count: a.Count + b.Count,
		Min:   a.Min,
		Max:   a.Max,
		Last:  b.Last,
	}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	sum := stats.NewExactSum()
	for _, op := range []Aggregate{a, b} {
		if op.SumExact != nil {
			sum.Merge(op.SumExact)
		} else {
			sum.Add(op.Sum)
		}
	}
	out.SumExact = sum
	out.Sum = sum.Value()
	sk := stats.NewKLL()
	degraded := false
	for _, op := range []Aggregate{a, b} {
		if op.Sketch != nil {
			sk.Merge(op.Sketch)
		} else {
			degraded = true
		}
	}
	if sk.Count() > 0 && !degraded {
		out.Sketch = sk
		out.Quantiles = quantileMap(sk, quantiles)
	}
	return out
}

// MergeWindows combines two aligned windows (same logical window index,
// a's shard before b's in stream order). The caller is responsible for
// alignment; the result keeps a's Index. Batches add, the wall-clock
// span is the envelope, and every shared series merges via
// MergeAggregates (series present on one side only are cloned).
func MergeWindows(a, b Window, quantiles []float64) Window {
	out := Window{
		Index:   a.Index,
		Batches: a.Batches + b.Batches,
		Series:  make(map[string]Aggregate, len(a.Series)+len(b.Series)),
	}
	out.Start, out.End = windowSpan(a, b)
	for name, agg := range a.Series {
		if bAgg, ok := b.Series[name]; ok {
			out.Series[name] = MergeAggregates(agg, bAgg, quantiles)
		} else {
			out.Series[name] = cloneAggregate(agg)
		}
	}
	for name, agg := range b.Series {
		if _, ok := a.Series[name]; !ok {
			out.Series[name] = cloneAggregate(agg)
		}
	}
	return out
}

// MergeWindowSet folds aligned windows from N shards (in shard order)
// into one fleet window. It reports false for an empty input.
func MergeWindowSet(ws []Window, quantiles []float64) (Window, bool) {
	if len(ws) == 0 {
		return Window{}, false
	}
	out := MergeWindows(ws[0], Window{Index: ws[0].Index}, quantiles) // deep copy via merge with empty
	for _, w := range ws[1:] {
		out = MergeWindows(out, w, quantiles)
	}
	return out, true
}

// SeriesNames returns the sorted union of series names across windows —
// a deterministic iteration order for renderers and tests.
func SeriesNames(ws []Window) []string {
	seen := map[string]bool{}
	for _, w := range ws {
		for name := range w.Series {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// windowSpan reports the wall-clock envelope of two windows.
func windowSpan(a, b Window) (time.Time, time.Time) {
	start, end := a.Start, a.End
	if !b.Start.IsZero() && (start.IsZero() || b.Start.Before(start)) {
		start = b.Start
	}
	if b.End.After(end) {
		end = b.End
	}
	return start, end
}
