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
//
// An operand with Count 0 is skipped (the result is a copy of the other
// one, or of a when both are empty), and a merge with an operand that
// carries no sketch has neither sketch nor quantiles.
func MergeAggregates(a, b Aggregate, quantiles []float64) Aggregate {
	f := new(aggFold)
	f.add(a)
	f.add(b)
	return f.aggregate(quantiles, quantileKeys(quantiles))
}

// MergeWindows combines two aligned windows (same logical window index,
// a's shard before b's in stream order). The caller is responsible for
// alignment; the result keeps a's Index. Batches add, the wall-clock
// span is the envelope, and every shared series merges via
// MergeAggregates (series present on one side only are cloned).
func MergeWindows(a, b Window, quantiles []float64) Window {
	var f WindowFold
	f.Add(a)
	f.Add(b)
	out, _ := f.Window(quantiles)
	out.Start, out.End = envelope(a.Start, a.End, b)
	return out
}

// MergeWindowSet folds aligned windows from N shards (in shard order)
// into one fleet window. It reports false for an empty input.
func MergeWindowSet(ws []Window, quantiles []float64) (Window, bool) {
	var f WindowFold
	for _, w := range ws {
		f.Add(w)
	}
	return f.Window(quantiles)
}

// WindowFold merges windows in stream order into one window, in place:
// one accumulator per series, whatever the number of windows, and the
// quantiles read once at the end. The first window's span is enveloped
// with the zero window's (an End before year 1 becomes the zero time);
// otherwise the result equals the pairwise chain
// MergeWindows(...MergeWindows(w0, w1)..., wn) bit for bit. The zero
// value is an empty fold.
//
// Add keeps a reference to an aggregate until a later non-empty one of
// the same series folds it, so windows must not be modified while the
// fold holds them — closed windows never are.
type WindowFold struct {
	n          int
	index      int64
	start, end time.Time
	batches    int
	series     map[string]*aggFold
}

// Add folds w, the next window in stream order.
func (f *WindowFold) Add(w Window) {
	if f.n == 0 {
		f.index = w.Index
		f.start, f.end = envelope(w.Start, w.End, Window{})
	} else {
		f.start, f.end = envelope(f.start, f.end, w)
	}
	f.n++
	f.batches += w.Batches
	if f.series == nil {
		f.series = make(map[string]*aggFold, len(w.Series))
	}
	for name, agg := range w.Series {
		s := f.series[name]
		if s == nil {
			s = new(aggFold)
			f.series[name] = s
		}
		s.add(agg)
	}
}

// Len returns the number of windows folded since the last Reset.
func (f *WindowFold) Len() int { return f.n }

// Reset empties the fold, keeping its per-series accumulators for reuse.
func (f *WindowFold) Reset() {
	for _, s := range f.series {
		s.reset()
	}
	f.n, f.index, f.batches = 0, 0, 0
	f.start, f.end = time.Time{}, time.Time{}
}

// Window returns the merged window: the first window's Index, the
// envelope of the spans, the sum of Batches and one merged aggregate
// per series. A series merged from two or more non-empty aggregates
// aliases the fold's accumulators, so the result is valid until the
// next Add or Reset; every other series is a deep copy. It reports
// false when nothing has been added.
func (f *WindowFold) Window(quantiles []float64) (Window, bool) {
	if f.n == 0 {
		return Window{}, false
	}
	keys := quantileKeys(quantiles)
	out := Window{Index: f.index, Start: f.start, End: f.end, Batches: f.batches,
		Series: make(map[string]Aggregate, len(f.series))}
	for name, s := range f.series {
		if s.n > 0 {
			out.Series[name] = s.aggregate(quantiles, keys)
		}
	}
	return out, true
}

// aggFold merges one series' aggregates in stream order, reproducing
// the MergeAggregates chain: until a second non-empty operand arrives
// the accumulator is the first operand itself (head); from then on it
// is the merge below, folded in place.
type aggFold struct {
	n      int       // operands folded
	head   Aggregate // the accumulator while merged is false
	merged bool

	count          int
	min, max, last float64
	sum            stats.ExactSum
	sketch         stats.KLL
	// sketchOK is false once a merged operand lacked a sketch or the
	// merged sketch held no finite value: the result then has neither
	// sketch nor quantiles, as every later chain step would.
	sketchOK bool
}

func (f *aggFold) reset() {
	f.n, f.head, f.merged = 0, Aggregate{}, false
}

// add folds a. An empty operand (Count 0) never changes a non-empty
// accumulator, and a non-empty operand replaces an empty one.
func (f *aggFold) add(a Aggregate) {
	f.n++
	switch {
	case f.n == 1:
		f.head, f.merged = a, false
	case a.Count == 0:
	case !f.merged && f.head.Count == 0, f.merged && f.count == 0:
		f.head, f.merged = a, false
	case !f.merged:
		f.open(f.head)
		f.head = Aggregate{}
		f.merge(a)
	default:
		f.merge(a)
	}
}

// open starts the in-place merge from its first operand.
func (f *aggFold) open(a Aggregate) {
	f.merged = true
	f.count, f.min, f.max, f.last = a.Count, a.Min, a.Max, a.Last
	f.sum.Reset()
	addSum(&f.sum, a)
	f.sketch.Reset()
	f.sketchOK = a.Sketch != nil
	if f.sketchOK {
		f.sketch.Merge(a.Sketch)
	}
}

// merge folds the next non-empty operand into the open merge.
func (f *aggFold) merge(b Aggregate) {
	f.count += b.Count
	if b.Min < f.min {
		f.min = b.Min
	}
	if b.Max > f.max {
		f.max = b.Max
	}
	f.last = b.Last
	addSum(&f.sum, b)
	if f.sketchOK {
		if b.Sketch == nil {
			f.sketchOK = false
		} else {
			f.sketch.Merge(b.Sketch)
			f.sketchOK = f.sketch.Count() > 0
		}
	}
}

// addSum adds a's exact sum to s, or its rounded Sum when a predates
// the exact field.
func addSum(s *stats.ExactSum, a Aggregate) {
	if a.SumExact != nil {
		s.Merge(a.SumExact)
	} else {
		s.Add(a.Sum)
	}
}

// aggregate returns the accumulator as an Aggregate; keys are the map
// keys of quantiles.
func (f *aggFold) aggregate(quantiles []float64, keys []string) Aggregate {
	if !f.merged {
		return cloneAggregate(f.head)
	}
	out := Aggregate{Count: f.count, Sum: f.sum.Value(), Min: f.min, Max: f.max, Last: f.last,
		SumExact: &f.sum}
	if f.sketchOK {
		out.Sketch = &f.sketch
		out.Quantiles = quantileMap(&f.sketch, quantiles, keys)
	}
	return out
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

// envelope widens the wall-clock span [start, end] to cover w's.
func envelope(start, end time.Time, w Window) (time.Time, time.Time) {
	if !w.Start.IsZero() && (start.IsZero() || w.Start.Before(start)) {
		start = w.Start
	}
	if w.End.After(end) {
		end = w.End
	}
	return start, end
}
