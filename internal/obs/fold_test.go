package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"blackboxval/internal/stats"
)

// The pairwise merge chain WindowFold replaced, kept verbatim as the
// reference: every step allocates a fresh window, series map, exact
// sum, sketch and quantile map.

func refCloneAggregate(a Aggregate) Aggregate {
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

func refQuantileMap(sk *stats.KLL, percentiles []float64) map[string]float64 {
	out := make(map[string]float64, len(percentiles))
	for _, q := range percentiles {
		out[fmt.Sprintf("p%g", q)] = sk.Quantile(q / 100)
	}
	return out
}

func refMergeAggregates(a, b Aggregate, quantiles []float64) Aggregate {
	if a.Count == 0 && b.Count == 0 {
		return refCloneAggregate(a)
	}
	if a.Count == 0 {
		return refCloneAggregate(b)
	}
	if b.Count == 0 {
		return refCloneAggregate(a)
	}
	out := Aggregate{Count: a.Count + b.Count, Min: a.Min, Max: a.Max, Last: b.Last}
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
		out.Quantiles = refQuantileMap(sk, quantiles)
	}
	return out
}

func refWindowSpan(a, b Window) (time.Time, time.Time) {
	start, end := a.Start, a.End
	if !b.Start.IsZero() && (start.IsZero() || b.Start.Before(start)) {
		start = b.Start
	}
	if b.End.After(end) {
		end = b.End
	}
	return start, end
}

func refMergeWindows(a, b Window, quantiles []float64) Window {
	out := Window{Index: a.Index, Batches: a.Batches + b.Batches,
		Series: make(map[string]Aggregate, len(a.Series)+len(b.Series))}
	out.Start, out.End = refWindowSpan(a, b)
	for name, agg := range a.Series {
		if bAgg, ok := b.Series[name]; ok {
			out.Series[name] = refMergeAggregates(agg, bAgg, quantiles)
		} else {
			out.Series[name] = refCloneAggregate(agg)
		}
	}
	for name, agg := range b.Series {
		if _, ok := a.Series[name]; !ok {
			out.Series[name] = refCloneAggregate(agg)
		}
	}
	return out
}

func refMergeWindowSet(ws []Window, quantiles []float64) (Window, bool) {
	if len(ws) == 0 {
		return Window{}, false
	}
	out := refMergeWindows(ws[0], Window{Index: ws[0].Index}, quantiles)
	for _, w := range ws[1:] {
		out = refMergeWindows(out, w, quantiles)
	}
	return out, true
}

// dumpAggregate renders every bit of an aggregate's state: float bits,
// nil versus empty maps, the exact sum's JSON and the sketch's binary
// form (its complete state).
func dumpAggregate(t testing.TB, a Aggregate) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d sum=%x min=%x max=%x last=%x", a.Count,
		math.Float64bits(a.Sum), math.Float64bits(a.Min), math.Float64bits(a.Max), math.Float64bits(a.Last))
	if a.Quantiles == nil {
		b.WriteString(" q=nil")
	} else {
		keys := make([]string, 0, len(a.Quantiles))
		for k := range a.Quantiles {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" q={")
		for _, k := range keys {
			fmt.Fprintf(&b, "%q:%x ", k, math.Float64bits(a.Quantiles[k]))
		}
		b.WriteString("}")
	}
	if a.SumExact == nil {
		b.WriteString(" sum_exact=nil")
	} else {
		fmt.Fprintf(&b, " sum_exact=%s", a.SumExact.AppendJSON(nil))
	}
	if a.Sketch == nil {
		b.WriteString(" sketch=nil")
	} else {
		bin, err := a.Sketch.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, " sketch=%x", bin)
	}
	return b.String()
}

func dumpWindow(t testing.TB, w Window) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "index=%d batches=%d nil_series=%v\n", w.Index, w.Batches, w.Series == nil)
	names := make([]string, 0, len(w.Series))
	for name := range w.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%q: %s\n", name, dumpAggregate(t, w.Series[name]))
	}
	return b.String()
}

func sameWindow(t testing.TB, what string, got, want Window) {
	t.Helper()
	if got.Start != want.Start || got.End != want.End {
		t.Fatalf("%s: span [%v, %v], want [%v, %v]", what, got.Start, got.End, want.Start, want.End)
	}
	if g, w := dumpWindow(t, got), dumpWindow(t, want); g != w {
		t.Fatalf("%s diverged from the pairwise chain:\n got %s\nwant %s", what, g, w)
	}
}

var foldGrids = [][]float64{{50, 90, 99}, nil, {99.9}, {50, 50, 1}}

// checkFold asserts MergeWindowSet, MergeWindows, MergeAggregates and a
// reused WindowFold all equal the pairwise chain on ws, and that none
// of them modifies its inputs.
func checkFold(t testing.TB, ws []Window, q []float64) {
	t.Helper()
	before := make([]string, len(ws))
	for i, w := range ws {
		before[i] = dumpWindow(t, w)
	}
	got, ok := MergeWindowSet(ws, q)
	want, wantOK := refMergeWindowSet(ws, q)
	if ok != wantOK {
		t.Fatalf("MergeWindowSet ok=%v, want %v", ok, wantOK)
	}
	sameWindow(t, "MergeWindowSet", got, want)
	if len(ws) >= 2 {
		sameWindow(t, "MergeWindows", MergeWindows(ws[0], ws[1], q), refMergeWindows(ws[0], ws[1], q))
		for name, a := range ws[0].Series {
			if b, ok := ws[1].Series[name]; ok {
				g, w := dumpAggregate(t, MergeAggregates(a, b, q)), dumpAggregate(t, refMergeAggregates(a, b, q))
				if g != w {
					t.Fatalf("MergeAggregates(%q) diverged:\n got %s\nwant %s", name, g, w)
				}
			}
		}
		// The chain tsdb queries run: from an empty aggregate, in order.
		for name := range ws[0].Series {
			var g, w Aggregate
			for _, win := range ws {
				if a, ok := win.Series[name]; ok {
					g, w = MergeAggregates(g, a, q), refMergeAggregates(w, a, q)
				}
			}
			if dg, dw := dumpAggregate(t, g), dumpAggregate(t, w); dg != dw {
				t.Fatalf("MergeAggregates chain (%q) diverged:\n got %s\nwant %s", name, dg, dw)
			}
		}
	}
	// A fold reused after Reset, as tsdb's pending buckets are.
	var f WindowFold
	for _, w := range ws {
		f.Add(w)
	}
	f.Reset()
	for _, w := range ws[len(ws)/2:] {
		f.Add(w)
	}
	reused, _ := f.Window(q)
	wantTail, _ := refMergeWindowSet(ws[len(ws)/2:], q)
	sameWindow(t, "reused WindowFold", reused, wantTail)
	for i, w := range ws {
		if dumpWindow(t, w) != before[i] {
			t.Fatalf("merging modified input window %d", i)
		}
	}
}

// foldInput decodes one fuzz input into an aligned window set that
// shares series (a four-name pool) and a percentile grid.
func foldInput(data []byte) ([]Window, []float64) {
	g := &windowGen{data: data}
	ws := make([]Window, 1+int(g.byte()%5))
	for i := range ws {
		ws[i] = g.window(4)
	}
	return ws, foldGrids[int(g.byte())%len(foldGrids)]
}

// foldCases names the chain edge cases ws exercises, so the seeded test
// can show it reached each of them.
func foldCases(ws []Window, cases map[string]bool) {
	for _, name := range SeriesNames(ws) {
		var ops []Aggregate
		for _, w := range ws {
			if a, ok := w.Series[name]; ok {
				ops = append(ops, a)
			}
		}
		var nonEmpty []Aggregate
		for i, a := range ops {
			if a.Count != 0 {
				nonEmpty = append(nonEmpty, a)
			} else if i > 0 {
				cases["empty operand skipped"] = true
			}
		}
		switch {
		case len(ops) >= 2 && len(nonEmpty) == 0:
			cases["all operands empty"] = true
		case len(ops) >= 2 && len(nonEmpty) == 1:
			cases["one non-empty operand"] = true
		}
		if len(nonEmpty) < 2 {
			continue
		}
		for _, a := range nonEmpty {
			if a.SumExact == nil {
				cases["nil SumExact adds Sum"] = true
			}
			if a.Sketch == nil {
				cases["operand without sketch"] = true
			}
		}
		if a, b := nonEmpty[0].Sketch, nonEmpty[1].Sketch; a != nil && b != nil && a.Count() == 0 && b.Count() == 0 {
			cases["first two sketches without finite values"] = true
		}
		if len(nonEmpty) >= 3 {
			cases["three or more non-empty operands"] = true
		}
	}
}

// TestWindowFoldMatchesPairwiseChain runs 3,000 seeded window sets
// through checkFold and fails unless they reached every edge case of
// the chain's semantics.
func TestWindowFoldMatchesPairwiseChain(t *testing.T) {
	cases := map[string]bool{}
	for _, data := range genSeeds(3000, 7) {
		ws, q := foldInput(data)
		foldCases(ws, cases)
		checkFold(t, ws, q)
	}
	for _, c := range []string{"empty operand skipped", "all operands empty", "one non-empty operand",
		"nil SumExact adds Sum", "operand without sketch", "first two sketches without finite values",
		"three or more non-empty operands"} {
		if !cases[c] {
			t.Errorf("seeded window sets never reached %q", c)
		}
	}
}

// FuzzWindowFold pins the in-place merge fold to the pairwise
// MergeAggregates/MergeWindows chain it replaced, bit for bit.
func FuzzWindowFold(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 64))
	for _, seed := range genSeeds(32, 3) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, q := foldInput(data)
		checkFold(t, ws, q)
	})
}
