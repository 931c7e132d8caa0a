package main

// Bench-owned spans for the traced replay. Spans are kept in memory and
// written out once, at the end of the run. A span's self time is its
// duration minus the part of its interval its children cover.

import (
	"runtime"
	"sort"
	"time"

	"blackboxval/bench/stat"
)

// span is one timed interval. IDs start at 1; Parent 0 marks a root.
// Batch is the X-Request-ID-style id every span of one batch shares.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Batch   string  `json:"batch"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
	// Allocs and Bytes are the heap allocations during a layer call, from
	// runtime.MemStats deltas (group spans leave them 0).
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// begin opens a group span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int, batch string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Batch: batch, StartUS: t.us(time.Now())})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndUS = t.us(time.Now()) }

// call times one layer call. The MemStats reads bracket the timed
// interval, so their cost is not part of it.
func (t *tracer) call(name string, parent int, batch string, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Batch: batch,
		StartUS: t.us(start), EndUS: t.us(end),
		Allocs: after.Mallocs - before.Mallocs,
		Bytes:  after.TotalAlloc - before.TotalAlloc,
	})
}

// fillSelfTimes sets every span's SelfUS.
func fillSelfTimes(spans []span) {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]float64
		for _, k := range kids[s.ID] {
			lo, hi := max(spans[k].StartUS, s.StartUS), min(spans[k].EndUS, s.EndUS)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.StartUS
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		s.SelfUS = s.EndUS - s.StartUS - covered
	}
}

// layerStat summarises the calls of one layer.
type layerStat struct {
	Calls    int     `json:"calls"`
	MedianUS float64 `json:"median_us"`
	SelfUS   float64 `json:"total_self_us"`
	Allocs   float64 `json:"allocs_per_call"`
	Bytes    float64 `json:"bytes_per_call"`
}

// summarise groups spans by name.
func summarise(spans []span) map[string]layerStat {
	durs := map[string][]float64{}
	out := map[string]layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Calls++
		st.SelfUS += s.SelfUS
		st.Allocs += float64(s.Allocs)
		st.Bytes += float64(s.Bytes)
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], s.EndUS-s.StartUS)
	}
	for name, st := range out {
		st.MedianUS = stat.Median(durs[name])
		st.Allocs /= float64(st.Calls)
		st.Bytes /= float64(st.Calls)
		out[name] = st
	}
	return out
}
