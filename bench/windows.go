package main

// About one-second windows. The benchmark runs on a shared host whose
// speed wanders by several percent from one second to the next, so a
// rate read as the median over a phase's windows shrugs off the few slow
// seconds a whole-phase total would absorb.

import (
	"sort"
	"time"
)

// sampler reads some counters at the edges of a phase's windows: about
// one second each, tiling the phase exactly.
type sampler struct {
	done chan struct{}
	at   []float64 // seconds since the phase began
	vals [][]float64
	err  error
}

// startSampler takes its first reading now and its last when phase has
// elapsed.
func startSampler(phase time.Duration, read func() ([]float64, error)) *sampler {
	s := &sampler{done: make(chan struct{})}
	start := time.Now()
	n := max(1, int(phase.Round(time.Second)/time.Second))
	go func() {
		defer close(s.done)
		for k := 0; k <= n; k++ {
			time.Sleep(time.Until(start.Add(phase * time.Duration(k) / time.Duration(n))))
			v, err := read()
			if err != nil {
				s.err = err
				return
			}
			s.at = append(s.at, time.Since(start).Seconds())
			s.vals = append(s.vals, v)
		}
	}()
	return s
}

// wait returns once the last reading is taken.
func (s *sampler) wait() error {
	<-s.done
	return s.err
}

// delta is the change of counter k over window w.
func (s *sampler) delta(w, k int) float64 { return s.vals[w+1][k] - s.vals[w][k] }

// length is window w's length in seconds.
func (s *sampler) length(w int) float64 { return s.at[w+1] - s.at[w] }

// split groups the latencies of a phase's successful requests by the
// window they completed in; requests outside every window are left out.
func (s *sampler) split(p phaseResult) [][]float64 { return s.group(p.doneS, p.latMS) }

// group groups vals by the window their time (ts, in seconds since the
// phase began) falls in; values outside every window are left out.
func (s *sampler) group(ts, vals []float64) [][]float64 {
	out := make([][]float64, max(len(s.at)-1, 0))
	for i, t := range ts {
		w := sort.Search(len(s.at), func(j int) bool { return s.at[j] > t }) - 1
		if w >= 0 && w < len(out) {
			out[w] = append(out[w], vals[i])
		}
	}
	return out
}
