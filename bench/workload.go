package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
)

// poolSize is the number of distinct batches a workload cycles through.
const poolSize = 64

// workload is one traffic mix against one configuration of the stack.
type workload struct {
	name  string
	model string  // black box family served and validated (ppm-* -model)
	rows  int     // rows per batch
	rate  float64 // phase A open-loop rate, batches per second
	// telemetry turns on the write-heavy serving features: span journals
	// on both servers, the gateway's tsdb, incident ring and alert rules,
	// a corrupted pool, and delayed ground truth POSTed to /labels.
	telemetry bool
	why       string
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json names the
// same three. burst-20 and bulk-500 split fixed per-request cost from
// per-row cost on the same lr stack; drift-telemetry adds every write
// path the serving stack has on the CLI-default xgb model.
var workloads = []workload{
	{
		name: "burst-20", model: "lr", rows: 20, rate: 800,
		why: "Per-request and per-batch fixed costs dominate: framing, ids, spans, SLO histograms and the monitor's per-batch work.",
	},
	{
		name: "bulk-500", model: "lr", rows: 500, rate: 120,
		why: "Per-row costs dominate: JSON decode and encode, the raw tap's second decode, response parsing and percentile sorts.",
	},
	{
		name: "drift-telemetry", model: "xgb", rows: 200, rate: 100, telemetry: true,
		why: "Write-heavy: span journals, tsdb, incidents, alerts and label joins under drift that fires and clears alarms every cycle.",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pool is a workload's inputs: poolSize batches with their ground truth.
type pool struct {
	sets   []*data.Dataset
	bodies [][]byte // /predict_proba request bodies
	labels [][]byte // ground truth per batch as a JSON array
}

// makePool generates the workload's batches from seed. The rows come
// from a stream disjoint from the one the bundle and the served model
// train on. With telemetry the first 16 batches are clean and the other
// 48 are corrupted by the known tabular error types, cycling through
// them at magnitudes rising to 0.95.
func makePool(w workload, seed int64) (*pool, error) {
	all := datagen.Income(poolSize*w.rows, seed+1_000_003)
	rng := rand.New(rand.NewSource(seed + 2_000_003))
	gens := errorgen.KnownTabular()
	const clean = 16
	p := &pool{}
	for i := 0; i < poolSize; i++ {
		idx := make([]int, w.rows)
		for r := range idx {
			idx[r] = i*w.rows + r
		}
		ds := all.SelectRows(idx)
		if w.telemetry && i >= clean {
			k := i - clean
			magnitude := 0.95 * float64(k+1) / float64(poolSize-clean)
			ds = gens[k%len(gens)].Corrupt(ds, magnitude, rng)
		}
		body, err := cloud.EncodeRequest(ds)
		if err != nil {
			return nil, err
		}
		labels, err := json.Marshal(ds.Labels)
		if err != nil {
			return nil, err
		}
		p.sets = append(p.sets, ds)
		p.bodies = append(p.bodies, body)
		p.labels = append(p.labels, labels)
	}
	return p, nil
}
