package experiments

// FederateBench measures the federation layer behind ppm-aggregate on
// the three axes that matter for fleet-scale monitoring:
//
//  1. Sketch accuracy and merge exactness — the same sample stream
//     summarized by one stats.KLL versus sharded across N replicas and
//     merged. The merged quantiles must be bit-equal to the single
//     sketch (DESIGN.md §13); the benchmark errors out otherwise and
//     reports the sketch-vs-exact relative error per quantile.
//  2. Aggregator ingest throughput — JSON-decoding replica /federate
//     documents and merging the aligned windows, the hot path of every
//     scrape tick (docs/sec, merged windows/sec, MB/sec).
//  3. Aggregate-of-aggregates honesty — the fleet p99 from the merged
//     sketch versus the max of per-shard p99s on a skewed fleet, the
//     naive rollup the mergeable sketches make unnecessary.
//
// ppm-bench serializes the result as BENCH_federate.json so federation
// regressions show up in review diffs like the pipeline timings do.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"blackboxval/internal/fed"
	"blackboxval/internal/obs"
	"blackboxval/internal/stats"
)

// FederateQuantile is one row of the merged-vs-single accuracy table.
type FederateQuantile struct {
	Q           float64 `json:"q"`
	Exact       float64 `json:"exact"`
	Single      float64 `json:"single_sketch"`
	Merged      float64 `json:"merged_sketch"`
	MergedDelta float64 `json:"merged_minus_single"`
	RelativeErr float64 `json:"sketch_relative_error"`
}

// FederateResult is the machine-readable federation benchmark
// (BENCH_federate.json).
type FederateResult struct {
	Scale   string `json:"scale"`
	Shards  int    `json:"shards"`
	Samples int    `json:"samples"`

	Quantiles []FederateQuantile `json:"quantiles"`

	DocWindows         int     `json:"doc_windows"`
	DocSeries          int     `json:"doc_series"`
	DocBytes           int     `json:"doc_bytes"`
	Rounds             int     `json:"rounds"`
	DecodeMergeSeconds float64 `json:"decode_merge_seconds"`
	DocsPerSec         float64 `json:"docs_per_sec"`
	WindowsPerSec      float64 `json:"merged_windows_per_sec"`
	MBPerSec           float64 `json:"mb_per_sec"`

	ShardP99s   []float64 `json:"shard_p99s"`
	FleetP99    float64   `json:"fleet_p99"`
	MaxShardP99 float64   `json:"max_shard_p99"`
}

// FederateBench runs the federation benchmark at the given scale.
func FederateBench(scale Scale) (*FederateResult, error) {
	const shards = 5
	samples, rounds, windows := 100_000, 50, 64
	if scale.Name == "full" {
		samples, rounds, windows = 1_000_000, 200, 256
	}
	rng := rand.New(rand.NewSource(scale.Seed))
	res := &FederateResult{Scale: scale.Name, Shards: shards, Samples: samples}

	// --- 1. merged-vs-single quantile table over one skewed stream ---
	values := make([]float64, samples)
	for i := range values {
		// Lognormal-ish positive stream: heavy tail, like a latency or a
		// raw feature column.
		values[i] = math.Exp(rng.NormFloat64())
	}
	single := stats.NewKLL()
	single.AddAll(values)
	shardSketches := make([]*stats.KLL, shards)
	for i := range shardSketches {
		shardSketches[i] = stats.NewKLL()
		shardSketches[i].AddAll(values[i*samples/shards : (i+1)*samples/shards])
	}
	merged := stats.NewKLL()
	for _, s := range shardSketches {
		if err := merged.Merge(s); err != nil {
			return nil, fmt.Errorf("experiments: merging shard sketch: %w", err)
		}
	}
	sort.Float64s(values)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(q * float64(len(values)-1))
		row := FederateQuantile{
			Q:      q,
			Exact:  values[idx],
			Single: single.Quantile(q),
			Merged: merged.Quantile(q),
		}
		row.MergedDelta = row.Merged - row.Single
		if row.Exact != 0 {
			row.RelativeErr = math.Abs(row.Single-row.Exact) / math.Abs(row.Exact)
		}
		if row.MergedDelta != 0 {
			return nil, fmt.Errorf(
				"experiments: merge determinism violated at q=%g: single %v != merged %v",
				q, row.Single, row.Merged)
		}
		res.Quantiles = append(res.Quantiles, row)
	}

	// --- 2. decode+merge throughput over realistic /federate docs ---
	docs := make([][]byte, shards)
	quantiles := []float64(nil)
	for s := 0; s < shards; s++ {
		ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{
			Capacity:      windows,
			WindowBatches: 1,
		})
		if err != nil {
			return nil, err
		}
		for w := 0; w < windows; w++ {
			for _, name := range timelineSeries {
				ts.Record(name, rng.Float64())
			}
			ts.Commit()
		}
		quantiles = ts.Quantiles()
		doc := fed.Doc{
			Version:       fed.DocVersion,
			Replica:       fmt.Sprintf("bench-%d", s),
			WindowBatches: 1,
			Quantiles:     quantiles,
			AlarmLine:     0.5,
			Observed:      windows,
			Windows:       ts.Windows(),
		}
		buf, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		docs[s] = buf
	}
	res.DocWindows = windows
	res.DocSeries = len(timelineSeries)
	res.DocBytes = len(docs[0])
	res.Rounds = rounds

	start := time.Now()
	for r := 0; r < rounds; r++ {
		decoded := make([]fed.Doc, shards)
		for s := range docs {
			if err := json.Unmarshal(docs[s], &decoded[s]); err != nil {
				return nil, fmt.Errorf("experiments: decoding bench doc: %w", err)
			}
		}
		group := make([]obs.Window, shards)
		for w := 0; w < windows; w++ {
			for s := range decoded {
				group[s] = decoded[s].Windows[w]
			}
			if _, ok := obs.MergeWindowSet(group, quantiles); !ok {
				return nil, fmt.Errorf("experiments: empty merge at window %d", w)
			}
		}
	}
	elapsed := time.Since(start)
	res.DecodeMergeSeconds = elapsed.Seconds()
	if s := elapsed.Seconds(); s > 0 {
		res.DocsPerSec = float64(rounds*shards) / s
		res.WindowsPerSec = float64(rounds*windows) / s
		res.MBPerSec = float64(rounds*shards*res.DocBytes) / s / (1 << 20)
	}

	// --- 3. fleet p99 vs max of shard p99s on a skewed fleet ---
	// Shard i is (i+1)× hotter and (i+1)× slower than shard 0, the
	// classic skew where naive per-shard rollups mislead.
	fleet := stats.NewKLL()
	perShard := samples / 10
	for s := 0; s < shards; s++ {
		vs := make([]float64, perShard*(s+1))
		for i := range vs {
			vs[i] = rng.ExpFloat64() * float64(s+1)
		}
		sk := stats.NewKLL()
		sk.AddAll(vs)
		res.ShardP99s = append(res.ShardP99s, sk.Quantile(0.99))
		if err := fleet.Merge(sk); err != nil {
			return nil, err
		}
	}
	res.FleetP99 = fleet.Quantile(0.99)
	res.MaxShardP99 = res.ShardP99s[len(res.ShardP99s)-1]
	for _, p := range res.ShardP99s {
		if p > res.MaxShardP99 {
			res.MaxShardP99 = p
		}
	}
	return res, nil
}

// Print renders the human-readable federation summary.
func (r *FederateResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Federation benchmark (scale=%s, %d shards, %d samples)\n",
		r.Scale, r.Shards, r.Samples)
	fmt.Fprintf(w, "%8s  %14s  %14s  %14s  %10s\n",
		"q", "exact", "single", "merged", "rel err")
	for _, row := range r.Quantiles {
		fmt.Fprintf(w, "%8.3f  %14.6f  %14.6f  %14.6f  %9.4f%%  (merged-single = %g)\n",
			row.Q, row.Exact, row.Single, row.Merged, row.RelativeErr*100, row.MergedDelta)
	}
	fmt.Fprintf(w, "ingest  %d docs x %d windows x %d series (%d JSON bytes/doc), %d rounds in %.3fs\n",
		r.Shards, r.DocWindows, r.DocSeries, r.DocBytes, r.Rounds, r.DecodeMergeSeconds)
	fmt.Fprintf(w, "        %10.0f docs/sec  %10.0f merged windows/sec  %8.1f MB/sec\n",
		r.DocsPerSec, r.WindowsPerSec, r.MBPerSec)
	fmt.Fprintf(w, "skew    shard p99s %v\n", r.ShardP99s)
	fmt.Fprintf(w, "        fleet p99 %.4f vs max shard p99 %.4f (naive rollup off by %+.1f%%)\n",
		r.FleetP99, r.MaxShardP99, (r.MaxShardP99/r.FleetP99-1)*100)
}
