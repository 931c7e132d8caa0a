// Command compare decides what a change did to the serving benchmark.
// It reads two run ledgers — the parent's and the change's bench/out/
// runs.jsonl, one workload run per line — pairs the i-th run of a
// workload on one side with the i-th run of it on the other, and prints
// one row per metric and workload:
//
//	go -C bench run ./compare /path/to/base/runs.jsonl /path/to/head/runs.jsonl
//
// Run the two sides alternately, on the same seed, so each pair shares
// the machine's conditions. The verdicts:
//
//   - gain: at least ten pairs, the change wins at least nine tenths of
//     them (ties count for neither side), and the medians differ by more
//     than the parent's interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the spread (IQR/median) of either side exceeds the
//     bound, unless every run of the change beats every run of the parent;
//   - within bound: none of the above. Per-layer metrics have no bound, so
//     for them only a gain is reported.
//
// The exit code is 1 when any row is a regression.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"blackboxval/bench/stat"
)

// metric is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics
}

type benchmarkFile struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// report is the part of a runs.jsonl line the comparer reads.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func main() {
	bench := flag.String("benchmark", "", "BENCHMARK.json (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] base-runs.jsonl head-runs.jsonl")
		os.Exit(2)
	}
	code, err := run(*bench, flag.Arg(0), flag.Arg(1), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(benchPath, basePath, headPath string, out io.Writer) (int, error) {
	metrics, err := loadMetrics(benchPath)
	if err != nil {
		return 0, err
	}
	base, err := loadRuns(basePath)
	if err != nil {
		return 0, err
	}
	head, err := loadRuns(headPath)
	if err != nil {
		return 0, err
	}
	workloads := make([]string, 0, len(base))
	for w := range base {
		if len(head[w]) > 0 {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return 0, errors.New("no workload has runs on both sides")
	}
	code := 0
	fmt.Fprintf(out, "%-16s %-32s %5s %30s %30s %8s %7s  %s\n",
		"workload", "metric", "pairs", "base median [q1, q3]", "head median [q1, q3]", "change", "wins", "verdict")
	for _, w := range workloads {
		b, h := base[w], head[w]
		pairs := min(len(b), len(h))
		for i := 0; i < pairs; i++ {
			if b[i].Seed != h[i].Seed {
				return 0, fmt.Errorf("%s pair %d: base seed %d, head seed %d; pair runs on the same seed", w, i, b[i].Seed, h[i].Seed)
			}
		}
		for _, m := range metrics {
			bv, hv := values(b, m.Name), values(h, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			r := judge(bv, hv, m)
			if r.verdict == "regression" {
				code = 1
			}
			fmt.Fprintf(out, "%-16s %-32s %5d %30s %30s %+7.1f%% %7s  %s\n", w, m.Name, r.pairs,
				quart(bv), quart(hv), 100*r.change, fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
		}
	}
	return code, nil
}

func quart(xs []float64) string {
	q1, q2, q3 := stat.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// values collects a metric over runs, in ledger order, skipping runs
// that lack it: only traced runs carry the replay's layer metrics.
func values(runs []report, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// row is the comparer's reading of one metric on one workload.
type row struct {
	pairs, wins int
	change      float64 // relative median change, positive = worse
	verdict     string
}

// judge compares the parent's values base with the change's values
// head, paired by position.
func judge(base, head []float64, m metric) row {
	better := func(h, b float64) bool {
		if m.Better == "higher" {
			return h > b
		}
		return h < b
	}
	r := row{pairs: min(len(base), len(head))}
	for i := 0; i < r.pairs; i++ {
		if better(head[i], base[i]) {
			r.wins++
		}
	}
	bq1, bmed, bq3 := stat.Quartiles(base)
	hq1, hmed, hq3 := stat.Quartiles(head)
	r.change = relative(hmed, bmed)
	if m.Better == "higher" {
		r.change = -r.change
	}
	noise := math.Max(spread(bq1, bmed, bq3), spread(hq1, hmed, hq3))
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case r.pairs >= 10 && 10*r.wins >= 9*r.pairs && better(hmed, bmed) && math.Abs(hmed-bmed) > bq3-bq1:
		r.verdict = "gain"
	case m.Bound == 0:
		r.verdict = "-"
	case r.change > m.Bound:
		r.verdict = "regression"
	case noise > m.Bound && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "within bound"
	}
	return r
}

// spread is the interquartile range as a share of the median.
func spread(q1, med, q3 float64) float64 { return relative(med+(q3-q1), med) }

// relative returns (a-b)/|b|, with 0/0 read as no change.
func relative(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), a)
	}
	return (a - b) / math.Abs(b)
}

func loadMetrics(path string) ([]metric, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		raw, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return append(bf.EndToEnd, bf.PerLayer...), nil
	}
	return nil, lastErr
}

// loadRuns reads a runs.jsonl ledger, grouping runs by workload in file
// order.
func loadRuns(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for n := 1; sc.Scan(); n++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s line %d: not a benchmark run report", path, n)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
