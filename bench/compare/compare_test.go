package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base float64, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	latency := metric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	rate := metric{Name: "sat_rps", Better: "higher", Bound: 0.10}
	layer := metric{Name: "cloud.serve.us", Better: "lower"}
	noisy := []float64{10, 14, 8, 13, 9, 15, 7, 12, 10, 14}
	for _, tc := range []struct {
		name       string
		base, head []float64
		m          metric
		want       string
	}{
		{"clear gain on a lower-is-better metric", series(10, 0.1, 10), series(8, 0.1, 10), latency, "gain"},
		{"clear gain on a higher-is-better metric", series(1000, 5, 10), series(1200, 5, 10), rate, "gain"},
		{"nine pairs are too few to claim a gain", series(10, 0.1, 9), series(8, 0.1, 9), latency, "within bound"},
		{"8 of 10 wins is no gain", series(10, 0.1, 10),
			[]float64{8, 8, 8, 8, 8, 8, 8, 8, 11, 11}, latency, "within bound"},
		{"a win smaller than the parent's IQR is no gain", series(10, 0.2, 10), series(9.9, 0.2, 10), latency, "within bound"},
		{"worse beyond the bound", series(10, 0.1, 10), series(12, 0.1, 10), latency, "regression"},
		{"lower rate beyond the bound", series(1000, 5, 10), series(800, 5, 10), rate, "regression"},
		{"spread wider than the bound", noisy, noisy, latency, "unresolved"},
		{"steady and unchanged", series(10, 0.1, 10), series(10.05, 0.1, 10), latency, "within bound"},
		{"per-layer metrics report gains only", series(10, 0.1, 10), series(12, 0.1, 10), layer, "-"},
		{"per-layer gain", series(10, 0.1, 10), series(5, 0.1, 10), layer, "gain"},
	} {
		if got := judge(tc.base, tc.head, tc.m); got.verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %d/%d, change %+.3f), want %q",
				tc.name, got.verdict, got.wins, got.pairs, got.change, tc.want)
		}
	}
}

func TestRunPairsWorkloadsAndFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`)
	var base, head, otherSeed strings.Builder
	for i := 0; i < 3; i++ {
		base.WriteString(`{"workload": "w", "seed": 2, "metrics": {"p50_ms": 1.0}}` + "\n")
		head.WriteString(`{"workload": "w", "seed": 2, "metrics": {"p50_ms": 1.5}}` + "\n")
		otherSeed.WriteString(`{"workload": "w", "seed": 3, "metrics": {"p50_ms": 1.0}}` + "\n")
	}
	var out strings.Builder
	code, err := run(bench, write("base.jsonl", base.String()), write("head.jsonl", head.String()), &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), "regression") {
		t.Errorf("code %d, err %v, output:\n%s", code, err, out.String())
	}
	if _, err := run(bench, write("base.jsonl", base.String()), write("other.jsonl", otherSeed.String()), &out); err == nil {
		t.Error("runs on different seeds were paired")
	}
}
