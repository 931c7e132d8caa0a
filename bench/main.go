// Command bench measures the shipped serving stack end to end: a
// ppm-validate bundle behind ppm-serve and ppm-gateway -bundle, driven
// over loopback HTTP by an open-loop and then a closed-loop load
// generator, with server-side numbers read only from the gateway's
// public endpoints and /proc. A traced run also replays each
// workload's inputs through every layer in-process. Run it through
// run.sh, which builds the binaries first:
//
//	bash bench/run.sh --workload burst-20 --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics with --trace
// 0, the per-layer metrics with --trace 1. See bench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the stack sees, from the untraced
// phases. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"validated_frac", "ratio", "higher"},
	{"alloc_bytes_per_req", "B", "lower"},
	{"gw_peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers — the replay's per-call
// numbers, then what the live processes and the generator reported — and
// six whole-stack metrics whose run-to-run spread on a shared 2-CPU host
// is too wide to bound: the latencies, the saturation rates and the CPU
// cost follow the host's speed, and h's error varies with the seed's pool.
func perLayer() []metricDef {
	out := []metricDef{
		{"p50_ms", "ms", "lower"},
		{"p99_ms", "ms", "lower"},
		{"sat_rps", "req/s", "higher"},
		{"sat_validated_bps", "batches/s", "higher"},
		{"cpu_ms_per_batch", "ms", "lower"},
		{"h_abs_err", "abs", "lower"},
	}
	for _, l := range layers {
		out = append(out, metricDef{l + ".us", "us", "lower"}, metricDef{l + ".allocs", "allocs", "lower"},
			metricDef{l + ".bytes", "B", "lower"})
	}
	return append(out,
		metricDef{"gateway.request_p50_ms", "ms", "lower"},
		metricDef{"gateway.request_p99_ms", "ms", "lower"},
		metricDef{"gateway.relay_p50_ms", "ms", "lower"},
		metricDef{"gateway.decode_p50_ms", "ms", "lower"},
		metricDef{"gateway.monitor_observe_p50_ms", "ms", "lower"},
		metricDef{"gateway.monitor_observe_p99_ms", "ms", "lower"},
		metricDef{"gateway.sat_drop_frac", "ratio", "lower"},
		metricDef{"proc.gateway_cpu_ms_per_batch", "ms", "lower"},
		metricDef{"proc.serve_cpu_ms_per_batch", "ms", "lower"},
		metricDef{"setup.train_s", "s", "lower"},
		metricDef{"setup.ready_s", "s", "lower"},
		metricDef{"loadgen.late_p99_ms", "ms", "lower"},
		metricDef{"loadgen.samples", "count", "higher"},
	)
}

// reported is what the result line carries: the end-to-end metrics, or
// with --trace 1 the per-layer ones.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer()
	}
	return endToEnd
}

// provenance stamps every output with what produced it.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func stamp(seed int64, seconds int) provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: "unknown", Seed: seed, Seconds: seconds}
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			p.Commit += "+dirty"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func main() {
	name := flag.String("workload", "all", "workload to run: burst-20, bulk-500, drift-telemetry or all")
	seed := flag.Int64("seed", 1, "input seed (1 is the default, 2 the held-out seed for claims)")
	seconds := flag.Int("seconds", 24, "measured seconds per workload, split over the rounds: 2/3 open loop (phase A), 1/3 closed loop (phase B)")
	trace := flag.Int("trace", 0, "1 replays the inputs through each layer and reports the per-layer metrics")
	bin := flag.String("bin", "", "directory holding ppm-validate, ppm-serve and ppm-gateway")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for runs.jsonl and the trace files")
	flag.Parse()
	if *bin == "" || *seconds < 3 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -bin is required, -seconds must be at least 3 and -trace 0 or 1; run through bench/run.sh")
		os.Exit(2)
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	os.Exit(run(todo, *seed, *seconds, *trace == 1, *bin, *out))
}

// run measures each workload in turn and prints the result. It returns
// the process exit code: 0 when every correctness gate passed, 1 when
// one failed or a run could not finish.
func run(todo []workload, seed int64, seconds int, trace bool, bin, out string) int {
	work, err := os.MkdirTemp("", "serving-bench-")
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	g := &procGroup{}
	detach := g.stopOnSignal(func(code int) {
		os.RemoveAll(work)
		os.Exit(code)
	})
	defer detach()
	prov := stamp(seed, seconds)
	fmt.Printf("serving bench: commit %s, %s, GOMAXPROCS %d, nproc %d, %s, seed %d, %d s per workload\n",
		prov.Commit, prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.CPU, seed, seconds)

	var results []*result
	for _, w := range todo {
		r := &runner{w: w, seed: seed, seconds: seconds, trace: trace, prov: prov, bin: bin,
			dir: filepath.Join(work, w.name), outDir: out, senders: runtime.NumCPU(), g: g}
		var res *result
		err := g.guard(func() error {
			var err error
			res, err = r.run()
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(res)
		if err := appendReport(filepath.Join(out, "runs.jsonl"), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		results = append(results, res)
	}
	line, ok := contractLine(results, trace)
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

// printResult shows a run to a reader: its gates, then every metric it
// measured (the replay's only with --trace 1).
func printResult(res *result) {
	fmt.Printf("\n== %s (seed %d) ==\n", res.Workload, res.Seed)
	for _, g := range res.Gates {
		verdict := "PASS"
		if !g.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("gate %-16s %s  %s\n", g.Name, verdict, g.Detail)
	}
	fmt.Printf("requests: %d attempted, %d failed, error_frac %.6f\n", res.Attempted, res.Failed, res.ErrorFrac)
	for i, d := range append(endToEnd, perLayer()...) {
		if i == len(endToEnd) {
			fmt.Println("  per layer:")
		}
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

func appendReport(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractLine renders the final stdout line. With several workloads
// each metric name is prefixed with "<workload>/".
func contractLine(results []*result, trace bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, d := range reported(trace) {
			key := d.name
			if len(results) > 1 {
				key = res.Workload + "/" + d.name
			}
			line.Metrics[key] = value{res.Metrics[d.name], d.unit}
		}
	}
	raw, err := json.Marshal(line) // run replaced any non-finite value, so this cannot fail
	if err != nil {
		panic(err)
	}
	return string(raw), line.Correct
}

// writeTrace writes the traced replay's spans and per-layer summary.
func writeTrace(path, workload string, prov provenance, spans []span, sum map[string]layerStat) error {
	raw, err := json.Marshal(struct {
		Workload   string               `json:"workload"`
		Provenance provenance           `json:"provenance"`
		Layers     map[string]layerStat `json:"layers"`
		Spans      []span               `json:"spans"`
	}{workload, prov, sum, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
