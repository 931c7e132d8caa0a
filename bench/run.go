package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"blackboxval/bench/stat"
)

const (
	// rounds is how many fresh stacks a run sets up and measures. Two
	// instances of the same stack on the same inputs differ by several
	// percent in speed, so every metric pools or takes the median over
	// all rounds; setup_s is the median of the rounds' set-up times. One
	// untimed set-up runs before them, because a cold first run of each
	// binary is much slower than a warm one.
	rounds = 3
	// warmup is the open-loop traffic each round sends, and discards,
	// before its slice of phase A.
	warmup = time.Second
	// labelLag is how many requests later drift-telemetry posts a batch's
	// ground truth.
	labelLag = 8
	// lateLimitMS bounds loadgen.late_p99_ms, the median over phase A's
	// windows of how late the generator woke at p99: beyond it the
	// generator, not the system, set the load. A host stall that spoils
	// one window does not.
	lateLimitMS = 5.0
	// trainSeed seeds the bundle and the served model. The stack under
	// test stays the same for every -seed, which varies only the traffic.
	trainSeed = "1"
)

// alertRules is drift-telemetry's rule file: the accuracy alarm the
// demo uses, firing and clearing as the pool cycles.
const alertRules = `{"rules": [
  {"name": "accuracy_alarm", "series": "alarm", "op": ">=", "threshold": 1,
   "reduce": "max", "for_windows": 1, "clear_windows": 2, "severity": "critical"}
]}`

// runner runs one workload.
type runner struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	prov    provenance
	bin     string // directory holding the ppm-* binaries
	dir     string // this workload's scratch directory
	outDir  string // where trace files go
	senders int
	g       *procGroup
}

// stack is one running ppm-serve + ppm-gateway pair.
type stack struct {
	bundle          string
	serve, gw       *child
	serveURL, gwURL string
}

func (s *stack) stop() {
	s.gw.stop(5 * time.Second)
	s.serve.stop(5 * time.Second)
}

// setup trains a bundle, starts both servers on fresh ports and waits
// for both to report healthy. It returns the wall time of the training
// and of the start-up.
func (r *runner) setup(dir, rules string) (st *stack, trainS, readyS float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	st = &stack{bundle: filepath.Join(dir, "bundle")}

	start := time.Now()
	train, err := r.g.start("ppm-validate", filepath.Join(r.bin, "ppm-validate"), filepath.Join(dir, "train.log"),
		"train", "-dataset", "income", "-model", r.w.model, "-seed", trainSeed,
		"-workers", strconv.Itoa(r.senders), "-out", st.bundle)
	if err != nil {
		return nil, 0, 0, err
	}
	<-train.done
	if train.err != nil {
		return nil, 0, 0, fmt.Errorf("ppm-validate train: %v; see %s", train.err, train.log)
	}
	trainS = time.Since(start).Seconds()

	start = time.Now()
	serveAddr, err := freeAddr()
	if err != nil {
		return nil, 0, 0, err
	}
	gwAddr, err := freeAddr()
	for err == nil && gwAddr == serveAddr {
		gwAddr, err = freeAddr()
	}
	if err != nil {
		return nil, 0, 0, err
	}
	st.serveURL, st.gwURL = "http://"+serveAddr, "http://"+gwAddr
	serveArgs := []string{"-dataset", "income", "-model", r.w.model, "-seed", trainSeed, "-addr", serveAddr}
	gwArgs := []string{"-backend", st.serveURL, "-bundle", st.bundle, "-addr", gwAddr}
	if r.w.telemetry {
		serveArgs = append(serveArgs, "-trace-dir", filepath.Join(dir, "serve-journal"))
		gwArgs = append(gwArgs, "-trace-sample", "1", "-trace-dir", filepath.Join(dir, "gw-journal"),
			"-tsdb-dir", filepath.Join(dir, "tsdb"), "-incident-dir", filepath.Join(dir, "incidents"),
			"-alert-rules", rules)
	}
	if st.serve, err = r.g.start("ppm-serve", filepath.Join(r.bin, "ppm-serve"), filepath.Join(dir, "serve.log"), serveArgs...); err != nil {
		return nil, 0, 0, err
	}
	if st.gw, err = r.g.start("ppm-gateway", filepath.Join(r.bin, "ppm-gateway"), filepath.Join(dir, "gateway.log"), gwArgs...); err != nil {
		return nil, 0, 0, err
	}
	if err := waitHealthy(st.serve, st.serveURL+"/healthz", time.Minute); err != nil {
		return nil, 0, 0, err
	}
	if err := waitHealthy(st.gw, st.gwURL+"/healthz", time.Minute); err != nil {
		return nil, 0, 0, err
	}
	return st, trainS, time.Since(start).Seconds(), nil
}

// gate is one correctness check of a run.
type gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// result is everything one workload run measured.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	ErrorFrac  float64            `json:"error_frac"`
	Gates      []gate             `json:"gates"`
	Metrics    map[string]float64 `json:"metrics"`
	Provenance provenance         `json:"provenance"`
}

func (res *result) check(name string, pass bool, format string, args ...any) {
	res.Gates = append(res.Gates, gate{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// round is what one stack instance measured. Its samples pool with the
// other rounds' before each metric takes their median.
type round struct {
	bundle    string
	expected  [][]byte // ppm-serve's answer to each pool body
	all, a    phaseResult
	samples   map[string][]float64
	observedA float64 // batches the monitor observed during phase A
	droppedB  float64 // batches the shadow queue dropped during phase B
	settledB  float64
	history   []historyRecord
}

// measure sets up a fresh stack and measures one round: warm-up, then
// this round's slices of phase A (open loop at the workload's rate) and
// phase B (closed loop, saturation).
func (r *runner) measure(ctx context.Context, dir, rules string, p *pool) (*round, error) {
	st, trainS, readyS, err := r.setup(dir, rules)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	rd := &round{bundle: st.bundle, samples: map[string][]float64{
		"setup_s": {trainS + readyS}, "setup.train_s": {trainS}, "setup.ready_s": {readyS},
	}}
	add := func(name string, v float64) { rd.samples[name] = append(rd.samples[name], v) }

	// The backend's own answer to every pool body is the reference the
	// gateway's relay must reproduce byte for byte.
	direct := &traffic{client: newClient(1), target: st.serveURL, bodies: p.bodies}
	for i, body := range p.bodies {
		status, resp, err := direct.send(ctx, "/predict_proba", body, "")
		if err != nil || status != 200 {
			return nil, fmt.Errorf("recording the backend's answer to pool batch %d: status %d, %v", i, status, err)
		}
		rd.expected = append(rd.expected, resp)
	}
	t := &traffic{client: newClient(r.senders), target: st.gwURL, workload: r.w.name, bodies: p.bodies, expected: rd.expected}
	if r.w.telemetry {
		t.labelBodies, t.labelLag = p.labels, labelLag
	}
	total := time.Duration(r.seconds) * time.Second / rounds
	phaseA := total * 2 / 3
	phaseB := total - phaseA

	rd.all.merge(t.open(ctx, r.w.rate, warmup, r.senders))
	f0, err := drain(st.gwURL, rd.all.served, 30*time.Second)
	if err != nil {
		return nil, err
	}

	// Phase A: open loop below the knee. Each window's CPU time is charged
	// to the batches served in it; the gateway's allocation gauge covers
	// its last 64 requests.
	gwPid, servePid := st.gw.cmd.Process.Pid, st.serve.cmd.Process.Pid
	win := startSampler(phaseA, func() ([]float64, error) {
		gw, err1 := cpuTicks(gwPid)
		serve, err2 := cpuTicks(servePid)
		metrics, err3 := scrapeMetrics(st.gwURL + "/metrics")
		return []float64{gw, serve, metrics["ppm_serving_alloc_bytes_per_req"]}, firstErr(err1, err2, err3)
	})
	rd.a = t.open(ctx, r.w.rate, phaseA, r.senders)
	if err := win.wait(); err != nil {
		return nil, err
	}
	rd.all.merge(rd.a)
	f1, err := drain(st.gwURL, rd.all.served, 30*time.Second)
	if err != nil {
		return nil, err
	}
	rd.observedA = f1.observed - f0.observed
	for w, lat := range win.split(rd.a) {
		if n := float64(len(lat)); n > 0 {
			gw := win.delta(w, 0) * 1000 / ticksPerSecond / n
			serve := win.delta(w, 1) * 1000 / ticksPerSecond / n
			add("cpu_ms_per_batch", gw+serve)
			add("proc.gateway_cpu_ms_per_batch", gw)
			add("proc.serve_cpu_ms_per_batch", serve)
		}
		if alloc := win.vals[w+1][2]; alloc > 0 { // 0 until the gauge's second 64-request window
			add("alloc_bytes_per_req", alloc)
		}
	}
	for _, late := range win.group(rd.a.lateAtS, rd.a.lateMS) {
		if len(late) > 0 {
			add("loadgen.late_p99_ms", stat.Percentile(late, 99))
		}
	}
	var slo sloDoc
	if err := getJSON(st.gwURL+"/slo", &slo); err != nil {
		return nil, err
	}
	for _, s := range []struct {
		metric, stage string
		q             func(sloStage) float64
	}{
		{"gateway.request_p50_ms", "request", sloStage.p50},
		{"gateway.request_p99_ms", "request", sloStage.p99},
		{"gateway.relay_p50_ms", "relay", sloStage.p50},
		{"gateway.decode_p50_ms", "decode", sloStage.p50},
		{"gateway.monitor_observe_p50_ms", "monitor_observe", sloStage.p50},
		{"gateway.monitor_observe_p99_ms", "monitor_observe", sloStage.p99},
	} {
		add(s.metric, s.q(slo.stage(s.stage)))
	}

	// Phase B: closed loop, saturating whichever of the proxy path and the
	// shadow worker gives out first.
	shadow := startSampler(phaseB, func() ([]float64, error) {
		f, err := readShadow(st.gwURL)
		return []float64{f.observed}, err
	})
	b := t.closed(ctx, phaseB, r.senders)
	if err := shadow.wait(); err != nil {
		return nil, err
	}
	rd.all.merge(b)
	f2, err := drain(st.gwURL, rd.all.served, 60*time.Second)
	if err != nil {
		return nil, err
	}
	for w, lat := range shadow.split(b) {
		add("sat_rps", float64(len(lat))/shadow.length(w))
		add("sat_validated_bps", shadow.delta(w, 0)/shadow.length(w))
	}
	rd.droppedB, rd.settledB = f2.dropped-f1.dropped, f2.settled()-f1.settled()
	rss, err := peakRSSMiB(gwPid)
	if err != nil {
		return nil, err
	}
	add("gw_peak_rss_mb", rss)
	if err := getJSON(st.gwURL+"/monitor/history", &rd.history); err != nil {
		return nil, err
	}
	return rd, nil
}

// run measures the workload over all rounds, replays its inputs and
// checks the gates.
func (r *runner) run() (*result, error) {
	res := &result{Workload: r.w.name, Seed: r.seed, Trace: r.trace, Metrics: map[string]float64{}, Provenance: r.prov}
	m := res.Metrics
	p, err := makePool(r.w, r.seed)
	if err != nil {
		return nil, err
	}
	rules := filepath.Join(r.dir, "rules.json")
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(rules, []byte(alertRules), 0o644); err != nil {
		return nil, err
	}
	st, _, _, err := r.setup(filepath.Join(r.dir, "prime"), rules)
	if err != nil {
		return nil, err
	}
	st.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var rds []*round
	for i := 0; i < rounds; i++ {
		rd, err := r.measure(ctx, filepath.Join(r.dir, fmt.Sprint("round-", i)), rules, p)
		if err != nil {
			return nil, err
		}
		rds = append(rds, rd)
	}

	var all, a phaseResult
	var observedA, droppedB, settledB float64
	samples := map[string][]float64{}
	for _, rd := range rds {
		all.merge(rd.all)
		a.merge(rd.a)
		observedA, droppedB, settledB = observedA+rd.observedA, droppedB+rd.droppedB, settledB+rd.settledB
		for name, vs := range rd.samples {
			samples[name] = append(samples[name], vs...)
		}
	}
	for name, vs := range samples {
		m[name] = stat.Median(vs)
	}
	if _, ok := m["loadgen.late_p99_ms"]; !ok {
		m["loadgen.late_p99_ms"] = math.NaN() // no sender was ever idle: the generator never kept up
	}
	m["p50_ms"] = stat.Percentile(a.latMS, 50)
	m["p99_ms"] = stat.Percentile(a.latMS, 99)
	m["validated_frac"] = observedA / float64(a.served)
	m["gateway.sat_drop_frac"] = droppedB / settledB
	m["loadgen.samples"] = float64(len(a.latMS))

	last := rds[len(rds)-1]
	rp, err := newReplay(last.bundle, filepath.Join(r.dir, "replay"), rules, r.w.telemetry)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	vals, err := rp.values(p, last.expected, r.w.name)
	if err != nil {
		return nil, err
	}
	absErr := 0.0
	for _, v := range vals {
		absErr += math.Abs(v.estimate - v.accuracy)
	}
	m["h_abs_err"] = absErr / float64(len(vals))
	if r.trace {
		tr := newTracer()
		if err := rp.timed(tr, p, last.expected, r.w.name, r.seed, replayPasses); err != nil {
			return nil, err
		}
		fillSelfTimes(tr.spans)
		sum := summarise(tr.spans)
		for _, l := range layers {
			m[l+".us"], m[l+".allocs"], m[l+".bytes"] = sum[l].MedianUS, sum[l].Allocs, sum[l].Bytes
		}
		if err := writeTrace(filepath.Join(r.outDir, r.w.name+".trace.json"), r.w.name, r.prov, tr.spans, sum); err != nil {
			return nil, err
		}
	}

	res.Attempted, res.Failed = all.attempted, all.failed
	res.ErrorFrac = float64(all.failed) / float64(all.attempted)
	res.check("relay_identity", all.mismatched == 0 && all.served > 0,
		"%d of %d gateway 2xx bodies differ from ppm-serve's answer", all.mismatched, all.served)
	matched, differ := 0, 0
	for _, rd := range rds {
		mt, df := compareHistory(rd.history, vals, r.w.name)
		matched, differ = matched+mt, differ+df
	}
	res.check("replay_bit_equal", matched > 0 && differ == 0,
		"%d of %d history records differ from the replay's Estimate/KSMax", differ, matched)
	res.check("phase_a_errors", a.failed == 0, "%d of %d phase A requests failed", a.failed, a.attempted)
	res.check("loadgen_late", m["loadgen.late_p99_ms"] < lateLimitMS,
		"generator woke %.3f ms late at p99, median over windows (limit %.0f ms)", m["loadgen.late_p99_ms"], lateLimitMS)
	finite := true
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			m[name] = 0
		}
	}
	res.check("metrics_finite", finite, "every metric is a finite number")
	res.Correct = true
	for _, g := range res.Gates {
		res.Correct = res.Correct && g.Pass
	}
	return res, nil
}

// compareHistory checks every /monitor/history record of a pool batch
// against the replay's values for that batch, bit for bit.
func compareHistory(history []historyRecord, vals []batchValues, workload string) (matched, differ int) {
	for _, h := range history {
		rest, ok := strings.CutPrefix(h.RequestID, workload+"-")
		if !ok {
			continue
		}
		idx, _, _ := strings.Cut(rest, "-")
		i, err := strconv.Atoi(idx)
		if err != nil || i < 0 || i >= len(vals) {
			continue
		}
		matched++
		if math.Float64bits(h.Estimate) != math.Float64bits(vals[i].estimate) ||
			math.Float64bits(h.KSMax) != math.Float64bits(vals[i].ksMax) {
			differ++
		}
	}
	return matched, differ
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
