// Command ppm-gateway is the shadow-validation serving proxy: it sits
// between clients and a black box model server (e.g. ppm-serve),
// hardens the path to the backend (timeouts, retries with backoff, a
// circuit breaker that sheds load while the backend is down), and — off
// the hot path — taps every response batch into a trained performance
// predictor so the model's estimated accuracy and alarm state are
// maintained continuously without labels.
//
// Usage:
//
//	ppm-validate train -dataset income -model xgb -out bundle
//	ppm-serve    -dataset income -model xgb -addr 127.0.0.1:8080
//	ppm-gateway  -backend http://127.0.0.1:8080 -bundle bundle -addr 127.0.0.1:8088
//
// Endpoints: POST /predict_proba (proxied, X-Request-ID minted and
// pinned on every response), GET /metrics (Prometheus text), GET
// /status (JSON), GET /healthz (503 while the performance alarm
// fires), GET /monitor/* (HTML drift dashboard plus /monitor/timeline
// JSON, with -bundle), GET /debug/pprof/* and /debug/spans (profiling
// and span traces). Without -bundle the gateway runs as a pure
// resilience proxy. -alert-rules loads threshold-for-duration alert
// rules evaluated on every drift-timeline window close and
// -alert-webhook POSTs the firing/resolved events to an HTTP endpoint
// (see ppm-traffic sink). The serving SLO observatory is always on:
// every proxied request is timed per stage into mergeable latency
// histograms with X-Request-ID exemplars, exposed as ppm_serving_*
// metric families, a GET /slo JSON document, latency panels on the
// dashboards and the /federate document, and burn-rate series
// (-slo-budget/-slo-target/-slo-window tune the budget and windows;
// -burn-threshold tunes the built-in fast+slow burn-rate alert pair,
// <=0 disables it). With -bundle the incident flight recorder is
// on: every alert fire transition (or POST /debug/incidents/trigger)
// captures a diagnostic bundle with per-column drift attribution —
// plus a bounded CPU+heap pprof pair (-profile-cpu/-profile-cooldown)
// and the serving SLO snapshot with its slowest-request exemplars — and
// GET /debug/incidents lists the retained ones (-incident-dir persists
// them as JSON; render with ppm-diagnose). With -bundle the label
// feedback loop is also on: POST /labels ingests delayed ground truth
// joined by X-Request-ID, GET /labels/requests serves the active
// (Thompson) labeling worklist, GET /labels/status the Bayesian
// assessment (-label-lag/-label-pending/-label-seed tune it). With
// -bundle, -tsdb-dir persists every closed drift-timeline window to
// an on-disk segment store: GET /monitor/timeline/range serves range
// queries over the durable history, which survives restarts and
// replays offline via ppm-backtest (-tsdb-retention and friends bound
// the footprint). -log-level and -log-format control structured
// logging.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"blackboxval/internal/cli"
	"blackboxval/internal/cloud"
	"blackboxval/internal/gateway"
	"blackboxval/internal/labels"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
	"blackboxval/internal/obs/incident"
	"blackboxval/internal/obs/tsdb"
)

func main() {
	backend := flag.String("backend", "http://127.0.0.1:8080", "base URL of the model server")
	bundle := flag.String("bundle", "", "bundle directory written by ppm-validate train (empty = proxy only, no shadow validation)")
	addr := flag.String("addr", "127.0.0.1:8088", "gateway listen address")
	hysteresis := flag.Int("hysteresis", 1, "consecutive violating batches before the alarm fires")
	timeout := flag.Duration("timeout", 10*time.Second, "per-attempt backend timeout")
	retries := flag.Int("retries", 2, "retry attempts after the first try on transient backend failures")
	queueSize := flag.Int("shadow-queue", 256, "bounded shadow-validation queue size (drop-oldest under pressure)")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive backend failures that open the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "how long the breaker stays open before probing")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown drain deadline")
	refresh := flag.Duration("refresh", 5*time.Second, "monitor dashboard auto-refresh interval (<=0 disables)")
	replica := flag.String("replica", "", "replica name advertised in /federate documents (empty = generated id prefix)")
	timelineWindow := flag.Int("timeline-window", 1, "batches aggregated into one drift-timeline window")
	timelineCapacity := flag.Int("timeline-capacity", 128, "retained drift-timeline windows")
	alertRules := flag.String("alert-rules", "", "JSON alert rule file (empty = alerting off)")
	alertWebhook := flag.String("alert-webhook", "", "webhook URL receiving alert events as JSON POSTs")
	incidentDir := flag.String("incident-dir", "", "directory retaining incident bundles as JSON (empty = in-memory only)")
	incidentRows := flag.Int("incident-rows", 0, "incident reservoir size in raw serving rows (0 = default 512)")
	incidentMax := flag.Int("incident-max", 0, "retained incident bundles (0 = default 16)")
	incidentSeed := flag.Int64("incident-seed", 0, "incident reservoir sampling seed (0 = default 1)")
	labelLag := flag.Int64("label-lag", 0, "label join horizon in drift-timeline windows (0 = default 64)")
	labelPending := flag.Int("label-pending", 0, "served batches retained awaiting labels (0 = default 512)")
	labelSeed := flag.Int64("label-seed", 0, "active-sampling RNG seed (0 = default 1)")
	sloBudget := flag.Duration("slo-budget", 0, "per-request latency budget (0 = default 250ms)")
	sloTarget := flag.Float64("slo-target", 0, "SLO target fraction of in-budget requests (0 = default 0.99)")
	sloWindow := flag.Int("slo-window", 0, "requests per SLO timeline window (0 = default 64)")
	burnThreshold := flag.Float64("burn-threshold", 1.0, "burn-rate alert threshold; fires when BOTH the fast and slow windows burn above it (<=0 disables)")
	profileCPU := flag.Duration("profile-cpu", 0, "CPU profile duration captured into alert-triggered incident bundles (0 = default 250ms)")
	profileCooldown := flag.Duration("profile-cooldown", 0, "minimum gap between profile captures (0 = default 30s)")
	traceDir := flag.String("trace-dir", "", "span journal directory for cross-process trace stitching (empty = in-memory ring only)")
	traceSample := flag.Float64("trace-sample", 1, "deterministic head-sampling rate for traces this gateway mints (<=0 or >1 = sample everything); incoming traceparent flags win")
	var tsdbFlags cli.TSDBFlags
	tsdbFlags.RegisterFlags(flag.CommandLine)
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := obs.SetupLogs("ppm-gateway", logCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dashRefresh := *refresh
	if dashRefresh <= 0 {
		dashRefresh = -1 // monitor treats negative as "auto-refresh off"
	}
	opts := options{
		backend: *backend, bundle: *bundle, addr: *addr, replica: *replica,
		hysteresis: *hysteresis, timeout: *timeout, retries: *retries,
		queueSize: *queueSize, breakerFailures: *breakerFailures,
		breakerCooldown: *breakerCooldown, drain: *drain,
		refresh: dashRefresh, timelineWindow: *timelineWindow,
		timelineCapacity: *timelineCapacity,
		alertRules:       *alertRules, alertWebhook: *alertWebhook,
		incidentDir: *incidentDir, incidentRows: *incidentRows,
		incidentMax: *incidentMax, incidentSeed: *incidentSeed,
		labelLag: *labelLag, labelPending: *labelPending, labelSeed: *labelSeed,
		sloBudget: *sloBudget, sloTarget: *sloTarget, sloWindow: *sloWindow,
		burnThreshold: *burnThreshold,
		profileCPU:    *profileCPU, profileCooldown: *profileCooldown,
		traceDir: *traceDir, traceSample: *traceSample,
		tsdb: tsdbFlags,
	}
	if err := run(opts, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// options carries the parsed flags into run.
type options struct {
	backend, bundle, addr            string
	replica                          string
	hysteresis, retries, queueSize   int
	breakerFailures                  int
	timeout, breakerCooldown, drain  time.Duration
	refresh                          time.Duration
	timelineWindow, timelineCapacity int
	alertRules, alertWebhook         string
	incidentDir                      string
	incidentRows, incidentMax        int
	incidentSeed                     int64
	labelLag, labelSeed              int64
	labelPending                     int
	sloBudget                        time.Duration
	sloTarget                        float64
	sloWindow                        int
	burnThreshold                    float64
	profileCPU, profileCooldown      time.Duration
	traceDir                         string
	traceSample                      float64
	tsdb                             cli.TSDBFlags
}

func run(opts options, logger *slog.Logger) error {
	cfg := gateway.Config{
		Backend:         opts.backend,
		ReplicaName:     opts.replica,
		RequestTimeout:  opts.timeout,
		MaxRetries:      opts.retries,
		ShadowQueueSize: opts.queueSize,
		// Route the gateway's stdlib-style operational log lines through
		// the structured handler.
		Logger: obs.StdLogger(logger, slog.LevelInfo),
		Breaker: gateway.BreakerConfig{
			FailureThreshold: opts.breakerFailures,
			Cooldown:         opts.breakerCooldown,
		},
		SLO: gateway.SLOConfig{
			Budget:         opts.sloBudget,
			Target:         opts.sloTarget,
			WindowRequests: opts.sloWindow,
		},
		TraceSampleRate: opts.traceSample,
	}

	var manifest *cli.Manifest
	if opts.bundle != "" {
		// The black box stays remote: attach the backend client to the
		// locally trained validation artifacts.
		remote := cloud.NewClient(opts.backend)
		m, pred, val, err := cli.LoadServingBundle(opts.bundle, remote)
		if err != nil {
			return err
		}
		manifest = m
		mon, err := monitor.New(monitor.Config{
			Predictor:        pred,
			Validator:        val,
			Threshold:        manifest.Threshold,
			Hysteresis:       opts.hysteresis,
			TimelineWindow:   opts.timelineWindow,
			TimelineCapacity: opts.timelineCapacity,
			DashboardRefresh: opts.refresh,
		})
		if err != nil {
			return err
		}
		cfg.Monitor = mon
		// Recover the raw serving rows from each proxied request body so
		// the incident recorder's reservoir samples real feature vectors,
		// not just model outputs.
		cfg.RawClasses = manifest.Classes
		logger.Info("shadow validation on", "dataset", manifest.Dataset, "model", manifest.Model,
			"reference_accuracy", manifest.TestScore, "alarm_line", mon.AlarmLine())
	} else if opts.alertRules != "" {
		return fmt.Errorf("-alert-rules needs -bundle (no monitor, no drift timeline)")
	} else {
		logger.Info("no -bundle given: running as a pure resilience proxy")
	}

	g, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer g.Close()
	// Go runtime self-telemetry rides the same /metrics scrape as the
	// proxy and monitor families.
	obs.RegisterRuntimeMetrics(g.Metrics().Registry())
	// Gateway and shadow-monitor spans share the process default
	// tracer, so one journal carries this process's trace fragments.
	closeTracing, err := cli.WireTracing(cli.TracingOptions{
		Dir:      opts.traceDir,
		Registry: g.Metrics().Registry(),
		Logger:   logger,
	})
	if err != nil {
		return err
	}
	defer closeTracing()

	var rec *incident.Recorder
	var lstore *labels.Store
	var tsdbDB *tsdb.DB
	if cfg.Monitor != nil {
		// Surface the monitor's own families (estimate, alarm line,
		// batch/violation counters) on the gateway's /metrics endpoint.
		cfg.Monitor.RegisterMetrics(g.Metrics().Registry())
		// The label-feedback store rides the same shadow batch stream:
		// delayed ground truth POSTed to /labels joins against what this
		// gateway served, assessed as Beta-Bernoulli credible intervals on
		// the drift timeline next to h's unlabeled estimate.
		lstore, err = cli.WireLabels(cfg.Monitor, cli.LabelOptions{
			MaxLagWindows: opts.labelLag,
			MaxPending:    opts.labelPending,
			Seed:          opts.labelSeed,
			Registry:      g.Metrics().Registry(),
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		// The incident flight recorder samples every shadow-observed
		// batch; alert fire transitions (below) auto-capture bundles.
		// Alert-triggered profiling: every captured bundle embeds a
		// bounded CPU+heap pprof pair (the profiler's cooldown bounds the
		// cost) plus the serving SLO snapshot with its slow-request
		// exemplars.
		profiler := obs.NewProfiler(obs.ProfilerConfig{
			CPUDuration: opts.profileCPU,
			Cooldown:    opts.profileCooldown,
		})
		rec, err = cli.WireIncidents(cfg.Monitor, cli.IncidentOptions{
			BundleDir:     opts.bundle,
			Dir:           opts.incidentDir,
			MaxBundles:    opts.incidentMax,
			ReservoirRows: opts.incidentRows,
			Seed:          opts.incidentSeed,
			Labels:        lstore,
			Profiler:      profiler,
			Serving:       g.IncidentServing,
			Registry:      g.Metrics().Registry(),
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		// Alert metrics land on the same registry so one /metrics scrape
		// covers the proxy, the monitor and the alert engine.
		_, closeAlerts, err := cli.WireAlerts(cfg.Monitor, cli.AlertOptions{
			RulesPath:  opts.alertRules,
			WebhookURL: opts.alertWebhook,
			Notifier:   rec.AlertNotifier(),
			Registry:   g.Metrics().Registry(),
			Logger:     logger,
		})
		if err != nil {
			return err
		}
		defer closeAlerts()
		if opts.alertRules != "" {
			logger.Info("alerting on", "rules", opts.alertRules, "webhook", opts.alertWebhook)
		}
		// Durable drift history: every closed timeline window is
		// persisted to the segment store so history survives restarts
		// and ppm-backtest can replay it offline. The deferred close
		// runs after the drain in ListenAndServe returns, sealing the
		// active segment on SIGTERM.
		var closeTSDB func()
		tsdbDB, closeTSDB, err = cli.WireTSDB(cfg.Monitor.Timeline(), opts.tsdb.Options(g.Metrics().Registry(), logger))
		if err != nil {
			return err
		}
		defer closeTSDB()
		if tsdbDB != nil {
			logger.Info("durable timeline on", "dir", opts.tsdb.Dir,
				"range", fmt.Sprintf("http://%s/monitor/timeline/range", opts.addr))
		}
	} else if opts.tsdb.Dir != "" {
		return fmt.Errorf("-tsdb-dir needs -bundle (no monitor, no drift timeline)")
	}

	// Burn-rate alerting on the serving SLO timeline — on by default,
	// bundle or not: the SRE fast+slow multi-window pair from
	// gateway.BurnRateRules, evaluated on every SLO window close. With
	// an incident recorder wired, a firing rule auto-captures a
	// profiled bundle.
	if opts.burnThreshold > 0 {
		burnCfg := alert.Config{
			Rules:  gateway.BurnRateRules(opts.burnThreshold),
			Logger: logger,
		}
		if rec != nil {
			burnCfg.Notifier = rec.AlertNotifier()
		}
		burn, err := alert.New(burnCfg)
		if err != nil {
			return err
		}
		burn.RegisterMetrics(g.Metrics().Registry())
		g.SLOTimeline().OnWindowClose(burn.Evaluate)
		logger.Info("serving SLO observatory on", "slo", fmt.Sprintf("http://%s/slo", opts.addr),
			"burn_threshold", opts.burnThreshold)
	}

	// The gateway handler owns /metrics (its own registry) plus the
	// proxy endpoints; mount the process-wide profiling and span-trace
	// surface next to it.
	mux := http.NewServeMux()
	mux.Handle("/", g.Handler())
	obs.MountPprof(mux)
	mux.Handle("/debug/spans", obs.DefaultTracer().Handler())
	if rec != nil {
		mux.Handle(incident.MountPath, rec.Handler())
		mux.Handle(incident.MountPath+"/", rec.Handler())
		logger.Info("incident recorder on", "list", incident.MountPath,
			"dir", opts.incidentDir)
	}
	if lstore != nil {
		mux.Handle("/labels", lstore.Handler())
		mux.Handle("/labels/", lstore.Handler())
		logger.Info("label feedback on", "ingest", "POST /labels",
			"worklist", "GET /labels/requests", "status", "GET /labels/status")
	}
	if tsdbDB != nil {
		// Exact path beats both the "/" catch-all and the /monitor/
		// subtree, so the durable range endpoint sits where the
		// dashboard's relative "timeline/range" fetch resolves.
		mux.Handle("/monitor/timeline/range", tsdbDB.RangeHandler())
	}

	logger.Info("proxying", "from", fmt.Sprintf("http://%s/predict_proba", opts.addr),
		"to", opts.backend+"/predict_proba")
	logger.Info("observability", "metrics", fmt.Sprintf("http://%s/metrics", opts.addr),
		"status", "/status", "healthz", "/healthz", "pprof", "/debug/pprof/")
	if err := gateway.ListenAndServe(opts.addr, mux, opts.drain); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	return nil
}
