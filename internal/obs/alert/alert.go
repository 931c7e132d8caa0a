// Package alert is the rules engine on top of the drift timeline
// (obs.TimeSeries): threshold-for-duration rules — "estimated accuracy
// below 0.85 for at least 3 windows", "KS statistic above critical for
// at least 2 windows" — evaluated on every window close. A firing rule
// emits one structured slog event, increments ppm_alerts_total, flips
// ppm_alert_active to 1 and notifies an optional Notifier (typically
// the webhook in this package); hysteresis on both edges means an
// alert fires exactly once per excursion and never flaps while the
// condition persists.
package alert

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"blackboxval/internal/obs"
)

// Rule is one threshold-for-duration alert rule.
type Rule struct {
	// Name identifies the rule in logs, metrics labels and payloads.
	Name string `json:"name"`
	// Series is the timeline series the rule watches ("estimate",
	// "ks_max", "alarm", ...).
	Series string `json:"series"`
	// Op compares the reduced window value to Threshold: one of
	// "<", "<=", ">", ">=".
	Op string `json:"op"`
	// Threshold is the breach boundary.
	Threshold float64 `json:"threshold"`
	// Reduce collapses the window aggregate to one value: mean
	// (default), min, max, last, sum or count.
	Reduce string `json:"reduce,omitempty"`
	// ForWindows is how many consecutive breaching windows are required
	// before the alert fires (default 1).
	ForWindows int `json:"for_windows,omitempty"`
	// ClearWindows is how many consecutive non-breaching windows are
	// required before an active alert resolves (default 1).
	ClearWindows int `json:"clear_windows,omitempty"`
	// Severity is a free-form label carried into events ("warning" when
	// empty).
	Severity string `json:"severity,omitempty"`
}

// validate normalizes defaults and rejects malformed rules.
func (r *Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule needs a name")
	}
	if r.Series == "" {
		return fmt.Errorf("alert: rule %q needs a series", r.Name)
	}
	switch r.Op {
	case "<", "<=", ">", ">=":
	default:
		return fmt.Errorf("alert: rule %q has op %q (want <, <=, > or >=)", r.Name, r.Op)
	}
	if _, err := (obs.Aggregate{}).Reduce(r.Reduce); err != nil {
		return fmt.Errorf("alert: rule %q: %w", r.Name, err)
	}
	if r.ForWindows <= 0 {
		r.ForWindows = 1
	}
	if r.ClearWindows <= 0 {
		r.ClearWindows = 1
	}
	if r.Severity == "" {
		r.Severity = "warning"
	}
	return nil
}

// breached applies the rule's comparison to a reduced window value.
func (r *Rule) breached(v float64) bool {
	switch r.Op {
	case "<":
		return v < r.Threshold
	case "<=":
		return v <= r.Threshold
	case ">":
		return v > r.Threshold
	default: // ">="
		return v >= r.Threshold
	}
}

// Event is the structured record of an alert edge — it is both the
// webhook payload and the content of the slog event.
type Event struct {
	Rule        string    `json:"rule"`
	Series      string    `json:"series"`
	State       string    `json:"state"` // "firing" or "resolved"
	Value       float64   `json:"value"`
	Threshold   float64   `json:"threshold"`
	Op          string    `json:"op"`
	Severity    string    `json:"severity"`
	WindowIndex int64     `json:"window_index"`
	At          time.Time `json:"at"`
}

// Notifier receives alert edge events. Notify must not block the
// caller: window closes happen on the monitoring path.
type Notifier interface {
	Notify(Event)
}

// NotifierFunc adapts a function to the Notifier interface.
type NotifierFunc func(Event)

// Notify calls f.
func (f NotifierFunc) Notify(ev Event) { f(ev) }

// Notifiers fans every event out to several notifiers in order,
// skipping nils, so one engine can drive e.g. a webhook and the
// incident flight recorder at once. Returns nil when every argument is
// nil, so callers can pass the result straight to Config.Notifier.
func Notifiers(ns ...Notifier) Notifier {
	live := make([]Notifier, 0, len(ns))
	for _, n := range ns {
		if n != nil {
			live = append(live, n)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return NotifierFunc(func(ev Event) {
		for _, n := range live {
			n.Notify(ev)
		}
	})
}

// Config configures an Engine.
type Config struct {
	// Rules are the alert rules (at least one).
	Rules []Rule
	// Logger receives the structured firing/resolved events
	// (nil = slog.Default()).
	Logger *slog.Logger
	// Notifier optionally receives every edge event (e.g. a Webhook).
	Notifier Notifier
}

// ruleState is one rule plus its hysteresis counters.
type ruleState struct {
	rule     Rule
	breach   int // consecutive breaching windows
	clear    int // consecutive non-breaching windows
	active   bool
	lastSeen float64
}

// Engine evaluates the rules against every closed timeline window.
// Wire it with ts.OnWindowClose(engine.Evaluate). Safe for concurrent
// use, though a single TimeSeries delivers windows serially.
type Engine struct {
	logger   *slog.Logger
	notifier Notifier

	mu    sync.Mutex
	rules []*ruleState

	// metric families wired by RegisterMetrics (nil until then).
	fired  *obs.CounterVec
	active *obs.GaugeVec
}

// New validates the rules and returns a ready engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("alert: at least one rule is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	e := &Engine{logger: cfg.Logger, notifier: cfg.Notifier}
	seen := map[string]bool{}
	for _, r := range cfg.Rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("alert: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		e.rules = append(e.rules, &ruleState{rule: r})
	}
	return e, nil
}

// Rules returns the normalized rule set.
func (e *Engine) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Rule, len(e.rules))
	for i, rs := range e.rules {
		out[i] = rs.rule
	}
	return out
}

// RegisterMetrics registers the engine's families on reg and pre-seeds
// one ppm_alert_active series per rule, so dashboards see the inactive
// rules too:
//
//	ppm_alerts_total{rule}  counter  firing edges per rule
//	ppm_alert_active{rule}  gauge    1 while the rule's alert is active
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	fired := reg.CounterVec("ppm_alerts_total",
		"Alert firing edges by rule.", "rule")
	active := reg.GaugeVec("ppm_alert_active",
		"1 while the rule's alert is active, else 0.", "rule")
	e.mu.Lock()
	e.fired = fired
	e.active = active
	for _, rs := range e.rules {
		active.Set(boolGauge(rs.active), rs.rule.Name)
	}
	e.mu.Unlock()
}

// Evaluate applies every rule to one closed window. Designed as an
// obs.TimeSeries OnWindowClose hook; events are logged and notified
// after the engine's own lock is released.
func (e *Engine) Evaluate(w obs.Window) {
	var events []Event
	e.mu.Lock()
	for _, rs := range e.rules {
		ev, fire := rs.step(w)
		if fire {
			events = append(events, ev)
			if e.fired != nil && ev.State == "firing" {
				e.fired.Inc(ev.Rule)
			}
			if e.active != nil {
				e.active.Set(boolGauge(rs.active), ev.Rule)
			}
		}
	}
	e.mu.Unlock()
	for _, ev := range events {
		e.emit(ev)
	}
}

// step advances one rule's hysteresis state machine for a window and
// reports whether an edge event must be emitted.
func (rs *ruleState) step(w obs.Window) (Event, bool) {
	agg, ok := w.Series[rs.rule.Series]
	breached := false
	value := 0.0
	if ok {
		// Reduce cannot fail here: the kind was validated in New.
		value, _ = agg.Reduce(rs.rule.Reduce)
		rs.lastSeen = value
		breached = rs.rule.breached(value)
	}
	// A window without the series counts as non-breaching: the signal
	// disappeared, which the clear hysteresis absorbs.
	if breached {
		rs.breach++
		rs.clear = 0
	} else {
		rs.breach = 0
		rs.clear++
	}
	switch {
	case !rs.active && rs.breach >= rs.rule.ForWindows:
		rs.active = true
		return rs.event("firing", value, w), true
	case rs.active && rs.clear >= rs.rule.ClearWindows:
		rs.active = false
		return rs.event("resolved", value, w), true
	}
	return Event{}, false
}

func (rs *ruleState) event(state string, value float64, w obs.Window) Event {
	return Event{
		Rule:        rs.rule.Name,
		Series:      rs.rule.Series,
		State:       state,
		Value:       value,
		Threshold:   rs.rule.Threshold,
		Op:          rs.rule.Op,
		Severity:    rs.rule.Severity,
		WindowIndex: w.Index,
		At:          w.End,
	}
}

// emit logs one edge event and forwards it to the notifier.
func (e *Engine) emit(ev Event) {
	level := slog.LevelWarn
	if ev.State == "resolved" {
		level = slog.LevelInfo
	}
	e.logger.Log(nil, level, "alert "+ev.State,
		"rule", ev.Rule, "series", ev.Series, "value", ev.Value,
		"op", ev.Op, "threshold", ev.Threshold, "severity", ev.Severity,
		"window", ev.WindowIndex)
	if e.notifier != nil {
		e.notifier.Notify(ev)
	}
}

// Active returns the names of the currently active alerts, in rule
// order.
func (e *Engine) Active() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, rs := range e.rules {
		if rs.active {
			out = append(out, rs.rule.Name)
		}
	}
	return out
}

// rulesFile is the on-disk rule set: either a bare JSON array of rules
// or an object with a "rules" key.
type rulesFile struct {
	Rules []Rule `json:"rules"`
}

// LoadRules reads alert rules from a JSON file of at most
// obs.MaxFileBytes. Both shapes parse:
//
//	[{"name": "estimate_low", "series": "estimate", "op": "<", ...}]
//	{"rules": [...]}
func LoadRules(path string) ([]Rule, error) {
	buf, err := obs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("alert: reading rules: %w", err)
	}
	var bare []Rule
	if err := json.Unmarshal(buf, &bare); err == nil {
		return bare, nil
	}
	var wrapped rulesFile
	if err := json.Unmarshal(buf, &wrapped); err != nil {
		return nil, fmt.Errorf("alert: parsing rules %s: %w", path, err)
	}
	if wrapped.Rules == nil {
		return nil, fmt.Errorf("alert: %s has neither a rule array nor a \"rules\" key", path)
	}
	return wrapped.Rules, nil
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
