package fed

// Fleet-level incident capture. The replica-side flight recorder
// (obs/incident) snapshots raw serving batches — the aggregator never
// sees those, so its capture is a lighter artifact: the alert event
// that fired, the shard health table at that instant, and the recent
// merged windows. Enough to answer "which shard dragged the fleet
// under the line, and when" before SSHing anywhere.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
)

// CaptureConfig configures a fleet incident Capture.
type CaptureConfig struct {
	// Dir receives one JSON file per incident (created if missing).
	Dir string
	// Max bounds the number of incident files kept on disk; the oldest
	// are pruned (default 16).
	Max int
	// Windows is how many trailing merged windows each incident embeds
	// (default 8).
	Windows int
	// Cooldown suppresses captures that follow another within this span,
	// so a flapping rule doesn't churn the ring (default 30s).
	Cooldown time.Duration
	// Logger receives capture events (nil = slog.Default()).
	Logger *slog.Logger
}

func (c *CaptureConfig) defaults() {
	if c.Max <= 0 {
		c.Max = 16
	}
	if c.Windows <= 0 {
		c.Windows = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// FleetIncident is the JSON artifact one capture writes.
type FleetIncident struct {
	ID      string       `json:"id"`
	At      time.Time    `json:"at"`
	Event   alert.Event  `json:"event"`
	Status  Status       `json:"status"`
	Windows []obs.Window `json:"windows"`
}

// Capture writes fleet incident files when the alert engine fires.
type Capture struct {
	cfg CaptureConfig
	agg *Aggregator

	mu   sync.Mutex
	last time.Time
	seq  int
}

// NewCapture builds a fleet incident capture bound to an aggregator.
func NewCapture(agg *Aggregator, cfg CaptureConfig) (*Capture, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fed: incident capture needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Capture{cfg: cfg, agg: agg}, nil
}

// Notifier adapts the capture to the alert engine: only firing edges
// capture (resolutions are quiet), and captures inside the cooldown
// window are dropped.
func (c *Capture) Notifier() alert.Notifier {
	return alert.NotifierFunc(func(ev alert.Event) {
		if ev.State != "firing" {
			return
		}
		if _, err := c.capture(ev); err != nil {
			c.cfg.Logger.Warn("fleet incident capture failed", "err", err)
		}
	})
}

func (c *Capture) capture(ev alert.Event) (*FleetIncident, error) {
	now := time.Now()
	c.mu.Lock()
	if !c.last.IsZero() && now.Sub(c.last) < c.cfg.Cooldown {
		c.mu.Unlock()
		return nil, nil
	}
	c.last = now
	c.seq++
	id := fmt.Sprintf("fleet-%s-%03d", now.UTC().Format("20060102T150405"), c.seq)
	c.mu.Unlock()

	ws := c.agg.Windows()
	if len(ws) > c.cfg.Windows {
		ws = ws[len(ws)-c.cfg.Windows:]
	}
	inc := &FleetIncident{
		ID:      id,
		At:      now.UTC(),
		Event:   ev,
		Status:  c.agg.Status(),
		Windows: ws,
	}
	buf, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return nil, err
	}
	// Write through tmp+rename, as replica bundles are: a crash
	// mid-write leaves a stray .tmp, never a torn fleet-*.json.
	path := filepath.Join(c.cfg.Dir, id+".json")
	if err := os.WriteFile(path+".tmp", append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return nil, err
	}
	c.cfg.Logger.Info("fleet incident captured",
		"id", id, "rule", ev.Rule, "window", ev.WindowIndex, "path", path)
	c.prune()
	return inc, nil
}

// prune keeps at most Max fleet incident files, deleting the oldest.
func (c *Capture) prune() {
	entries, err := filepath.Glob(filepath.Join(c.cfg.Dir, "fleet-*.json"))
	if err != nil || len(entries) <= c.cfg.Max {
		return
	}
	sort.Strings(entries) // IDs sort chronologically by construction
	for _, path := range entries[:len(entries)-c.cfg.Max] {
		if err := os.Remove(path); err != nil {
			c.cfg.Logger.Warn("fleet incident prune failed", "path", path, "err", err)
		}
	}
}

// Incidents lists the capture directory's fleet incidents, oldest
// first. An unreadable file is skipped with a warning, so one torn or
// foreign file cannot hide the rest.
func (c *Capture) Incidents() ([]*FleetIncident, error) {
	entries, err := filepath.Glob(filepath.Join(c.cfg.Dir, "fleet-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(entries)
	out := make([]*FleetIncident, 0, len(entries))
	for _, path := range entries {
		var inc FleetIncident
		buf, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(buf, &inc)
		}
		if err != nil {
			c.cfg.Logger.Warn("skipping unreadable fleet incident", "path", path, "err", err)
			continue
		}
		out = append(out, &inc)
	}
	return out, nil
}
