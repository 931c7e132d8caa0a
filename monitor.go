package blackboxval

import (
	"blackboxval/internal/core"
	"blackboxval/internal/monitor"
)

// Serving-side monitoring: feed a Monitor the stream of serving batches
// (or their logged model outputs) and it tracks score estimates, applies
// an alarm policy with hysteresis, and keeps bounded history.

// Monitor tracks the estimated performance of one deployed model.
type Monitor = monitor.Monitor

// MonitorConfig configures NewMonitor.
type MonitorConfig = monitor.Config

// MonitorRecord is the outcome recorded for one serving batch.
type MonitorRecord = monitor.Record

// MonitorSummary aggregates a monitor's history.
type MonitorSummary = monitor.Summary

// NewMonitor validates the configuration and returns a ready monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// StreamAccumulator builds percentile features from a stream of single
// model outputs in bounded memory (KLL sketches), for deployments
// that cannot batch. Obtain one matched to a predictor via
// Predictor.NewStreamAccumulator, feed it rows, and estimate with
// Predictor.EstimateFromFeatures — or use Monitor.ObserveRow, which does
// all of this with windowing.
type StreamAccumulator = core.StreamAccumulator
