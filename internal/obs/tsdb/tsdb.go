// Package tsdb is the durable half of the drift timeline: an
// append-only, segmented on-disk store for closed obs.TimeSeries
// windows. The in-memory ring (internal/obs/timeseries.go) answers
// "what is h doing right now"; this package answers "what did h look
// like last Tuesday" — it persists the full window payload (aggregates,
// exact sums, mergeable quantile sketches) in the canonical
// serializations from DESIGN.md §8, bounds the footprint with size/age
// retention, and downsamples old history by merging adjacent windows
// through the same Merge the federation layer uses, so compacted output
// is bit-equal no matter when compaction ran (DESIGN.md §17).
//
// Wire a DB to any window source with OnWindowClose(db.Append); query
// history via Query/Range (re-aggregated to a caller step, quantiles
// read off the persisted sketches) or replay it through the stock alert
// engine with Replay/Sweep (ppm-backtest).
package tsdb

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackboxval/internal/obs"
)

// Config configures a DB. Dir is required; everything else defaults.
type Config struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// SegmentBytes bounds one segment file; the active segment rolls
	// when the next record would exceed it (default 4 MiB).
	SegmentBytes int64
	// RetentionBytes bounds the total on-disk footprint; the oldest
	// closed segments are deleted first (default 256 MiB).
	RetentionBytes int64
	// Retention, when positive, drops closed segments whose newest
	// window ended longer ago than this (default 0 = no age bound).
	Retention time.Duration
	// Downsample is the compaction factor K: raw windows older than the
	// head guard are merged into one record per K-aligned index bucket
	// (default 8; <=1 disables compaction).
	Downsample int
	// CompactAfter is how many of the newest raw windows stay exempt
	// from compaction so recent history keeps full resolution (default
	// 4*Downsample).
	CompactAfter int
	// Quantiles is the percentile grid, in (0,100), recomputed from
	// merged sketches for compacted and re-aggregated windows (default
	// 50, 90, 99 — the timeline default).
	Quantiles []float64
	// Logger receives store lifecycle events (default slog.Default).
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.RetentionBytes <= 0 {
		c.RetentionBytes = 256 << 20
	}
	if c.Downsample == 0 {
		c.Downsample = 8
	}
	if c.CompactAfter <= 0 {
		c.CompactAfter = 4 * c.Downsample
		if c.CompactAfter <= 0 {
			c.CompactAfter = 8
		}
	}
	if c.Quantiles == nil {
		c.Quantiles = []float64{50, 90, 99}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// segmentInfo indexes one closed segment file.
type segmentInfo struct {
	path    string
	level   int
	seq     uint64
	bytes   int64
	records int
	// minIndex and endIndex bracket the covered window indices
	// [minIndex, endIndex); meaningless when records == 0.
	minIndex int64
	endIndex int64
	// maxEnd is the newest window End in the segment (age retention).
	maxEnd time.Time
}

// DB is the windowed on-disk store. It is safe for concurrent use;
// Append is designed as an obs.TimeSeries / fed.Aggregator
// OnWindowClose hook. Appends after Close are dropped.
type DB struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	segments []*segmentInfo // closed segments, creation order
	active   *os.File
	actInfo  *segmentInfo
	nextSeq  uint64
	// lastIndex is the highest window index ever appended (-1 = none);
	// appends at or below it are dropped as out-of-order.
	lastIndex int64
	// compactedThrough shadows raw records: every level-0 record with
	// index below it has been folded into a level-1 bucket.
	compactedThrough int64
	// pending holds, oldest first, one fold per K-aligned bucket of the
	// persisted raw windows at or above compactedThrough; compaction
	// writes the sealed buckets from here.
	pending []*pendingBucket
	spare   []*pendingBucket // emitted folds, reset for reuse
	// buf is the one buffer raw and compacted records are framed in.
	buf []byte
	// writeRecord writes one framed record to the active segment (a
	// seam for injecting short writes in tests).
	writeRecord func(f *os.File, rec []byte) (int, error)

	appended         atomic.Uint64
	appendErrors     atomic.Uint64
	corruptSegments  atomic.Uint64
	compactions      atomic.Uint64
	compactedWindows atomic.Uint64
	retentionDeletes atomic.Uint64
	queries          atomic.Uint64
}

// Open scans dir, indexes the surviving segments (counting torn or
// corrupt ones instead of failing), finishes any compaction that was
// interrupted between rename and cleanup, and starts a fresh active
// segment — it never appends into a file an earlier process wrote, so a
// torn tail from a crash stays confined to its own segment.
func Open(cfg Config) (*DB, error) {
	db, err := scan(cfg)
	if err != nil {
		return nil, err
	}
	// Drop stale temp files from a compaction that died before rename.
	if tmps, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.seg.tmp")); len(tmps) > 0 {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	// Finish an interrupted compaction: level-0 segments wholly below
	// the watermark are shadowed duplicates of a level-1 bucket.
	db.dropShadowedLocked()
	if err := db.openSegmentLocked(); err != nil {
		return nil, err
	}
	db.rebuildPendingLocked()
	db.retainLocked()
	return db, nil
}

// OpenReadOnly indexes dir without writing anything: no active segment
// is started, stale temp files stay, shadowed raw segments are skipped
// in memory instead of deleted, and no retention runs — the store is a
// pure reader another process (ppm-backtest auditing a live monitor's
// directory) can point at a directory it does not own. Appends are
// dropped; Close is a no-op.
func OpenReadOnly(cfg Config) (*DB, error) {
	db, err := scan(cfg)
	if err != nil {
		return nil, err
	}
	db.closed = true
	return db, nil
}

// scan builds a DB indexing the closed segments of cfg.Dir.
func scan(cfg Config) (*DB, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("tsdb: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	db := &DB{cfg: cfg, lastIndex: -1, writeRecord: (*os.File).Write}
	names, err := filepath.Glob(filepath.Join(cfg.Dir, "seg-L*.seg"))
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		level, seq, ok := parseSegmentName(path)
		if !ok {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			db.corruptSegments.Add(1)
			cfg.Logger.Warn("tsdb: unreadable segment skipped", "path", path, "err", err)
			continue
		}
		entries, truncated := decodeSegment(data)
		if truncated {
			db.corruptSegments.Add(1)
			cfg.Logger.Warn("tsdb: torn segment tail skipped", "path", path, "valid_records", len(entries))
		}
		info := &segmentInfo{path: path, level: level, seq: seq, bytes: int64(len(data)), records: len(entries)}
		for i, e := range entries {
			if i == 0 || e.Window.Index < info.minIndex {
				info.minIndex = e.Window.Index
			}
			if e.end() > info.endIndex {
				info.endIndex = e.end()
			}
			if e.Window.End.After(info.maxEnd) {
				info.maxEnd = e.Window.End
			}
			if e.end()-1 > db.lastIndex {
				db.lastIndex = e.end() - 1
			}
			if level == 1 && e.end() > db.compactedThrough {
				db.compactedThrough = e.end()
			}
		}
		if seq >= db.nextSeq {
			db.nextSeq = seq + 1
		}
		db.segments = append(db.segments, info)
	}
	return db, nil
}

// openSegmentLocked starts a new empty level-0 active segment.
func (db *DB) openSegmentLocked() error {
	path := filepath.Join(db.cfg.Dir, segmentName(0, db.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("tsdb: %w", err)
	}
	db.active = f
	db.actInfo = &segmentInfo{path: path, level: 0, seq: db.nextSeq, bytes: int64(len(segmentMagic))}
	db.nextSeq++
	return nil
}

// Append persists one closed window. It is the OnWindowClose hook:
// errors are counted and logged, never returned, so a full disk can't
// take the serving path down with it. Windows must arrive in increasing
// index order (the timeline closes them that way); stragglers at or
// below the high-water mark are dropped. A failed write seals the
// active segment where it tore (its valid prefix stays readable) and
// later windows go to a fresh one, so no window lands behind a torn
// frame.
func (db *DB) Append(w obs.Window) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	if w.Index <= db.lastIndex {
		db.appendErrors.Add(1)
		db.cfg.Logger.Warn("tsdb: out-of-order window dropped", "index", w.Index, "last", db.lastIndex)
		return
	}
	if db.active == nil { // an earlier seal or open failed
		if err := db.openSegmentLocked(); err != nil {
			db.appendErrors.Add(1)
			db.cfg.Logger.Warn("tsdb: append failed", "err", err)
			return
		}
	}
	e := Entry{Span: 1, Windows: 1, Window: w}
	rec, err := appendRecord(db.buf[:0], e)
	if err != nil {
		db.appendErrors.Add(1)
		db.cfg.Logger.Warn("tsdb: append failed", "err", err)
		return
	}
	db.buf = rec
	if db.actInfo.records > 0 && db.actInfo.bytes+int64(len(rec)) > db.cfg.SegmentBytes {
		if err := db.rotateLocked(); err != nil {
			db.appendErrors.Add(1)
			db.cfg.Logger.Warn("tsdb: segment rotation failed", "err", err)
			return
		}
		// Compaction framed its records in the same buffer; the window
		// encoded once, so it encodes again.
		rec, _ = appendRecord(db.buf[:0], e)
		db.buf = rec
	}
	n, err := db.writeRecord(db.active, rec)
	if err != nil {
		db.appendErrors.Add(1)
		db.cfg.Logger.Warn("tsdb: append failed; sealing the segment", "err", err, "path", db.actInfo.path)
		db.actInfo.bytes += int64(n)
		if err := db.sealActiveLocked(); err != nil {
			db.cfg.Logger.Warn("tsdb: sealing torn segment failed", "err", err)
		}
		if err := db.openSegmentLocked(); err != nil {
			db.cfg.Logger.Warn("tsdb: opening segment failed", "err", err)
		}
		return
	}
	if db.actInfo.records == 0 {
		db.actInfo.minIndex = w.Index
	}
	db.actInfo.records++
	db.actInfo.bytes += int64(len(rec))
	db.actInfo.endIndex = w.Index + 1
	if w.End.After(db.actInfo.maxEnd) {
		db.actInfo.maxEnd = w.End
	}
	db.lastIndex = w.Index
	db.appended.Add(1)
	db.foldLocked(w)
}

// rotateLocked seals the active segment and starts a fresh one, then
// runs compaction and retention — the only scheduled maintenance hook,
// though Compact may also be called explicitly at any time (the
// determinism contract makes the schedule unobservable in the data).
func (db *DB) rotateLocked() error {
	if err := db.sealActiveLocked(); err != nil {
		return err
	}
	if err := db.openSegmentLocked(); err != nil {
		return err
	}
	db.compactLocked()
	db.retainLocked()
	return nil
}

// sealActiveLocked syncs and closes the active segment, moving it to
// the closed list (or deleting it when it holds no records).
func (db *DB) sealActiveLocked() error {
	if db.active == nil {
		return nil
	}
	f, info := db.active, db.actInfo
	db.active, db.actInfo = nil, nil
	syncErr := f.Sync()
	closeErr := f.Close()
	if info.records == 0 {
		os.Remove(info.path)
	} else {
		db.segments = append(db.segments, info)
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// dropShadowedLocked deletes closed level-0 segments whose every record
// is already covered by a level-1 compacted bucket.
func (db *DB) dropShadowedLocked() {
	kept := db.segments[:0]
	for _, info := range db.segments {
		if info.level == 0 && info.records > 0 && info.endIndex <= db.compactedThrough {
			os.Remove(info.path)
			db.cfg.Logger.Info("tsdb: dropped compacted raw segment", "path", info.path)
			continue
		}
		kept = append(kept, info)
	}
	db.segments = kept
}

// retainLocked enforces the size and age bounds over closed segments,
// oldest data first. The active segment is never deleted. Deleting a
// raw segment that still holds uncompacted windows rebuilds the pending
// folds from the raw records that remain, so compaction still folds
// exactly what is on disk.
func (db *DB) retainLocked() {
	if len(db.segments) == 0 {
		return
	}
	// Oldest data first: by first covered index, then creation order.
	sort.SliceStable(db.segments, func(i, j int) bool {
		a, b := db.segments[i], db.segments[j]
		if a.minIndex != b.minIndex {
			return a.minIndex < b.minIndex
		}
		return a.seq < b.seq
	})
	var total int64
	if db.actInfo != nil {
		total = db.actInfo.bytes
	}
	for _, info := range db.segments {
		total += info.bytes
	}
	cutoff := time.Time{}
	if db.cfg.Retention > 0 {
		cutoff = time.Now().Add(-db.cfg.Retention)
	}
	lostRaw := false
	kept := db.segments[:0]
	for _, info := range db.segments {
		expired := !cutoff.IsZero() && info.records > 0 && info.maxEnd.Before(cutoff)
		oversize := total > db.cfg.RetentionBytes
		if expired || oversize {
			os.Remove(info.path)
			total -= info.bytes
			db.retentionDeletes.Add(1)
			db.cfg.Logger.Info("tsdb: segment dropped by retention", "path", info.path,
				"expired", expired, "oversize", oversize)
			if info.level == 0 && info.records > 0 && info.endIndex > db.compactedThrough {
				lostRaw = true
			}
			continue
		}
		kept = append(kept, info)
	}
	db.segments = kept
	if lostRaw {
		db.rebuildPendingLocked()
	}
}

// Close seals the active segment. Further appends are dropped.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	return db.sealActiveLocked()
}

// Dir returns the segment directory.
func (db *DB) Dir() string { return db.cfg.Dir }

// Quantiles returns a copy of the configured percentile grid.
func (db *DB) Quantiles() []float64 {
	return append([]float64(nil), db.cfg.Quantiles...)
}

// Appended returns the number of windows persisted by this process.
func (db *DB) Appended() uint64 { return db.appended.Load() }

// CorruptSegments returns how many torn or unreadable segments the
// open scan skipped.
func (db *DB) CorruptSegments() uint64 { return db.corruptSegments.Load() }

// Stats is a point-in-time footprint snapshot for logs and gauges.
type Stats struct {
	Segments int
	Bytes    int64
	Windows  int // persisted records (raw + compacted), not raw windows
}

// Stats reports the current on-disk footprint.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := Stats{}
	for _, info := range db.segments {
		s.Segments++
		s.Bytes += info.bytes
		s.Windows += info.records
	}
	if db.actInfo != nil {
		s.Segments++
		s.Bytes += db.actInfo.bytes
		s.Windows += db.actInfo.records
	}
	return s
}

// RegisterMetrics exposes the store's counters and gauges on reg under
// the ppm_tsdb_* families. Callback-backed families read the live
// atomics, so registration order relative to Open does not matter.
func (db *DB) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("ppm_tsdb_appended_windows_total",
		"Timeline windows persisted to the on-disk store.",
		func() float64 { return float64(db.appended.Load()) })
	reg.CounterFunc("ppm_tsdb_append_errors_total",
		"Windows dropped by the on-disk store (write failure or out-of-order index).",
		func() float64 { return float64(db.appendErrors.Load()) })
	reg.CounterFunc("ppm_tsdb_corrupt_segments_total",
		"Torn or unreadable segments detected and skipped at open.",
		func() float64 { return float64(db.corruptSegments.Load()) })
	reg.CounterFunc("ppm_tsdb_compactions_total",
		"Downsampling compaction passes that produced a compacted segment.",
		func() float64 { return float64(db.compactions.Load()) })
	reg.CounterFunc("ppm_tsdb_compacted_windows_total",
		"Raw windows folded into compacted buckets.",
		func() float64 { return float64(db.compactedWindows.Load()) })
	reg.CounterFunc("ppm_tsdb_retention_segments_total",
		"Segments deleted by the size or age retention bounds.",
		func() float64 { return float64(db.retentionDeletes.Load()) })
	reg.CounterFunc("ppm_tsdb_queries_total",
		"Range queries served from the on-disk store.",
		func() float64 { return float64(db.queries.Load()) })
	reg.GaugeFunc("ppm_tsdb_segments",
		"Segment files currently on disk, including the active one.",
		func() float64 { return float64(db.Stats().Segments) })
	reg.GaugeFunc("ppm_tsdb_bytes",
		"Bytes currently on disk across all segments.",
		func() float64 { return float64(db.Stats().Bytes) })
}
