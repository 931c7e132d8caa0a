package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"blackboxval/internal/obs"
)

// encodeRecord frames one entry as a stand-alone record.
func encodeRecord(e Entry) ([]byte, error) { return appendRecord(nil, e) }

// shortWriteAt makes the db's n-th record write (1-based) tear: half
// the record reaches the file, then the write fails.
func shortWriteAt(db *DB, n int) {
	calls := 0
	db.writeRecord = func(f *os.File, rec []byte) (int, error) {
		calls++
		if calls != n {
			return f.Write(rec)
		}
		m, _ := f.Write(rec[:len(rec)/2])
		return m, errors.New("injected short write")
	}
}

// TestShortWriteSealsSegment: a write that fails part-way leaves a torn
// frame, and the segment decoder stops at the first bad frame. Every
// window appended after the failure must still be readable, so the
// torn segment is sealed there and appends continue in a fresh one.
func TestShortWriteSealsSegment(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
	shortWriteAt(db, 4)
	windows := makeWindows(t, 12, 11)
	for _, w := range windows {
		db.Append(w)
	}
	if got := db.appendErrors.Load(); got != 1 {
		t.Fatalf("append errors = %d, want 1", got)
	}
	want := map[int64]bool{}
	for _, w := range windows {
		if w.Index != 3 {
			want[w.Index] = true
		}
	}
	check := func(db *DB) {
		t.Helper()
		entries := db.Entries(0, 11)
		if len(entries) != len(want) {
			t.Fatalf("Entries = %d records, want the %d windows that were written", len(entries), len(want))
		}
		for _, e := range entries {
			if !want[e.Window.Index] {
				t.Fatalf("Entries returned window %d, which failed to write", e.Window.Index)
			}
		}
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
	defer db2.Close()
	if got := db2.CorruptSegments(); got != 1 {
		t.Fatalf("CorruptSegments() = %d, want the 1 torn segment", got)
	}
	check(db2)
}

// pendingState renders a store's pending compaction folds as the
// records compaction would write for them.
func pendingState(t *testing.T, db *DB) string {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	out := fmt.Sprintf("compacted through %d\n", db.compactedThrough)
	for _, p := range db.pending {
		w, _ := p.fold.Window(db.cfg.Quantiles)
		w.Index = p.start
		rec, err := encodeRecord(Entry{Span: int64(db.cfg.Downsample), Windows: int64(p.fold.Len()), Window: w})
		if err != nil {
			t.Fatal(err)
		}
		out += string(rec[8:]) + "\n"
	}
	return out
}

// TestPendingFoldsMatchDisk drives two stores through the same appends,
// rotations, retention deletions of uncompacted raw segments, a torn
// write and a restart. One keeps its pending compaction folds
// incrementally; the other refolds them from disk around every append,
// which is what compaction folded before it ran at append time. Their
// pending folds must agree after every append, and their persisted
// history must be identical byte for byte.
func TestPendingFoldsMatchDisk(t *testing.T) {
	cfg := func(c *Config) {
		c.SegmentBytes = 6 << 10
		c.RetentionBytes = 40 << 10
		c.Retention = time.Hour
		c.Downsample = 4
		c.CompactAfter = 20
	}
	incr := openTestDB(t, t.TempDir(), cfg)
	reread := openTestDB(t, t.TempDir(), cfg)
	shortWriteAt(incr, 30)
	shortWriteAt(reread, 30)
	windows := makeWindows(t, 160, 12)
	// Windows 60..79 ended long ago: age retention deletes their
	// segments as soon as they close, before they can compact.
	for i := 60; i < 80; i++ {
		windows[i].End = windows[i].End.AddDate(-1, 0, 0)
	}
	for i, w := range windows {
		if i == 100 { // a restart refolds from disk at Open
			for _, db := range []**DB{&incr, &reread} {
				dir := (*db).Dir()
				if err := (*db).Close(); err != nil {
					t.Fatal(err)
				}
				*db = openTestDB(t, dir, cfg)
			}
		}
		incr.Append(w)
		reread.Append(w)
		reread.mu.Lock()
		reread.rebuildPendingLocked()
		reread.mu.Unlock()
		if got, want := pendingState(t, incr), pendingState(t, reread); got != want {
			t.Fatalf("after window %d the pending folds diverged from the disk:\n got %s\nwant %s", i, got, want)
		}
	}
	if incr.retentionDeletes.Load() == 0 || incr.compactions.Load() == 0 {
		t.Fatal("schedule never compacted or never hit retention; the comparison would be vacuous")
	}
	for _, e := range incr.Entries(60, 79) {
		if e.Window.Index >= 64 && e.end() <= 76 {
			t.Fatalf("window %d outlived age retention; no uncompacted raw segment was deleted", e.Window.Index)
		}
	}
	if got, want := effectiveState(t, incr), effectiveState(t, reread); got != want {
		t.Fatalf("incremental folds diverged from folds of the disk:\n got %s\nwant %s", got, want)
	}
	incr.Close()
	reread.Close()
}

// driftWindows closes n windows shaped like the gateway's drift
// timeline: two 200-sample per-class output sketches, one 200-sample
// 0/1 series and 18 one-sample scalar series.
func driftWindows(t testing.TB, n int) []obs.Window {
	t.Helper()
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.Window
	ts.OnWindowClose(func(w obs.Window) { out = append(out, w) })
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		for r := 0; r < 200; r++ {
			p := rng.Float64()
			ts.Record("proba_class_0", p)
			ts.Record("proba_class_1", 1-p)
			ts.Record("correct", float64(rng.Intn(2)))
		}
		for s := 0; s < 18; s++ {
			ts.Record(fmt.Sprintf("scalar_%02d", s), rng.NormFloat64())
		}
		ts.Commit()
	}
	return out
}

// TestAppendAllocGuard bounds the write path: appending drift-shaped
// windows, amortized over several segment rolls and the compactions
// they run, costs one record's encoding and an in-place fold per window
// — not a re-read and decode of every sealed segment.
func TestAppendAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard appends a few hundred windows")
	}
	const n = 400
	windows := driftWindows(t, n)
	db := openTestDB(t, t.TempDir(), func(c *Config) { c.SegmentBytes = 256 << 10 })
	defer db.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, w := range windows {
		db.Append(w)
	}
	runtime.ReadMemStats(&after)
	if got := db.Appended(); got != n {
		t.Fatalf("appended %d windows, want %d", got, n)
	}
	if got := db.compactions.Load(); got < 3 {
		t.Fatalf("%d compactions, want at least 3 rolls", got)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("tsdb append: %.0f allocs, %.1f KB per drift-shaped window over %d compactions",
		allocs, bytes/1024, db.compactions.Load())
	if allocs > 40 || bytes > 8<<10 {
		t.Fatalf("tsdb append costs %.0f allocs and %.1f KB per window, over the 40 allocs / 8 KB guard",
			allocs, bytes/1024)
	}
}

// TestCompactionSkipsUnencodableBucket: windows 40–47 each sum to
// 1e308, so their bucket's merged exact sum rounds to +Inf, which JSON
// cannot carry. That bucket is skipped — counted once, warned once —
// and every other sealed bucket still compacts to the merge of its raw
// windows, so the raw segments below the watermark are dropped.
func TestCompactionSkipsUnencodableBucket(t *testing.T) {
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{Capacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	var windows []obs.Window
	ts.OnWindowClose(func(w obs.Window) { windows = append(windows, w) })
	for i := 0; i < 120; i++ {
		v := float64(i) / 120
		if i >= 40 && i < 48 {
			v = 1e308
		}
		ts.Record("estimate", v)
		ts.Commit()
	}
	var logs bytes.Buffer
	dir := t.TempDir()
	db := openTestDB(t, dir, func(c *Config) {
		c.SegmentBytes = 2 << 10
		c.Logger = slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))
	})
	for _, w := range windows {
		db.Append(w)
	}
	db.Compact() // seals the buckets the last roll left below the head guard
	if got := db.appendErrors.Load(); got != 1 {
		t.Fatalf("append errors = %d, want 1 (the bad bucket, once)", got)
	}
	if warns := strings.Count(logs.String(), "level=WARN"); warns != 1 {
		t.Fatalf("%d warnings, want 1:\n%s", warns, logs.String())
	}
	const k = 8
	sealed := (db.compactedThrough / k) * k
	if sealed < 88 { // windows below the 32-window head guard of 120
		t.Fatalf("compacted through %d, want every bucket below 88 sealed", db.compactedThrough)
	}
	got := map[int64]Entry{}
	for _, e := range db.Entries(0, sealed-1) {
		got[e.Window.Index] = e
	}
	for b := int64(0); b < sealed; b += k {
		e, ok := got[b]
		if b == 40 {
			if ok {
				t.Fatalf("the unencodable bucket at 40 was written: %+v", e)
			}
			continue
		}
		if !ok || e.Span != k || e.Windows != k {
			t.Fatalf("bucket %d not compacted (found %v, span %d)", b, ok, e.Span)
		}
		want, _ := obs.MergeWindowSet(windows[b:b+k], db.Quantiles())
		want.Index = b
		if g, w := canonical(t, e.Window), canonical(t, want); g != w {
			t.Fatalf("bucket %d: compacted record != merged raw windows:\n got %s\nwant %s", b, g, w)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raws, _ := filepath.Glob(filepath.Join(dir, "seg-L0-*.seg"))
	for _, p := range raws {
		data, _ := os.ReadFile(p)
		es, _ := decodeSegment(data)
		if len(es) > 0 && es[len(es)-1].end() <= sealed {
			t.Fatalf("raw segment %s below the watermark %d was not dropped", filepath.Base(p), sealed)
		}
	}
}
