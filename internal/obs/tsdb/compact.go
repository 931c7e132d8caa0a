package tsdb

// compact.go: deterministic downsampling. Old raw windows are folded
// into one record per K-aligned index bucket [b*K, (b+1)*K) by
// obs.WindowFold — the merge behind obs.MergeWindowSet, which the
// federation layer uses — so the compacted record is a pure function of
// the raw windows in the bucket, independent of when (or in how many
// passes) compaction ran. The fold runs at append time: each persisted
// raw window is folded, in place, into its bucket's pending fold, and
// compaction writes the sealed buckets' folds, so a segment roll costs
// one record per bucket and reads nothing back. The disk is read only
// at Open, for queries, and when retention deletes raw windows that are
// not compacted yet, so a bucket's fold is always the fold of the raw
// windows on disk. That is the associativity contract of DESIGN.md
// §8/§13 extended to the time axis (§17): eager, lazy and randomized
// compaction schedules produce bit-identical canonical JSON, which the
// determinism suite asserts.
//
// Eligibility keeps the contract schedule-free: a bucket compacts only
// when it is sealed — every index it covers is (a) in a closed segment
// (the active segment is still being written) and (b) older than the
// CompactAfter head guard, so no future append can land inside it.
// Crash safety: the compacted segment is written complete to a temp
// file, synced, then renamed into place before any covered raw segment
// is deleted; a crash in between leaves shadowed duplicates that the
// next Open resolves via the compactedThrough watermark.

import (
	"os"
	"path/filepath"

	"blackboxval/internal/obs"
)

// Compact runs one compaction pass followed by retention enforcement.
// It is called automatically on every segment rotation; calling it
// explicitly (tests, ppm-backtest maintenance) is safe at any time and
// cannot change what queries observe, only how it is stored.
func (db *DB) Compact() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	db.compactLocked()
	db.retainLocked()
}

// pendingBucket is the running fold of one K-aligned bucket's raw
// windows, in append order.
type pendingBucket struct {
	start int64
	fold  obs.WindowFold
}

// foldLocked folds a persisted raw window into its bucket's pending
// fold. A bucket starting below compactedThrough is never emitted
// (compaction resumes at the first bucket at or above it), so its
// windows are not folded.
func (db *DB) foldLocked(w obs.Window) {
	k := int64(db.cfg.Downsample)
	if k <= 1 {
		return
	}
	b := w.Index / k * k
	if b < db.compactedThrough {
		return
	}
	// Compare wall clocks, as a window decoded from disk does.
	w.Start, w.End = w.Start.Round(0), w.End.Round(0)
	n := len(db.pending)
	if n == 0 || db.pending[n-1].start != b {
		p := &pendingBucket{}
		if m := len(db.spare); m > 0 { // reuse an emitted fold's accumulators
			p, db.spare = db.spare[m-1], db.spare[:m-1]
		}
		p.start = b
		db.pending = append(db.pending, p)
		n++
	}
	db.pending[n-1].fold.Add(w)
}

// rebuildPendingLocked refolds the pending buckets from the raw records
// on disk at or above compactedThrough — at Open, and after retention
// deleted uncompacted raw windows.
func (db *DB) rebuildPendingLocked() {
	db.pending, db.spare = nil, nil
	if db.cfg.Downsample <= 1 || db.lastIndex < db.compactedThrough {
		return
	}
	for _, e := range db.loadEntriesLocked(db.compactedThrough, db.lastIndex) {
		db.foldLocked(e.Window)
	}
}

// compactLocked writes every sealed, not-yet-compacted bucket's fold to
// a new level-1 segment.
func (db *DB) compactLocked() {
	k := int64(db.cfg.Downsample)
	if k <= 1 {
		return
	}
	// Raw windows are compactable only below both caps: the closed-
	// segment frontier and the head guard of full-resolution windows.
	var closedEnd int64
	for _, info := range db.segments {
		if info.level == 0 && info.records > 0 && info.endIndex > closedEnd {
			closedEnd = info.endIndex
		}
	}
	limit := closedEnd
	if head := db.lastIndex + 1 - int64(db.cfg.CompactAfter); head < limit {
		limit = head
	}
	bucketEnd := (limit / k) * k
	start := ((db.compactedThrough + k - 1) / k) * k
	if start >= bucketEnd {
		return
	}
	sealed := 0
	for sealed < len(db.pending) && db.pending[sealed].start < bucketEnd {
		sealed++
	}
	if sealed > 0 { // an empty bucket never becomes a record
		info, folded, err := db.writeCompactedLocked(db.pending[:sealed])
		if err != nil {
			db.cfg.Logger.Warn("tsdb: compaction failed", "err", err)
			return
		}
		db.segments = append(db.segments, info)
		db.compactions.Add(1)
		db.compactedWindows.Add(folded)
		for _, p := range db.pending[:sealed] {
			p.fold.Reset()
			db.spare = append(db.spare, p)
		}
		rest := copy(db.pending, db.pending[sealed:])
		clear(db.pending[rest:])
		db.pending = db.pending[:rest]
	}
	db.compactedThrough = bucketEnd
	db.dropShadowedLocked()
}

// writeCompactedLocked durably writes one level-1 segment holding one
// record per bucket: complete temp file, fsync, atomic rename. It
// returns the segment and the number of raw windows it folds.
func (db *DB) writeCompactedLocked(buckets []*pendingBucket) (*segmentInfo, uint64, error) {
	seq := db.nextSeq
	db.nextSeq++
	path := filepath.Join(db.cfg.Dir, segmentName(1, seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*segmentInfo, uint64, error) {
		f.Close()
		os.Remove(tmp)
		return nil, 0, err
	}
	info := &segmentInfo{path: path, level: 1, seq: seq, bytes: int64(len(segmentMagic))}
	if _, err := f.WriteString(segmentMagic); err != nil {
		return fail(err)
	}
	var folded uint64
	for _, p := range buckets {
		w, _ := p.fold.Window(db.cfg.Quantiles)
		w.Index = p.start
		e := Entry{Span: int64(db.cfg.Downsample), Windows: int64(p.fold.Len()), Window: w}
		rec, err := appendRecord(db.buf[:0], e)
		if err != nil {
			return fail(err)
		}
		db.buf = rec
		if _, err := f.Write(rec); err != nil {
			return fail(err)
		}
		if info.records == 0 || e.Window.Index < info.minIndex {
			info.minIndex = e.Window.Index
		}
		if e.end() > info.endIndex {
			info.endIndex = e.end()
		}
		if e.Window.End.After(info.maxEnd) {
			info.maxEnd = e.Window.End
		}
		info.records++
		info.bytes += int64(len(rec))
		folded += uint64(e.Windows)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, 0, err
	}
	return info, folded, nil
}
