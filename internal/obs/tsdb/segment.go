package tsdb

// segment.go: the on-disk record format. A segment is one append-only
// file of framed records; each record is the canonical JSON of an Entry
// (one persisted timeline window, raw or compacted) guarded by a CRC32
// so a torn tail from a crash mid-write is detected and skipped rather
// than poisoning the read path. The JSON payload is canonical: it is
// the bytes encoding/json writes for the Entry (struct fields in
// declaration order, map keys sorted, the sketch/exact-sum fields in
// their own canonical encodings, DESIGN.md §8), appended without
// reflection, so byte equality of records is equality of the persisted
// windows, which is what the compaction determinism suite asserts.
// Records are decoded with encoding/json, at open and for queries.
//
// Layout:
//
//	segment  = magic record*
//	magic    = "PPMTSDB1" (8 bytes)
//	record   = u32(len payload) u32(crc32-IEEE payload) payload
//	payload  = canonical JSON of Entry
//
// Integers are little-endian. Decoding stops at the first anomaly
// (short frame, CRC mismatch, invalid JSON, zero/oversized length) and
// keeps the valid prefix; the caller counts the truncation.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"regexp"
	"strconv"

	"blackboxval/internal/obs"
)

const (
	segmentMagic = "PPMTSDB1"
	// maxRecordBytes bounds a single decoded record; a window payload is
	// typically tens of KB (sketch buckets dominate), so anything near
	// this limit is corruption, not data.
	maxRecordBytes = 64 << 20
)

// Entry is one persisted window. Span is the number of consecutive
// timeline indices the record covers, starting at Window.Index: 1 for a
// raw append, the downsampling factor K for a compacted bucket. Windows
// counts the raw windows folded into the record (gaps inside a
// compacted bucket make Windows < Span).
type Entry struct {
	Span    int64      `json:"span"`
	Windows int64      `json:"windows"`
	Window  obs.Window `json:"window"`
}

// end returns the exclusive end of the index range the entry covers.
func (e Entry) end() int64 { return e.Window.Index + e.Span }

// appendRecord frames one entry onto b: the header, then the payload,
// byte for byte the json.Marshal of the entry (obs.Window.AppendJSON
// writes the window without reflection).
func appendRecord(b []byte, e Entry) ([]byte, error) {
	off := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b = append(b, `{"span":`...)
	b = strconv.AppendInt(b, e.Span, 10)
	b = append(b, `,"windows":`...)
	b = strconv.AppendInt(b, e.Windows, 10)
	b = append(b, `,"window":`...)
	b, err := e.Window.AppendJSON(b)
	if err != nil {
		return nil, fmt.Errorf("tsdb: encode window %d: %w", e.Window.Index, err)
	}
	b = append(b, '}')
	payload := b[off+8:]
	binary.LittleEndian.PutUint32(b[off:off+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[off+4:off+8], crc32.ChecksumIEEE(payload))
	return b, nil
}

// decodeSegment parses a whole segment file. It returns every record of
// the valid prefix and whether the file ended cleanly; truncated=true
// means a torn or corrupt tail (or a missing/garbled header) was
// detected and everything from that point on was skipped.
func decodeSegment(data []byte) (entries []Entry, truncated bool) {
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, true
	}
	off := len(segmentMagic)
	for off < len(data) {
		if len(data)-off < 8 {
			return entries, true
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRecordBytes || int(n) > len(data)-off-8 {
			return entries, true
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return entries, true
		}
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return entries, true
		}
		if e.Span <= 0 || e.Windows <= 0 || e.Window.Index < 0 {
			return entries, true
		}
		entries = append(entries, e)
		off += 8 + int(n)
	}
	return entries, false
}

// Segment file names: seg-L<level>-<seq>.seg, zero-padded so a
// lexicographic directory sort is also a sequence sort. Level 0 holds
// raw appends, level 1 compacted buckets.
var segmentNameRe = regexp.MustCompile(`^seg-L([01])-(\d{8})\.seg$`)

func segmentName(level int, seq uint64) string {
	return fmt.Sprintf("seg-L%d-%08d.seg", level, seq)
}

// parseSegmentName reports the level and sequence number of a segment
// file name, or ok=false for foreign files.
func parseSegmentName(path string) (level int, seq uint64, ok bool) {
	m := segmentNameRe.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return 0, 0, false
	}
	level, _ = strconv.Atoi(m[1])
	seq, err := strconv.ParseUint(m[2], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return level, seq, true
}
