package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// On-disk record framing: a fixed header followed by a checksummed
// payload.
//
//	header : magic u32 | payloadLen u32 | crc u32      (little-endian)
//	payload: seq u64 | keyLen u32 | key | value-JSON
//
// The CRC is CRC32C (Castagnoli) over the payload. The magic makes
// records locatable again after a corrupt region: the opener scans
// forward for the next header that frames a complete, checksum-valid
// record and quarantines whatever it skipped. The sequence number is a
// store-wide monotonic counter, so "last write wins" is exact even when
// one key's records span segment generations. A record above maxSeq is
// corrupt: the opener's next sequence number would wrap past it.
const (
	recMagic   = 0x53454731 // "SEG1"
	headerSize = 12
	maxPayload = 1 << 28 // sanity bound on payloadLen in a header
	maxSeq     = math.MaxUint64 - 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord frames one key/value pair.
func encodeRecord(seq uint64, key string, value []byte) []byte {
	plen := 8 + 4 + len(key) + len(value)
	rec := make([]byte, headerSize+plen)
	payload := rec[headerSize:]
	binary.LittleEndian.PutUint64(payload[0:], seq)
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(key)))
	copy(payload[12:], key)
	copy(payload[12+len(key):], value)
	binary.LittleEndian.PutUint32(rec[0:], recMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(plen))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(payload, crcTable))
	return rec
}

// decodeRecordAt frames the record starting at data[off:], returning its
// total length. ok is false when the bytes at off do not hold a
// complete, checksum-valid record with a sequence number up to maxSeq;
// torn reports the special case of a record whose header is sane but
// whose bytes run past the end of data (an interrupted append at the
// tail).
func decodeRecordAt(data []byte, off int) (seq uint64, key string, value []byte, size int, ok, torn bool) {
	rest := data[off:]
	if len(rest) < headerSize {
		// Too short even for a header: torn only if the magic prefix
		// matches as far as it goes (otherwise it's just garbage).
		return 0, "", nil, 0, false, prefixMatchesMagic(rest)
	}
	if binary.LittleEndian.Uint32(rest[0:]) != recMagic {
		return 0, "", nil, 0, false, false
	}
	plen := binary.LittleEndian.Uint32(rest[4:])
	if plen > maxPayload {
		return 0, "", nil, 0, false, false
	}
	if len(rest) < headerSize+int(plen) {
		return 0, "", nil, 0, false, true
	}
	payload := rest[headerSize : headerSize+int(plen)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[8:]) {
		return 0, "", nil, 0, false, false
	}
	if plen < 12 {
		return 0, "", nil, 0, false, false
	}
	klen := binary.LittleEndian.Uint32(payload[8:])
	if uint64(12)+uint64(klen) > uint64(plen) {
		return 0, "", nil, 0, false, false
	}
	seq = binary.LittleEndian.Uint64(payload[0:])
	if seq > maxSeq {
		return 0, "", nil, 0, false, false
	}
	key = string(payload[12 : 12+klen])
	value = payload[12+klen:]
	return seq, key, value, headerSize + int(plen), true, false
}

// prefixMatchesMagic reports whether b is a (possibly empty) prefix of
// the magic bytes — the signature of an append cut off mid-header.
func prefixMatchesMagic(b []byte) bool {
	var m [4]byte
	binary.LittleEndian.PutUint32(m[:], recMagic)
	return bytes.HasPrefix(m[:], b) || bytes.HasPrefix(b, m[:])
}

// segName renders a segment filename. The shard field is always 00.
// Earlier versions spread keys over several shards' files; they open a
// store written now as a one-shard store.
func segName(gen int) string {
	return fmt.Sprintf("shard-00-%06d.seg", gen)
}

// parseSegName extracts the generation from a segment filename,
// including the other shards' files of an earlier version's layout. The
// match is strict: the name must be exactly what that layout renders, so
// a compaction's "shard-00-00000N.seg.tmp" is not a segment.
func parseSegName(name string) (gen int, ok bool) {
	var shard int
	if n, err := fmt.Sscanf(name, "shard-%d-%d.seg", &shard, &gen); err != nil || n != 2 {
		return 0, false
	}
	return gen, name == fmt.Sprintf("shard-%02d-%06d.seg", shard, gen)
}

// loadSegments scans every segment file: good records build the index
// (highest sequence number wins), torn tails are truncated, and corrupt
// regions are skipped and quarantined. No corruption class fails the
// open — the worst case for a record is that it must be recomputed. The
// file of the highest generation becomes the append segment.
//
// A compaction's temporary file ("<segment>.tmp") left by a crash before
// its rename is scanned too, since an earlier version appended live
// records to one, but never becomes the append segment: the open then
// compacts once, so its records land in a real segment and the temporary
// file is removed.
func (s *Store) loadSegments() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type seg struct {
		gen  int
		path string
		tmp  bool
	}
	var segs []seg
	temps := false
	for _, e := range ents {
		name, tmp := strings.CutSuffix(e.Name(), ".tmp")
		if gen, ok := parseSegName(name); ok {
			segs = append(segs, seg{gen, filepath.Join(s.dir, e.Name()), tmp})
			temps = temps || tmp
		}
	}
	// Generation order, then name (ReadDir sorts by name): this is write
	// order, which the per-record sequence numbers then refine exactly.
	sort.SliceStable(segs, func(a, b int) bool { return segs[a].gen < segs[b].gen })
	for _, sg := range segs {
		top, err := s.scanSegment(sg.path)
		if err != nil {
			return err
		}
		s.files = append(s.files, sg.path)
		// A temporary file counts here too, so the next compaction names
		// a generation above every file's.
		s.gen = sg.gen
		if !sg.tmp {
			s.path, s.size = sg.path, top
		}
	}
	if temps {
		// As in Put, compaction trouble leaves the records served from
		// the index; the temporary file is then scanned again next open.
		_ = s.compactLocked()
	}
	return nil
}

// scanSegment reads one segment file into the index, returning the
// file's size after any torn-tail truncation.
func (s *Store) scanSegment(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: reading %s: %w", path, err)
	}
	off := 0
	for off < len(data) {
		seq, key, value, size, ok, torn := decodeRecordAt(data, off)
		if ok {
			s.insertLoaded(key, value, seq, int64(size))
			off += size
			continue
		}
		// Corruption at off. If a complete valid record exists further
		// on, this is a mid-file corrupt region: skip to it and
		// quarantine the gap. Otherwise everything from off is a torn
		// tail (or trailing garbage): truncate so future appends start at
		// a record boundary.
		if next := nextValidRecord(data, off+1); next >= 0 {
			s.quarantined++
			s.logQuarantine(path, off, next-off, "corrupt record (checksum or framing)")
			// The skipped bytes stay in the file as dead weight until
			// compaction scrubs them.
			s.total += int64(next - off)
			off = next
			continue
		}
		if err := os.Truncate(path, int64(off)); err != nil {
			return 0, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		if torn {
			s.tornTails++
		} else {
			// Unreadable to the end without a clean tear signature:
			// count it as quarantined corruption (the bytes are gone
			// either way, but the distinction matters for diagnosis).
			s.quarantined++
			s.logQuarantine(path, off, len(data)-off, "corrupt trailing region (truncated)")
		}
		data = data[:off]
	}
	return int64(len(data)), nil
}

// insertLoaded adds a scanned record to the index, last write (highest
// seq) winning, and moves the next sequence number past it.
func (s *Store) insertLoaded(key string, value []byte, seq uint64, size int64) {
	if seq >= s.seq {
		s.seq = seq + 1 // decodeRecordAt admits no seq above maxSeq
	}
	s.total += size
	old, exists := s.index[key]
	if exists && old.seq >= seq {
		return // this record is superseded: dead bytes
	}
	if exists {
		s.live -= old.size
	}
	s.live += size
	// Copy the value out of the scan buffer so the index does not pin
	// whole segment files in memory.
	raw := make(json.RawMessage, len(value))
	copy(raw, value)
	s.index[key] = entry{raw: raw, seq: seq, size: size}
}

// nextValidRecord scans data from off for the next offset framing a
// complete, checksum-valid record, or -1.
func nextValidRecord(data []byte, off int) int {
	var m [4]byte
	binary.LittleEndian.PutUint32(m[:], recMagic)
	for off < len(data) {
		i := bytes.Index(data[off:], m[:])
		if i < 0 {
			return -1
		}
		cand := off + i
		if _, _, _, _, ok, _ := decodeRecordAt(data, cand); ok {
			return cand
		}
		off = cand + 1
	}
	return -1
}

// logQuarantine appends one JSON line to quarantine.log (best effort:
// quarantine bookkeeping must never fail the store).
func (s *Store) logQuarantine(path string, off, length int, reason string) {
	f, err := os.OpenFile(filepath.Join(s.dir, "quarantine.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	line, _ := json.Marshal(map[string]any{
		"file": filepath.Base(path), "offset": off, "length": length, "reason": reason,
	})
	f.Write(append(line, '\n'))
}

// openActiveLocked opens (or creates) the append segment. Caller holds
// s.mu.
func (s *Store) openActiveLocked() error {
	if s.path == "" {
		s.gen = 1
		s.path = filepath.Join(s.dir, segName(s.gen))
		s.files = append(s.files, s.path)
		s.size = 0
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	return nil
}

// Compact rewrites the store when it carries dead bytes or spans several
// segment files, dropping superseded records and scrubbing quarantined
// regions. Put triggers the same rewrite automatically once dead bytes
// outweigh live ones.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total == s.live && len(s.files) <= 1 {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites the live records into a fresh segment
// generation and removes the old files. Crash-safe ordering: the new
// segment is written and synced under a temporary name, renamed into
// place, and only then are the old files removed — a crash at any point
// leaves either the old files or a complete new one (duplicate records
// across old and new resolve by sequence number at the next open).
// Caller holds s.mu.
func (s *Store) compactLocked() error {
	newGen := s.gen + 1
	newPath := filepath.Join(s.dir, segName(newGen))
	tmp := newPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	// Rewrite in sequence order so the compacted file preserves write
	// order (and byte-for-byte determinism for a given index state).
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return s.index[keys[a]].seq < s.index[keys[b]].seq })
	var written int64
	for _, k := range keys {
		e := s.index[k]
		rec := encodeRecord(e.seq, k, e.raw)
		if _, err := f.Write(rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: compacting: %w", err)
		}
		e.size = int64(len(rec))
		s.index[k] = e
		written += int64(len(rec))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compacting: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compacting: %w", err)
	}
	if err := os.Rename(tmp, newPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compacting: %w", err)
	}
	syncDir(s.dir)

	// The new generation is durable; retire the old files.
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	for _, old := range s.files {
		if old != newPath {
			os.Remove(old)
		}
	}
	s.files = []string{newPath}
	s.gen = newGen
	s.path = newPath
	s.size = written
	s.total = written
	s.live = written
	s.compactions++
	s.lastCompaction = time.Now()
	return nil
}

// syncDir fsyncs a directory so renames and removals within it are
// durable (best effort; not all platforms support it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}
