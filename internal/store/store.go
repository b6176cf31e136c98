// Package store is a persistent result store: digest-keyed JSON values
// in checksummed, length-prefixed records appended to segment files. It
// lets repeated experiment runs — e.g. cmd/experiments regenerating
// every table, or a restarted shrecd resuming a killed campaign — reuse
// finished work across processes, and it is built to survive the
// failures that actually happen to append-only files:
//
//   - Every record carries a CRC32C over its payload; a torn tail from a
//     crashed writer is truncated at open, and a corrupt record in the
//     middle of a segment (bitrot, a buried partial append) is skipped
//     and quarantined instead of failing the store.
//   - Rewritten keys append a new record; the record with the highest
//     sequence number wins on reload, so files never need in-place edits.
//   - When the segment files hold more dead (superseded or quarantined)
//     bytes than live ones, they are compacted: live records are
//     rewritten into a fresh segment generation and the old files
//     removed. Compaction also scrubs quarantined byte ranges.
//   - A configurable fsync policy (SyncNever for result caches whose
//     entries can be recomputed, SyncAlways for write-ahead journals)
//     bounds how much a power failure can lose.
//
// One mutex guards the index and the one active segment: the heaviest
// writer, a fault campaign, appends one record per trial.
//
// A store is a directory; a regular file at the store path is an error
// and is left untouched. Directories written by earlier versions, which
// spread keys over hash-sharded segment files beside a meta.json, open
// as they are: every segment file is scanned, meta.json is ignored, and
// the first compaction folds the files into one.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Digest hashes the JSON encodings of vs into a stable hex key. Include a
// schema label as the first value so format changes invalidate old
// entries instead of misdecoding them.
func Digest(vs ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			// Hash the error text instead: the key is still deterministic,
			// it just never matches a successfully encoded entry.
			fmt.Fprintf(h, "!enc-error:%v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS: a power failure can lose the
	// most recent appends, which is fine for result caches whose entries
	// are recomputable. Torn records from the failure are still detected
	// and truncated at the next Open. The default.
	SyncNever SyncPolicy = iota
	// SyncAlways fsyncs after every Put: once Put returns, the record
	// survives power loss. Use for write-ahead journals whose entries
	// gate externally-visible promises.
	SyncAlways
)

// Options tunes OpenWith.
type Options struct {
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
}

// compactMinDead sizes auto-compaction: the store is rewritten when its
// files hold more than this many superseded bytes and the dead bytes
// outweigh the live ones.
const compactMinDead = 64 << 10

// errSeqExhausted refuses a Put once the store has handed out maxSeq:
// the next sequence number would wrap to 0, and the record would lose
// to every older one at the next open.
var errSeqExhausted = errors.New("record sequence numbers exhausted")

// entry is one live key in the in-memory index.
type entry struct {
	raw  json.RawMessage
	seq  uint64
	size int64 // on-disk record bytes, for dead-space accounting
}

// Store is a digest-keyed persistent map over segment files. Safe for
// concurrent use within one process. Across processes, appends by
// concurrent writers stay record-atomic (O_APPEND), but compaction
// assumes a single writing process.
type Store struct {
	dir string
	opt Options

	// mu guards every field below; Open fills them without it, before
	// the store is shared.
	mu     sync.Mutex
	index  map[string]entry
	seq    uint64   // next record sequence number
	active *os.File // the append segment, opened at the first Put
	path   string   // active file path
	gen    int      // active file generation, the highest on disk
	size   int64    // active file size (append offset)
	files  []string // every segment file, oldest first
	live   int64    // bytes of live records across files
	total  int64    // bytes of all records across files

	quarantined    uint64 // corrupt records skipped (open-time + lifetime)
	tornTails      uint64 // torn tails truncated at open
	compactions    uint64
	lastCompaction time.Time

	// testFail, when >0, makes the next append write only testFail-1
	// bytes and report a write error (failpoint for rollback tests).
	testFail int
}

// Open loads (or creates) the store at path with default options. The
// path names a directory; a regular file there is an error and is left
// untouched.
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// OpenWith loads (or creates) the store at path.
func OpenWith(path string, opt Options) (*Store, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: path, opt: opt, index: make(map[string]entry), seq: 1}
	if err := s.loadSegments(); err != nil {
		return nil, err
	}
	return s, nil
}

// Path returns the store directory.
func (s *Store) Path() string { return s.dir }

// Len returns the number of distinct live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Get decodes the stored value for key into v, reporting whether the key
// was present.
func (s *Store) Get(key string, v any) (bool, error) {
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(e.raw, v); err != nil {
		return false, fmt.Errorf("store: decoding %s: %w", key, err)
	}
	return true, nil
}

// Range calls fn for every live key (in sorted order) with its raw JSON
// value, stopping early when fn returns false. The walk snapshots the
// index, so entries written concurrently may or may not be visited.
func (s *Store) Range(fn func(key string, value json.RawMessage) bool) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		snap[i] = s.index[k].raw
	}
	s.mu.Unlock()
	for i, k := range keys {
		if !fn(k, snap[i]) {
			return
		}
	}
}

// Put stores v under key, appending a checksummed record to the active
// segment. A failed or short append is rolled back — the file is
// truncated to its pre-write length and the index left untouched — so
// the index and the file can never disagree.
func (s *Store) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq > maxSeq {
		return fmt.Errorf("store: appending %s: %w", key, errSeqExhausted)
	}
	seq := s.seq
	s.seq++
	rec := encodeRecord(seq, key, raw)
	if s.active == nil {
		if err := s.openActiveLocked(); err != nil {
			return err
		}
	}
	off := s.size
	n, werr := s.append(rec)
	if werr == nil && s.opt.Sync == SyncAlways {
		// An fsync failure leaves durability unknown; treat it like a
		// failed write so the caller retries from a clean slate.
		werr = s.active.Sync()
	}
	if werr != nil {
		// Roll back: drop the partial record so the next append starts at
		// a record boundary and the file agrees with the index. If even
		// the truncate fails, the torn bytes remain but the CRC framing
		// quarantines them at the next Open.
		_ = s.active.Truncate(off)
		s.size = off
		return fmt.Errorf("store: appending to %s (%d/%d bytes): %w", s.path, n, len(rec), werr)
	}
	s.size = off + int64(len(rec))
	s.total += int64(len(rec))
	if old, ok := s.index[key]; ok {
		s.live -= old.size
	}
	s.live += int64(len(rec))
	s.index[key] = entry{raw: raw, seq: seq, size: int64(len(rec))}

	if dead := s.total - s.live; dead > compactMinDead && dead > s.live {
		// The Put itself succeeded; compaction trouble is not the
		// caller's write failing, and the next Put will retry it.
		_ = s.compactLocked()
	}
	return nil
}

// append writes rec to the active file, honoring the test failpoint.
func (s *Store) append(rec []byte) (int, error) {
	if s.testFail > 0 {
		short := s.testFail - 1
		s.testFail = 0
		if short > len(rec) {
			short = len(rec)
		}
		n, _ := s.active.Write(rec[:short])
		return n, fmt.Errorf("injected append failure after %d bytes", short)
	}
	return s.active.Write(rec)
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", s.path, err)
	}
	return nil
}

// Close releases the active segment file. The store must not be used
// after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// Stats is a point-in-time integrity summary, served by shrecd's
// /healthz.
type Stats struct {
	// Keys is the number of distinct live keys.
	Keys int `json:"keys"`
	// Segments is the current number of segment files.
	Segments int `json:"segments"`
	// LiveBytes and DeadBytes split the on-disk record bytes into
	// current values and superseded/quarantined residue awaiting
	// compaction.
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// Quarantined counts corrupt records skipped (and logged to
	// quarantine.log) since this process opened the store, including the
	// open-time scan.
	Quarantined uint64 `json:"quarantined"`
	// TornTails counts incomplete trailing records truncated at open.
	TornTails uint64 `json:"torn_tails"`
	// Compactions counts segment rewrites since open; LastCompaction is
	// zero until the first one.
	Compactions    uint64    `json:"compactions"`
	LastCompaction time.Time `json:"last_compaction,omitzero"`
}

// Stats summarizes the store's integrity state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Keys:           len(s.index),
		Segments:       len(s.files),
		LiveBytes:      s.live,
		DeadBytes:      s.total - s.live,
		Quarantined:    s.quarantined,
		TornTails:      s.tornTails,
		Compactions:    s.compactions,
		LastCompaction: s.lastCompaction,
	}
}
