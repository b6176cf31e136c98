// Package store is a persistent result store: digest-keyed JSON values
// in checksummed, length-prefixed records appended to sharded segment
// files. It lets repeated experiment runs — e.g. cmd/experiments
// regenerating every table, or a restarted shrecd resuming a killed
// campaign — reuse finished work across processes, and it is built to
// survive the failures that actually happen to append-only files:
//
//   - Every record carries a CRC32C over its payload; a torn tail from a
//     crashed writer is truncated at open, and a corrupt record in the
//     middle of a segment (bitrot, a buried partial append) is skipped
//     and quarantined instead of failing the store.
//   - Keys are sharded across segment files by hash, so concurrent
//     writers in one process never contend on a single file descriptor.
//   - Rewritten keys append a new record; the record with the highest
//     sequence number wins on reload, so files never need in-place edits.
//   - When a shard accumulates more dead (superseded or quarantined)
//     bytes than live ones, it is compacted in place: live records are
//     rewritten into a fresh segment generation and the old files
//     removed. Compaction also scrubs quarantined byte ranges.
//   - A configurable fsync policy (SyncNever for result caches whose
//     entries can be recomputed, SyncAlways for write-ahead journals)
//     bounds how much a power failure can lose.
//
// Stores created by earlier versions — a single JSON-lines file — are
// detected at Open and imported into segment format once; the original
// file is kept beside the store directory with a ".pre-segments" suffix.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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
	// Shards is the number of hash shards (segment-file groups) new
	// stores are created with (<=0 means 8). Existing stores keep the
	// shard count they were created with, recorded in meta.json.
	Shards int
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// NoAutoCompact disables the dead-bytes-triggered compaction on Put
	// (Compact can still be called explicitly). Mainly for tests that
	// pin exact on-disk layouts.
	NoAutoCompact bool
}

// compactMinDead sizes auto-compaction: a shard is rewritten when its
// files hold more than this many superseded bytes and the dead bytes
// outweigh the live ones.
const compactMinDead = 64 << 10

// entry is one live key in the in-memory index.
type entry struct {
	raw  json.RawMessage
	seq  uint64
	size int64 // on-disk record bytes, for dead-space accounting
}

// shard is one hash shard: its own index, active segment file, and
// lock, so writers to different shards never contend.
type shard struct {
	id     int
	mu     sync.Mutex
	index  map[string]entry
	active *os.File // highest-generation segment, opened for append
	path   string   // active file path
	gen    int      // active file generation
	size   int64    // active file size (append offset)
	files  []string // every segment file of this shard, oldest first
	live   int64    // bytes of live records across files
	total  int64    // bytes of all records across files

	// testFail, when >0, makes the next append write only testFail-1
	// bytes and report a write error (failpoint for rollback tests).
	testFail int
}

// Store is a digest-keyed persistent map over sharded segment files.
// Safe for concurrent use within one process. Across processes, appends
// by concurrent writers stay record-atomic (O_APPEND), but compaction
// assumes a single writing process.
type Store struct {
	dir    string
	opt    Options
	nshard int
	shards []*shard

	seqMu sync.Mutex
	seq   uint64 // next record sequence number

	statMu         sync.Mutex
	quarantined    uint64 // corrupt records skipped (open-time + lifetime)
	tornTails      uint64 // torn tails truncated at open
	compactions    uint64
	lastCompaction time.Time
}

// storeMeta is the meta.json shape pinning the shard layout.
type storeMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Open loads (or creates) the store at path with default options. The
// path names a directory; a regular file there is an error and is left
// untouched.
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// OpenWith loads (or creates) the store at path.
func OpenWith(path string, opt Options) (*Store, error) {
	if opt.Shards <= 0 {
		opt.Shards = 8
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	nshard, err := loadOrInitMeta(path, opt.Shards)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: path, opt: opt, nshard: nshard, seq: 1}
	s.shards = make([]*shard, nshard)
	for i := range s.shards {
		s.shards[i] = &shard{id: i, index: make(map[string]entry)}
	}
	if err := s.loadSegments(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Path returns the store directory.
func (s *Store) Path() string { return s.dir }

// Len returns the number of distinct live keys.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// shardOf hashes key to its shard. The mapping is pinned by meta.json,
// so a key always lands in the same file group across runs.
func (s *Store) shardOf(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(s.nshard)]
}

// Get decodes the stored value for key into v, reporting whether the key
// was present.
func (s *Store) Get(key string, v any) (bool, error) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.index[key]
	sh.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(e.raw, v); err != nil {
		return false, fmt.Errorf("store: decoding %s: %w", key, err)
	}
	return true, nil
}

// Range calls fn for every live key (in stable per-shard sorted order)
// with its raw JSON value, stopping early when fn returns false. The
// walk snapshots each shard, so entries written concurrently may or may
// not be visited.
func (s *Store) Range(fn func(key string, value json.RawMessage) bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		keys := make([]string, 0, len(sh.index))
		for k := range sh.index {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snap := make([]json.RawMessage, len(keys))
		for i, k := range keys {
			snap[i] = sh.index[k].raw
		}
		sh.mu.Unlock()
		for i, k := range keys {
			if !fn(k, snap[i]) {
				return
			}
		}
	}
}

// nextSeq allocates a record sequence number.
func (s *Store) nextSeq() uint64 {
	s.seqMu.Lock()
	n := s.seq
	s.seq++
	s.seqMu.Unlock()
	return n
}

// Put stores v under key, appending a checksummed record to the key's
// shard segment. A failed or short append is rolled back — the file is
// truncated to its pre-write length and the index left untouched — so
// the index and the file can never disagree.
func (s *Store) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	return s.putRaw(key, raw)
}

func (s *Store) putRaw(key string, raw json.RawMessage) error {
	sh := s.shardOf(key)
	seq := s.nextSeq()
	rec := encodeRecord(seq, key, raw)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.active == nil {
		if err := s.openActiveLocked(sh); err != nil {
			return err
		}
	}
	off := sh.size
	n, werr := sh.append(rec)
	if werr == nil && s.opt.Sync == SyncAlways {
		// An fsync failure leaves durability unknown; treat it like a
		// failed write so the caller retries from a clean slate.
		werr = sh.active.Sync()
	}
	if werr != nil {
		// Roll back: drop the partial record so the next append starts at
		// a record boundary and the file agrees with the index. If even
		// the truncate fails, the torn bytes remain but the CRC framing
		// quarantines them at the next Open.
		_ = sh.active.Truncate(off)
		sh.size = off
		return fmt.Errorf("store: appending to %s (%d/%d bytes): %w", sh.path, n, len(rec), werr)
	}
	sh.size = off + int64(len(rec))
	sh.total += int64(len(rec))
	if old, ok := sh.index[key]; ok {
		sh.live -= old.size
	}
	sh.live += int64(len(rec))
	sh.index[key] = entry{raw: raw, seq: seq, size: int64(len(rec))}

	if !s.opt.NoAutoCompact {
		if dead := sh.total - sh.live; dead > compactMinDead && dead > sh.live {
			// The Put itself succeeded; compaction trouble is not the
			// caller's write failing, and the next Put will retry it.
			_ = s.compactShardLocked(sh)
		}
	}
	return nil
}

// append writes rec to the active file, honoring the test failpoint.
func (sh *shard) append(rec []byte) (int, error) {
	if sh.testFail > 0 {
		short := sh.testFail - 1
		sh.testFail = 0
		if short > len(rec) {
			short = len(rec)
		}
		n, _ := sh.active.Write(rec[:short])
		return n, fmt.Errorf("injected append failure after %d bytes", short)
	}
	return sh.active.Write(rec)
}

// Sync flushes every shard's active segment to stable storage.
func (s *Store) Sync() error {
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.active != nil {
			if err := sh.active.Sync(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("store: sync %s: %w", sh.path, err)
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Close releases every segment file. The store must not be used after.
func (s *Store) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.active != nil {
			if err := sh.active.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.active = nil
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Stats is a point-in-time integrity summary, served by shrecd's
// /healthz.
type Stats struct {
	// Keys is the number of distinct live keys.
	Keys int `json:"keys"`
	// Shards is the store's hash-shard count (fixed at creation).
	Shards int `json:"shards"`
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
	st := Stats{Shards: s.nshard}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Keys += len(sh.index)
		st.Segments += len(sh.files)
		st.LiveBytes += sh.live
		st.DeadBytes += sh.total - sh.live
		sh.mu.Unlock()
	}
	s.statMu.Lock()
	st.Quarantined = s.quarantined
	st.TornTails = s.tornTails
	st.Compactions = s.compactions
	st.LastCompaction = s.lastCompaction
	s.statMu.Unlock()
	return st
}

// loadOrInitMeta reads meta.json (writing it on first creation) and
// returns the store's shard count. A missing or corrupt meta file falls
// back to the highest shard index present in segment filenames, so a
// store whose meta was lost still opens with the right layout.
func loadOrInitMeta(dir string, wantShards int) (int, error) {
	metaPath := filepath.Join(dir, "meta.json")
	if raw, err := os.ReadFile(metaPath); err == nil {
		var m storeMeta
		if json.Unmarshal(raw, &m) == nil && m.Shards > 0 {
			return m.Shards, nil
		}
		// Corrupt meta: infer below and rewrite.
	}
	shards := wantShards
	if inferred := maxShardInNames(dir); inferred > 0 {
		shards = inferred
	}
	raw, _ := json.Marshal(storeMeta{Version: 1, Shards: shards})
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		return 0, fmt.Errorf("store: writing %s: %w", metaPath, err)
	}
	return shards, nil
}
