package store

// The store's corruption matrix: every failure class a crashed or
// bit-rotted writer can leave behind must be detected, contained to the
// affected record(s), and survived — no corruption may fail Open or
// poison later records. These are the storage half of the chaos
// harness; internal/shrecd layers journal and process-kill chaos on top.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fill populates a fresh store and returns it with its directory.
func fill(t *testing.T, n int) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(Digest("chaos", i), payload{Name: fmt.Sprint(i), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return s, path
}

// verify checks that keys [0,n) except those in missing survive.
func verify(t *testing.T, s *Store, n int, missing map[int]bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		var out payload
		ok, err := s.Get(Digest("chaos", i), &out)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if missing[i] {
			if ok {
				t.Fatalf("key %d: corrupt record decoded anyway", i)
			}
			continue
		}
		if !ok || out.Value != float64(i) {
			t.Fatalf("key %d lost: ok=%v %+v", i, ok, out)
		}
	}
}

// TestChaosTornTail cuts an append mid-record (a crashed writer) and
// pins that Open truncates the tear, keeps every complete record, and
// leaves the file appendable.
func TestChaosTornTail(t *testing.T) {
	s, path := fill(t, 16)
	victim := Digest("chaos", 3)
	seg := s.ActiveSegment()
	s.Close()

	// Tear: append a record prefix — header plus part of the payload.
	rec := EncodeRecord(9999, "torn-key", []byte(`{"name":"torn"}`))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(rec[:len(rec)-5])
	f.Close()
	preSize := fileSize(t, seg)

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail failed Open: %v", err)
	}
	defer s2.Close()
	verify(t, s2, 16, nil)
	st := s2.Stats()
	if st.TornTails != 1 {
		t.Fatalf("torn tail not counted: %+v", st)
	}
	if got := fileSize(t, seg); got != preSize-int64(len(rec)-5) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", got, preSize-int64(len(rec)-5))
	}
	// The store must accept appends on the clean boundary.
	if err := s2.Put(victim, payload{Value: 333}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if ok, _ := s2.Get(victim, &out); !ok || out.Value != 333 {
		t.Fatal("post-recovery append lost")
	}
}

// TestChaosBitflipMidRecord flips one byte in the middle of a segment
// and pins skip-and-quarantine: only the hit record is lost, every
// record after it in the same file still loads, and the quarantine is
// counted and logged.
func TestChaosBitflipMidRecord(t *testing.T) {
	// Every record lands in the one active file, so "records after the
	// corrupt one" is guaranteed non-empty.
	s, path := fill(t, 16)
	seg := s.ActiveSegment()
	s.Close()

	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // bitrot in some mid-file record's bytes
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("bitflip failed Open: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Quarantined == 0 {
		t.Fatalf("bitflip not quarantined: %+v", st)
	}
	if lost := 16 - st.Keys; lost < 1 || lost > 2 {
		// The flip lands in one record; two can only die if it hit the
		// boundary bytes between records.
		t.Fatalf("bitflip took out %d records, want 1-2: %+v", lost, st)
	}
	// Survivors must all decode; count them against the index.
	alive := 0
	for i := 0; i < 16; i++ {
		var out payload
		if ok, err := s2.Get(Digest("chaos", i), &out); err != nil {
			t.Fatalf("key %d: %v", i, err)
		} else if ok {
			if out.Value != float64(i) {
				t.Fatalf("key %d corrupted silently: %+v", i, out)
			}
			alive++
		}
	}
	if alive != st.Keys {
		t.Fatalf("index size mismatch: %d alive vs %d keys", alive, st.Keys)
	}
	if _, err := os.Stat(filepath.Join(path, "quarantine.log")); err != nil {
		t.Fatalf("quarantine.log missing: %v", err)
	}
	// Compaction scrubs the corrupt bytes; a further reopen is clean.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Quarantined != 0 || st.Keys != alive {
		t.Fatalf("compaction did not scrub corruption: %+v", st)
	}
}

// TestChaosDuplicateKeyAcrossSegments hand-crafts two segment
// generations holding the same key and pins last-write-wins by sequence
// number, whichever file order the opener visits.
func TestChaosDuplicateKeyAcrossSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("seed", payload{Value: 0}) // create the generation-1 segment
	s.Close()

	old := EncodeRecord(100, "dup", []byte(`{"name":"old","value":1}`))
	newer := EncodeRecord(200, "dup", []byte(`{"name":"new","value":2}`))
	// Older generation carries the NEWER sequence's record too: LWW must
	// follow sequence numbers, not just file order.
	gen1 := filepath.Join(path, SegName(1))
	f, err := os.OpenFile(gen1, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(newer)
	f.Close()
	if err := os.WriteFile(filepath.Join(path, SegName(2)), old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var out payload
	if ok, _ := s2.Get("dup", &out); !ok || out.Name != "new" {
		t.Fatalf("LWW across segments broken: %+v", out)
	}
	if st := s2.Stats(); st.Segments != 2 {
		t.Fatalf("segments = %d, want 2", st.Segments)
	}
}

// TestChaosEmptySegmentFile pins that a zero-byte segment (creat
// succeeded, every append lost) neither fails Open nor perturbs the
// records in other segments.
func TestChaosEmptySegmentFile(t *testing.T) {
	s, path := fill(t, 8)
	s.Close()
	// An empty file for a generation that never got records.
	if err := os.WriteFile(filepath.Join(path, SegName(7)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("empty segment failed Open: %v", err)
	}
	defer s2.Close()
	verify(t, s2, 8, nil)
	if st := s2.Stats(); st.Quarantined != 0 || st.TornTails != 0 {
		t.Fatalf("empty file miscounted as corruption: %+v", st)
	}
}

// TestChaosGarbageSegment fills a segment with bytes that never frame a
// record (pure garbage, no magic) and pins that Open quarantines and
// truncates it without touching the rest of the store.
func TestChaosGarbageSegment(t *testing.T) {
	s, path := fill(t, 8)
	s.Close()
	garbage := make([]byte, 4096)
	for i := range garbage {
		garbage[i] = byte(i*7 + 1)
	}
	if err := os.WriteFile(filepath.Join(path, SegName(5)), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("garbage segment failed Open: %v", err)
	}
	defer s2.Close()
	verify(t, s2, 8, nil)
	if st := s2.Stats(); st.Quarantined == 0 {
		t.Fatalf("garbage not quarantined: %+v", st)
	}
}

// TestChaosConcurrentPutsUnderContention hammers one store from many
// goroutines (shared and distinct keys, enough volume to cross the
// auto-compaction threshold) and pins that nothing is lost. Run under
// -race in CI.
func TestChaosConcurrentPutsUnderContention(t *testing.T) {
	const (
		workers = 8
		keys    = 32
		rounds  = 30
	)
	path := filepath.Join(t.TempDir(), "s")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := Digest("cc", k)
					if err := s.Put(key, payload{Name: fmt.Sprintf("w%d", w), Value: float64(k)}); err != nil {
						t.Error(err)
						return
					}
					var out payload
					if ok, err := s.Get(key, &out); !ok || err != nil || out.Value != float64(k) {
						t.Errorf("get %d: ok=%v err=%v %+v", k, ok, err, out)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != keys {
		t.Fatalf("len = %d, want %d", s.Len(), keys)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != keys {
		t.Fatalf("reloaded %d keys, want %d", s2.Len(), keys)
	}
	for k := 0; k < keys; k++ {
		var out payload
		if ok, _ := s2.Get(Digest("cc", k), &out); !ok || out.Value != float64(k) {
			t.Fatalf("key %d lost under contention", k)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
