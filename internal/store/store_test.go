package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := payload{Name: "swim", Value: 1.25}
	if err := s.Put("k1", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.Get("k1", &out)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if ok, _ := s.Get("absent", &out); ok {
		t.Fatal("absent key reported present")
	}
}

func TestReopenPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", payload{Name: "first", Value: 1}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the same key: the newest value must win after reload.
	if err := s.Put("a", payload{Name: "second", Value: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", payload{Name: "other", Value: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store holds its one segment file and nothing else.
	if ents, _ := os.ReadDir(path); len(ents) != 1 || ents[0].Name() != SegName(1) {
		t.Fatalf("fresh store directory holds %v, want only %s", ents, SegName(1))
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reloaded %d keys, want 2", s2.Len())
	}
	var out payload
	if ok, _ := s2.Get("a", &out); !ok || out.Name != "second" {
		t.Fatalf("last write did not win: %+v", out)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := Digest("key", i%4)
			if err := s.Put(k, payload{Value: float64(i)}); err != nil {
				t.Error(err)
			}
			var out payload
			if ok, err := s.Get(k, &out); !ok || err != nil {
				t.Errorf("get %s: ok=%v err=%v", k, ok, err)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
}

func TestDigestStability(t *testing.T) {
	type cfg struct{ A, B int }
	a := Digest("v1", cfg{1, 2})
	b := Digest("v1", cfg{1, 2})
	c := Digest("v1", cfg{2, 1})
	d := Digest("v2", cfg{1, 2})
	if a != b {
		t.Fatal("digest not deterministic")
	}
	if a == c || a == d {
		t.Fatal("digest collides across distinct inputs")
	}
	if len(a) != 64 {
		t.Fatalf("digest length %d", len(a))
	}
}

func TestRangeVisitsEveryKey(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]bool{}
	for i := 0; i < 20; i++ {
		k := Digest("range", i)
		want[k] = true
		if err := s.Put(k, payload{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	s.Range(func(k string, _ json.RawMessage) bool {
		got[k] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("Range missed %s", k)
		}
	}
}

// TestPutRollbackOnWriteError pins the durability contract satellite: a
// failed (torn) append must leave the index and the file agreeing — the
// key absent from both — and the store must keep working afterwards.
func TestPutRollbackOnWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", payload{Name: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	s.FailNextAppend(7) // write 7 bytes of the record, then fail
	if err := s.Put("victim", payload{Name: "torn", Value: 2}); err == nil {
		t.Fatal("injected write failure did not surface")
	}
	var out payload
	if ok, _ := s.Get("victim", &out); ok {
		t.Fatal("failed Put left the key in the index")
	}
	// The torn bytes must have been rolled back: the next Put lands on a
	// record boundary and both keys survive a reopen.
	if err := s.Put("victim", payload{Name: "retry", Value: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ok, _ := s2.Get("good", &out); !ok {
		t.Fatal("pre-failure key lost")
	}
	if ok, _ := s2.Get("victim", &out); !ok || out.Name != "retry" {
		t.Fatalf("post-failure retry lost: ok=%v %+v", ok, out)
	}
	if st := s2.Stats(); st.Quarantined != 0 || st.TornTails != 0 {
		t.Fatalf("rollback left residue on disk: %+v", st)
	}
}

// TestOpenRejectsRegularFile pins that a regular file where the store
// directory should be is refused with an error and left byte-identical:
// the path is caller input, and Open must never move, rewrite, or
// truncate a file it does not own.
func TestOpenRejectsRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	want := []byte(`{"key":"a","value":{"name":"first","value":1}}` + "\n" + `{"key":"torn","value":{"na`)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path); err == nil {
		s.Close()
		t.Fatal("Open accepted a regular file as a store directory")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("file gone after rejected Open: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rejected Open changed the file:\n got %q\nwant %q", got, want)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("rejected Open left %d entries beside the file, want only the file", len(entries))
	}
}

// TestCompactionDropsSuperseded pins that compaction rewrites the store
// to only its live records and that everything survives a reopen.
func TestCompactionDropsSuperseded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// Same 5 keys rewritten 10 times: 90% dead bytes, but a few KiB,
		// far below the auto-compaction threshold.
		if err := s.Put(Digest("ck", i%5), payload{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("expected dead bytes before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.DeadBytes != 0 {
		t.Fatalf("compaction left %d dead bytes", after.DeadBytes)
	}
	if after.Keys != 5 {
		t.Fatalf("compaction changed key count: %d", after.Keys)
	}
	if after.Compactions == 0 || after.LastCompaction.IsZero() {
		t.Fatalf("compaction not recorded: %+v", after)
	}
	// Post-compaction writes and reload still work.
	if err := s.Put(Digest("ck", 0), payload{Value: 99}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var out payload
	for i := 0; i < 5; i++ {
		want := float64(45 + i)
		if i == 0 {
			want = 99
		}
		if ok, _ := s2.Get(Digest("ck", i), &out); !ok || out.Value != want {
			t.Fatalf("key %d after compaction+reopen: ok=%v got=%v want=%v", i, ok, out.Value, want)
		}
	}
}

// TestAutoCompactionTriggers pins the dead-bytes trigger: rewriting one
// key far past the threshold must shrink the store without any explicit
// Compact call.
func TestAutoCompactionTriggers(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := payload{Name: strings.Repeat("x", 4096)}
	for i := 0; i < 64; i++ { // ~256 KiB of rewrites of one key
		if err := s.Put("hot", big); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("auto-compaction never fired: %+v", st)
	}
	if st.DeadBytes > compactMinDead {
		t.Fatalf("dead bytes not reclaimed: %+v", st)
	}
	var out payload
	if ok, _ := s.Get("hot", &out); !ok || out.Name != big.Name {
		t.Fatal("auto-compaction lost the live value")
	}
}

// TestOpenLegacyShardedLayout opens a store laid out by earlier
// versions, which hashed keys (FNV-1a mod 8) over eight shards' segment
// files beside a meta.json: every key serves its newest value, including
// one superseded across two generations of its shard; a Put wins across
// a reopen; Compact folds the files into one; and a reopen serves the
// same contents.
func TestOpenLegacyShardedLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "meta.json"), []byte(`{"version":1,"shards":8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := func(seq uint64, key, name string) []byte {
		return EncodeRecord(seq, key, []byte(fmt.Sprintf(`{"name":%q,"value":%d}`, name, seq)))
	}
	// Each key sits in its FNV shard. Shard 6 was compacted into
	// generation 2 and the process died before it removed generation 1;
	// the next process appended dup's newest value to generation 2.
	// Shard 3 was compacted twice.
	files := map[string][]byte{
		"shard-00-000001.seg": rec(5, "e", "e"),
		"shard-01-000001.seg": rec(6, "f", "f"),
		"shard-02-000001.seg": rec(3, "c", "c"),
		"shard-03-000003.seg": rec(4, "d", "d"),
		"shard-04-000001.seg": append(rec(1, "a", "a"), rec(10, "i", "i")...),
		"shard-05-000001.seg": rec(2, "b", "b"),
		"shard-06-000001.seg": append(rec(7, "g", "g"), rec(9, "dup", "old")...),
		"shard-06-000002.seg": append(append(rec(7, "g", "g"), rec(9, "dup", "old")...), rec(12, "dup", "new")...),
		"shard-07-000001.seg": rec(8, "h", "h"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(path, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]payload{"dup": {"new", 12}}
	for k, seq := range map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8, "i": 10} {
		want[k] = payload{k, seq}
	}
	check := func(s *Store) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("len = %d, want %d", s.Len(), len(want))
		}
		for k, w := range want {
			var out payload
			if ok, err := s.Get(k, &out); err != nil || !ok || out != w {
				t.Fatalf("key %s: ok=%v err=%v %+v, want %+v", k, ok, err, out, w)
			}
		}
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check(s)
	if st := s.Stats(); st.Segments != len(files) || st.Quarantined != 0 || st.TornTails != 0 {
		t.Fatalf("legacy open: %+v", st)
	}
	for k, w := range map[string]payload{"dup": {"put", 13}, "j": {"put", 14}} {
		if err := s.Put(k, w); err != nil {
			t.Fatal(err)
		}
		want[k] = w
	}
	s.Close()

	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	check(s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(path, "*.seg*"))
	if len(segs) != 1 || s.Stats().Segments != 1 {
		t.Fatalf("compaction left %d segment files (%d tracked), want 1: %v", len(segs), s.Stats().Segments, segs)
	}
	check(s)
	s.Close()

	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
	if st := s.Stats(); st.Segments != 1 || st.DeadBytes != 0 {
		t.Fatalf("reopen after compaction: %+v", st)
	}
}

// TestSequenceNumberWrap pins that record sequence numbers never wrap. A
// checksum-valid record at 2^64-1 would move the next sequence number to
// 0, so a later Put of its key would lose to it at the next open: the
// record is quarantined instead. A record at 2^64-2 leaves no number to
// hand out, so Put refuses instead of wrapping.
func TestSequenceNumberWrap(t *testing.T) {
	open := func(t *testing.T, seq uint64) (*Store, string) {
		path := filepath.Join(t.TempDir(), "s")
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
		rec := EncodeRecord(seq, "k", []byte(`{"name":"old","value":1}`))
		if err := os.WriteFile(filepath.Join(path, SegName(1)), rec, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return s, path
	}
	get := func(t *testing.T, path string) (payload, bool) {
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out payload
		ok, err := s.Get("k", &out)
		if err != nil {
			t.Fatal(err)
		}
		return out, ok
	}
	t.Run("2^64-1", func(t *testing.T) {
		s, path := open(t, math.MaxUint64)
		if st := s.Stats(); st.Keys != 0 || st.Quarantined != 1 {
			t.Fatalf("record at 2^64-1 not quarantined: %+v", st)
		}
		if err := s.Put("k", payload{Name: "new", Value: 2}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if out, ok := get(t, path); !ok || out.Name != "new" {
			t.Fatalf("the Put lost across a reopen: ok=%v %+v", ok, out)
		}
	})
	t.Run("2^64-2", func(t *testing.T) {
		s, path := open(t, math.MaxUint64-1)
		if err := s.Put("k", payload{Name: "new", Value: 2}); !errors.Is(err, errSeqExhausted) {
			t.Fatalf("Put with no sequence number left: %v, want %v", err, errSeqExhausted)
		}
		s.Close()
		if out, ok := get(t, path); !ok || out.Name != "old" {
			t.Fatalf("refused Put changed the store: ok=%v %+v", ok, out)
		}
	})
}

func TestSyncAlwaysPolicy(t *testing.T) {
	// Behavioral smoke only (fsync effects need a power cut): SyncAlways
	// must not change observable semantics.
	path := filepath.Join(t.TempDir(), "j")
	s, err := OpenWith(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("len = %d, want 10", s2.Len())
	}
}

// TestOpenCompactionTempFile opens a store whose last compaction crashed
// before renaming its temporary file, after an earlier version had made
// that file the append segment and appended a live record to it. Segment
// names match strictly, so the temporary file is never the append
// segment; its records are still served, and the open compacts them into
// a real segment and removes the temporary file.
func TestOpenCompactionTempFile(t *testing.T) {
	for name, want := range map[string]bool{
		"shard-00-000005.seg": true, "shard-03-000012.seg": true,
		"shard-00-000005.seg.tmp": false, "shard-00-000005.seg.seg": false,
		"shard-0-5.seg": false, "quarantine.log": false,
	} {
		if _, ok := parseSegName(name); ok != want {
			t.Errorf("parseSegName(%q) ok = %v, want %v", name, ok, want)
		}
	}

	path := filepath.Join(t.TempDir(), "s")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := func(seq uint64, key string) []byte {
		return EncodeRecord(seq, key, []byte(fmt.Sprintf(`{"name":%q,"value":%d}`, key, seq)))
	}
	files := map[string][]byte{
		SegName(1):          rec(1, "a"),
		SegName(2) + ".tmp": append(rec(1, "a"), rec(2, "b")...),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(path, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, keys ...string) {
		t.Helper()
		if strings.HasSuffix(s.ActiveSegment(), ".tmp") {
			t.Fatalf("append segment is the temporary file %s", s.ActiveSegment())
		}
		if tmps, _ := filepath.Glob(filepath.Join(path, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("temporary files left after open: %v", tmps)
		}
		for i, k := range keys {
			var out payload
			if ok, err := s.Get(k, &out); err != nil || !ok || out != (payload{k, float64(i + 1)}) {
				t.Fatalf("key %s: ok=%v err=%v %+v", k, ok, err, out)
			}
		}
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check(s, "a", "b")
	if err := s.Put("c", payload{"c", 3}); err != nil {
		t.Fatal(err)
	}
	check(s, "a", "b", "c")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, "a", "b", "c")
	if st := s.Stats(); st.Segments != 1 || st.Keys != 3 {
		t.Fatalf("stats after reopen = %+v, want one segment of 3 keys", st)
	}
}
