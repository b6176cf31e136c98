package store

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	s.FailNextAppend("victim", 7) // write 7 bytes of the record, then fail
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

// TestCompactionDropsSuperseded pins that compaction rewrites a shard to
// only its live records and that everything survives a reopen.
func TestCompactionDropsSuperseded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	s, err := OpenWith(path, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// Same 5 keys rewritten 10 times: 90% dead bytes.
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
// key far past the threshold must shrink the shard without any explicit
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

// TestShardCountPinnedByMeta pins that reopening with a different
// Options.Shards keeps the created layout (meta.json wins), so the key →
// file mapping never shifts under an existing store.
func TestShardCountPinnedByMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	s, err := OpenWith(path, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := s.Put(Digest("sp", i), payload{Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := OpenWith(path, Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Shards; got != 4 {
		t.Fatalf("shard count drifted to %d, want pinned 4", got)
	}
	if s2.Len() != 32 {
		t.Fatalf("len = %d, want 32", s2.Len())
	}
	var out payload
	for i := 0; i < 32; i++ {
		if ok, _ := s2.Get(Digest("sp", i), &out); !ok || out.Value != float64(i) {
			t.Fatalf("key %d lost across shard-option change", i)
		}
	}
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
