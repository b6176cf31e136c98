package store

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// benchValue stands in for a stored sim.Result: with its key and
// framing, one record is about 840 bytes, near the 890-byte mean record
// of a small cmd/faultstudy store.
type benchValue struct {
	Machine   string   `json:"machine"`
	Benchmark string   `json:"benchmark"`
	IPC       float64  `json:"ipc"`
	Counters  []uint64 `json:"counters"`
	Note      string   `json:"note"`
}

func newBenchValue(i int) benchValue {
	c := make([]uint64, 64)
	for j := range c {
		c[j] = uint64(i*j + 12345678)
	}
	return benchValue{Machine: "shrec", Benchmark: "crafty", IPC: 1.5, Counters: c, Note: strings.Repeat("x", 100)}
}

// benchOpenRecords is the store size the Open sub-benchmark replays.
const benchOpenRecords = 10000

// BenchmarkStore measures the store layer on its own: Put appends one
// record to a SyncNever store from GOMAXPROCS goroutines (one op is one
// record, each under a fresh key, as a campaign writes one per trial);
// Get decodes one stored value; and Open replays a closed store of
// benchOpenRecords records (one op is one whole open, index rebuilt).
func BenchmarkStore(b *testing.B) {
	b.Run("Put", func(b *testing.B) {
		s, err := OpenWith(filepath.Join(b.TempDir(), "s"), Options{Sync: SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		v := newBenchValue(1)
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := s.Put(Digest("bench-put", next.Add(1)), v); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("Get", func(b *testing.B) {
		s, keys := benchFill(b, 1024)
		defer s.Close()
		var out benchValue
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := s.Get(keys[i%len(keys)], &out); !ok || err != nil {
				b.Fatalf("get: ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("Open", func(b *testing.B) {
		s, _ := benchFill(b, benchOpenRecords)
		path := s.Path()
		s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := Open(path)
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != benchOpenRecords {
				b.Fatalf("replayed %d records, want %d", s.Len(), benchOpenRecords)
			}
			s.Close()
		}
	})
}

// benchFill writes n records under distinct keys to a fresh store.
func benchFill(b *testing.B, n int) (*Store, []string) {
	b.Helper()
	s, err := Open(filepath.Join(b.TempDir(), "s"))
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = Digest("bench", i)
		if err := s.Put(keys[i], newBenchValue(i)); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}
