package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzDecodeRecord: decodeRecordAt never panics on any segment bytes and
// offset; every record it accepts re-encodes to exactly the bytes it was
// framed from; and it reports a torn tail only where the bytes at the
// offset start with the record magic, or a prefix of it.
func FuzzDecodeRecord(f *testing.F) {
	a := encodeRecord(1, "k", []byte(`{"name":"a","value":1}`))
	b := encodeRecord(1<<40, "", nil)
	seg := append(bytes.Clone(a), b...)
	f.Add(seg, 0)
	f.Add(seg, len(a))
	f.Add(seg[:len(seg)-3], len(a)) // torn tail
	f.Add(a[:2], 0)                 // cut off inside the magic
	f.Add([]byte("not a record at all"), 0)

	// A checksum-valid record whose payload is too short for its seq and
	// key-length fields.
	short := make([]byte, headerSize+4)
	binary.LittleEndian.PutUint32(short[0:], recMagic)
	binary.LittleEndian.PutUint32(short[4:], 4)
	binary.LittleEndian.PutUint32(short[8:], crc32.Checksum(short[headerSize:], crcTable))
	f.Add(short, 0)

	f.Fuzz(func(t *testing.T, data []byte, off int) {
		off = int(uint(off) % uint(len(data)+1))
		seq, key, value, size, ok, torn := decodeRecordAt(data, off)
		if ok && torn {
			t.Fatal("record reported both ok and torn")
		}
		if ok {
			if size < headerSize || off+size > len(data) {
				t.Fatalf("ok record of size %d at %d overruns %d bytes", size, off, len(data))
			}
			if got := encodeRecord(seq, key, value); !bytes.Equal(got, data[off:off+size]) {
				t.Fatalf("re-encoded record differs:\n in:  %x\n out: %x", data[off:off+size], got)
			}
		}
		if torn {
			var m [4]byte
			binary.LittleEndian.PutUint32(m[:], recMagic)
			rest := data[off:]
			if !bytes.HasPrefix(rest, m[:]) && !bytes.HasPrefix(m[:], rest) {
				t.Fatalf("torn reported at %d without the magic: %x", off, rest)
			}
		}
	})
}

// FuzzSegmentReplay writes arbitrary bytes as the one segment file of a
// fresh store. Opening it never panics or fails (loadSegments promises that
// no corruption class fails the open); a reopen serves the same keys and
// values; and a Put after the open, of a fresh key and of a key loaded
// from the file, survives another reopen without changing other keys, so
// the open left the file ending on a record boundary and the next
// sequence number above every loaded one. Put may refuse only when the
// file used up the sequence numbers.
func FuzzSegmentReplay(f *testing.F) {
	a := encodeRecord(1, "k", []byte(`{"name":"a","value":1}`))
	b := encodeRecord(2, "j", []byte(`{"name":"b","value":2}`))
	two := append(bytes.Clone(a), b...)
	f.Add(two)
	f.Add(two[:len(two)-5])                                   // torn tail
	f.Add(append(append(bytes.Clone(a), "bitrot!"...), b...)) // corrupt middle
	f.Add(append(bytes.Clone(a), encodeRecord(math.MaxUint64, "k", []byte(`{"name":"wrap"}`))...))
	f.Add(append(bytes.Clone(a), encodeRecord(maxSeq, "k", []byte(`{"name":"last"}`))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "s")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*Store, map[string]string) {
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("open failed: %v", err)
			}
			kv := make(map[string]string)
			s.Range(func(k string, v json.RawMessage) bool {
				kv[k] = string(v)
				return true
			})
			return s, kv
		}
		s, first := open()
		s.Close()
		s, second := open()
		if !maps.Equal(first, second) {
			t.Fatalf("reopen changed the store:\n first:  %q\n second: %q", first, second)
		}
		keys := []string{"fuzz-segment-replay-put"}
		if loaded := slices.Sorted(maps.Keys(second)); len(loaded) > 0 {
			keys = append(keys, loaded[0])
		}
		want := maps.Clone(second)
		for _, key := range keys {
			err := s.Put(key, payload{Name: "put", Value: 7})
			if errors.Is(err, errSeqExhausted) {
				s.Close()
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want[key] = `{"name":"put","value":7}`
		}
		s.Close()
		s, third := open()
		defer s.Close()
		if !maps.Equal(want, third) {
			t.Fatalf("the Puts after open did not survive a reopen as written:\n want: %q\n got:  %q", want, third)
		}
	})
}
