package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
