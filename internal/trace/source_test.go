package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestCaptureAndReplay(t *testing.T) {
	g := New(testProfile())
	rec, err := Capture(g, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 5000 || rec.WrongLen() != 1000 {
		t.Fatalf("lengths = %d/%d", rec.Len(), rec.WrongLen())
	}
	// Replay must reproduce the captured stream exactly.
	ref := New(testProfile())
	for i := 0; i < 5000; i++ {
		if got, want := rec.Next(), ref.Next(); got != want {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	// Wrap-around: the 5001st instruction is the first again.
	first := New(testProfile()).Next()
	if got := rec.Next(); got != first {
		t.Fatalf("wrap-around broken: %v vs %v", got, first)
	}
}

func TestCaptureRejectsEmpty(t *testing.T) {
	if _, err := Capture(New(testProfile()), 0, 0); err == nil {
		t.Fatal("empty capture accepted")
	}
}

func TestRecordingReset(t *testing.T) {
	rec, _ := Capture(New(testProfile()), 100, 10)
	a := rec.Next()
	rec.Next()
	rec.Reset()
	if got := rec.Next(); got != a {
		t.Fatal("Reset did not rewind")
	}
}

func TestRecordingNoWrongPathFallback(t *testing.T) {
	rec, _ := Capture(New(testProfile()), 10, 0)
	in := rec.NextWrongPath()
	if err := in.Validate(); err != nil {
		t.Fatalf("fallback instruction invalid: %v", err)
	}
	if in.Class.IsMem() || in.IsBranch() {
		t.Fatal("fallback must be a plain ALU op")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rec, err := Capture(New(testProfile()), 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(len(traceMagic) + 8 + (3000+500)*fullRecordBytes)
	if n != wantBytes || int64(buf.Len()) != wantBytes {
		t.Fatalf("wrote %d bytes, want %d", n, wantBytes)
	}

	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rec.Len() || got.WrongLen() != rec.WrongLen() {
		t.Fatal("lengths changed in round trip")
	}
	for i := 0; i < rec.Len(); i++ {
		a, b := rec.Next(), got.Next()
		if a != b {
			t.Fatalf("record %d changed in round trip:\n%v\n%v", i, a, b)
		}
	}
	for i := 0; i < rec.WrongLen(); i++ {
		if rec.NextWrongPath() != got.NextWrongPath() {
			t.Fatalf("wrong-path record %d changed in round trip", i)
		}
	}
}

func TestRecordFieldFidelity(t *testing.T) {
	// Every field, including branch metadata, must survive the 29-byte
	// record encoding.
	cases := []isa.Inst{
		{PC: 0xdeadbeef0, Class: isa.OpFDiv, Dest: 100, Src1: 7, Src2: isa.RegNone},
		{PC: 0x400000, Class: isa.OpLoad, Dest: 12, Src1: 13, Src2: isa.RegNone, Addr: 0x12345678},
		{PC: 0x400004, Class: isa.OpBranch, BranchKind: isa.BranchIndirect,
			Dest: isa.RegNone, Src1: 3, Src2: isa.RegNone, Taken: true, Target: 0x500000},
		{PC: 0x400008, Class: isa.OpBranch, BranchKind: isa.BranchCond,
			Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: false, Target: 0x40000c},
	}
	var buf [fullRecordBytes]byte
	for i, in := range cases {
		putRecord(buf[:], in)
		if got := getRecord(buf[:]); got != in {
			t.Errorf("case %d: %+v -> %+v", i, in, got)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadRecording(strings.NewReader("not a trace file at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadRecording(strings.NewReader("SHRECTR1")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Valid header, truncated body.
	rec, _ := Capture(New(testProfile()), 100, 0)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadRecording(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// A header may claim up to 2^30 records of each stream, but the reader
// allocates only as records arrive: a 16-byte input claiming the maximum
// fails at its end having allocated next to nothing.
func TestReadRecordingHugeHeaderAllocatesLittle(t *testing.T) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], 1<<30)
	binary.LittleEndian.PutUint32(hdr[4:], 1<<30)
	in := append([]byte(traceMagic), hdr[:]...)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := ReadRecording(bytes.NewReader(in)); err == nil {
		t.Fatal("a header without records was accepted")
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 16-byte trace allocated %d bytes", grew)
	}
}

// FuzzReadRecording: every input is either rejected or written back by
// WriteTo byte for byte.
func FuzzReadRecording(f *testing.F) {
	rec, err := Capture(New(testProfile()), 40, 8)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(traceMagic)+8+fullRecordBytes])
	f.Add(append(bytes.Clone(buf.Bytes()), 0))
	f.Add([]byte(traceMagic + "\xff\xff\xff\x3f\xff\xff\xff\x3f"))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := ReadRecording(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := r.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("round trip changed the trace:\n in:  %x\n out: %x", in, out.Bytes())
		}
	})
}
