package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
)

// lookupTest resolves testProfile by name, as workload.ByName resolves the
// registered profiles.
func lookupTest(name string) (Profile, error) {
	if p := testProfile(); name == p.Name {
		return p, nil
	}
	return Profile{}, fmt.Errorf("unknown profile %q", name)
}

// writeTape builds testProfile's first n instructions and serializes them.
func writeTape(t testing.TB, n int) []byte {
	t.Helper()
	tape, err := BuildTape(context.Background(), testProfile(), n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tape.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A captured file replays the profile's streams, and a cursor over it
// continues exactly past the file's end on both paths.
func TestCaptureAndReplay(t *testing.T) {
	const n = 5000
	tape, err := ReadTape(bytes.NewReader(writeTape(t, n)), lookupTest)
	if err != nil {
		t.Fatal(err)
	}
	if tape.Len() != n || tape.Profile().Name != testProfile().Name {
		t.Fatalf("read %d instructions of %q", tape.Len(), tape.Profile().Name)
	}
	c, ref := tape.Cursor(), New(testProfile())
	for i := 0; i < n+3000; i++ {
		if got, want := c.Next(), ref.Next(); got != want {
			t.Fatalf("instruction %d: got %v, want %v", i, got, want)
		}
		if i%4 == 0 {
			if got, want := c.NextWrongPath(), ref.NextWrongPath(); got != want {
				t.Fatalf("wrong path at %d: got %v, want %v", i, got, want)
			}
		}
	}
}

// The file is the header and the tape's two columns, and reading it back
// writes the same bytes.
func TestSerializationRoundTrip(t *testing.T) {
	tape, err := BuildTape(context.Background(), testProfile(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tape.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(tapeMagic) + 1 + len(testProfile().Name) + 8 + tape.columnBytes())
	if n != want || int64(buf.Len()) != want {
		t.Fatalf("wrote %d bytes (reported %d), want %d", buf.Len(), n, want)
	}
	got, err := ReadTape(bytes.NewReader(buf.Bytes()), lookupTest)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := got.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("round trip changed the file")
	}
}

// Every field, including branch metadata, survives the tape's encoding.
func TestRecordFieldFidelity(t *testing.T) {
	cases := []isa.Inst{
		{PC: 0xdeadbeef0, Class: isa.OpFDiv, Dest: 100, Src1: 7, Src2: isa.RegNone},
		{PC: 0x400000, Class: isa.OpLoad, Dest: 12, Src1: 13, Src2: isa.RegNone, Addr: 0x12345678},
		{PC: 0x400004, Class: isa.OpBranch, BranchKind: isa.BranchIndirect,
			Dest: isa.RegNone, Src1: 3, Src2: isa.RegNone, Taken: true, Target: 0x500000},
		{PC: 0x500000, Class: isa.OpStore, Dest: isa.RegNone, Src1: 1, Src2: 2, Addr: 0x8},
		{PC: 0x400008, Class: isa.OpBranch, BranchKind: isa.BranchCond,
			Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: false, Target: 0x40000c},
		{PC: 0x40000c, Class: isa.OpIALU, Dest: 0, Src1: isa.RegNone, Src2: isa.RegNone},
	}
	tape := &Tape{}
	var next uint64
	for _, in := range cases {
		next = tape.push(in, next)
	}
	c := &Cursor{t: tape}
	for i, in := range cases {
		if got := c.Next(); got != in {
			t.Errorf("case %d: %+v -> %+v", i, in, got)
		}
	}
}

// A reader rejects every file that is not exactly a prefix of its
// profile's stream, and tells the user to recapture a stale one.
func TestReadRejectsGarbage(t *testing.T) {
	good := writeTape(t, 100)
	hdr := len(tapeMagic) + 1 + len(testProfile().Name) + 8
	flip := func(off int) []byte {
		b := bytes.Clone(good)
		b[off] ^= 0x10
		return b
	}
	renamed := bytes.Clone(good)
	renamed[len(tapeMagic)+1] = 'b' // "test" -> "best"
	for _, c := range []struct {
		name, in, want string
	}{
		{"garbage", "not a trace file at all", "bad magic"},
		{"old format", "SHRECTR1" + string(make([]byte, 8+29)), "recapture"},
		{"truncated header", tapeMagic + "\x04te", "reading header"},
		{"unknown profile", string(renamed), "unknown profile"},
		{"truncated ops", string(good[:hdr+10]), "reading instruction"},
		{"truncated words", string(good[:len(good)-5]), "reading word"},
		{"flipped op", string(flip(hdr + 4*37 + 1)), "instruction 37 differs"},
		{"flipped word", string(flip(len(good) - 8*3)), "differs from profile test's stream; recapture"},
		{"word count", string(flip(hdr - 4)), "word count"},
		{"trailing byte", string(good) + "\x00", "trailing bytes"},
	} {
		_, err := ReadTape(strings.NewReader(c.in), lookupTest)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// A header may claim 2^32-1 instructions and words, but the reader
// allocates only as matching bytes arrive: a header-only input fails at
// its end having allocated little more than the profile's generators.
func TestReadTapeHugeHeaderAllocatesLittle(t *testing.T) {
	in := []byte(tapeMagic)
	in = append(in, uint8(len(testProfile().Name)))
	in = append(in, testProfile().Name...)
	in = binary.LittleEndian.AppendUint32(in, 1<<32-1)
	in = binary.LittleEndian.AppendUint32(in, 1<<32-1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := ReadTape(bytes.NewReader(in), lookupTest); err == nil {
		t.Fatal("a header without instructions was accepted")
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a %d-byte trace allocated %d bytes", len(in), grew)
	}
}

// FuzzReadTape: every input is either rejected or written back by WriteTo
// byte for byte.
func FuzzReadTape(f *testing.F) {
	good := writeTape(f, 40)
	hdr := len(tapeMagic) + 1 + len(testProfile().Name) + 8
	f.Add(good)
	f.Add(good[:hdr+4])
	f.Add(append(bytes.Clone(good), 0))
	f.Add(append([]byte(tapeMagic+"\x04test"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, in []byte) {
		tape, err := ReadTape(bytes.NewReader(in), lookupTest)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tape.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("round trip changed the trace:\n in:  %x\n out: %x", in, out.Bytes())
		}
	})
}
