package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Trace file format: a serialized Tape, little endian.
//
//	magic   [8]byte  "SHRECTP1"
//	nameLen uint8    then the profile's name
//	n       uint32   instructions
//	nWords  uint32   entries of the words column
//	ops     n x uint32
//	words   nWords x uint64
//
// A file names its profile instead of carrying the generators a tape
// continues from: ReadTape regenerates them from the profile.
const tapeMagic = "SHRECTP1"

// WriteTo serializes the tape as a trace file. It returns the byte count
// written.
func (t *Tape) WriteTo(w io.Writer) (int64, error) {
	name := t.Profile().Name
	if len(name) > math.MaxUint8 || len(t.ops) > math.MaxUint32 || len(t.words) > math.MaxUint32 {
		return 0, fmt.Errorf("trace: a tape of %d instructions of %q does not fit a trace file", len(t.ops), name)
	}
	b := make([]byte, 0, len(tapeMagic)+1+len(name)+8+t.columnBytes())
	b = append(append(append(b, tapeMagic...), uint8(len(name))), name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.ops)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.words)))
	for _, op := range t.ops {
		b = binary.LittleEndian.AppendUint32(b, op)
	}
	for _, word := range t.words {
		b = binary.LittleEndian.AppendUint64(b, word)
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadTape reads a trace file written by WriteTo. lookup resolves the
// profile the file names. ReadTape regenerates that profile's stream as
// the file arrives and rejects the file at the first instruction or word
// that differs from it, on a word count that differs from the stream's,
// and on trailing bytes. The tape it returns is therefore the one
// BuildTape makes for the profile and length, and a Cursor over it
// continues exactly past its end. The header's counts size no
// allocation: the columns grow only as matching bytes arrive.
func ReadTape(r io.Reader, lookup func(string) (Profile, error)) (*Tape, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(tapeMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	switch magic := string(head[:len(tapeMagic)]); magic {
	case tapeMagic:
	case "SHRECTR1": // the 29-byte records of earlier versions
		return nil, fmt.Errorf("trace: a %s file holds records this version no longer reads; recapture it", magic)
	default:
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	nameLen := int(head[len(tapeMagic)])
	head = make([]byte, nameLen+8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	p, err := lookup(string(head[:nameLen]))
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	n, nWords := binary.LittleEndian.Uint32(head[nameLen:]), binary.LittleEndian.Uint32(head[nameLen+4:])
	differs := func(what string, i int) error {
		return fmt.Errorf("trace: %s %d differs from profile %s's stream; recapture the file", what, i, p.Name)
	}

	t, _ := BuildTape(context.Background(), p, 0) // the generators; n = 0 never checks ctx
	var buf [8]byte
	var next uint64
	for i := 0; i < int(n); i++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("trace: reading instruction %d: %w", i, err)
		}
		if next = t.push(t.end.Next(), next); binary.LittleEndian.Uint32(buf[:4]) != t.ops[i] {
			return nil, differs("instruction", i)
		}
	}
	if len(t.words) != int(nWords) {
		return nil, differs("word count", int(nWords))
	}
	for j, word := range t.words {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: reading word %d: %w", j, err)
		}
		if binary.LittleEndian.Uint64(buf[:]) != word {
			return nil, differs("word", j)
		}
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, errors.New("trace: trailing bytes after the words")
	} else if err != io.EOF {
		return nil, fmt.Errorf("trace: reading past the words: %w", err)
	}
	return t, nil
}
