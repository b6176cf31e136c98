package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Source supplies the two instruction streams the pipeline consumes: the
// committed (correct-path) stream and the synthetic wrong-path stream
// fetched past mispredicted branches. Generator is the synthetic
// implementation; Recording replays captured traces.
type Source interface {
	// Next returns the next correct-path instruction.
	Next() isa.Inst
	// NextWrongPath returns the next wrong-path instruction.
	NextWrongPath() isa.Inst
}

// CloneSource is implemented by sources whose stream position can be
// snapshotted. Engine checkpoints require it: a checkpointed simulation
// resumes by continuing the clone exactly where the original stood.
type CloneSource interface {
	Source
	// CloneSource returns an independent source that continues this
	// source's streams from their current positions.
	CloneSource() Source
}

// Recording is a finite captured trace replayed as an infinite stream:
// when the end is reached, replay wraps to the beginning (introducing one
// control-flow discontinuity per lap, which the timing model tolerates —
// it simply looks like one more indirect jump).
type Recording struct {
	insts []isa.Inst
	wrong []isa.Inst
	pos   int
	wpos  int
}

// Capture records n correct-path and nWrong wrong-path instructions from
// src. n must be positive; nWrong may be zero only if the replay will run
// on a machine without branch prediction misses (in practice pass a few
// thousand).
func Capture(src Source, n, nWrong int) (*Recording, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: capture length %d must be positive", n)
	}
	r := &Recording{
		insts: make([]isa.Inst, n),
		wrong: make([]isa.Inst, nWrong),
	}
	for i := range r.insts {
		r.insts[i] = src.Next()
	}
	for i := range r.wrong {
		r.wrong[i] = src.NextWrongPath()
	}
	return r, nil
}

// Len returns the number of captured correct-path instructions.
func (r *Recording) Len() int { return len(r.insts) }

// WrongLen returns the number of captured wrong-path instructions.
func (r *Recording) WrongLen() int { return len(r.wrong) }

// Next implements Source by cyclic replay.
func (r *Recording) Next() isa.Inst {
	in := r.insts[r.pos]
	r.pos++
	if r.pos == len(r.insts) {
		r.pos = 0
	}
	return in
}

// NextWrongPath implements Source by cyclic replay of the wrong-path
// stream. With no captured wrong path it falls back to a harmless NOP-like
// ALU instruction so replay cannot crash mid-run.
func (r *Recording) NextWrongPath() isa.Inst {
	if len(r.wrong) == 0 {
		return isa.Inst{Class: isa.OpIALU, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	}
	in := r.wrong[r.wpos]
	r.wpos++
	if r.wpos == len(r.wrong) {
		r.wpos = 0
	}
	return in
}

// Reset rewinds replay to the beginning of both streams.
func (r *Recording) Reset() { r.pos, r.wpos = 0, 0 }

// CloneSource returns a replay that continues from the current positions.
// The captured instruction slices are immutable and shared.
func (r *Recording) CloneSource() Source {
	c := *r
	return &c
}

// Trace file format: a fixed header followed by fixed-width records.
//
//	magic   [8]byte  "SHRECTR1"
//	n       uint32   correct-path record count
//	nWrong  uint32   wrong-path record count
//	records (n + nWrong) x 29 bytes, little endian:
//	  PC uint64 | Addr uint64 | Target uint64 |
//	  Class uint8 | Dest int8 | Src1 int8 | Src2 int8 |
//	  flags uint8 (bit 0: taken; bits 1-2: branch kind)
const traceMagic = "SHRECTR1"

func putRecord(buf []byte, in isa.Inst) {
	binary.LittleEndian.PutUint64(buf[0:], in.PC)
	binary.LittleEndian.PutUint64(buf[8:], in.Addr)
	binary.LittleEndian.PutUint64(buf[16:], in.Target)
	buf[24] = uint8(in.Class)
	buf[25] = uint8(in.Dest)
	buf[26] = uint8(in.Src1)
	buf[27] = uint8(in.Src2)
	var flags uint8
	if in.Taken {
		flags |= 1
	}
	flags |= uint8(in.BranchKind) << 1
	buf[28] = flags
}

func getRecord(buf []byte) isa.Inst {
	var in isa.Inst
	in.PC = binary.LittleEndian.Uint64(buf[0:])
	in.Addr = binary.LittleEndian.Uint64(buf[8:])
	in.Target = binary.LittleEndian.Uint64(buf[16:])
	in.Class = isa.OpClass(buf[24])
	in.Dest = int8(buf[25])
	in.Src1 = int8(buf[26])
	in.Src2 = int8(buf[27])
	in.Taken = buf[28]&1 != 0
	in.BranchKind = isa.BranchKind(buf[28] >> 1)
	return in
}

// fullRecordBytes is the on-disk record width (see format comment).
const fullRecordBytes = 29

// WriteTo serializes the recording. It returns the byte count written.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := bw.WriteString(traceMagic)
	total += int64(n)
	if err != nil {
		return total, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(r.insts)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(r.wrong)))
	n, err = bw.Write(hdr[:])
	total += int64(n)
	if err != nil {
		return total, err
	}
	var rec [fullRecordBytes]byte
	for _, stream := range [][]isa.Inst{r.insts, r.wrong} {
		for _, in := range stream {
			putRecord(rec[:], in)
			n, err = bw.Write(rec[:])
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, bw.Flush()
}

// ReadRecording deserializes a trace written by WriteTo, validating every
// record. It accepts exactly what WriteTo writes: trailing bytes after the
// last record are an error. The header's counts do not size any
// allocation up front; the streams grow as records arrive, so a short
// input that claims a huge trace fails at its end instead of allocating.
func ReadRecording(rd io.Reader) (*Recording, error) {
	br := bufio.NewReader(rd)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	nWrong := binary.LittleEndian.Uint32(hdr[4:])
	const sanity = 1 << 30
	if n == 0 || n > sanity || nWrong > sanity {
		return nil, fmt.Errorf("trace: implausible record counts %d/%d", n, nWrong)
	}
	r := &Recording{}
	var err error
	if r.insts, err = readRecords(br, n); err != nil {
		return nil, err
	}
	if r.wrong, err = readRecords(br, nWrong); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("trace: trailing bytes after %d records", uint64(n)+uint64(nWrong))
		}
		return nil, fmt.Errorf("trace: reading past the records: %w", err)
	}
	return r, nil
}

// readRecords reads n validated records.
func readRecords(br *bufio.Reader, n uint32) ([]isa.Inst, error) {
	var out []isa.Inst
	var rec [fullRecordBytes]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record: %w", err)
		}
		in := getRecord(rec[:])
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		out = append(out, in)
	}
	return out, nil
}
