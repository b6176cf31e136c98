package store

// Test-only access to internals: failpoints and framing helpers for the
// corruption-matrix and chaos tests.

// FailNextAppend arms a failpoint: the next append writes only n bytes
// of the record (a torn write) and reports an error.
func (s *Store) FailNextAppend(n int) {
	s.mu.Lock()
	s.testFail = n + 1
	s.mu.Unlock()
}

// ActiveSegment returns the path of the segment file currently receiving
// appends ("" before the first append).
func (s *Store) ActiveSegment() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.path
}

// EncodeRecord exposes the on-disk framing so tests can hand-craft
// segment files (duplicate keys across generations, bitrot targets).
func EncodeRecord(seq uint64, key string, value []byte) []byte {
	return encodeRecord(seq, key, value)
}

// SegName exposes segment-file naming for hand-crafted layouts.
func SegName(gen int) string { return segName(gen) }

// HeaderSize exposes the record header length for corruption targeting.
const HeaderSize = headerSize
