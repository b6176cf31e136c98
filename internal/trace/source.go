package trace

import "repro/internal/isa"

// Source supplies the two instruction streams the pipeline consumes: the
// committed (correct-path) stream and the synthetic wrong-path stream
// fetched past mispredicted branches. Generator produces them; a Tape's
// Cursor replays a stored prefix of the correct-path stream and continues
// on the generator past it.
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
