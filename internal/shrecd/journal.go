package shrecd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/store"
)

// errTableFull distinguishes "no slot for this job right now" (the
// journal entry stays pending and replays at the next startup) from
// permanent replay failures (the entry is marked failed).
var errTableFull = errors.New("job table full")

// The write-ahead job journal makes accepted work survive a crash:
// POST /campaigns and POST /explorations append the normalized spec to
// the journal store *before* the job starts (and before the 202 leaves
// the server), and the entry is only marked done/failed when the job
// finishes on purpose. A shrecd killed mid-job therefore leaves the
// entry pending, and the next startup replays the journal, re-adopts
// every pending job, and restarts it — every finished simulation is
// read back from the result store, so only the trials in flight at the
// kill are re-executed.
// That turns kill -9 into a bounded-lost-work event, exactly the
// checkpoint discipline the simulated machines use.
//
// The journal rides on the same segmented store format as results
// (open it with store.SyncAlways: a journal whose entries can be lost
// to a power cut is just a log). Entries are keyed by job id, so a
// resubmitted spec overwrites its own entry rather than growing the
// journal, and compaction prunes superseded states.

// Journal entry states.
const (
	journalPending = "pending"
	journalDone    = "done"
	journalFailed  = "failed"
)

// journalEntry is the stored shape of one accepted job.
type journalEntry struct {
	Kind  string          `json:"kind"` // "campaign" | "exploration"
	ID    string          `json:"id"`
	Spec  json.RawMessage `json:"spec"`
	State string          `json:"state"`
	Error string          `json:"error,omitempty"`
}

// journalKeyPrefix namespaces journal records; the version bumps if the
// entry schema ever changes shape incompatibly.
const journalKeyPrefix = "shrecd.journal.v1."

func journalKey(kind, id string) string { return journalKeyPrefix + kind + "." + id }

// jobJournal wraps the journal store. A nil receiver is a no-op
// journal, so the server code never branches on "journaling enabled".
type jobJournal struct {
	st *store.Store
}

func newJobJournal(st *store.Store) *jobJournal {
	if st == nil {
		return nil
	}
	return &jobJournal{st: st}
}

// record journals an accepted job as pending. Called before the job's
// goroutine starts: if this write fails the caller still runs the job
// (availability over durability), it just won't be resumed after a
// crash.
func (j *jobJournal) record(kind, id string, spec any) error {
	if j == nil {
		return nil
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("journal: encoding %s %s: %w", kind, id, err)
	}
	return j.st.Put(journalKey(kind, id), journalEntry{
		Kind: kind, ID: id, Spec: raw, State: journalPending,
	})
}

// finish marks a job's entry done or failed. The entry is kept (not
// deleted) so operators can audit outcomes; compaction keeps the
// superseded pending record from accumulating.
func (j *jobJournal) finish(kind, id string, jobErr error) {
	if j == nil {
		return
	}
	var e journalEntry
	ok, err := j.st.Get(journalKey(kind, id), &e)
	if err != nil || !ok {
		e = journalEntry{Kind: kind, ID: id}
	}
	if jobErr != nil {
		e.State = journalFailed
		e.Error = jobErr.Error()
	} else {
		e.State = journalDone
		e.Error = ""
	}
	_ = j.st.Put(journalKey(kind, id), e)
}

// pending returns every journaled job that never finished, in stable
// (store-range) order.
func (j *jobJournal) pending() []journalEntry {
	if j == nil {
		return nil
	}
	var out []journalEntry
	j.st.Range(func(key string, raw json.RawMessage) bool {
		if len(key) < len(journalKeyPrefix) || key[:len(journalKeyPrefix)] != journalKeyPrefix {
			return true
		}
		var e journalEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return true // a corrupt entry must never fail replay
		}
		if e.State == journalPending {
			out = append(out, e)
		}
		return true
	})
	return out
}

// depth counts pending entries (the /healthz journal depth).
func (j *jobJournal) depth() int {
	return len(j.pending())
}

// replayJournal re-adopts every pending journaled job at startup:
// decode its spec, re-reserve its slot in its kind's job table, and
// restart it through the normal run path (whose engines resume finished
// trials and points from the result store). Corrupt or undecodable
// entries are marked failed and skipped — replay must never prevent the
// server from coming up.
func (s *Server) replayJournal() {
	for _, e := range s.journal.pending() {
		s.journalReplayed.Add(1)
		err := fmt.Errorf("unknown journal kind %q", e.Kind)
		if k, ok := s.kinds[e.Kind]; ok {
			err = k.readopt(e)
		}
		if errors.Is(err, errTableFull) {
			s.log.Warn("journal replay deferred: job table full", "kind", e.Kind, "job_id", e.ID)
			continue // stays pending; replays at the next startup
		}
		if err != nil {
			// Journal the failure so the entry does not replay forever.
			s.log.Warn("journal replay failed", "kind", e.Kind, "job_id", e.ID, "error", err.Error())
			s.journal.finish(e.Kind, e.ID, fmt.Errorf("replay: %w", err))
			continue
		}
		s.log.Info("re-adopted journaled job", "kind", e.Kind, "job_id", e.ID)
		s.jobsReadopted.Add(1)
	}
}

// readopt restarts one journaled job of this kind.
func (k *jobKind[S, P, R]) readopt(e journalEntry) error {
	var spec S
	if err := json.Unmarshal(e.Spec, &spec); err != nil {
		return fmt.Errorf("decoding %s spec: %w", k.kind, err)
	}
	job, started, err := k.startOrJoin(e.ID, spec)
	if err != nil {
		return fmt.Errorf("%w: %v", errTableFull, err)
	}
	if started {
		go k.runJob(job)
	}
	return nil
}

// interrupted reports whether a job error means "the server is shutting
// down" rather than "the job failed": in that case the journal entry
// must stay pending so the next process re-adopts the job, mirroring
// what a kill -9 (which writes nothing at all) leaves behind.
func (s *Server) interrupted(err error) bool {
	return err != nil && errors.Is(err, context.Canceled) && s.baseCtx.Err() != nil
}
