package shrecd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// Fixed specs of the two job kinds and their job ids as literals. An id
// hashes the normalized spec at the campaignServer run lengths, and
// journaled jobs are re-adopted under it, so a change to either — or to
// the id scheme — shows up here.
const (
	wireCampaignSpec    = `{"machine":"shrec","benchmark":"crafty","trials":4,"seed":3}`
	wireCampaignID      = "5d4b30854556d7d9"
	wireExplorationSpec = `{"space":{"bases":["ss1","ss2"]},"seed":7}`
	wireExplorationID   = "94b2213d11d41806"
)

// topLevelKeys returns the keys of a JSON object in document order.
func topLevelKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// waitJobDone polls a job's status URL until it is done and returns the
// raw status body.
func waitJobDone(t *testing.T, h http.Handler, url string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		w := getRaw(t, h, url)
		var st struct{ State, Error string }
		if err := json.Unmarshal(w, &st); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
		switch st.State {
		case jobDone:
			return w
		case jobFailed:
			t.Fatalf("job %s failed: %s", url, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getRaw fetches a path that must answer 200 and returns its body.
func getRaw(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	var raw json.RawMessage
	if code := getJSON(t, h, path, &raw); code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, code)
	}
	return raw
}

// TestJobWireIdentity pins the asynchronous-job wire of both kinds: job
// ids for fixed specs, the 202 body, the status keys in order (frontier
// only for an exploration), the list keys, and the kind label values on
// /metrics.
func TestJobWireIdentity(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()
	for _, tc := range []struct {
		prefix, spec, id, kind string
		keys                   []string
	}{
		{"/campaigns", wireCampaignSpec, wireCampaignID, "campaign",
			[]string{"id", "state", "spec", "progress", "phases", "report", "started_at", "elapsed_s"}},
		{"/explorations", wireExplorationSpec, wireExplorationID, "exploration",
			[]string{"id", "state", "spec", "progress", "phases", "frontier", "report", "started_at", "elapsed_s"}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			w := postJSON(t, h, tc.prefix, tc.spec)
			if w.Code != http.StatusAccepted {
				t.Fatalf("POST %s = %d: %s", tc.prefix, w.Code, w.Body.String())
			}
			var started struct{ ID, State, URL string }
			if err := json.Unmarshal(w.Body.Bytes(), &started); err != nil {
				t.Fatal(err)
			}
			if got, want := topLevelKeys(t, w.Body.Bytes()), []string{"id", "state", "url"}; !slices.Equal(got, want) {
				t.Fatalf("202 keys = %q, want %q", got, want)
			}
			if started.ID != tc.id || started.URL != tc.prefix+"/"+tc.id {
				t.Fatalf("started %+v, want id %s", started, tc.id)
			}
			status := waitJobDone(t, h, started.URL)
			if got := topLevelKeys(t, status); !slices.Equal(got, tc.keys) {
				t.Fatalf("status keys = %q, want %q", got, tc.keys)
			}
			got := topLevelKeys(t, getRaw(t, h, tc.prefix))
			slices.Sort(got)
			want := []string{strings.TrimPrefix(tc.prefix, "/"), "count"}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("list keys = %q, want %q", got, want)
			}
			if want := `shrecd_jobs_total{kind="` + tc.kind + `",outcome="done"} 1`; !strings.Contains(metricsText(t, s), want) {
				t.Fatalf("metrics lack %q", want)
			}
		})
	}
}

// TestReplayJournalEntryFormat pins the journal format: pending entries
// of both kinds, stored byte for byte in the v1 shape under their v1
// keys, are re-adopted, finished, and settled under the same keys.
func TestReplayJournalEntryFormat(t *testing.T) {
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	_, js := openJournalStores(t, t.TempDir())
	entries := map[string]string{
		"shrecd.journal.v1.campaign." + wireCampaignID: `{"kind":"campaign","id":"` + wireCampaignID + `",` +
			`"spec":{"machine":"SHREC","benchmark":"crafty","trials":4,"fault_rate":0.0001,"seed":3,` +
			`"warmup_instrs":2000,"measure_instrs":5000,"window_hi":5000},"state":"pending"}`,
		"shrecd.journal.v1.exploration." + wireExplorationID: `{"kind":"exploration","id":"` + wireExplorationID + `",` +
			`"spec":{"space":{"bases":["ss1","ss2"]},"strategy":"grid","benchmarks":["crafty"],"seed":7,` +
			`"warmup_instrs":2000,"measure_instrs":5000,"screen_div":8,"budget":2,"trials":24},"state":"pending"}`,
	}
	for key, raw := range entries {
		if err := js.Put(key, json.RawMessage(raw)); err != nil {
			t.Fatal(err)
		}
	}

	s := NewWith(Config{DefaultOptions: opt, Journal: js}, sim.NewSuite(opt))
	t.Cleanup(s.Close)
	if got := s.jobsReadopted.Load(); got != 2 {
		t.Fatalf("jobs_readopted = %d, want 2", got)
	}
	h := s.Handler()
	waitJobDone(t, h, "/campaigns/"+wireCampaignID)
	waitJobDone(t, h, "/explorations/"+wireExplorationID)
	for key := range entries {
		var e journalEntry
		if ok, err := js.Get(key, &e); err != nil || !ok || e.State != journalDone {
			t.Fatalf("journal entry %s: ok=%v err=%v state=%q", key, ok, err, e.State)
		}
	}
}
