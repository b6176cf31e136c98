package shrecd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkSimulateHit is the HTTP layer of a served cache hit: one
// POST /simulate for a primed key through the whole handler (access
// middleware, request decode, suite cache hit, response encode) into a
// recorder. No simulation runs inside the timed loop.
func BenchmarkSimulateHit(b *testing.B) {
	h := testServer().Handler()
	const body = `{"machine":"shrec","benchmark":"swim","warmup_instrs":1000,"measure_instrs":2000}`
	if w := postJSON(b, h, "/simulate", body); w.Code != http.StatusOK {
		b.Fatalf("priming: status = %d: %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", w.Code, w.Body)
		}
	}
}
