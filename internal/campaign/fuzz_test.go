package campaign

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// FuzzCampaignNormalize feeds Normalize the JSON-decoded specs shrecd
// accepts from clients (POST /campaigns). It must never panic, an accepted
// spec must be a fixed point (shrecd identifies jobs by the normalized
// spec, so normalizing twice must name the same job), and the normalized
// spec must survive a JSON round trip unchanged.
func FuzzCampaignNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"machine":"shrec","benchmark":"crafty"}`,
		`{"machine":"MEEK@2","benchmark":"swim","trials":8,"fault_rate":1e-4,"seed":7}`,
		`{"machine":"shrec+ckpt256","benchmark":"gcc-166","recovery":"none"}`,
		`{"machine":"ss2+sc","benchmark":"crafty","recovery":"ckpt@64k+depth2+flush8+restore64"}`,
		`{"machine":"flex@512:on128","benchmark":"crafty","window_lo":100,"window_hi":4000,"max_cycles":9}`,
		`{"machine":"shrec","benchmark":"crafty","warmup_instrs":1,"measure_instrs":300}`,
		`{"machine":"shrec","benchmark":"crafty","fault_rate":-0,"trials":-1}`,
		`{"machine":"shrec+rate1e-3+ckpt4k","benchmark":"crafty","fault_rate":0.001}`,
	} {
		f.Add([]byte(seed))
	}
	def := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		ns, err := Normalize(spec, def)
		if err != nil {
			return
		}
		again, err := Normalize(ns, def)
		if err != nil {
			t.Fatalf("normalized spec %+v rejected: %v", ns, err)
		}
		if again != ns {
			t.Fatalf("Normalize is not idempotent:\n once  %+v\n twice %+v", ns, again)
		}
		b, err := json.Marshal(ns)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil || back != ns {
			t.Fatalf("normalized spec does not round-trip through JSON (%v):\n %+v\n %s\n %+v", err, ns, b, back)
		}
	})
}
