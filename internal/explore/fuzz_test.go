package explore

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// FuzzExploreNormalize feeds Normalize the JSON-decoded specs shrecd
// accepts from clients (POST /explorations). It must never panic, an
// accepted spec must be a fixed point (shrecd identifies jobs by the
// normalized spec, so normalizing twice must name the same job), and the
// normalized spec must survive a JSON round trip unchanged.
func FuzzExploreNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"space":{"bases":["ss1","shrec"]}}`,
		`{"space":{"bases":["meek@2"],"checker_lanes":[1,2,4]},"strategy":"halving","seed":7}`,
		`{"space":{"bases":["shrec"],"contexts":[1,4],"xscales":[1,1.5],"fault_rates":[0,1e-4]},"strategy":"halving","budget":4,"trials":8}`,
		`{"space":{"bases":["flex@512:on128"],"region_duties":[0.25,0.5]},"benchmarks":["crafty","swim"],"warmup_instrs":1000,"measure_instrs":3000,"screen_div":4}`,
		`{"space":{"bases":["shrec"],"ckpt_intervals":[4096,65536],"ckpt_depths":[1,2],"fault_rates":[1e-4]}}`,
		`{"space":{"bases":["ss2+sc"],"mshrs":[8],"mem_ports":[2],"fu_scales":[0.5],"staggers":[0,4]},"budget":-1}`,
		`{"space":{"bases":["ss1"],"staggers":[]},"benchmarks":[]}`,
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
		if !reflect.DeepEqual(again, ns) {
			t.Fatalf("Normalize is not idempotent:\n once  %+v\n twice %+v", ns, again)
		}
		b, err := json.Marshal(ns)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, ns) {
			t.Fatalf("normalized spec does not round-trip through JSON (%v):\n %+v\n %s\n %+v", err, ns, b, back)
		}
	})
}
