package main

import (
	"encoding/json"
	"testing"
)

// A short run of every workload, untraced and traced: no op may fail, and the
// result line must carry every metric of the run's catalogue exactly once and
// nothing else. No timing is asserted.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			name := spec.name + "/untraced"
			if traced {
				name = spec.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := runOne(spec, 1, 0.5, traced, 1, t.TempDir(), "")
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
					t.Errorf("attempted %d, failed %d, correct %v: %v", rep.Attempted, rep.Failed, rep.Correct, rep.Failures)
				}
				if rep.Calls == 0 {
					t.Error("no timed call")
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
					if len(rep.Budget) == 0 {
						t.Error("traced run has no budget table")
					}
				}
				var line struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				raw := resultLine(rep)
				if err := json.Unmarshal([]byte(raw), &line); err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(raw), &keys); err != nil || len(keys) != 4 {
					t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(keys))
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
					t.Fatalf("result line lacks a key: %s", raw)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.name]
					if !ok || got.Value == nil || got.Unit != m.unit {
						t.Errorf("metric %s missing or in the wrong unit: %+v", m.name, got)
					}
				}
				inCatalogue := map[string]bool{}
				for _, m := range want {
					inCatalogue[m.name] = true
				}
				for k := range rep.Metrics {
					if !inCatalogue[k] {
						t.Errorf("run emitted %s, which its catalogue does not name", k)
					}
				}
				if !traced {
					for _, m := range want {
						if rep.Metrics[m.name] <= 0 {
							t.Errorf("end-to-end metric %s = %g, must be positive", m.name, rep.Metrics[m.name])
						}
					}
				}
			})
		}
	}
}

// The same seed must give the same checked outputs: the digest is how two
// runs are compared.
func TestDigestRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("two more runs of a workload")
	}
	spec, _ := specByName("predict_wire")
	var digests [3]string
	for i, seed := range []int64{1, 1, 2} {
		rep, err := runOne(spec, seed, 0.3, false, 1, t.TempDir(), "")
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = rep.Digest
	}
	if digests[0] != digests[1] {
		t.Errorf("seed 1 gave digests %s and %s", digests[0], digests[1])
	}
	if digests[0] == digests[2] {
		t.Errorf("seeds 1 and 2 gave the same digest %s", digests[0])
	}
}
