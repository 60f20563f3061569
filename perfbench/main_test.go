package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json this package must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesReports(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark reports %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if l := layerMetrics[i]; m.Name != l.name || m.Unit != l.unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
}

// shortParams are small versions of each workload, keeping every layer
// and the shape of its schedule.
var shortParams = map[string]any{
	"report_grid": gridParams{Grids: 1},
	"large_n":     largeNParams{MaxInteractions: 1 << 14, Units: 2},
	"ingest":      serveParams{Hot: 8, Pattern: "h", OpsPerUnit: 128, Units: 3, SetupReps: 1},
	"serve_mixed": serveParams{Hot: 13, Cold: 128, LiveCap: 64, Pattern: "hhhchhhrhhhhhhhr", OpsPerUnit: 256,
		Units: 3, SetupReps: 1},
}

// exactCounts are the per-layer metrics that are counts of work the
// program did, fixed by the seed and the schedule; a later change that
// claims to reduce one may rest the claim on it only if it repeats.
// serve.wal.bytes_per_op is not among them: on serve_mixed, which cold
// instance the live cap evicts depends on how the two connections
// interleave, and evicted instances' snapshots differ in size.
var exactCounts = []string{
	"core.transmissions",
	"sweepd.fsyncs",
	"analysis.matching_groups",
	"serve.wal.fsyncs_per_batch",
	"serve.wal.renames",
	"serve.state_bytes",
	"serve.status.live",
	"serve.status.evicted",
}

func tracedRun(t *testing.T, w workload, seed uint64) map[string]metric {
	t.Helper()
	var c checks
	e := &env{seed: seed, work: t.TempDir(), tr: newTracer()}
	out, err := w.run(e, shortParams[w.name], &c)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if c.failed != 0 || c.attempted == 0 {
		t.Fatalf("%s: %d of %d checks failed: %v", w.name, c.failed, c.attempted, c.failures)
	}
	if err := e.tr.write(t.TempDir(), &runConfig{Workload: w.name, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return fillLayers(out.metrics)
}

func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a := tracedRun(t, w, 7)
			b := tracedRun(t, w, 7)
			nonzero := 0
			for _, name := range exactCounts {
				if a[name] != b[name] {
					t.Errorf("%s: %v then %v under the same seed", name, a[name].Value, b[name].Value)
				}
				if a[name].Value != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Errorf("no exact count was recorded")
			}
		})
	}
}

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	xs := []float64{7, 1, 3, 5}
	// statistics.quantiles([1,3,5,7], n=4, method="inclusive") = [2.5, 4.0, 5.5]
	for _, c := range []struct{ q, want float64 }{{0.25, 2.5}, {0.5, 4}, {0.75, 5.5}, {0, 1}, {1, 7}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{7, 1, 3, 5}) {
		t.Errorf("quantile modified its input: %v", xs)
	}
}
