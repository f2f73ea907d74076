package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestInputDigestPureFunctionOfSeed: every workload's generated input is a
// pure function of the workload seed.
func TestInputDigestPureFunctionOfSeed(t *testing.T) {
	for _, wl := range allWorkloads {
		a, b, c := inputDigest(wl, 1), inputDigest(wl, 1), inputDigest(wl, 2)
		if a != b {
			t.Errorf("%s: seed 1 digests differ: %s vs %s", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same input digest %s", wl, a)
		}
	}
}

// TestMetricNames: every metric name is [A-Za-z0-9_.-]+ and used once.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, bad := range []string{"", "a b", ".x", "p99%", "x/y"} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json lists exactly the
// workloads and metrics this program reports, and every per-layer metric
// names the end-to-end metric it should move and the workloads it is
// measured on.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wls, allWorkloads)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		e2e[m.Name] = true
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		if !e2e[d.Moves] {
			t.Errorf("per-layer %s should move %q, which is not an end-to-end metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("per-layer %s names no workload", d.Name)
		}
		for _, w := range d.On {
			if !slices.Contains(allWorkloads, w) {
				t.Errorf("per-layer %s names unknown workload %q", d.Name, w)
			}
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children are counted once, children are clipped to their
// parent, and grandchildren only reduce their own parent.
func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "run", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(60)},  // overlaps a
		{Name: "c", Parent: 1, Start: ms(15), End: ms(20)},  // inside a
		{Name: "d", Parent: 0, Start: ms(90), End: ms(120)}, // runs past run
		{Name: "e", Parent: 4, Start: ms(95), End: ms(125)}, // runs past d
	}
	want := []time.Duration{ms(40), ms(25), ms(30), ms(5), ms(5), ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfByName(append(spans, span{Name: "a", Parent: 0, Start: ms(70), End: ms(75)}))
	if byName["a"] != ms(30) || byName["run"] != ms(35) {
		t.Errorf("selfByName: a=%v run=%v, want 30ms and 35ms", byName["a"], byName["run"])
	}
	sub := subtree(spans, 1)
	if len(sub) != 2 || sub[0].Parent != -1 || sub[1].Parent != 0 || sub[1].Name != "c" {
		t.Errorf("subtree(a) = %+v", sub)
	}
}

// TestCheckLoadRefuses: a workload whose load exceeds the CPUs is refused
// before anything starts.
func TestCheckLoadRefuses(t *testing.T) {
	for _, wl := range allWorkloads {
		if err := checkLoad(wl, spawnWorkers); err != nil {
			t.Errorf("checkLoad(%s, nproc %d): %v", wl, spawnWorkers, err)
		}
	}
	if err := checkLoad(wlScene, 1); err != nil {
		t.Errorf("infer_scene refused on one CPU: %v", err)
	}
	if checkLoad(wlSpawn, spawnWorkers-1) == nil {
		t.Errorf("infer_spawn2 accepted with %d CPUs for %d workers", spawnWorkers-1, spawnWorkers)
	}
}

// TestQuantiles pins the order-statistic interpolation and the choice of
// tail percentile.
func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v, want 2", q)
	}
	if q := quantile(xs, 0.9); q < 4.6-1e-12 || q > 4.6+1e-12 {
		t.Errorf("q90 = %v, want 4.6", q)
	}
	for n, want := range map[int]float64{5: 0, 40: 75, 100: 90, 1000: 99, 20000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
