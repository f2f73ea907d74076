package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlScene   = "infer_scene"
	wlSpawn   = "infer_spawn2"
	wlCatalog = "catserve_http"
)

var allWorkloads = []string{wlScene, wlSpawn, wlCatalog}

// metricDef describes one reported metric. End-to-end metrics carry the
// bound BENCHMARK.json fixes; per-layer metrics carry the end-to-end metric
// they should move and the workloads whose traced run exercises the layer.
// On a workload outside that list the layer is not on the path and the
// traced run reports 0.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string   // per-layer only: the end-to-end metric it should move
	On     []string // per-layer only: workloads that exercise the layer
}

var (
	inferBoth   = []string{wlScene, wlSpawn}
	sceneOnly   = []string{wlScene}
	spawnOnly   = []string{wlSpawn}
	catalogOnly = []string{wlCatalog}
	everyWL     = allWorkloads
)

// endToEnd lists the metrics a user sees, reported from untraced runs on
// every workload (see the package documentation for what each means on
// catserve_http and on the inference workloads).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "catalog_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pos_err_px", Unit: "px", Better: "lower", Bound: 0.25},
	{Name: "dmag_abs", Unit: "mag", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced-run metrics, named by module, with the
// end-to-end metric each should move and the workloads it is measured on.
var perLayer = []metricDef{
	{Name: "elbo.full_ns_per_visit", Unit: "ns", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "elbo.grad_ns_per_visit", Unit: "ns", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "elbo.value_ns_per_visit", Unit: "ns", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "elbo.visits", Unit: "count", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "elbo.par_speedup", Unit: "x", Better: "higher", Moves: "catalog_s", On: sceneOnly},
	{Name: "vi.fit_ms", Unit: "ms", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "vi.iters_per_fit", Unit: "count", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "vi.eval_share", Unit: "frac", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "opt.full_evals_per_fit", Unit: "count", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "opt.grad_evals_per_fit", Unit: "count", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "opt.value_evals_per_fit", Unit: "count", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "cyclades.plan_ms", Unit: "ms", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "cyclades.components_per_batch", Unit: "count", Better: "higher", Moves: "catalog_s", On: inferBoth},
	{Name: "cyclades.busy_threads_frac", Unit: "frac", Better: "higher", Moves: "catalog_s", On: inferBoth},
	{Name: "core.task_s.p50", Unit: "s", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "core.task_s.max", Unit: "s", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "core.sweep_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: sceneOnly},
	{Name: "core.runtime_overhead_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: sceneOnly},
	{Name: "pgas.get_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "pgas.put_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "pgas.get_bytes", Unit: "bytes", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "net.msgs", Unit: "count", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "net.bytes_c2w", Unit: "bytes", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "net.bytes_w2c", Unit: "bytes", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "net.get_rtt_ms.p50", Unit: "ms", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "net.get_rtt_ms.p99", Unit: "ms", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "net.put_rtt_ms.p50", Unit: "ms", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "net.handshake_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "dtree.next_wait_ms.p50", Unit: "ms", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "dtree.next_wait_ms.p99", Unit: "ms", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "dtree.steals", Unit: "count", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "dtree.waits", Unit: "count", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "core.rank_busy_frac", Unit: "frac", Better: "higher", Moves: "catalog_s", On: spawnOnly},
	{Name: "core.tail_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "imageio.load_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "imageio.checkpoint_ms.p50", Unit: "ms", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "imageio.checkpoint_bytes", Unit: "bytes", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "core.runhash_s", Unit: "s", Better: "lower", Moves: "catalog_s", On: spawnOnly},
	{Name: "partition.ms", Unit: "ms", Better: "lower", Moves: "catalog_s", On: inferBoth},
	{Name: "catserve.query_cold_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: everyWL},
	{Name: "catserve.query_hit_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: everyWL},
	{Name: "catserve.cache_hit_frac", Unit: "frac", Better: "higher", Moves: "query_p50_ms", On: everyWL},
	{Name: "catserve.resp_bytes_mean", Unit: "bytes", Better: "lower", Moves: "query_p50_ms", On: everyWL},
	{Name: "catserve.http_overhead_us", Unit: "us", Better: "lower", Moves: "query_p50_ms", On: everyWL},
	{Name: "catserve.apply_ms.p50", Unit: "ms", Better: "lower", Moves: "query_p50_ms", On: catalogOnly},
	{Name: "catserve.apply_ms.p99", Unit: "ms", Better: "lower", Moves: "query_p50_ms", On: catalogOnly},
	{Name: "gen.late_ms.p99", Unit: "ms", Better: "lower", Moves: "query_p50_ms", On: catalogOnly},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Moves: "catalog_s", On: everyWL},
}

// validMetricName reports whether name uses only [A-Za-z0-9_.-] and starts
// with a letter or digit.
func validMetricName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '_' || c == '.' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest of the standard tail percentiles that
// has at least ten samples beyond it, or 0 when the sample is too small for
// any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10-1e-9 { // tolerate rounding in 1-p/100
			return p
		}
	}
	return 0
}

// describe formats a sample as its median, its highest percentile with ten
// samples beyond it, and the sample count.
func describe(name, unit string, xs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: median %.6g %s", name, median(xs), unit)
	if p := tailPercentile(len(xs)); p > 0 {
		fmt.Fprintf(&b, ", p%g %.6g %s", p, quantile(xs, p/100), unit)
	} else if len(xs) > 0 {
		fmt.Fprintf(&b, ", max %.6g %s (too few samples for a tail percentile)", quantile(xs, 1), unit)
	}
	fmt.Fprintf(&b, ", n=%d", len(xs))
	return b.String()
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
