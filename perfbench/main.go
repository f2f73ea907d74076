package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case workerArg:
			os.Exit(workerMain(os.Args[2:]))
		case coordArg:
			os.Exit(coordinatorMain(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// env is one benchmark invocation.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	nproc    int    // load threads and HTTP connections: one per CPU
	work     string // scratch directory inside the checkout
	out      io.Writer
}

// report collects one run's outcome: operation counts, the correctness
// verdict, end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs), and human-readable detail lines printed before the result.
type report struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	details           []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// op records one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// check records a correctness condition that is not an operation.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// dist records a sample's distribution as a detail line and returns its
// median.
func (r *report) dist(name, unit string, xs []float64) float64 {
	r.details = append(r.details, describe(name, unit, xs))
	return median(xs)
}

type workloadFunc func(*env, *report) error

var workloadFuncs = map[string]workloadFunc{
	wlScene:   runInferScene,
	wlSpawn:   runInferSpawn,
	wlCatalog: runCatserve,
}

// run parses the command line, runs one workload and prints the result as
// the last line of out. It returns the process exit code.
func run(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	seed := fl.Uint64("seed", 1, "workload seed: the generated inputs are a pure function of it")
	seconds := fl.Int("seconds", 25, "measured seconds")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
	nproc := runtime.NumCPU()
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadFuncs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	if err := checkLoad(*workload, nproc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: REFUSING TO START: %v\n", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: making scratch dir under .bench_build: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, nproc: nproc, work: work, out: out}

	// A run that overstays its exit deadline is broken: say so and stop.
	// The processes it started die with it (see selfCommand).
	watchdog := time.AfterFunc(e.seconds+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.RemoveAll(work)
		os.Exit(1)
	})
	defer watchdog.Stop()
	fmt.Fprintf(out, "provenance: %s\n", provenance(e))
	rep := newReport()
	t0 := readCPUTicks()
	if err := fn(e, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	t1 := readCPUTicks()
	stolen := ratio(t1.steal-t0.steal, t1.busy-t0.busy+t1.steal-t0.steal)
	rep.detail("host: hypervisor steal %.2f%% of CPU time during the run, %.2f%% of the time the CPUs ran",
		100*ratio(t1.steal-t0.steal, t1.total-t0.total), 100*stolen)
	for _, name := range stealAdjusted {
		if v, ok := rep.metrics[name]; ok {
			rep.metrics[name] = v * (1 - stolen)
			rep.detail("%s: %.6g s measured, %.6g s with the stolen share taken out", name, v, rep.metrics[name])
		}
	}
	return printResult(e, rep)
}

// stealAdjusted lists the metrics that are CPU-bound times. On a shared VM
// the hypervisor runs other guests on this one's CPUs for a share of the
// time they would have run here (from 0.1% to over 30% within one
// afternoon on the VM this benchmark was built on), and such a time grows
// by that share. Each is reported as measured times one minus the share of
// running CPU time stolen over the run, as /proc/stat counts it: the time
// the operation would have taken with its CPUs to itself. Query latency is
// not adjusted: it is mostly hand-offs, not CPU work.
var stealAdjusted = []string{"setup_s", "catalog_s"}

// checkLoad refuses load beyond the host's cores: with more load threads
// than CPUs the benchmark would measure the OS scheduler. Threads and HTTP
// connections are nproc on every workload; infer_spawn2 adds its fixed
// worker process count.
func checkLoad(workload string, nproc int) error {
	if workload == wlSpawn && spawnWorkers > nproc {
		return fmt.Errorf("%s runs %d worker processes but nproc is %d", workload, spawnWorkers, nproc)
	}
	return nil
}

// printResult prints the details and the one-line JSON result: end-to-end
// metrics for an untraced run, per-layer metrics for a traced one.
func printResult(e *env, rep *report) int {
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		switch {
		case !ok && !e.trace:
			rep.check(false, "end-to-end metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			rep.check(false, "metric %s is not finite", d.Name)
			v = 0
		case !e.trace && v == 0:
			rep.check(false, "end-to-end metric %s read 0", d.Name)
		}
		metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for _, d := range rep.details {
		fmt.Fprintln(e.out, d)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(e.out, "FAILED: %s\n", p)
	}
	attempted := max(rep.attempted, 1)
	fmt.Fprintf(e.out, "fail_frac: %.6g (%d of %d operations)\n", float64(rep.failed)/float64(attempted), rep.failed, attempted)
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(e.out, string(b))
	return 0
}

// provenance records what produced the numbers: host, toolchain, source
// revision and the workload seed.
func provenance(e *env) string {
	p := map[string]any{
		"workload":    e.workload,
		"seed":        e.seed,
		"trace":       e.trace,
		"seconds":     e.seconds.Seconds(),
		"nproc":       e.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"commit":      gitCommit(),
		"source_hash": sourceHash("."),
		"input":       inputDigest(e.workload, e.seed),
	}
	b, _ := json.Marshal(p) // strings and numbers only: cannot fail
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the checked-out revision, or "none" when the source
// tree is not a git work tree (source_hash identifies it then).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, skipping
// build output, so two checkouts of one revision hash alike.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks are the host's cumulative CPU ticks, summed over its CPUs.
type cpuTicks struct {
	busy  float64 // user, nice, system, irq and softirq: running
	steal float64 // runnable, but the hypervisor ran another guest
	total float64 // every state, idle included
}

// readCPUTicks reads the CPU ticks from /proc/stat (zeros where it is
// unavailable, which leaves every adjustment at 1).
func readCPUTicks() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v float64
		fmt.Sscan(f, &v)
		switch i {
		case 0, 1, 2, 5, 6:
			t.busy += v
		case 7:
			t.steal += v
		}
		if i < 8 { // guest time is already counted in user and nice
			t.total += v
		}
	}
	return t
}

// peakRSSMB returns this process's peak resident set, in MB, since it
// started or since resetPeakRSS last ran (0 where /proc is unavailable).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(v, &kb)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the count behind peakRSSMB at the current resident
// set (Linux's clear_refs).
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// childRSSMB returns a finished child's peak resident set in MB, from the
// rusage wait4 returned.
func childRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// selfCommand re-executes this binary with args, as a child the kernel
// kills when this process dies first, so no child outlives a run.
func selfCommand(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}
