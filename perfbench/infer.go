package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"celeste"
	"celeste/internal/catserve"
	"celeste/internal/core"
	"celeste/internal/cyclades"
	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/partition"
	"celeste/internal/pgas"
	"celeste/internal/rng"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// inferLimits bounds the accuracy of each inference workload's catalogs,
// pooled over the run's fitted sources, from the healthy values measured
// (see the package documentation).
var inferLimits = map[string]accuracyLimits{
	wlScene: {pos: 0.09, dmag: 0.09, farPos: 0.2, farDmag: 0.25},
	wlSpawn: {pos: 0.09, dmag: 0.075, farPos: 0.05, farDmag: 0.3},
}

// spanSumTolerance bounds the share of a wall time that the measured parts
// may leave unexplained.
const spanSumTolerance = 0.05

// inferCfg is the run configuration of an inference workload.
func inferCfg(sp sceneSpec, procs, threads int, seed uint64) celeste.InferConfig {
	return celeste.InferConfig{TargetWork: sp.TargetWork, Threads: threads, PatchThreads: 1,
		Processes: procs, Rounds: sp.Rounds, MaxIter: sp.MaxIter, Seed: seed}
}

// coreCfg mirrors the core.Config InferWithOptions builds from c.
func coreCfg(c celeste.InferConfig) core.Config {
	return core.Config{Threads: c.Threads, PatchThreads: c.PatchThreads, Rounds: c.Rounds,
		Processes: c.Processes, Seed: c.Seed, Fit: vi.Options{MaxIter: c.MaxIter}}
}

// catalogBytes is the byte form catalogs are compared in.
func catalogBytes(cat []model.CatalogEntry) []byte {
	b, _ := json.Marshal(cat) // entries are plain numbers: cannot fail
	return b
}

// fittedSources lists the catalog indices some task optimizes.
func fittedSources(tasks []partition.Task) []int {
	seen := map[int]bool{}
	var out []int
	for _, t := range tasks {
		for _, s := range t.Sources {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Ints(out)
	return out
}

// scoreInfer scores one catalog against truth over the fitted sources and
// records the figures as a detail.
func scoreInfer(truth, cat []model.CatalogEntry, tasks []partition.Task, pixScale float64,
	rep *report) (srcErrors, error) {

	errs, err := sourceErrors(truth, func(i int) (model.CatalogEntry, bool) {
		return cat[i], i < len(cat)
	}, fittedSources(tasks), pixScale)
	if err == nil {
		rep.detail("catalog accuracy: %s", errs.summary())
	}
	return errs, err
}

// warmUp fits one source so code is paged in and scratch pools exist
// before anything is timed.
func warmUp(sv *survey.Survey, init []model.CatalogEntry, sp sceneSpec) {
	priors := model.FitPriors(init)
	e := &init[len(init)/2]
	pb := elbo.NewProblem(&priors, sv.Images, e.Pos, core.InfluenceRadiusPx(e, sv.Config.PixScale))
	vi.FitWith(pb, model.InitialParams(e), vi.Options{MaxIter: sp.MaxIter}, vi.NewScratch())
}

// runInferScene is the infer_scene workload: full in-process
// InferWithOptions runs over a fixed multi-epoch scene, one task rank,
// Threads = nproc, with the catalog streamed into a live store as
// `celeste -query` does, and each finished catalog served over HTTP. Run i
// starts from the seed's i-th preexisting catalog, so a run's medians pool
// several inputs on the same sky.
func runInferScene(e *env, rep *report) error {
	sp := sceneSpecs[wlScene]
	var sv *survey.Survey
	var init []model.CatalogEntry
	setups := make([]float64, setupRepeats)
	for i := range setups {
		setups[i] = timed(func() {
			sv, init = sp.generate(e.seed)
			warmUp(sv, init, sp)
		})
	}
	rep.metrics["setup_s"] = rep.dist("setup_s", "s", setups)
	cfg := inferCfg(sp, 1, e.nproc, e.seed)
	pixScale := sv.Config.PixScale
	bounds := storeBounds(sv)

	var (
		walls, overheads []float64
		errs             srcErrors
		peakMB           float64
		last             *celeste.InferResult
		tr               *tracer
	)
	if e.trace {
		tr = newTracer()
	}
	draws := sp.draws(e.seconds)
	queries, targets := newQueryLog(inferServe), newTargetGen(e.seed, bounds, 0.1)
	for i := 0; i < draws; i++ {
		if i > 0 {
			init = initCatalog(sv, e.seed, i)
		}
		// Each run plans its Cyclades batches from its own seed, so a run's
		// median pools several plans: how well two threads share a batch
		// depends on the plan, and one plan per seed moved catalog_s by 10%
		// between seeds.
		cfg.Seed = initSeed(e.seed, i)
		st := catserve.NewStore(bounds, init, catserve.Options{})
		var res *celeste.InferResult
		var err error
		wall := timed(func() {
			res, err = celeste.InferWithOptions(sv, init, cfg, celeste.InferOptions{Catalog: st})
		})
		if err == nil {
			var de srcErrors
			de, err = scoreInfer(sv.Truth, res.Catalog, res.Tasks, pixScale, rep)
			errs.add(de)
		}
		rep.op(err)
		if res == nil {
			return err
		}
		walls = append(walls, wall)
		last = res
		if e.trace {
			// Traced pass: the same run replayed task by task through
			// ExecTask; its catalog must be byte-identical.
			d, err := replayScene(sv, init, res, coreCfg(cfg), wall, tr, rep)
			rep.op(err)
			overheads = append(overheads, d.Seconds()/wall-1)
			if i == 0 {
				kernelProbes(sv, init, res.Tasks, sp, e.nproc, e.nproc, rep)
				rep.metrics["elbo.visits"] = float64(res.Visits)
				rep.metrics["partition.ms"] = partitionMs(init, sv.Config.Region, sp.TargetWork)
			}
		}
		peakMB = max(peakMB, peakRSSMB())
		if err := serveInferCatalog(e, rep, queries, targets.next, inferServe.fixed/time.Duration(draws),
			st, res.Catalog, bounds); err != nil {
			return err
		}
		// Back-to-back queries allocate fast enough that the garbage
		// collector's pacing, not the inference, set the peak (18 to 20 MB
		// before serving, 53 to 78 MB after), so the serving is left out:
		// its memory goes back and the peak count restarts.
		debug.FreeOSMemory()
		rep.check(resetPeakRSS() == nil, "cannot restart the peak RSS count")
	}
	rep.metrics["rss_peak_mb"] = peakMB
	rep.metrics["catalog_s"] = rep.dist("catalog_s", "s", walls)
	rep.detail("catalog_s per run: %.4g", walls)
	errs.record(rep, "catalogs", inferLimits[wlScene])
	rep.detail("last run: fits %d, newton iters %d, visits %d, tasks %d", last.Fits, last.NewtonIters,
		last.Visits, len(last.Tasks))

	recordInferQueries(e, rep, queries, last.Catalog, bounds, tr)
	if e.trace {
		rep.metrics["trace.overhead_frac"] = median(overheads)
		return writeTrace(e, tr, rep)
	}
	return nil
}

// storeBounds is the live store's footprint: the survey region widened to
// hold the margin sources the scene also draws.
func storeBounds(sv *survey.Survey) geom.Box {
	return sv.Config.Region.Expand(40 * sv.Config.PixScale)
}

// serveInferCatalog serves one run's live store over HTTP, checks it
// answers with the run's catalog, and runs one window of q's queries, with
// targets from next, against it.
func serveInferCatalog(e *env, rep *report, q *queryLog, next func() string, window time.Duration,
	store *catserve.Store, cat []model.CatalogEntry, bounds geom.Box) error {

	ep, err := serve(store, e.nproc)
	if err != nil {
		return err
	}
	defer ep.close()
	pulled, err := ep.pullCatalog(bounds)
	rep.op(err)
	if err != nil {
		return err
	}
	for i := range cat {
		got, ok := pulled[cat[i].ID]
		rep.check(ok && bytes.Equal(catalogBytes([]model.CatalogEntry{got}), catalogBytes(cat[i:i+1])),
			"served entry %d differs from the run's catalog", cat[i].ID)
	}
	q.window(ep, next, window, e.trace)
	return nil
}

// recordInferQueries records the query metrics of an inference workload's
// windows and, in a traced run, the catserve layers on the last catalog.
func recordInferQueries(e *env, rep *report, q *queryLog, cat []model.CatalogEntry, bounds geom.Box,
	tr *tracer) {

	res := q.record(rep)
	if tr != nil {
		fresh := catserve.NewServer(catserve.NewStore(bounds, cat, catserve.Options{}))
		queryLayers(res, fresh, uniqueTargets(e.seed, bounds, 0.1, 64), tr, rep)
	}
}

// timedView wraps a PGAS view, timing and counting every batched access.
type timedView struct {
	v          pgas.View
	start, end time.Time
	bytes      int64
}

func (t *timedView) GetMulti(idx []int, out []float64) error {
	t.start = time.Now()
	err := t.v.GetMulti(idx, out)
	t.end = time.Now()
	t.bytes += int64(8 * len(out))
	return err
}

func (t *timedView) PutMulti(idx []int, vals []float64) error {
	t.start = time.Now()
	err := t.v.PutMulti(idx, vals)
	t.end = time.Now()
	return err
}

// replayScene re-executes the run's stages and tasks through
// core.Config.ExecTask over benchmark-owned PGAS arrays, recording
// run → stage → task → {pgas.get, sweep, pgas.put} spans. The catalog must
// be byte-identical to the measured run's, and the get, sweep and put spans
// must account for the replay's wall time. It returns that wall time.
func replayScene(sv *survey.Survey, init []model.CatalogEntry, run *celeste.InferResult, cfg core.Config,
	untracedWall float64, tr *tracer, rep *report) (time.Duration, error) {

	priors := model.FitPriors(init)
	t0 := time.Now()
	runID := tr.open("run", -1, t0)
	cur := pgas.New(len(init), model.ParamDim, 1)
	for i := range init {
		p := model.InitialParams(&init[i])
		cur.Put(0, i, p[:])
	}
	var getS, putS, sweepS float64
	var getBytes int64
	var taskS []float64
	for stage := 0; stage < 2; stage++ {
		stageID := tr.open("stage", runID, time.Now())
		prev, err := pgas.FromSnapshot(cur.Snapshot())
		if err != nil {
			return 0, err
		}
		for gi := range run.Tasks {
			task := &run.Tasks[gi]
			if task.Stage != stage {
				continue
			}
			in, out := &timedView{v: prev.View(0)}, &timedView{v: cur.View(0)}
			ts := time.Now()
			taskID := tr.open("task", stageID, ts)
			if _, err := cfg.ExecTask(sv, init, &priors, task, in, out); err != nil {
				return 0, err
			}
			te := time.Now()
			tr.close(taskID, te)
			taskS = append(taskS, te.Sub(ts).Seconds())
			if !in.start.IsZero() {
				tr.add("pgas.get", taskID, in.start, in.end)
				tr.add("sweep", taskID, in.end, out.start)
				tr.add("pgas.put", taskID, out.start, out.end)
				getS += in.end.Sub(in.start).Seconds()
				putS += out.end.Sub(out.start).Seconds()
				sweepS += out.start.Sub(in.end).Seconds()
				getBytes += in.bytes
			}
		}
		tr.close(stageID, time.Now())
	}
	cat := make([]model.CatalogEntry, len(init))
	buf := make([]float64, model.ParamDim)
	for i := range init {
		cur.Get(0, i, buf)
		var p model.Params
		copy(p[:], buf)
		c := p.Constrained()
		cat[i] = model.Summarize(init[i].ID, &c)
	}
	t1 := time.Now()
	tr.close(runID, t1)
	wall := t1.Sub(t0)

	// Parts add up to wall time: the leaves pgas.get, sweep and pgas.put
	// must account for the replay's wall time, leaving at most
	// spanSumTolerance of it as self time of the run, stage and task spans,
	// which no named part explains.
	spans := subtree(tr.snapshot(), runID)
	var leaves time.Duration
	for i, d := range selfTimes(spans) {
		if n := spans[i].Name; n == "pgas.get" || n == "sweep" || n == "pgas.put" {
			leaves += d
		}
	}
	unattributed := ratio((wall - leaves).Seconds(), wall.Seconds())
	rep.check(unattributed <= spanSumTolerance, "replay: get, sweep and put spans cover %v of wall %v (%.2f%% unattributed)",
		leaves, wall, 100*unattributed)
	rep.detail("replay: get+sweep+put self times %v of wall %v, %.3f%% unattributed (tolerance %g%%)",
		leaves, wall, 100*unattributed, 100*spanSumTolerance)

	var taskSum float64
	for _, s := range taskS {
		taskSum += s
	}
	rep.metrics["core.task_s.p50"] = rep.dist("core.task_s", "s", taskS)
	rep.metrics["core.task_s.max"] = quantile(taskS, 1)
	rep.metrics["core.sweep_s"] = sweepS
	rep.metrics["core.runtime_overhead_s"] = untracedWall - taskSum
	rep.metrics["pgas.get_s"], rep.metrics["pgas.put_s"] = getS, putS
	rep.metrics["pgas.get_bytes"] = float64(getBytes)
	if !bytes.Equal(catalogBytes(cat), catalogBytes(run.Catalog)) {
		return wall, fmt.Errorf("replay catalog differs from the untraced run's")
	}
	rep.detail("replay: catalog byte-identical to the untraced run (%d entries)", len(cat))
	return wall, nil
}

// kernelProbes runs the layers under a task on the scene's own sources and
// tasks: a vi.FitWith per fitted source, the three elbo.Problem tiers at
// each fit's optimum, the patch-parallel speed-up on the problem with the
// most patches, and cyclades.Planner over each task.
func kernelProbes(sv *survey.Survey, init []model.CatalogEntry, tasks []partition.Task, sp sceneSpec,
	nproc, threads int, rep *report) {

	priors := model.FitPriors(init)
	pixScale := sv.Config.PixScale
	vs := vi.NewScratch()
	es := elbo.NewScratch()
	var fitMs, iters, share, full, grad, val, fullNs, gradNs, valNs []float64
	var widest *elbo.Problem
	var widestTheta model.Params
	for _, s := range fittedSources(tasks) {
		pb := probeProblem(sv, init, s, &priors, pixScale)
		if len(pb.Patches) == 0 {
			continue
		}
		res := vi.FitWith(pb, model.InitialParams(&init[s]), vi.Options{MaxIter: sp.MaxIter}, vs)
		fitMs = append(fitMs, res.TotalSeconds*1e3)
		iters = append(iters, float64(res.Iters))
		share = append(share, ratio(res.EvalSeconds, res.TotalSeconds))
		full = append(full, float64(res.FullEvals))
		grad = append(grad, float64(res.GradEvals))
		val = append(val, float64(res.ValEvals))
		theta := res.Params
		fullNs = append(fullNs, tierNs(func() int64 { return pb.EvalInto(&theta, es).Visits }))
		gradNs = append(gradNs, tierNs(func() int64 { return pb.EvalGradInto(&theta, es).Visits }))
		valNs = append(valNs, tierNs(func() int64 { _, v := pb.EvalValueWith(&theta, es); return v }))
		if widest == nil || len(pb.Patches) > len(widest.Patches) {
			widest, widestTheta = pb, theta
		}
	}
	rep.metrics["vi.fit_ms"] = rep.dist("vi.fit_ms", "ms", fitMs)
	rep.metrics["vi.iters_per_fit"] = mean(iters)
	rep.metrics["vi.eval_share"] = mean(share)
	rep.metrics["opt.full_evals_per_fit"] = mean(full)
	rep.metrics["opt.grad_evals_per_fit"] = mean(grad)
	rep.metrics["opt.value_evals_per_fit"] = mean(val)
	rep.metrics["elbo.full_ns_per_visit"] = rep.dist("elbo.full_ns_per_visit", "ns", fullNs)
	rep.metrics["elbo.grad_ns_per_visit"] = rep.dist("elbo.grad_ns_per_visit", "ns", gradNs)
	rep.metrics["elbo.value_ns_per_visit"] = rep.dist("elbo.value_ns_per_visit", "ns", valNs)
	if widest != nil && nproc > 1 {
		serial := tierNs(func() int64 { return widest.EvalInto(&widestTheta, es).Visits })
		es.SetWorkers(nproc)
		par := tierNs(func() int64 { return widest.EvalInto(&widestTheta, es).Visits })
		es.SetWorkers(1)
		rep.metrics["elbo.par_speedup"] = ratio(serial, par)
		rep.detail("elbo.par_speedup: %d patches, %.1f ns/visit serial, %.1f with %d workers",
			len(widest.Patches), serial, par, nproc)
	}
	cycladesProbe(sv, init, tasks, threads, rep)
}

// probeProblem builds source s's fit problem the way a task does: its
// patches, with every overlapping source's light folded into the
// background at its initial parameters.
func probeProblem(sv *survey.Survey, init []model.CatalogEntry, s int, priors *model.Priors,
	pixScale float64) *elbo.Problem {

	r := core.InfluenceRadiusPx(&init[s], pixScale)
	pb := elbo.NewProblem(priors, sv.Images, init[s].Pos, r)
	for j := range init {
		if j == s {
			continue
		}
		reach := (r + core.InfluenceRadiusPx(&init[j], pixScale)) * pixScale
		if geom.Dist(init[s].Pos, init[j].Pos) < reach {
			p := model.InitialParams(&init[j])
			c := p.Constrained()
			pb.AddNeighbor(&c)
		}
	}
	return pb
}

// tierNs times repeated evaluations for at least 20 ms and returns the
// nanoseconds per pixel visit.
func tierNs(eval func() int64) float64 {
	var visits int64
	t0 := time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		visits += eval()
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(visits))
}

// cycladesProbe plans every task's sweep as core.Config.Process does:
// conflict graph, batches of 0.34 of the sources, LPT assignment over the
// workload's threads.
func cycladesProbe(sv *survey.Survey, init []model.CatalogEntry, tasks []partition.Task, threads int, rep *report) {
	var planMs, comps, busy []float64
	var pl cyclades.Planner
	var g cyclades.Graph
	for ti, t := range tasks {
		n := len(t.Sources)
		if n == 0 {
			continue
		}
		pos := make([]geom.Pt2, n)
		radii := make([]float64, n)
		for k, s := range t.Sources {
			p := model.InitialParams(&init[s])
			pos[k] = p.Constrained().Pos
			radii[k] = core.InfluenceRadiusPx(&init[s], sv.Config.PixScale) * sv.Config.PixScale
		}
		t0 := time.Now()
		pl.BuildConflictGraph(&g, pos, radii)
		batches := pl.Plan(&g, rng.New(uint64(ti)), max(1, int(0.34*float64(n))))
		for bi := range batches {
			queues := pl.Assign(&batches[bi], threads)
			used := 0
			for _, q := range queues {
				if len(q) > 0 {
					used++
				}
			}
			comps = append(comps, float64(len(batches[bi].Components)))
			busy = append(busy, float64(used)/float64(threads))
		}
		planMs = append(planMs, float64(time.Since(t0))/1e6)
	}
	rep.metrics["cyclades.plan_ms"] = rep.dist("cyclades.plan_ms", "ms", planMs)
	rep.metrics["cyclades.components_per_batch"] = mean(comps)
	rep.metrics["cyclades.busy_threads_frac"] = mean(busy)
}

// partitionMs times the two-stage sky partition of the run's catalog.
func partitionMs(init []model.CatalogEntry, region geom.Box, targetWork float64) float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		ms = append(ms, timed(func() {
			partition.GenerateTwoStage(init, region, partition.Options{TargetWork: targetWork})
		})*1e3)
	}
	return median(ms)
}

// writeTrace writes the traced run's spans under .bench_build and prints
// their self times by span name.
func writeTrace(e *env, tr *tracer, rep *report) error {
	path := filepath.Join(filepath.Dir(e.work), "trace-"+e.workload+".tsv")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	self := selfByName(tr.snapshot())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.detail("self time %-14s %v", n, self[n])
	}
	rep.detail("spans written to %s", path)
	return nil
}
