package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"celeste"
	"celeste/internal/catserve"
	"celeste/internal/core"
	"celeste/internal/imageio"
	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/survey"
)

// workerArg and coordArg, as the first argument, turn the benchmark binary
// into one TCP worker process or the coordinator process, the way
// `celeste -spawn` re-executes itself.
const (
	workerArg = "__perfbench_worker"
	coordArg  = "__perfbench_coordinator"
)

// spawnWorkers is the infer_spawn2 worker process count.
const spawnWorkers = 2

// iterationLimit bounds one spawned run; a run past it is killed and
// counted as failed, so a hung process cannot hold the benchmark past its
// exit deadline.
const iterationLimit = 60 * time.Second

// workerMain loads the sky directory and serves the coordinator at addr
// until the run ends, then prints its sky-load and run wall times.
func workerMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench "+workerArg+" <coordinator-addr> <sky-dir>")
		return 2
	}
	t0 := time.Now()
	sv, init, err := loadSkyDir(args[1])
	load := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: loading sky: %v\n", err)
		return 1
	}
	t1 := time.Now()
	err = celeste.RunWorker(args[0], sv, init, celeste.WorkerOptions{Threads: 1, PatchThreads: 1})
	fmt.Printf("worker-times %.9f %.9f\n", load.Seconds(), time.Since(t1).Seconds())
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		return 1
	}
	return 0
}

// coordinatorMain is the coordinator of one infer_spawn2 run, as
// `celeste -spawn -checkpoint -query` runs it: it loads the sky directory,
// prints the address it listens on, serves the run with a checkpoint on every
// commit and the live catalog store, checks the store ended holding the
// catalog, and writes the catalog. With timing set it also prints each
// checkpoint save's milliseconds and bytes.
func coordinatorMain(args []string) int {
	if len(args) != 5 {
		fmt.Fprintln(os.Stderr, "usage: perfbench "+coordArg+" <sky-dir> <checkpoint> <catalog-out> <seed> <timing 0|1>")
		return 2
	}
	sky, ckpt, catPath, timing := args[0], args[1], args[2], args[4] == "1"
	seed, err := strconv.ParseUint(args[3], 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coordinator: seed: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "coordinator: %v\n", err)
		return 1
	}
	sv, init, err := loadSkyDir(sky)
	if err != nil {
		return fail(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	fmt.Printf("listen %s\n", l.Addr())
	bounds := storeBounds(sv)
	store := catserve.NewStore(bounds, init, catserve.Options{})
	var saves []string
	opts := celeste.InferOptions{
		Transport:       &celeste.Transport{Listener: l},
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *celeste.Checkpoint) error {
			t := time.Now()
			if err := imageio.SaveCheckpoint(ckpt, ck); err != nil {
				return err
			}
			if timing {
				fi, err := os.Stat(ckpt)
				if err != nil {
					return err
				}
				saves = append(saves, fmt.Sprintf("checkpoint %.6f %d", float64(time.Since(t))/1e6, fi.Size()))
			}
			return nil
		},
		Catalog: store,
	}
	res, err := celeste.InferWithOptions(sv, init, inferCfg(sceneSpecs[wlSpawn], spawnWorkers, 1, seed), opts)
	if err != nil {
		return fail(err)
	}
	live := map[int]model.CatalogEntry{}
	for _, en := range store.Snapshot().Box(bounds) {
		live[en.ID] = en
	}
	for i := range res.Catalog {
		en, ok := live[res.Catalog[i].ID]
		if !ok || !bytes.Equal(catalogBytes([]model.CatalogEntry{en}), catalogBytes(res.Catalog[i:i+1])) {
			return fail(fmt.Errorf("live store entry %d differs from the final catalog", res.Catalog[i].ID))
		}
	}
	if err := imageio.WriteCatalog(catPath, res.Catalog); err != nil {
		return fail(err)
	}
	for _, s := range saves {
		fmt.Println(s)
	}
	return 0
}

// spawnRun is one measured -spawn run.
type spawnRun struct {
	catalog    []byte  // the catalog file the coordinator wrote
	wall       float64 // coordinator start to its exit with the catalog written
	rssMB      float64 // coordinator plus workers, peak
	coordRSSMB float64 // the coordinator's share
	loadS      []float64
	workWallS  []float64
	ckptMs     []float64
	ckptBytes  []float64
}

// runSpawned runs one -spawn deployment from the sky directory: a
// coordinator process and the workers, which dial the relay instead when
// one is set. The benchmark process only launches and waits for them, so
// wait4 rusage gives their peak RSS.
func runSpawned(e *env, sky string, seed uint64, rl *relay) (*spawnRun, error) {
	catPath := filepath.Join(e.work, "catalog.jsonl")
	timing := "0"
	if rl != nil {
		timing = "1"
	}
	t0 := time.Now()
	coord, err := selfCommand(coordArg, sky, filepath.Join(e.work, "run.ckpt"), catPath,
		strconv.FormatUint(seed, 10), timing)
	if err != nil {
		return nil, err
	}
	coord.Stderr = os.Stderr
	stdout, err := coord.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := coord.Start(); err != nil {
		return nil, fmt.Errorf("starting the coordinator: %w", err)
	}
	cmds := make([]*exec.Cmd, spawnWorkers)
	var mu sync.Mutex // orders the timer's reads of cmds after the starts
	timer := time.AfterFunc(iterationLimit, func() {
		mu.Lock()
		defer mu.Unlock()
		coord.Process.Kill()
		for _, c := range cmds {
			if c != nil {
				c.Process.Kill()
			}
		}
	})
	defer timer.Stop()
	// kill stops whatever has started and waits for it.
	kill := func(err error) (*spawnRun, error) {
		coord.Process.Kill()
		io.Copy(io.Discard, stdout)
		coord.Wait()
		for _, c := range cmds {
			if c != nil {
				c.Process.Kill()
			}
		}
		reap(cmds)
		if rl != nil {
			rl.stop()
		}
		return nil, err
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	dial, ok := strings.CutPrefix(strings.TrimSpace(line), "listen ")
	if err != nil || !ok {
		return kill(fmt.Errorf("coordinator printed no address (%q): %v", line, err))
	}
	if rl != nil {
		if dial, err = rl.start(dial); err != nil {
			return kill(err)
		}
	}
	outs := make([]*bytes.Buffer, spawnWorkers)
	for i := range cmds {
		outs[i] = new(bytes.Buffer)
		c, err := selfCommand(workerArg, dial, sky)
		if err != nil {
			return kill(err)
		}
		c.Stdout, c.Stderr = outs[i], os.Stderr
		if err := c.Start(); err != nil {
			return kill(fmt.Errorf("starting worker %d: %w", i, err))
		}
		mu.Lock()
		cmds[i] = c
		mu.Unlock()
	}
	rest, _ := io.ReadAll(br) // until the coordinator exits
	coordErr := coord.Wait()
	out := &spawnRun{wall: time.Since(t0).Seconds()}
	if coordErr != nil {
		for _, c := range cmds {
			c.Process.Kill()
		}
	}
	werr := reap(cmds)
	if rl != nil {
		rl.stop()
	}
	if coordErr != nil {
		return nil, fmt.Errorf("coordinator: %w", coordErr)
	}
	if werr != nil {
		return nil, werr
	}
	if out.catalog, err = os.ReadFile(catPath); err != nil {
		return nil, err
	}
	out.coordRSSMB = childRSSMB(coord.ProcessState)
	out.rssMB = out.coordRSSMB
	for _, l := range strings.Split(string(rest), "\n") {
		var ms, size float64
		if _, err := fmt.Sscanf(l, "checkpoint %g %g", &ms, &size); err == nil {
			out.ckptMs = append(out.ckptMs, ms)
			out.ckptBytes = append(out.ckptBytes, size)
		}
	}
	for i, c := range cmds {
		out.rssMB += childRSSMB(c.ProcessState)
		var load, wall float64
		if _, err := fmt.Sscanf(lastLine(outs[i].String(), "worker-times"), "worker-times %g %g", &load, &wall); err != nil {
			return nil, fmt.Errorf("worker %d printed no timings: %q", i, outs[i].String())
		}
		out.loadS = append(out.loadS, load)
		out.workWallS = append(out.workWallS, wall)
	}
	return out, nil
}

// reap waits for every started worker and reports the first failure.
func reap(cmds []*exec.Cmd) error {
	var first error
	for i, c := range cmds {
		if c == nil || c.Process == nil {
			continue
		}
		if err := c.Wait(); err != nil && first == nil {
			first = fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return first
}

func lastLine(s, prefix string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.HasPrefix(lines[i], prefix) {
			return lines[i]
		}
	}
	return ""
}

// runInferSpawn is the infer_spawn2 workload: the TCP runtime as
// `celeste -spawn 2 -checkpoint` deploys it, with re-executed copies of this
// binary as the coordinator and the two workers. Run i starts from the
// seed's i-th preexisting catalog, written to the sky directory's init.jsonl
// before the processes start, and its catalog file is checked byte for byte
// against the in-process runtime's on the same inputs.
func runInferSpawn(e *env, rep *report) error {
	sp := sceneSpecs[wlSpawn]
	sky := filepath.Join(e.work, "sky")
	initPath := filepath.Join(sky, "init.jsonl")
	refPath := filepath.Join(e.work, "oracle.jsonl")
	var gen, sv *survey.Survey // as generated, and as loaded back from the sky dir
	var init []model.CatalogEntry
	setups := make([]float64, setupRepeats)
	var setupErr error
	for i := range setups {
		setups[i] = timed(func() {
			gsv, ginit := sp.generate(e.seed)
			if setupErr = writeSkyDir(sky, gsv, ginit); setupErr != nil {
				return
			}
			if sv, init, setupErr = loadSkyDir(sky); setupErr != nil {
				return
			}
			gen = gsv
			warmUp(sv, init, sp)
		})
		if setupErr != nil {
			return setupErr
		}
	}
	rep.metrics["setup_s"] = rep.dist("setup_s", "s", setups)
	cfg := inferCfg(sp, spawnWorkers, 1, e.seed)
	// The oracle: the in-process runtime, whose catalog is independent of
	// the thread count.
	refCfg := inferCfg(sp, spawnWorkers, e.nproc, e.seed)

	var walls, tracedWalls, rss []float64
	var errs srcErrors
	var last []model.CatalogEntry
	var lastCoordRSS float64
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	draws := sp.draws(e.seconds)
	if e.trace {
		draws = max(draws, 2) // at least one untraced run and one through the relay
	}
	bounds := storeBounds(sv)
	queries, targets := newQueryLog(inferServe), newTargetGen(e.seed, bounds, 0.1)
	for i := 0; i < draws; i++ {
		if i > 0 {
			// The oracle reads the draw back as the coordinator will.
			if err := imageio.WriteCatalog(initPath, initCatalog(gen, e.seed, i)); err != nil {
				return err
			}
			var err error
			if init, err = imageio.ReadCatalog(initPath); err != nil {
				return err
			}
		}
		var rl *relay
		if e.trace && i%2 == 1 {
			rl = newRelay(tr)
		}
		// As in infer_scene, each run plans from its own seed.
		refCfg.Seed = initSeed(e.seed, i)
		run, err := runSpawned(e, sky, refCfg.Seed, rl)
		var ref *celeste.InferResult
		var cat []model.CatalogEntry
		if err == nil {
			ref, err = celeste.InferWithOptions(sv, init, refCfg, celeste.InferOptions{})
		}
		if err == nil {
			err = imageio.WriteCatalog(refPath, ref.Catalog)
		}
		if err == nil {
			var want []byte
			if want, err = os.ReadFile(refPath); err == nil && !bytes.Equal(run.catalog, want) {
				err = fmt.Errorf("draw %d: spawned run's catalog differs from the in-process runtime's", i)
			}
		}
		if err == nil {
			cat, err = imageio.DecodeCatalog(bytes.NewReader(run.catalog))
		}
		if err == nil {
			var de srcErrors
			de, err = scoreInfer(sv.Truth, cat, ref.Tasks, sv.Config.PixScale, rep)
			errs.add(de)
		}
		rep.op(err)
		if err != nil {
			continue
		}
		if rl != nil {
			tracedWalls = append(tracedWalls, run.wall)
			rl.analyze(run, rep)
		} else {
			walls = append(walls, run.wall)
		}
		rss = append(rss, run.rssMB)
		last, lastCoordRSS = cat, run.coordRSSMB
		// The live store the coordinator fed stays in its process (it
		// checks it against the catalog); the finished catalog is served
		// here.
		if err := serveInferCatalog(e, rep, queries, targets.next, inferServe.fixed/time.Duration(draws),
			catserve.NewStore(bounds, cat, catserve.Options{}), cat, bounds); err != nil {
			return err
		}
		if e.trace && i == 0 {
			ccfg := coreCfg(cfg)
			region := sv.Config.Region
			tasks := partition.GenerateTwoStage(init, region, partition.Options{TargetWork: sp.TargetWork})
			rep.metrics["core.runhash_s"] = timed(func() { core.RunHash(sv, init, tasks, ccfg) })
			rep.metrics["partition.ms"] = partitionMs(init, region, sp.TargetWork)
			rep.metrics["elbo.visits"] = float64(ref.Visits)
			kernelProbes(sv, init, ref.Tasks, sp, e.nproc, 1, rep)
		}
	}
	if last == nil {
		return errors.New("no spawned run completed")
	}
	rep.metrics["catalog_s"] = rep.dist("catalog_s", "s", walls)
	rep.detail("catalog_s per run: %.4g", walls)
	errs.record(rep, "catalogs", inferLimits[wlSpawn])
	recordInferQueries(e, rep, queries, last, bounds, tr)
	rep.metrics["rss_peak_mb"] = rep.dist("rss_peak_mb (coordinator + workers)", "MB", rss)
	rep.detail("coordinator peak RSS %.1f MB", lastCoordRSS)
	if e.trace {
		rep.metrics["trace.overhead_frac"] = ratio(median(tracedWalls), median(walls)) - 1
		return writeTrace(e, tr, rep)
	}
	return nil
}

// relay is a loopback TCP relay between the workers and the coordinator,
// used only in traced runs. It decodes every frame with net.ReadMessage as
// it forwards it and timestamps it, per connection and direction.
type relay struct {
	tr     *tracer
	l      net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	events [][]wireEvent // per worker connection
	conns  []net.Conn
	bytes  [2]int64 // w→c, c→w
}

type wireEvent struct {
	dir  int // 0 worker to coordinator, 1 coordinator to worker
	typ  byte
	at   time.Time
	size int
}

func newRelay(tr *tracer) *relay { return &relay{tr: tr} }

// start listens on a loopback port and forwards each connection to target.
func (r *relay) start(target string) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.l = l
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			w, err := l.Accept()
			if err != nil {
				return
			}
			c, err := net.Dial("tcp", target)
			if err != nil {
				w.Close()
				continue
			}
			for _, x := range []net.Conn{w, c} {
				x.(*net.TCPConn).SetNoDelay(true)
			}
			r.mu.Lock()
			id := len(r.events)
			r.events = append(r.events, nil)
			r.conns = append(r.conns, w, c)
			r.mu.Unlock()
			r.wg.Add(2)
			go r.pump(id, 0, w, c)
			go r.pump(id, 1, c, w)
		}
	}()
	return l.Addr().String(), nil
}

// countWriter counts bytes written through it.
type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// pump forwards frames from src to dst, decoding each as it passes.
func (r *relay) pump(id, dir int, src, dst net.Conn) {
	defer r.wg.Done()
	defer dst.Close()
	cw := &countWriter{w: dst}
	tee := io.TeeReader(bufio.NewReaderSize(src, 1<<16), cw)
	for {
		before := cw.n
		m, err := cnet.ReadMessage(tee)
		if err != nil {
			return
		}
		ev := wireEvent{dir: dir, typ: m.Type, at: time.Now(), size: cw.n - before}
		r.mu.Lock()
		r.events[id] = append(r.events[id], ev)
		r.bytes[dir] += int64(ev.size)
		r.mu.Unlock()
	}
}

// stop closes the relay and waits for its goroutines.
func (r *relay) stop() {
	if r.l != nil {
		r.l.Close()
	}
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// Interval states of a rank's timeline.
const (
	stBusy = "rank.busy"
	stWait = "rank.wait"
	stWire = "rank.wire"
)

// stateAfter classifies the interval that follows a frame on a rank's
// timeline; "" leaves the state unchanged (heartbeats).
func stateAfter(dir int, typ byte) string {
	switch {
	case dir == 0 && (typ == cnet.MsgHello || typ == cnet.MsgJoin || typ == cnet.MsgGet):
		return stWire
	case dir == 0 && (typ == cnet.MsgTaskReq || typ == cnet.MsgSteal):
		return stWait
	case dir == 1 && typ == cnet.MsgWait:
		return stWait
	case dir == 0 && typ == cnet.MsgHeartbeat:
		return ""
	default:
		return stBusy
	}
}

// analyze turns one traced run's frames into per-rank spans and the wire,
// scheduling and task metrics, and checks that each rank's busy, wait and
// wire time sums to the wall time the worker measured itself.
func (r *relay) analyze(run *spawnRun, rep *report) {
	r.mu.Lock()
	events := r.events
	bytesW2C, bytesC2W := r.bytes[0], r.bytes[1]
	r.mu.Unlock()
	var getRTT, putRTT, nextWait, taskS, handshake, paramsBytes []float64
	var msgs, steals, waits int
	var busyFrac, sums []float64
	var lastDone []time.Time
	var getSum, putSum float64
	runID := -1
	for ci, evs := range events {
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].at.Before(evs[b].at) })
		if len(evs) == 0 {
			continue
		}
		msgs += len(evs)
		if runID < 0 {
			runID = r.tr.open("spawn.run", -1, evs[0].at)
		}
		rankID := r.tr.open("rank", runID, evs[0].at)
		parts := map[string]time.Duration{}
		state := ""
		var stateAt, getAt, putAt, reqAt, taskAt, helloAt, done time.Time
		var reqSteal bool
		for _, ev := range evs {
			s := stateAfter(ev.dir, ev.typ)
			if s == "" {
				continue // a heartbeat neither ends nor starts an interval
			}
			if state != "" {
				r.tr.add(state, rankID, stateAt, ev.at)
				parts[state] += ev.at.Sub(stateAt)
			}
			state, stateAt = s, ev.at
			switch {
			case ev.dir == 0 && ev.typ == cnet.MsgHello:
				helloAt = ev.at
			case ev.dir == 0 && ev.typ == cnet.MsgReady:
				handshake = append(handshake, ev.at.Sub(helloAt).Seconds())
			case ev.dir == 0 && ev.typ == cnet.MsgGet:
				getAt = ev.at
			case ev.dir == 1 && ev.typ == cnet.MsgParams:
				d := ev.at.Sub(getAt)
				getRTT = append(getRTT, float64(d)/1e6)
				getSum += d.Seconds()
				paramsBytes = append(paramsBytes, float64(ev.size))
			case ev.dir == 0 && ev.typ == cnet.MsgPut:
				putAt = ev.at
			case ev.dir == 0 && (ev.typ == cnet.MsgTaskReq || ev.typ == cnet.MsgSteal):
				if reqAt.IsZero() {
					reqAt = ev.at
				}
				reqSteal = ev.typ == cnet.MsgSteal
			case ev.dir == 1 && ev.typ == cnet.MsgWait:
				waits++
			case ev.dir == 1 && ev.typ == cnet.MsgTask:
				nextWait = append(nextWait, float64(ev.at.Sub(reqAt))/1e6)
				if reqSteal {
					steals++
				}
				reqAt, taskAt = time.Time{}, ev.at
			case ev.dir == 0 && ev.typ == cnet.MsgTaskDone:
				taskS = append(taskS, ev.at.Sub(taskAt).Seconds())
				done = ev.at
			}
			if ev.dir == 1 && !putAt.IsZero() {
				d := ev.at.Sub(putAt)
				putRTT = append(putRTT, float64(d)/1e6)
				putSum += d.Seconds()
				putAt = time.Time{}
			}
		}
		end := evs[len(evs)-1].at
		r.tr.close(rankID, end)
		wall := end.Sub(evs[0].at)
		sum := parts[stBusy] + parts[stWait] + parts[stWire]
		busyFrac = append(busyFrac, ratio(parts[stBusy].Seconds(), wall.Seconds()))
		if !done.IsZero() {
			lastDone = append(lastDone, done)
		}
		sums = append(sums, sum.Seconds())
		rep.detail("rank %d: busy %v + wait %v + wire %v = %v", ci, parts[stBusy], parts[stWait], parts[stWire], sum)
	}
	// Each rank's parts must add up to the wall time its worker measured on
	// its own clock. Workers do not learn their connection's identity, so
	// ranks and workers pair in order of duration.
	own := append([]float64(nil), run.workWallS...)
	sort.Float64s(sums)
	sort.Float64s(own)
	rep.check(len(sums) == len(own), "%d ranks seen by the relay, %d workers reported", len(sums), len(own))
	for k := 0; k < min(len(sums), len(own)); k++ {
		off := ratio(abs(sums[k]-own[k]), own[k])
		rep.check(off <= spanSumTolerance, "rank busy+wait+wire %.4fs vs worker wall %.4fs (off %.2f%%)",
			sums[k], own[k], 100*off)
		rep.detail("rank parts %.4fs vs worker wall %.4fs: %.2f%% apart (tolerance %g%%)",
			sums[k], own[k], 100*off, 100*spanSumTolerance)
	}
	if runID >= 0 {
		r.tr.close(runID, time.Now())
	}
	sort.Slice(lastDone, func(a, b int) bool { return lastDone[a].Before(lastDone[b]) })
	tail := 0.0
	if len(lastDone) > 1 {
		tail = lastDone[len(lastDone)-1].Sub(lastDone[0]).Seconds()
	}
	set := func(name string, v float64) { rep.metrics[name] = v }
	set("net.msgs", float64(msgs))
	set("net.bytes_w2c", float64(bytesW2C))
	set("net.bytes_c2w", float64(bytesC2W))
	set("net.get_rtt_ms.p50", rep.dist("net.get_rtt_ms", "ms", getRTT))
	set("net.get_rtt_ms.p99", quantile(getRTT, 0.99))
	set("net.put_rtt_ms.p50", rep.dist("net.put_rtt_ms (put to next reply)", "ms", putRTT))
	set("net.handshake_s", median(handshake))
	set("dtree.next_wait_ms.p50", rep.dist("dtree.next_wait_ms", "ms", nextWait))
	set("dtree.next_wait_ms.p99", quantile(nextWait, 0.99))
	set("dtree.steals", float64(steals))
	set("dtree.waits", float64(waits))
	set("core.rank_busy_frac", mean(busyFrac))
	set("core.tail_s", tail)
	set("core.task_s.p50", rep.dist("core.task_s", "s", taskS))
	set("core.task_s.max", quantile(taskS, 1))
	set("pgas.get_s", getSum)
	set("pgas.put_s", putSum)
	var pb float64
	for _, b := range paramsBytes {
		pb += b
	}
	set("pgas.get_bytes", pb)
	set("imageio.load_s", rep.dist("imageio.load_s (worker sky load)", "s", run.loadS))
	set("imageio.checkpoint_ms.p50", rep.dist("imageio.checkpoint_ms", "ms", run.ckptMs))
	set("imageio.checkpoint_bytes", median(run.ckptBytes))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
