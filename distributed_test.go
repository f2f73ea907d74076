package celeste

// Differential and chaos tests for the TCP runtime: the in-process goroutine
// runtime is the reference implementation, and because every task is a pure
// function of the frozen stage input, its catalog is the byte-exact oracle
// for real multi-process runs. Worker processes are this test binary
// re-executed (TestMain intercepts the env var before any test runs); each
// worker regenerates the survey deterministically and proves it via the
// run-hash handshake before being served a single task.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"celeste/internal/core"
	"celeste/internal/imageio"
	"celeste/internal/vi"
)

const (
	workerAddrEnv    = "CELESTE_TEST_WORKER_ADDR"
	workerKillEnv    = "CELESTE_TEST_KILL_AFTER"
	workerDelayEnv   = "CELESTE_TEST_START_DELAY_MS"
	workerElasticEnv = "CELESTE_TEST_ELASTIC"
	workerLeaveEnv   = "CELESTE_TEST_LEAVE_AFTER"
	workerStartEnv   = "CELESTE_TEST_START_FILE"
	workerTouchEnv   = "CELESTE_TEST_TOUCH_FILE"
	workerRejoinEnv  = "CELESTE_TEST_REJOIN"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(workerAddrEnv); addr != "" {
		runTestWorker(addr)
		return
	}
	if os.Getenv(coordFDEnv) != "" {
		runTestCoordinator()
		return
	}
	os.Exit(m.Run())
}

// runTestWorker is the body of a re-exec'd worker process. It rebuilds the
// shared survey from the same fixed seeds the coordinating test uses and
// joins the run; CELESTE_TEST_KILL_AFTER=k makes it SIGKILL itself upon
// being assigned its (k+1)-th task — with the task in hand, mid-stage, no
// cleanup — to exercise the coordinator's requeue-on-death path for real.
func runTestWorker(addr string) {
	sv, init, _ := distInputs()
	opts := WorkerOptions{
		Threads:        2,
		HeartbeatEvery: 50 * time.Millisecond,
		Poll:           2 * time.Millisecond,
	}
	// The churn tests order the fleet by sentinel files instead of wall-clock
	// sleeps, so the schedule is identical on fast and loaded machines: a
	// worker with a touch file creates it upon its first task assignment —
	// the task is then in hand, so the run is provably mid-flight — and a
	// worker with a start file (below) holds its dial until the file exists.
	// The SIGKILL victim touches just before dying.
	kill, touch := -1, os.Getenv(workerTouchEnv)
	if ks := os.Getenv(workerKillEnv); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker: bad kill spec:", err)
			os.Exit(2)
		}
		kill = k
	}
	if kill >= 0 || touch != "" {
		opts.OnTask = func(task, completed int) {
			if touch != "" && completed == 0 {
				os.WriteFile(touch, nil, 0o644)
			}
			if kill >= 0 && completed >= kill {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable: SIGKILL cannot be handled
			}
		}
	}
	if f := os.Getenv(workerStartEnv); f != "" {
		// Hold the dial until an earlier wave's sentinel appears, so the
		// coordinator is guaranteed to still be serving (the toucher's task
		// is outstanding) when this worker dials.
		for {
			if _, err := os.Stat(f); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if ds := os.Getenv(workerDelayEnv); ds != "" {
		// The chaos tests hold the healthy workers back so the kill-marked
		// one is guaranteed to reach the scheduler while tasks remain.
		ms, err := strconv.Atoi(ds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker: bad delay spec:", err)
			os.Exit(2)
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
	if os.Getenv(workerElasticEnv) != "" {
		// The churn tests start this worker mid-run: it joins past the
		// connect grace with a fresh rank and steals its way into the pool.
		opts.Elastic = true
	}
	if rs := os.Getenv(workerRejoinEnv); rs != "" {
		// The failover and chaos tests need workers that outlive coordinator
		// incarnations and severed links: a per-outage re-dial budget on a
		// fast deterministic backoff, bounded by a give-up window so a test
		// gone wrong cannot leave immortal orphans.
		n, err := strconv.Atoi(rs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker: bad rejoin spec:", err)
			os.Exit(2)
		}
		opts.Rejoin = n
		opts.RejoinBackoff = Backoff{
			Base: 20 * time.Millisecond, Max: 250 * time.Millisecond,
			Seed: uint64(os.Getpid()),
		}
		opts.RejoinWindow = 2 * time.Minute
	}
	if ls := os.Getenv(workerLeaveEnv); ls != "" {
		k, err := strconv.Atoi(ls)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker: bad leave spec:", err)
			os.Exit(2)
		}
		opts.LeaveAfter = k
	}
	if err := RunWorker(addr, sv, init, opts); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// distInputs builds the same small fixed-seed survey the kill/resume tests
// use (resumeSurvey), but without a testing.T so the worker process can call
// it too. Both sides must generate identical bytes; the run-hash handshake
// enforces it.
func distInputs() (*Survey, []CatalogEntry, InferConfig) {
	cfg := DefaultSurveyConfig(41)
	cfg.Region = SkyBox{MaxRA: 0.014, MaxDec: 0.014}
	cfg.DeepRegion = SkyBox{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 128, 128
	cfg.SourceDensity = 30000
	sv := GenerateSurvey(cfg)
	init := sv.NoisyCatalog(42)
	icfg := InferConfig{TargetWork: 1e5, Rounds: 1, MaxIter: 8, Seed: 9}
	return sv, init, icfg
}

// spawnTestWorkers re-execs this test binary as n worker processes against
// the coordinator at addr. killAfter maps a worker index to its self-SIGKILL
// trigger (completed-task count); absent workers run to completion.
func spawnTestWorkers(t *testing.T, addr string, n int, killAfter map[int]int) []*exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerAddrEnv+"="+addr)
		if k, ok := killAfter[i]; ok {
			cmd.Env = append(cmd.Env, workerKillEnv+"="+strconv.Itoa(k))
		} else if len(killAfter) > 0 {
			// Healthy workers in a kill test start late, so the victim
			// deterministically draws work before the pool drains (worker
			// startup is slow and noisy under -race).
			cmd.Env = append(cmd.Env, workerDelayEnv+"=1500")
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning worker %d: %v", i, err)
		}
		cmds = append(cmds, cmd)
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	})
	return cmds
}

// testWorkerSpec describes one churn-test worker process.
type testWorkerSpec struct {
	killAfter  int    // self-SIGKILL on the (killAfter+1)-th assignment; -1 disables
	leaveAfter int    // announce a graceful leave after this many tasks; 0 disables
	elastic    bool   // join mid-run via the elastic handshake
	delayMs    int    // startup delay before dialing
	startFile  string // hold the dial until this file exists
	touchFile  string // create this file just before the self-SIGKILL fires
}

// spawnTestWorkerSpecs re-execs this test binary as one worker per spec.
func spawnTestWorkerSpecs(t *testing.T, addr string, specs []testWorkerSpec) []*exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, 0, len(specs))
	for i, sp := range specs {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerAddrEnv+"="+addr)
		if sp.killAfter >= 0 {
			cmd.Env = append(cmd.Env, workerKillEnv+"="+strconv.Itoa(sp.killAfter))
		}
		if sp.leaveAfter > 0 {
			cmd.Env = append(cmd.Env, workerLeaveEnv+"="+strconv.Itoa(sp.leaveAfter))
		}
		if sp.elastic {
			cmd.Env = append(cmd.Env, workerElasticEnv+"=1")
		}
		if sp.delayMs > 0 {
			cmd.Env = append(cmd.Env, workerDelayEnv+"="+strconv.Itoa(sp.delayMs))
		}
		if sp.startFile != "" {
			cmd.Env = append(cmd.Env, workerStartEnv+"="+sp.startFile)
		}
		if sp.touchFile != "" {
			cmd.Env = append(cmd.Env, workerTouchEnv+"="+sp.touchFile)
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning worker %d: %v", i, err)
		}
		cmds = append(cmds, cmd)
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	})
	return cmds
}

// runTCP serves one run over a loopback listener to n real worker processes
// and returns the coordinator's result. Worker deaths are detected by
// connection errors (a SIGKILL closes the socket) or heartbeat silence.
func runTCP(t *testing.T, sv *Survey, init []CatalogEntry, cfg InferConfig,
	workers int, opts InferOptions, killAfter map[int]int) (*InferResult, []*exec.Cmd, error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processes = workers
	opts.Transport = &Transport{
		Listener:     l,
		DeadAfter:    3 * time.Second,
		ConnectGrace: 60 * time.Second,
	}
	cmds := spawnTestWorkers(t, l.Addr().String(), workers, killAfter)
	res, err := InferWithOptions(sv, init, cfg, opts)
	for _, c := range cmds {
		c.Wait()
	}
	return res, cmds, err
}

// distHash computes the run fingerprint exactly as the runtime does for a
// given {threads, procs} shape — which RunHash deliberately excludes, so
// every shape of the same run must agree.
func distHash(sv *Survey, init []CatalogEntry, tasks []Task, cfg InferConfig, procs int) uint64 {
	return core.RunHash(sv, init, tasks, core.Config{
		Threads:   cfg.Threads,
		Rounds:    cfg.Rounds,
		Processes: procs,
		Seed:      cfg.Seed,
		Fit:       vi.Options{MaxIter: cfg.MaxIter},
	})
}

// TestDistributedDifferentialByteIdentical is the PR's acceptance criterion:
// the TCP runtime with real worker processes produces a catalog
// byte-identical to the in-process runtime, at multiple worker counts, with
// the same run hash throughout.
func TestDistributedDifferentialByteIdentical(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}

	base, err := InferWithOptions(sv, init, icfg, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.TasksProcessed < 3 {
		t.Fatalf("only %d tasks; the differential grid needs more", base.TasksProcessed)
	}
	baseHash := distHash(sv, init, base.Tasks, icfg, 4)

	for _, workers := range []int{2, 4} {
		res, cmds, err := runTCP(t, sv, init, icfg, workers, InferOptions{}, nil)
		if err != nil {
			t.Fatalf("spawn=%d: %v", workers, err)
		}
		entriesIdentical(t, base.Catalog, res.Catalog, fmt.Sprintf("spawn=%d", workers))
		if res.TasksProcessed != base.TasksProcessed {
			t.Errorf("spawn=%d: %d tasks processed, in-process run did %d",
				workers, res.TasksProcessed, base.TasksProcessed)
		}
		if h := distHash(sv, init, base.Tasks, icfg, workers); h != baseHash {
			t.Errorf("spawn=%d: run hash %016x differs from in-process %016x", workers, h, baseHash)
		}
		for i, c := range cmds {
			if !c.ProcessState.Success() {
				t.Errorf("spawn=%d: worker %d exited %v", workers, i, c.ProcessState)
			}
		}
	}
}

// TestDistributedWorkerKillRecovers SIGKILLs one worker process the moment
// it is assigned its first task: the coordinator must detect the death,
// requeue the in-flight task onto the survivors, and still produce the
// byte-identical catalog — the paper's Section IV-B recovery story executed
// with a real process death on a real wire.
func TestDistributedWorkerKillRecovers(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	base := Infer(sv, init, icfg)

	res, _, err := runTCP(t, sv, init, icfg, 3, InferOptions{}, map[int]int{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRanks != 1 {
		t.Errorf("FailedRanks = %d, want 1", res.FailedRanks)
	}
	if res.RequeuedTasks == 0 {
		t.Error("a worker died with a task in hand but nothing was requeued")
	}
	entriesIdentical(t, base.Catalog, res.Catalog, "SIGKILLed worker")
}

// TestDistributedKillResumeDifferentWorkerCount kills a checkpointing TCP
// run partway (the checkpoint hook aborts, standing in for the coordinator
// dying right after its last durable checkpoint), then resumes the persisted
// checkpoint with a different number of worker processes. The resumed run
// must finish to the byte-identical catalog with cumulative task accounting.
func TestDistributedKillResumeDifferentWorkerCount(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	base := Infer(sv, init, icfg)
	total := base.TasksProcessed
	kill := total / 2
	if kill < 1 {
		kill = 1
	}

	var wire []byte
	n := 0
	_, _, err := runTCP(t, sv, init, icfg, 2, InferOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			n++
			var buf bytes.Buffer
			if werr := imageio.WriteCheckpoint(&buf, ck); werr != nil {
				return werr
			}
			wire = buf.Bytes() // latest durable checkpoint
			if n == kill {
				return errors.New("injected coordinator kill")
			}
			return nil
		},
	}, nil)
	if !errors.Is(err, ErrRunAborted) {
		t.Fatalf("kill@%d: got %v, want ErrRunAborted", kill, err)
	}

	ck, err := imageio.ReadCheckpoint(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("reloading checkpoint: %v", err)
	}
	res, _, err := runTCP(t, sv, init, icfg, 3, InferOptions{Resume: ck}, nil)
	if err != nil {
		t.Fatalf("resume at 3 workers: %v", err)
	}
	entriesIdentical(t, base.Catalog, res.Catalog, "kill/resume at a different worker count")
	if res.TasksProcessed != total {
		t.Errorf("resumed run reports %d cumulative tasks, want %d", res.TasksProcessed, total)
	}
}

// runTCPChurn serves one run to a churn fleet: the non-elastic specs form
// the static complement the coordinator expects, elastic specs join mid-run
// on top of it.
func runTCPChurn(t *testing.T, sv *Survey, init []CatalogEntry, cfg InferConfig,
	opts InferOptions, specs []testWorkerSpec) (*InferResult, []*exec.Cmd, error) {
	t.Helper()
	static := 0
	for _, sp := range specs {
		if !sp.elastic {
			static++
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processes = static
	opts.Transport = &Transport{
		Listener:     l,
		DeadAfter:    3 * time.Second,
		ConnectGrace: 60 * time.Second,
	}
	cmds := spawnTestWorkerSpecs(t, l.Addr().String(), specs)
	res, err := InferWithOptions(sv, init, cfg, opts)
	for _, c := range cmds {
		c.Wait()
	}
	return res, cmds, err
}

// TestChurnElasticJoinByteIdentical is the elastic tentpole's acceptance
// test: mid-run an elastic worker joins (admitted after the static
// handshake, with a fresh rank past the complement) while a static worker
// is SIGKILLed with a task in hand — and the catalog is still byte-identical
// to the single-process reference, with the same run hash. At spawn=4 a
// third worker departs gracefully after its first task, which must count as
// a leave, not a failure.
func TestChurnElasticJoinByteIdentical(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	base, err := InferWithOptions(sv, init, icfg, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.TasksProcessed < 3 {
		t.Fatalf("only %d tasks; the churn grid needs more", base.TasksProcessed)
	}
	baseHash := distHash(sv, init, base.Tasks, icfg, 1)

	for _, workers := range []int{2, 4} {
		// The fleet dials in sentinel-ordered waves, each released by one
		// worker's first assignment, so no two workers race for a task the
		// ordering depends on and the schedule is deterministic on any
		// machine speed. First: worker 0, killed on its first assignment,
		// touching `died` just before the SIGKILL. At 4 workers, next,
		// gated on `died`: the leaver alone, which departs after one
		// completed task. As the only connected worker it draws a task
		// (touching `leaving`) — sharing that wave with the joiner once let
		// the joiner drain the run's few tasks first, so the leaver never
		// left. Then, gated on `leaving` at 4 workers and on `died` at 2:
		// the elastic joiner. At least two tasks are still uncommitted, so
		// the coordinator is provably mid-run when the join handshake
		// arrives, and with no other worker connected the joiner draws a
		// task too, touching `working`. Last, gated on `working`: the plain
		// survivors, which must dial a live coordinator too (the joiner's
		// task is in hand when `working` appears).
		dir := t.TempDir()
		died := filepath.Join(dir, "victim-died")
		leaving := filepath.Join(dir, "leaver-working")
		working := filepath.Join(dir, "joiner-working")
		specs := []testWorkerSpec{{killAfter: 0, touchFile: died}}
		joiner := testWorkerSpec{killAfter: -1, elastic: true, startFile: died, touchFile: working}
		if workers == 4 {
			specs = append(specs, testWorkerSpec{killAfter: -1, leaveAfter: 1, startFile: died, touchFile: leaving})
			joiner.startFile = leaving
		}
		for len(specs) < workers {
			specs = append(specs, testWorkerSpec{killAfter: -1, startFile: working})
		}
		specs = append(specs, joiner)

		res, cmds, err := runTCPChurn(t, sv, init, icfg, InferOptions{}, specs)
		if err != nil {
			t.Fatalf("spawn=%d: %v", workers, err)
		}
		label := fmt.Sprintf("churn spawn=%d", workers)
		entriesIdentical(t, base.Catalog, res.Catalog, label)
		if res.TasksProcessed != base.TasksProcessed {
			t.Errorf("%s: %d tasks processed, in-process run did %d",
				label, res.TasksProcessed, base.TasksProcessed)
		}
		if h := distHash(sv, init, base.Tasks, icfg, workers); h != baseHash {
			t.Errorf("%s: run hash %016x differs from single-process %016x", label, h, baseHash)
		}
		if res.FailedRanks != 1 {
			t.Errorf("%s: FailedRanks = %d, want exactly the SIGKILLed worker", label, res.FailedRanks)
		}
		if res.JoinedRanks != 1 {
			t.Errorf("%s: JoinedRanks = %d, want the one elastic joiner", label, res.JoinedRanks)
		}
		if res.RequeuedTasks == 0 {
			t.Errorf("%s: the victim died with a task in hand but nothing was requeued", label)
		}
		if workers == 4 && res.LeftRanks != 1 {
			t.Errorf("%s: LeftRanks = %d, want the one graceful leaver", label, res.LeftRanks)
		}
		for i, c := range cmds {
			victim := i == 0
			if victim == c.ProcessState.Success() {
				t.Errorf("%s: worker %d (victim=%v) exited %v", label, i, victim, c.ProcessState)
			}
		}
	}
}
