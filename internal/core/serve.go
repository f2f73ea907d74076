// The run backend: the one scheduler, commit and retire state machine every
// run goes through. serveBackend owns the Dtree scheduler, task pull with
// stealing, idempotent commit with the checkpoint hook, requeue on death,
// elastic join and leave, and the stage barrier with its frozen-input
// discipline. Two transports drive it: goroutine ranks in this process call
// it directly (runLocal), and internal/net's coordinator speaks the wire
// protocol to real worker processes in front of it (serveTCP). The
// transports differ only in how a rank reaches the backend, which is why
// their catalogs are byte-identical (the property the root-level
// differential tests enforce).
package core

import (
	"fmt"
	"sync"
	"time"

	"celeste/internal/dtree"
	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/pgas"
	"celeste/internal/survey"
)

// runLocal is the in-memory transport: cfg.Processes goroutine ranks loop
// pull → execute → commit against the backend directly, with no sockets and
// no encoding, reading and writing the PGAS arrays through their ranks'
// shared-memory views. A FaultPlan kill is a transport fault: the doomed
// rank executes its task, never commits it, and is failed — what the
// coordinator does when a worker's connection drops. A FaultPlan delay is a
// sleep before the task.
func (cfg Config) runLocal(sv *survey.Survey, catalog []model.CatalogEntry, priors *model.Priors,
	tasks []partition.Task, b *serveBackend, faults *dtree.FaultPlan) {

	var wg sync.WaitGroup
	for rank := 0; rank < cfg.Processes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			killAfter, doomed := faults.KillAfter(rank)
			for completed := 0; ; {
				g, status, gen := b.pull(rank, false)
				if status == cnet.NextWait {
					// Dry pool: steal from the most-loaded live rank before
					// waiting. Task purity keeps the catalog byte-identical
					// whichever rank ends up executing a task.
					g, status, gen = b.pull(rank, true)
				}
				switch status {
				case cnet.NextWait:
					// Unfinished tasks ride on other ranks; one of them
					// commits or dies (requeueing its work) before long.
					b.await(gen)
					continue
				case cnet.NextShutdown, cnet.NextAbort:
					return
				}
				if d := faults.DelayFor(rank, completed); d > 0 {
					time.Sleep(time.Duration(d * float64(time.Second)))
				}
				// The stage cannot advance while this task is uncommitted, so
				// the arrays read here are the task's own stage's.
				stats, err := cfg.ExecTask(sv, catalog, priors, &tasks[g], b.st.prev.View(rank), b.st.cur.View(rank))
				if err != nil {
					// Local views never fail; an error here is a programming bug.
					panic(err)
				}
				if doomed && completed >= killAfter {
					b.Fail(rank)
					return
				}
				b.commit(rank, g, stats)
				completed++
			}
		}(rank)
	}
	wg.Wait()
}

// serveTCP is the TCP transport: it serves the backend to remote worker
// processes until the run reaches a terminal state. It returns only the
// listener's error; how the run itself ended is the backend's result.
func (cfg Config) serveTCP(nTasks int, b *serveBackend, tr *cnet.Transport) error {
	b.rejoinGrace = tr.RejoinGrace
	b.welcome = cnet.RunConfig{
		Workers:    uint32(cfg.Processes),
		Width:      model.ParamDim,
		Rounds:     uint32(cfg.Rounds),
		MaxIter:    uint32(cfg.Fit.MaxIter),
		NTasks:     uint64(nTasks),
		RunHash:    b.st.hash,
		Seed:       cfg.Seed,
		TargetWork: tr.TargetWork,
		BatchFrac:  cfg.BatchFrac,
		GradTol:    cfg.Fit.GradTol,
	}
	return cnet.Serve(tr.Listener, b, cnet.ServeOptions{
		DeadAfter:    tr.DeadAfter,
		ConnectGrace: tr.ConnectGrace,
	})
}

// serveBackend implements cnet.Backend over the run state. All scheduler and
// array access is serialized under mu: at task granularity the pull and
// commit traffic is a rounding error next to the optimization work, and
// serialization keeps the stage barrier (the frozen-input array swap)
// trivially safe against concurrent parameter reads.
//
// Lock order: mu strictly outside st.mu — commit (which takes st.mu and runs
// the checkpoint hook) is always called with mu released.
type serveBackend struct {
	procs   int
	st      *runState
	stages  [][]int
	welcome cnet.RunConfig

	mu        sync.Mutex
	s         int // current stage index into stages
	sched     *dtree.Scheduler
	idx       []int        // current stage's global task indices
	g2l       map[int]int  // global -> stage-local for uncommitted tasks
	stageLeft int          // uncommitted tasks in the current stage
	totalLeft int          // uncommitted tasks in the whole run
	requeued  int64        // folded from retired stage schedulers
	stolen    int64        // folded from retired stage schedulers
	dead      []bool       // retired ranks (failed or left); dead for the rest of the run
	leftRank  map[int]bool // ranks that departed gracefully (not failures)
	stranded  error

	// gen counts state changes a waiting rank could act on — a commit, a
	// retire, a stage advance — and changed (on mu) wakes the in-process
	// ranks blocked in await.
	gen     uint64
	changed sync.Cond

	// rejoinGrace is Transport.RejoinGrace: how long an all-dead run waits
	// for an elastic re-enrollment before stranding. graceTimer is the
	// pending expiry check for the current all-dead episode, nil otherwise.
	rejoinGrace time.Duration
	graceTimer  *time.Timer

	done      chan struct{}
	closeOnce sync.Once
}

var _ cnet.Backend = (*serveBackend)(nil)

// newBackend builds the backend for a (possibly resumed) run over st: the
// scheduler of stage st.stage over the tasks not yet done.
func newBackend(procs int, st *runState, stages [][]int) *serveBackend {
	b := &serveBackend{
		procs:    procs,
		st:       st,
		stages:   stages,
		s:        st.stage,
		dead:     make([]bool, procs),
		leftRank: make(map[int]bool),
		done:     make(chan struct{}),
	}
	b.changed.L = &b.mu
	for _, d := range st.done {
		if !d {
			b.totalLeft++
		}
	}
	b.setupStageLocked()
	if b.totalLeft == 0 {
		// Nothing to schedule (e.g. a checkpoint taken at the very end):
		// don't make workers connect for an empty run.
		b.finish()
	}
	return b
}

// result folds the backend's accounting into res and reports how the run
// ended: nil on completion, otherwise the abort, stranding or
// outstanding-work error. Both transports end here.
func (b *serveBackend) result(res *RunResult, staticProcs int) error {
	b.mu.Lock()
	if b.graceTimer != nil {
		// The run ended some other way (completed, aborted, listener error)
		// with a grace window pending; don't let it fire into a dead run.
		b.graceTimer.Stop()
		b.graceTimer = nil
	}
	for r, d := range b.dead {
		// Graceful leavers are retired ranks, not failures.
		if d && !b.leftRank[r] {
			res.FailedRanks++
		}
	}
	res.LeftRanks = len(b.leftRank)
	res.JoinedRanks = b.procs - staticProcs
	res.RequeuedTasks, res.StolenTasks = int(b.requeued), int(b.stolen)
	if b.sched != nil {
		res.RequeuedTasks += int(b.sched.Requeued())
		res.StolenTasks += int(b.sched.Stolen())
	}
	stranded, left := b.stranded, b.totalLeft
	b.mu.Unlock()

	if b.st.aborted.Load() {
		b.st.mu.Lock()
		defer b.st.mu.Unlock()
		return b.st.abortErr
	}
	if stranded != nil {
		return stranded
	}
	if left > 0 {
		return fmt.Errorf("core: run ended with %d tasks outstanding", left)
	}
	return nil
}

func (b *serveBackend) Welcome() cnet.RunConfig { return b.welcome }

func (b *serveBackend) Done() <-chan struct{} { return b.done }

func (b *serveBackend) finish() { b.closeOnce.Do(func() { close(b.done) }) }

// changedLocked records a state change and wakes every waiting rank. Caller
// holds mu.
func (b *serveBackend) changedLocked() {
	b.gen++
	b.changed.Broadcast()
}

// await blocks until the backend's state moves past generation gen. pull
// reports gen under the same lock hold as its NextWait verdict, so a change
// landing between the verdict and the wait is never lost.
func (b *serveBackend) await(gen uint64) {
	b.mu.Lock()
	for b.gen == gen {
		b.changed.Wait()
	}
	b.mu.Unlock()
}

// setupStageLocked builds the scheduler for stage b.s over the tasks not yet
// done, excluding ranks that already died. Caller holds mu (or is still
// single-threaded during setup).
func (b *serveBackend) setupStageLocked() {
	idx := b.stages[b.s]
	b.idx = idx
	b.g2l = make(map[int]int, len(idx))
	doneSub := make([]bool, len(idx))
	remaining := 0
	for j, gi := range idx {
		doneSub[j] = b.st.done[gi]
		if !doneSub[j] {
			remaining++
			b.g2l[gi] = j
		}
	}
	b.stageLeft = remaining
	b.sched = dtree.NewResumed(dtree.Config{}, b.procs, len(idx), doneSub)
	for rank, dead := range b.dead {
		if dead {
			b.sched.Fail(rank)
		}
	}
}

// advanceLocked moves to the next stage: the live array becomes the frozen
// input (freezeStage), and a fresh scheduler distributes the next stage's
// tasks. Caller holds mu, and the caller has established stageLeft == 0 —
// every task of the finished stage is committed, so no rank can be holding
// stale stage input.
func (b *serveBackend) advanceLocked() {
	// Fold the retiring scheduler's requeue and steal counts exactly once:
	// the final accounting adds the live scheduler's counts, so a scheduler
	// must not survive past its fold.
	b.requeued += b.sched.Requeued()
	b.stolen += b.sched.Stolen()
	b.sched = nil
	b.s++
	if b.s < len(b.stages) {
		b.st.freezeStage(b.s)
		b.setupStageLocked()
	}
	b.changedLocked()
}

// Next implements the task pull. The wait state covers the window where the
// pool is dry but uncommitted tasks ride on other ranks: if one dies, its
// tasks requeue and the waiting rank picks them up.
func (b *serveBackend) Next(rank int) (int, cnet.NextStatus) {
	g, status, _ := b.pull(rank, false)
	return g, status
}

// Steal is Next with a fallback: if the rank's own pool (and its ancestor
// chain) is dry, pull half the most-loaded live rank's undistributed pool.
// Only pooled tasks move — in-flight work is never duplicated — so the
// catalog stays byte-identical regardless of who executes what.
func (b *serveBackend) Steal(rank int) (int, cnet.NextStatus) {
	g, status, _ := b.pull(rank, true)
	return g, status
}

// pull hands rank its next global task index, advancing the stage when the
// current one is fully committed. It also returns the state generation its
// verdict was drawn at, for await.
func (b *serveBackend) pull(rank int, steal bool) (int, cnet.NextStatus, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st.aborted.Load() {
		b.finish()
		return 0, cnet.NextAbort, b.gen
	}
	if rank < 0 || rank >= b.procs || b.dead[rank] {
		return 0, cnet.NextShutdown, b.gen
	}
	for {
		if b.s >= len(b.stages) {
			b.finish()
			return 0, cnet.NextShutdown, b.gen
		}
		j, ok := b.sched.Next(rank)
		if !ok && steal {
			j, ok = b.sched.Steal(rank)
		}
		if ok {
			return b.idx[j], cnet.NextTask, b.gen
		}
		if b.stageLeft > 0 {
			return 0, cnet.NextWait, b.gen
		}
		b.advanceLocked()
	}
}

// Commit finalizes one task reported over the wire; see commit.
func (b *serveBackend) Commit(rank, g int, stats [3]uint64) {
	b.commit(rank, g, Stats{
		Fits:        int64(stats[0]),
		NewtonIters: int64(stats[1]),
		Visits:      int64(stats[2]),
	})
}

// commit finalizes one task exactly once. The done bit and checkpoint hook
// run via st.commit BEFORE the stage-left counter drops, so the stage cannot
// advance (and no checkpoint can claim the next stage) until the task is
// durably committed.
func (b *serveBackend) commit(rank, g int, stats Stats) {
	b.mu.Lock()
	j, fresh := b.g2l[g]
	if fresh {
		delete(b.g2l, g)
	}
	b.mu.Unlock()
	if !fresh {
		return // duplicate or unknown: commits are idempotent
	}
	b.st.commit(g, stats)
	b.mu.Lock()
	// A fresh commit implies stageLeft > 0, so the stage (and its
	// scheduler) cannot have advanced since the g2l lookup.
	b.sched.Done(rank, j)
	b.stageLeft--
	b.totalLeft--
	b.changedLocked()
	fin := b.totalLeft == 0
	b.mu.Unlock()
	if fin {
		b.finish()
	}
}

// Fail retires a dead rank: its in-flight tasks and undistributed pool
// requeue to a live ancestor, and the rank stays dead for the rest of the
// run. A dropped connection and an injected FaultPlan kill both end here.
func (b *serveBackend) Fail(rank int) { b.retire(rank, false) }

// Leave retires a rank that announced a graceful departure. The work
// recovery is identical to Fail — requeue everything the rank held — but the
// departure is recorded as a leave, not a failure, so the run's accounting
// distinguishes churn from crashes.
func (b *serveBackend) Leave(rank int) { b.retire(rank, true) }

// allDeadLocked reports whether every rank is retired while tasks remain,
// with no stranding recorded yet. Caller holds mu.
func (b *serveBackend) allDeadLocked() bool {
	for _, d := range b.dead {
		if !d {
			return false
		}
	}
	return b.totalLeft > 0 && b.stranded == nil
}

func (b *serveBackend) retire(rank int, graceful bool) {
	b.mu.Lock()
	// Bounds check under mu: procs grows when elastic workers join.
	if rank < 0 || rank >= b.procs || b.dead[rank] {
		b.mu.Unlock()
		return
	}
	if graceful {
		b.leftRank[rank] = true
	}
	b.dead[rank] = true
	if b.sched != nil {
		b.sched.Fail(rank)
	}
	fin := false
	if b.allDeadLocked() {
		if b.rejoinGrace > 0 {
			// Every rank is dead but the listener is still open: hold the
			// run for one bounded window so a worker with rejoin budget can
			// re-enroll and rescue it. A Join during the window grows procs,
			// making the expiry check a no-op; nobody returning is a
			// permanent partition and strands below.
			if b.graceTimer == nil {
				b.graceTimer = time.AfterFunc(b.rejoinGrace, b.strandIfStillDead)
			}
		} else {
			b.stranded = fmt.Errorf("core: %d tasks stranded in stage %d: every rank of %d is dead",
				b.totalLeft, b.s, b.procs)
			fin = true
		}
	}
	b.changedLocked()
	b.mu.Unlock()
	if fin {
		b.finish()
	}
}

// strandIfStillDead is the rejoin-grace expiry: if the run is still all-dead
// with tasks outstanding, it strands now. A rescue (elastic Join) in the
// meantime grew procs past the dead count, and a later total-death episode
// arms a fresh timer.
func (b *serveBackend) strandIfStillDead() {
	b.mu.Lock()
	b.graceTimer = nil
	fin := b.allDeadLocked()
	if fin {
		b.stranded = fmt.Errorf("core: %d tasks stranded in stage %d: every worker of %d is dead and none re-enrolled within %v",
			b.totalLeft, b.s, b.procs, b.rejoinGrace)
	}
	b.mu.Unlock()
	if fin {
		b.finish()
	}
}

// Join admits an elastic worker mid-run with a fresh rank past the current
// complement. The scheduler grows a (empty-pooled) leaf the joiner steals
// into, and both PGAS arrays repartition to carry the new rank's shard view —
// under st.mu, since checkpoint capture reads the arrays there. A terminal
// run (completed, aborted, or stranded) refuses the join so late dials get a
// clean error instead of a hang.
//
// Admission is all-or-nothing: every repartition runs into temporaries
// first, and any error refuses the join with the run state untouched — a
// rank admitted without a shard view in the live and frozen arrays would
// serve wrong answers to every Get it proxies.
func (b *serveBackend) Join() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st.aborted.Load() || b.totalLeft == 0 || b.s >= len(b.stages) || b.stranded != nil {
		return 0, false
	}
	newProcs := b.procs + 1
	st := b.st
	st.mu.Lock()
	cur, err := st.cur.RepartitionRanks(newProcs)
	if err != nil {
		st.mu.Unlock()
		return 0, false
	}
	prev, err := st.prev.RepartitionRanks(newProcs)
	if err != nil {
		st.mu.Unlock()
		return 0, false
	}
	snap, err := st.prevSnap.Repartition(newProcs)
	if err != nil {
		st.mu.Unlock()
		return 0, false
	}
	st.cur, st.prev, st.prevSnap = cur, prev, snap
	// cur was replaced: its shard versions restarted, so the delta
	// baseline is invalid.
	st.lastCurSnap = nil
	st.mu.Unlock()
	b.dead = append(b.dead, false)
	rank := b.procs
	b.procs = newProcs
	if b.sched != nil {
		b.sched.Join()
	}
	return rank, true
}

// Get serves stage-input elements from the frozen array with the worker's
// rank as the traffic-accounting caller, exactly as the in-process views do.
func (b *serveBackend) Get(rank int, idx []uint64, out []float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rank < 0 || rank >= b.procs || b.dead[rank] {
		return fmt.Errorf("core: rank %d is retired", rank)
	}
	w := model.ParamDim
	n := uint64(b.st.prev.N())
	for k, i := range idx {
		if i >= n {
			return fmt.Errorf("core: get of element %d outside [0,%d)", i, n)
		}
		b.st.prev.Get(rank, int(i), out[k*w:(k+1)*w])
	}
	return nil
}

// Put writes result elements into the live array.
func (b *serveBackend) Put(rank int, idx []uint64, vals []float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rank < 0 || rank >= b.procs || b.dead[rank] {
		return fmt.Errorf("core: rank %d is retired", rank)
	}
	w := model.ParamDim
	n := uint64(b.st.cur.N())
	for k, i := range idx {
		if i >= n {
			return fmt.Errorf("core: put of element %d outside [0,%d)", i, n)
		}
		b.st.cur.Put(rank, int(i), vals[k*w:(k+1)*w])
	}
	return nil
}

// Snapshot serves the versioned PGAS snapshots the checkpoint format is
// built from: the live array is captured fresh; the frozen stage input is
// the serialized form every checkpoint of this stage shares.
func (b *serveBackend) Snapshot(which byte) (*pgas.Snapshot, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch which {
	case cnet.SnapCur:
		return b.st.cur.Snapshot(), nil
	case cnet.SnapStageStart:
		return b.st.prevSnap, nil
	default:
		return nil, fmt.Errorf("core: unknown snapshot selector %d", which)
	}
}
