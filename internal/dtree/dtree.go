// Package dtree implements the Dtree distributed dynamic scheduler (Pamnany
// et al., "Dtree: Dynamic task scheduling at petascale") that Celeste uses
// to balance irregular tasks across nodes (Section IV-B). Compute nodes form
// a tree of fan-out k (height logarithmic in the node count); a fraction of
// the task range is dealt out statically up front (the "first allocation"),
// and the remainder flows down the tree on demand: a node that drains its
// local pool asks its parent for a chunk, and requests cascade toward the
// root, which owns the undistributed range.
//
// Two consumers drive this package: the Scheduler below, which the run
// backend in internal/core builds once per stage and serves to its ranks
// (goroutines in this process or worker processes over TCP), and the
// discrete-event cluster simulator (internal/cluster), which replays the same
// allocation policy with modeled latencies to reproduce the paper's scaling
// figures. The policy functions are pure so both agree exactly.
package dtree

import (
	"sync"
)

// Config parameterizes the scheduler policy.
type Config struct {
	Fanout    int     // tree fan-out (default 8)
	FirstFrac float64 // fraction of tasks distributed statically (default 0.4)
	ChunkFrac float64 // fraction of the holder's remaining pool per request,
	// scaled by the requester's subtree size (default 0.5)
	MinChunk int // smallest chunk handed down (default 1)
}

func (c *Config) defaults() {
	if c.Fanout == 0 {
		c.Fanout = 8
	}
	if c.FirstFrac == 0 {
		c.FirstFrac = 0.4
	}
	if c.ChunkFrac == 0 {
		c.ChunkFrac = 0.5
	}
	if c.MinChunk == 0 {
		c.MinChunk = 1
	}
}

// Parent returns the tree parent of rank (rank 0 is the root, parent -1).
func Parent(rank, fanout int) int {
	if rank == 0 {
		return -1
	}
	return (rank - 1) / fanout
}

// Children returns the children of rank in an n-rank tree.
func Children(rank, fanout, n int) []int {
	var out []int
	for i := 1; i <= fanout; i++ {
		c := rank*fanout + i
		if c < n {
			out = append(out, c)
		}
	}
	return out
}

// Depth returns the tree height for n ranks.
func Depth(n, fanout int) int {
	d := 0
	// The deepest rank is n-1.
	for r := n - 1; r > 0; r = Parent(r, fanout) {
		d++
	}
	return d
}

// SubtreeSize returns the number of ranks in rank's subtree (including
// itself).
func SubtreeSize(rank, fanout, n int) int {
	size := 1
	for _, c := range Children(rank, fanout, n) {
		size += SubtreeSize(c, fanout, n)
	}
	return size
}

// FirstAllocation splits the static share of totalTasks evenly over n ranks:
// rank i receives [start, start+count). The remaining tasks
// [n*per, totalTasks) stay at the root for dynamic distribution.
func FirstAllocation(cfg Config, totalTasks, n, rank int) (start, count int) {
	cfg.defaults()
	per := int(cfg.FirstFrac * float64(totalTasks) / float64(n))
	return rank * per, per
}

// DynamicStart returns the first task index of the dynamically distributed
// range.
func DynamicStart(cfg Config, totalTasks, n int) int {
	cfg.defaults()
	per := int(cfg.FirstFrac * float64(totalTasks) / float64(n))
	return per * n
}

// ChunkSize decides how many tasks a holder with `remaining` pooled tasks
// hands to a requesting child: the requester's fair share of the holder's
// pool, proportional to subtree sizes (the holder's pool serves its whole
// subtree). ChunkFrac < 1 holds some back for later requesters.
func ChunkSize(cfg Config, remaining, subRequester, subHolder int) int {
	cfg.defaults()
	if remaining <= 0 {
		return 0
	}
	c := int(cfg.ChunkFrac * float64(remaining) * float64(subRequester) / float64(subHolder))
	if c < cfg.MinChunk {
		c = cfg.MinChunk
	}
	if c > remaining {
		c = remaining
	}
	return c
}

// --- Scheduler ---

// Scheduler runs the Dtree policy over in-process ranks. The root holds the
// dynamic pool; every rank holds a local pool refilled through its parent
// chain. It is safe for concurrent use by one goroutine per rank.
//
// For fault tolerance the scheduler tracks which tasks each rank currently
// holds in flight (handed out by Next, not yet confirmed by Done). Fail
// requeues a dead rank's in-flight tasks and undistributed local pool into a
// surviving ancestor's pool, the mechanism the paper relies on when a Cori
// node drops out mid-run (Section IV-B: tasks are idempotent, so central
// rescheduling is the whole recovery story).
type Scheduler struct {
	cfg   Config
	n     int
	total int

	mu    sync.Mutex
	pools []pool // per-rank local pool; the root's also holds the dynamic range

	subSize []int // cached SubtreeSize per rank (petascale rank counts)

	inflight []map[int]bool // per-rank tasks handed out but not Done
	dead     []bool         // ranks removed by Fail
	rootHeir int            // rank holding the dynamic pool (0 until the root dies); -1 while every rank is dead
	orphans  pool           // tasks parked by the last rank's Fail, inherited by the next Join

	// Stats.
	requests  []int64 // per-rank requests sent up the chain
	delivered []int64 // per-rank tasks processed
	requeued  int64   // tasks returned to the pool by Fail
	stolen    int64   // tasks moved between pools by Steal
}

type taskRange struct{ lo, hi int }

func (r taskRange) size() int { return r.hi - r.lo }

// pool is an ordered list of disjoint task ranges.
type pool struct{ ranges []taskRange }

func (p *pool) size() int {
	var s int
	for _, r := range p.ranges {
		s += r.size()
	}
	return s
}

// take removes up to k tasks from the front of the pool.
func (p *pool) take(k int) pool {
	var out pool
	for k > 0 && len(p.ranges) > 0 {
		r := &p.ranges[0]
		n := r.size()
		if n > k {
			n = k
		}
		out.ranges = append(out.ranges, taskRange{r.lo, r.lo + n})
		r.lo += n
		k -= n
		if r.size() == 0 {
			p.ranges = p.ranges[1:]
		}
	}
	return out
}

// takeOne removes a single task index.
func (p *pool) takeOne() int {
	r := &p.ranges[0]
	t := r.lo
	r.lo++
	if r.size() == 0 {
		p.ranges = p.ranges[1:]
	}
	return t
}

func (p *pool) add(q pool) { p.ranges = append(p.ranges, q.ranges...) }

// New creates a scheduler for totalTasks over n ranks: static first
// allocations per rank, with the dynamic remainder pooled at the root rank.
func New(cfg Config, n, totalTasks int) *Scheduler {
	return NewResumed(cfg, n, totalTasks, nil)
}

// NewResumed creates a scheduler whose pools exclude the tasks already
// marked true in done (len(done) == totalTasks, or nil for a fresh run).
// A resumed run distributes only the surviving work, through the same
// first-allocation/dynamic-pool policy applied to the filtered ranges.
func NewResumed(cfg Config, n, totalTasks int, done []bool) *Scheduler {
	cfg.defaults()
	s := &Scheduler{
		cfg: cfg, n: n, total: totalTasks,
		pools:     make([]pool, n),
		inflight:  make([]map[int]bool, n),
		dead:      make([]bool, n),
		requests:  make([]int64, n),
		delivered: make([]int64, n),
	}
	for r := 0; r < n; r++ {
		s.inflight[r] = make(map[int]bool)
		start, count := FirstAllocation(cfg, totalTasks, n, r)
		if count > 0 {
			s.pools[r].ranges = subtractDone([]taskRange{{start, start + count}}, done)
		}
	}
	ds := DynamicStart(cfg, totalTasks, n)
	if ds < totalTasks {
		s.pools[0].ranges = append(s.pools[0].ranges,
			subtractDone([]taskRange{{ds, totalTasks}}, done)...)
	}
	// Subtree sizes bottom-up (avoids O(n) recursion per refill).
	s.subSize = make([]int, n)
	for r := n - 1; r >= 0; r-- {
		s.subSize[r]++
		if p := Parent(r, cfg.Fanout); p >= 0 {
			s.subSize[p] += s.subSize[r]
		}
	}
	return s
}

// subtractDone splits ranges around already-completed task indices.
func subtractDone(ranges []taskRange, done []bool) []taskRange {
	if done == nil {
		return ranges
	}
	var out []taskRange
	for _, r := range ranges {
		lo := r.lo
		for t := r.lo; t < r.hi; t++ {
			if t < len(done) && done[t] {
				if t > lo {
					out = append(out, taskRange{lo, t})
				}
				lo = t + 1
			}
		}
		if r.hi > lo {
			out = append(out, taskRange{lo, r.hi})
		}
	}
	return out
}

// Next returns the next task index for rank, or ok=false when the global
// supply is exhausted (or the rank has been failed). Draining ranks pull
// chunks through their ancestor chain, mirroring request propagation toward
// the root. The task stays attributed to the rank until Done or Fail.
func (s *Scheduler) Next(rank int) (task int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead[rank] {
		return 0, false
	}
	if s.pools[rank].size() == 0 {
		s.refillLocked(rank)
	}
	if s.pools[rank].size() == 0 {
		return 0, false
	}
	s.delivered[rank]++
	t := s.pools[rank].takeOne()
	s.inflight[rank][t] = true
	return t, true
}

// Done confirms that rank finished the task Next handed it. Tasks never
// confirmed are requeued if the rank fails.
func (s *Scheduler) Done(rank, task int) {
	s.mu.Lock()
	delete(s.inflight[rank], task)
	s.mu.Unlock()
}

// Fail removes rank from the schedule: its unconfirmed in-flight tasks and
// undistributed local pool move to the nearest live ancestor (the root's
// natural stand-in), and subsequent Next(rank) calls return false. Returns
// how many tasks were requeued — in-flight plus pooled. Idempotent per rank.
func (s *Scheduler) Fail(rank int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead[rank] {
		return 0
	}
	s.dead[rank] = true
	heir := -1
	for p := Parent(rank, s.cfg.Fanout); p >= 0; p = Parent(p, s.cfg.Fanout) {
		if !s.dead[p] {
			heir = p
			break
		}
	}
	if heir == -1 { // no live ancestor: any surviving rank inherits
		for r := 0; r < s.n; r++ {
			if !s.dead[r] {
				heir = r
				break
			}
		}
	}
	if rank == s.rootHeir {
		s.rootHeir = heir // may be -1 when every rank is dead
	}
	n := len(s.inflight[rank]) + s.pools[rank].size()
	if heir < 0 {
		// Every rank is dead: park the tasks in the orphan pool, where they
		// are unreachable until a new rank joins. The all-dead run either
		// strands (the caller decides how long to wait) or an elastic
		// joiner inherits the pool and finishes the work — dropping the
		// tasks here would turn that rescue into a silent hang.
		for t := range s.inflight[rank] {
			s.orphans.ranges = append(s.orphans.ranges, taskRange{t, t + 1})
		}
		s.inflight[rank] = make(map[int]bool)
		s.orphans.add(s.pools[rank])
		s.pools[rank] = pool{}
		s.requeued += int64(n)
		return n
	}
	for t := range s.inflight[rank] {
		s.pools[heir].ranges = append(s.pools[heir].ranges, taskRange{t, t + 1})
	}
	s.inflight[rank] = make(map[int]bool)
	s.pools[heir].add(s.pools[rank])
	s.pools[rank] = pool{}
	s.requeued += int64(n)
	return n
}

// Requeued reports how many tasks Fail has returned to the pool so far.
func (s *Scheduler) Requeued() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requeued
}

// Steal pulls a task for an idle rank directly from the most-loaded live
// rank's undistributed pool — the elastic complement to the ancestor-chain
// refill, which can leave a rank spinning on Wait while a sibling subtree
// still holds a deep pool. Half the victim's pool (at least one task) moves
// to the thief so repeated steals converge instead of ping-ponging single
// tasks. Only pooled (undistributed) tasks move; in-flight tasks stay
// attributed to their rank, so no task can be executed twice by a steal.
func (s *Scheduler) Steal(rank int) (task int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= s.n || s.dead[rank] {
		return 0, false
	}
	if s.pools[rank].size() == 0 {
		victim, most := -1, 0
		for r := 0; r < s.n; r++ {
			if r == rank || s.dead[r] {
				continue
			}
			if sz := s.pools[r].size(); sz > most {
				victim, most = r, sz
			}
		}
		if victim == -1 {
			return 0, false
		}
		k := most / 2
		if k < 1 {
			k = 1
		}
		got := s.pools[victim].take(k)
		s.stolen += int64(got.size())
		s.pools[rank].add(got)
	}
	if s.pools[rank].size() == 0 {
		return 0, false
	}
	s.delivered[rank]++
	t := s.pools[rank].takeOne()
	s.inflight[rank][t] = true
	return t, true
}

// Stolen reports how many tasks Steal has moved between pools so far.
func (s *Scheduler) Stolen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stolen
}

// Join admits a new rank into the schedule mid-run and returns its rank
// index. The joiner starts with an empty pool — it acquires work through
// Steal or the refill chain — and slots into the tree as the next leaf, with
// subtree sizes recomputed so chunk fair-shares stay consistent.
func (s *Scheduler) Join() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	rank := s.n
	s.n++
	s.pools = append(s.pools, pool{})
	s.inflight = append(s.inflight, make(map[int]bool))
	s.dead = append(s.dead, false)
	s.requests = append(s.requests, 0)
	s.delivered = append(s.delivered, 0)
	s.subSize = make([]int, s.n)
	for r := s.n - 1; r >= 0; r-- {
		s.subSize[r]++
		if p := Parent(r, s.cfg.Fanout); p >= 0 {
			s.subSize[p] += s.subSize[r]
		}
	}
	if s.rootHeir < 0 {
		// The joiner is the first live rank after a total death: it stands
		// in for the root and inherits whatever the last casualties parked.
		s.rootHeir = rank
	}
	if s.orphans.size() > 0 {
		s.pools[rank].add(s.orphans)
		s.orphans = pool{}
	}
	return rank
}

// Leave removes a rank that departs gracefully. The scheduling consequence
// is identical to Fail — in-flight tasks and the local pool requeue to a
// live ancestor — but callers use the distinction for accounting (a leaver
// is not a failure).
func (s *Scheduler) Leave(rank int) int {
	return s.Fail(rank)
}

// refillLocked walks up the chain of live ancestors to the nearest pool with
// tasks and cascades fair-share chunks back down to the requester. Dead
// ranks are skipped: their pools were drained into an ancestor by Fail, and
// routing chunks through them would strand work.
func (s *Scheduler) refillLocked(rank int) {
	chain := []int{rank}
	for p := Parent(rank, s.cfg.Fanout); p >= 0; p = Parent(p, s.cfg.Fanout) {
		if !s.dead[p] {
			chain = append(chain, p)
		}
	}
	// If the root died, the dynamic pool lives with its heir; make sure the
	// chain can reach it.
	if h := s.rootHeir; h >= 0 && h != rank && chain[len(chain)-1] != h {
		inChain := false
		for _, c := range chain {
			if c == h {
				inChain = true
				break
			}
		}
		if !inChain {
			chain = append(chain, h)
		}
	}
	s.requests[rank]++
	level := -1
	for i := 1; i < len(chain); i++ {
		if s.pools[chain[i]].size() > 0 {
			level = i
			break
		}
	}
	if level == -1 {
		return // global exhaustion
	}
	for i := level; i > 0; i-- {
		holder, requester := chain[i], chain[i-1]
		subH := s.subSize[holder]
		subR := s.subSize[requester]
		k := ChunkSize(s.cfg, s.pools[holder].size(), subR, subH)
		got := s.pools[holder].take(k)
		if got.size() == 0 {
			return
		}
		s.pools[requester].add(got)
	}
}

// Stats returns, per rank, how many tasks it processed and how many refill
// requests it issued.
func (s *Scheduler) Stats() (delivered, requests []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.delivered...), append([]int64(nil), s.requests...)
}

// Run executes process for every task, with one goroutine per rank pulling
// from the scheduler until exhaustion. It returns when all tasks are done.
func (s *Scheduler) Run(process func(rank, task int)) {
	var wg sync.WaitGroup
	for r := 0; r < s.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for {
				t, ok := s.Next(rank)
				if !ok {
					return
				}
				process(rank, t)
				s.Done(rank, t)
			}
		}(r)
	}
	wg.Wait()
}

// --- Fault injection ---

// A Fault is one scheduled failure or slowdown of a rank, triggered by that
// rank's progress: after it has completed AfterTasks tasks. Both the
// in-process ranks of internal/core and the cluster simulator
// (internal/cluster) honor the same plan, so a recovery observed for real at
// laptop scale can be priced at machine scale.
type Fault struct {
	Rank       int
	AfterTasks int // trigger after the rank completes this many tasks

	// Kill: the rank dies while processing its next task — the work is lost
	// and the task (plus the rank's undistributed pool) is requeued.
	Kill bool

	// DelaySeconds: the rank stalls this long before each subsequent task (a
	// straggler: thermal throttling, a sick burst-buffer stream, a noisy
	// neighbor). Ignored when Kill is set.
	DelaySeconds float64
}

// FaultPlan is a set of faults to inject into a run.
type FaultPlan struct {
	Faults []Fault
}

// KillAfter reports whether rank is scheduled to die, and after how many
// completed tasks. The earliest kill wins when several target one rank.
func (p *FaultPlan) KillAfter(rank int) (after int, ok bool) {
	if p == nil {
		return 0, false
	}
	for _, f := range p.Faults {
		if f.Kill && f.Rank == rank && (!ok || f.AfterTasks < after) {
			after, ok = f.AfterTasks, true
		}
	}
	return after, ok
}

// DelayFor returns the stall to apply before the task following `completed`
// completed tasks on rank (the sum of all triggered delay faults).
func (p *FaultPlan) DelayFor(rank, completed int) float64 {
	if p == nil {
		return 0
	}
	var d float64
	for _, f := range p.Faults {
		if !f.Kill && f.Rank == rank && completed >= f.AfterTasks {
			d += f.DelaySeconds
		}
	}
	return d
}
