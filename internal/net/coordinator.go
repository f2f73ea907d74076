// The coordinator side of the TCP runtime: accept worker connections, assign
// ranks, enforce the handshake (protocol version, independently recomputed
// run hash), serve scheduler and PGAS traffic, and detect dead workers so
// their in-flight tasks requeue — the paper's Section IV-B recovery story
// with a real wire in the middle.
package net

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"celeste/internal/pgas"
)

// NextStatus is the backend's answer to a task pull.
type NextStatus int

const (
	// NextTask hands the rank one task.
	NextTask NextStatus = iota
	// NextWait means the pool is dry but the stage is unfinished (tasks are
	// in flight on other ranks, and a death may requeue them); retry.
	NextWait
	// NextShutdown means the run is complete (or the rank is retired); the
	// worker should exit cleanly.
	NextShutdown
	// NextAbort means the run was aborted; the worker should exit.
	NextAbort
)

// Backend is the run state a coordinator serves: task scheduling, the PGAS
// arrays, and commit bookkeeping. internal/core implements it once and its
// in-process ranks call that same implementation directly, which is what
// makes TCP and in-process runs byte-identical — they share everything but
// the transport.
type Backend interface {
	// Welcome returns the run parameters advertised to connecting workers.
	Welcome() RunConfig
	// Next asks for rank's next task (a global task index).
	Next(rank int) (task int, status NextStatus)
	// Commit records a completed task and its work stats. It must be
	// idempotent: a task already committed is ignored.
	Commit(rank, task int, stats [3]uint64)
	// Fail retires a dead rank, requeueing its in-flight work. Idempotent.
	Fail(rank int)
	// Join admits an elastic worker mid-run with a fresh rank past the
	// static complement. ok=false refuses the join (run already terminal).
	Join() (rank int, ok bool)
	// Leave retires a gracefully departing rank: its work requeues exactly
	// as on Fail, but the departure is not counted as a failure. Idempotent.
	Leave(rank int)
	// Steal asks for a task for an idle rank, pulled from the most-loaded
	// live rank's undistributed pool when the rank's own supply is dry.
	Steal(rank int) (task int, status NextStatus)
	// Get copies stage-input elements into out (len(idx)*width values).
	Get(rank int, idx []uint64, out []float64) error
	// Put writes result elements into the live array.
	Put(rank int, idx []uint64, vals []float64) error
	// Snapshot captures one of the PGAS arrays (SnapCur or SnapStageStart).
	Snapshot(which byte) (*pgas.Snapshot, error)
	// Done is closed when the run reaches a terminal state (complete,
	// aborted, or stranded); Serve drains and returns after it closes.
	Done() <-chan struct{}
}

// ServeOptions tunes the coordinator's failure detection.
type ServeOptions struct {
	// DeadAfter is how long a worker may stay silent (no frame, not even a
	// heartbeat) before it is declared dead and its tasks requeue.
	// Default 10s.
	DeadAfter time.Duration
	// ConnectGrace is how long the coordinator waits for the full worker
	// complement to connect before failing the absent ranks, so their
	// statically allocated task pools requeue to the ranks that did show
	// up. Default 30s.
	ConnectGrace time.Duration
}

func (o *ServeOptions) defaults() {
	if o.DeadAfter == 0 {
		o.DeadAfter = 10 * time.Second
	}
	if o.ConnectGrace == 0 {
		o.ConnectGrace = 30 * time.Second
	}
}

// Serve runs the coordinator over l until the backend reaches a terminal
// state, then drains the connections and returns. Worker deaths (connection
// errors, heartbeat silence) are reported to the backend via Fail; Serve
// itself returns an error only for listener failures.
func Serve(l net.Listener, b Backend, opts ServeOptions) error {
	opts.defaults()
	cfg := b.Welcome()
	s := &coordinator{
		b:       b,
		cfg:     cfg,
		opts:    opts,
		conns:   make(map[net.Conn]struct{}),
		workers: int(cfg.Workers),
	}

	var wg sync.WaitGroup
	acceptDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		acceptDone <- s.acceptLoop(l)
	}()

	// Fail ranks that never connect, so their static pools requeue.
	grace := time.AfterFunc(opts.ConnectGrace, s.failAbsentRanks)
	defer grace.Stop()

	<-b.Done()
	l.Close() // stops the accept loop
	// Let live connections drain gracefully: each worker receives its
	// Shutdown on its next pull. A SIGKILLed worker's connection errors out
	// immediately; a hung one trips its read deadline within DeadAfter.
	drained := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(opts.DeadAfter + 2*time.Second):
		s.closeAll()
		<-drained
	}
	wg.Wait()
	if err := <-acceptDone; err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// coordinator is the shared state of one Serve call.
type coordinator struct {
	b    Backend
	cfg  RunConfig
	opts ServeOptions

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	nextRank int
	workers  int
	sealed   bool // no further rank assignment (grace expired)

	handlers sync.WaitGroup
}

func (s *coordinator) acceptLoop(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(c)
		}()
	}
}

// failAbsentRanks retires every rank that has not connected by the end of
// the grace period. Fail is idempotent and a completed run ignores it, so
// firing late is harmless.
func (s *coordinator) failAbsentRanks() {
	s.mu.Lock()
	from := s.nextRank
	s.sealed = true
	s.mu.Unlock()
	for r := from; r < s.workers; r++ {
		s.b.Fail(r)
	}
}

func (s *coordinator) closeAll() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// assignRank hands out the next free rank, or -1 when the complement is full
// or the connect grace has expired.
func (s *coordinator) assignRank() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed || s.nextRank >= s.workers {
		return -1
	}
	r := s.nextRank
	s.nextRank++
	return r
}

// sendError best-effort delivers a fatal error to the peer.
func sendError(fw *frameWriter, text string) {
	_ = fw.send(&Message{Type: MsgError, Text: text})
}

// handle runs one worker connection: handshake, then the serve loop. Any
// exit after rank assignment that is not a clean shutdown fails the rank.
func (s *coordinator) handle(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	fw := newFrameWriter(c)

	// Handshake: Hello → Welcome(rank, run config) → Ready(worker's hash).
	// The handshake deadline is the connect grace, not DeadAfter: between
	// Welcome and Ready the worker regenerates the whole run (partition +
	// run hash over every survey pixel), which legitimately takes far
	// longer than a heartbeat period on large surveys. Deadlines are set
	// with SetDeadline so writes are bounded too — a stalled peer with a
	// full socket buffer must not wedge this handler forever.
	c.SetDeadline(time.Now().Add(s.opts.ConnectGrace))
	m, err := ReadMessage(c)
	if err != nil {
		if errors.Is(err, ErrBadVersion) {
			sendError(fw, err.Error())
		}
		return
	}
	// An elastic joiner is admitted only after its Ready/hash check passes:
	// Backend.Join permanently grows the rank space and repartitions both
	// PGAS arrays, so minting the rank first would let a flapping mismatched
	// worker grow the run without bound — and double-count each attempt as
	// both a joined and a failed rank. Until Join succeeds, a joiner holds no
	// rank and a refused handshake leaves the run untouched.
	rank := -1
	elastic := false
	switch m.Type {
	case MsgHello:
		rank = s.assignRank()
		if rank < 0 {
			sendError(fw, "net: no rank available (worker complement already full)")
			return
		}
	case MsgJoin:
		// Elastic admission bypasses the static complement and the connect
		// grace seal: after the handshake verifies, the backend mints a fresh
		// rank and the joiner acquires work by stealing. The Welcome carries a
		// provisional rank of 0 — the worker side never uses the rank on the
		// wire (the coordinator tracks it per connection), so the real rank
		// need not exist yet.
		elastic = true
	default:
		sendError(fw, "net: expected Hello or Join to open the handshake")
		return
	}
	// fail retires the rank, if one was ever assigned. A refused or failed
	// joiner never held a rank, so there is nothing to fail — and nothing to
	// count in the run's joined/failed accounting.
	fail := func() {
		if !elastic {
			s.b.Fail(rank)
		}
	}
	cfg := s.cfg
	wireRank := uint32(0)
	if !elastic {
		wireRank = uint32(rank)
	}
	if err := fw.send(&Message{Type: MsgWelcome, Rank: wireRank, Welcome: &cfg}); err != nil {
		fail()
		return
	}
	c.SetDeadline(time.Now().Add(s.opts.ConnectGrace))
	m, err = ReadMessage(c)
	if err != nil || m.Type != MsgReady {
		fail()
		return
	}
	if m.Hash != s.cfg.RunHash {
		sendError(fw, fmt.Sprintf("net: run hash mismatch: worker computed %016x, run is %016x",
			m.Hash, s.cfg.RunHash))
		fail()
		return
	}
	if elastic {
		r, ok := s.b.Join()
		if !ok {
			sendError(fw, "net: join refused (run is terminal)")
			return
		}
		rank = r
	}

	if err := s.serveRank(c, fw, rank); err != nil {
		// The worker died, hung past its heartbeat deadline, or broke
		// protocol: requeue everything it held. The commit path is
		// idempotent, so even a task it had already reported is safe to
		// re-execute elsewhere.
		s.b.Fail(rank)
	}
}

// serveRank is the per-worker message loop. It returns nil after a clean
// shutdown and an error for every death-like exit.
func (s *coordinator) serveRank(c net.Conn, fw *frameWriter, rank int) error {
	width := int(s.cfg.Width)
	// Every response write gets its own fresh deadline. Reusing the read
	// deadline is wrong in both directions: backend work between read and
	// write (a commit waiting out a checkpoint capture, a snapshot build) can
	// burn through it and spuriously kill a healthy worker, while a worker
	// that stops draining its socket mid-response must still die within
	// DeadAfter rather than wedging this handler on a full send buffer.
	send := func(m *Message) error {
		c.SetWriteDeadline(time.Now().Add(s.opts.DeadAfter))
		return fw.send(m)
	}
	sendErr := func(text string) { _ = send(&Message{Type: MsgError, Text: text}) }
	for {
		c.SetReadDeadline(time.Now().Add(s.opts.DeadAfter))
		m, err := ReadMessage(c)
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgHeartbeat:
			// Liveness only; reading it already refreshed the deadline.
		case MsgTaskReq, MsgSteal:
			var task int
			var status NextStatus
			if m.Type == MsgSteal {
				task, status = s.b.Steal(rank)
			} else {
				task, status = s.b.Next(rank)
			}
			var resp Message
			switch status {
			case NextTask:
				resp = Message{Type: MsgTask, Task: uint64(task)}
			case NextWait:
				resp = Message{Type: MsgWait}
			case NextShutdown:
				resp = Message{Type: MsgShutdown, Reason: ShutdownComplete}
			case NextAbort:
				resp = Message{Type: MsgShutdown, Reason: ShutdownAborted}
			}
			if err := send(&resp); err != nil {
				return err
			}
			if status == NextShutdown || status == NextAbort {
				return nil
			}
		case MsgLeave:
			// Graceful departure: requeue the rank's work without counting a
			// failure, confirm with a shutdown, and end the session cleanly.
			s.b.Leave(rank)
			if err := send(&Message{Type: MsgShutdown, Reason: ShutdownComplete}); err != nil {
				return err
			}
			return nil
		case MsgTaskDone:
			s.b.Commit(rank, int(m.Task), m.Stats)
		case MsgGet:
			// The response must fit one frame; refuse a batch that could not
			// before allocating for it.
			if len(m.Indices)*width > maxFramePayload/8 {
				err := fmt.Errorf("net: get batch of %d elements at width %d exceeds one frame",
					len(m.Indices), width)
				sendErr(err.Error())
				return err
			}
			out := make([]float64, len(m.Indices)*width)
			if err := s.b.Get(rank, m.Indices, out); err != nil {
				sendErr(err.Error())
				return err
			}
			if err := send(&Message{Type: MsgParams, Values: out}); err != nil {
				return err
			}
		case MsgPut:
			if len(m.Values) != len(m.Indices)*width {
				err := fmt.Errorf("net: put carries %d values for %d elements of width %d",
					len(m.Values), len(m.Indices), width)
				sendErr(err.Error())
				return err
			}
			if err := s.b.Put(rank, m.Indices, m.Values); err != nil {
				sendErr(err.Error())
				return err
			}
		case MsgSnapshotReq:
			snap, err := s.b.Snapshot(m.Which)
			if err != nil {
				sendErr(err.Error())
				return err
			}
			if err := send(&Message{Type: MsgSnapshot, Which: m.Which, Snap: snap}); err != nil {
				return err
			}
		case MsgError:
			return errors.New("net: worker reported: " + m.Text)
		default:
			err := fmt.Errorf("net: unexpected message type %d from rank %d", m.Type, rank)
			sendErr(err.Error())
			return err
		}
	}
}

// Transport carries the coordinator's listening socket and the run
// parameters that only the caller knows into core.RunOptions. Setting it on
// a run replaces the in-process goroutine ranks with cfg.Processes real
// worker processes pulling tasks over TCP.
type Transport struct {
	// Listener accepts worker connections; the run closes it on completion.
	Listener net.Listener
	// TargetWork is the partition knob advertised to workers so they can
	// regenerate the identical two-stage task list.
	TargetWork float64
	// DeadAfter and ConnectGrace tune failure detection (see ServeOptions).
	DeadAfter    time.Duration
	ConnectGrace time.Duration
	// RejoinGrace, when positive, holds a run open for that long after its
	// last rank dies with tasks outstanding, instead of declaring the work
	// stranded immediately: a transient total partition (every link reset at
	// once) is survivable when workers carry a rejoin budget, because the
	// listener stays open and the first elastic re-enrollment rescues the
	// run. If the window expires with every rank still dead, the run fails
	// with the stranded diagnostic as before — bounded, never a hang. Zero
	// strands immediately.
	RejoinGrace time.Duration
}
