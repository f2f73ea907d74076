package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"sync"
	"syscall"
	"time"

	"celeste/internal/catserve"
	"celeste/internal/geom"
	"celeste/internal/model"
)

// endpoint is a catserve.Server behind a real loopback listener, plus the
// client connections the load generator drives it over.
type endpoint struct {
	store   *catserve.Store
	srv     *catserve.Server
	hs      *http.Server
	base    string
	clients []*http.Client
	done    chan error
}

// serve starts an HTTP listener for store on a loopback port, with conns
// client connections (each http.Client keeps exactly one).
func serve(store *catserve.Store, conns int) (*endpoint, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for catalog queries: %w", err)
	}
	ep := &endpoint{store: store, srv: catserve.NewServer(store), base: "http://" + l.Addr().String(),
		done: make(chan error, 1)}
	ep.hs = ep.srv.HTTPServer()
	go func() { ep.done <- ep.hs.Serve(l) }()
	for i := 0; i < conns; i++ {
		ep.clients = append(ep.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	return ep, nil
}

// close shuts the server down and waits for its serve loop to return.
func (ep *endpoint) close() error {
	for _, c := range ep.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ep.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-ep.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// get fetches one target over client c and returns the body.
func (ep *endpoint) get(c *http.Client, target string, tr *httptrace.ClientTrace) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, ep.base+target, nil)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), tr))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", target, resp.StatusCode)
	}
	return body, nil
}

// sample is one open-loop request. Latency counts from due, the moment the
// schedule said to send it, so a stall also charges the requests it delays.
type sample struct {
	due, ready, dispatched, sent, first, done time.Time
	bytes                                     int
	ok                                        bool
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// phase is the outcome of one fixed-rate stretch.
type phase struct {
	samples []sample
}

func (p *phase) latenciesMs() []float64 {
	out := make([]float64, 0, len(p.samples))
	for i := range p.samples {
		if p.samples[i].ok {
			out = append(out, float64(p.samples[i].latency())/1e6)
		}
	}
	return out
}

func (p *phase) failures() int {
	n := 0
	for i := range p.samples {
		if !p.samples[i].ok {
			n++
		}
	}
	return n
}

// openLoop sends next()'s targets at a fixed rate for dur, regardless of
// how fast replies come back. The schedule is one sequence of due times,
// dealt round-robin to the client connections; each connection's goroutine
// sleeps until its next request is due and sends it, or sends at once when
// its previous reply came back late, so a stall queues later requests
// instead of thinning the load. With trace set each request also records
// when it was written and when its first byte came back.
func (ep *endpoint) openLoop(next func() string, rate float64, dur time.Duration, trace bool) *phase {
	n := int(rate * dur.Seconds())
	targets := make([]string, n)
	for i := range targets {
		targets[i] = next()
	}
	p := &phase{samples: make([]sample, n)}
	start := time.Now()
	for i := range p.samples {
		p.samples[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	var wg sync.WaitGroup
	for k, c := range ep.clients {
		wg.Add(1)
		go func(k int, c *http.Client) {
			defer wg.Done()
			var prevDone time.Time
			for i := k; i < n; i += len(ep.clients) {
				s := &p.samples[i]
				s.ready = s.due
				if prevDone.After(s.ready) {
					s.ready = prevDone
				}
				sleepUntil(s.ready)
				s.dispatched = time.Now()
				var tr *httptrace.ClientTrace
				if trace {
					tr = &httptrace.ClientTrace{
						WroteRequest:         func(httptrace.WroteRequestInfo) { s.sent = time.Now() },
						GotFirstResponseByte: func() { s.first = time.Now() },
					}
				}
				body, err := ep.get(c, targets[i], tr)
				s.done = time.Now()
				s.ok, s.bytes = err == nil, len(body)
				prevDone = s.done
			}
		}(k, c)
	}
	wg.Wait()
	return p
}

// closedLoop sends next()'s targets back to back over one connection for
// dur: each request goes out the moment the previous reply is in, so its
// latency is the service time of one query over HTTP, with no idle wake-up
// before it. With trace set each request also records when it was written
// and when its first byte came back.
func (ep *endpoint) closedLoop(next func() string, dur time.Duration, trace bool) *phase {
	p := &phase{}
	c := ep.clients[0]
	for end := time.Now().Add(dur); time.Now().Before(end); {
		target := next()
		var s sample
		s.due = time.Now()
		s.ready, s.dispatched = s.due, s.due
		var tr *httptrace.ClientTrace
		if trace {
			tr = &httptrace.ClientTrace{
				WroteRequest:         func(httptrace.WroteRequestInfo) { s.sent = time.Now() },
				GotFirstResponseByte: func() { s.first = time.Now() },
			}
		}
		body, err := ep.get(c, target, tr)
		s.done = time.Now()
		s.ok, s.bytes = err == nil, len(body)
		p.samples = append(p.samples, s)
	}
	return p
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// time.Sleep parks in the runtime's poller, which rounds sub-millisecond
// waits up to a millisecond; at thousands of requests per second that
// rounding, not the server, would set the latency measured from due times.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // an early EINTR wake only sends on time
	}
}

// lateMs returns how late the generator woke for each request: dispatch
// time past the moment the request could first go out (its due time, or
// the previous reply on its connection).
func (p *phase) lateMs() []float64 {
	out := make([]float64, len(p.samples))
	for i := range p.samples {
		out[i] = float64(p.samples[i].dispatched.Sub(p.samples[i].ready)) / 1e6
	}
	return out
}

// pullCatalog fetches every entry of the store over HTTP as a client that
// wants the whole catalog would: box queries over a 4x4 tiling of bounds,
// each within the server's limit. Entries are keyed by ID.
func (ep *endpoint) pullCatalog(bounds geom.Box) (map[int]model.CatalogEntry, error) {
	out := make(map[int]model.CatalogEntry)
	const tiles = 4
	w, h := bounds.Width()/tiles, bounds.Height()/tiles
	for ty := 0; ty < tiles; ty++ {
		for tx := 0; tx < tiles; tx++ {
			target := fmt.Sprintf("/box?ramin=%.9f&decmin=%.9f&ramax=%.9f&decmax=%.9f&limit=%d",
				bounds.MinRA+float64(tx)*w, bounds.MinDec+float64(ty)*h,
				bounds.MinRA+float64(tx+1)*w, bounds.MinDec+float64(ty+1)*h, catserve.MaxQueryLimit)
			body, err := ep.get(ep.clients[0], target, nil)
			if err != nil {
				return nil, err
			}
			var resp struct {
				Count   int                  `json:"count"`
				Entries []model.CatalogEntry `json:"entries"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, fmt.Errorf("decoding %s: %w", target, err)
			}
			if resp.Count >= catserve.MaxQueryLimit {
				return nil, fmt.Errorf("tile %s hit the %d-entry limit", target, catserve.MaxQueryLimit)
			}
			for _, e := range resp.Entries {
				out[e.ID] = e
			}
		}
	}
	return out, nil
}

// checkResponses fetches targets over HTTP against a quiescent store and
// compares each body with in-process Server.Query on the same snapshot, and
// its entries with an independent walk of the snapshot. It returns the
// number of mismatching targets.
func (ep *endpoint) checkResponses(targets []string) (int, error) {
	bad := 0
	for _, tg := range targets {
		snap := ep.store.Snapshot()
		body, err := ep.get(ep.clients[0], tg, nil)
		if err != nil {
			return bad, err
		}
		inproc, status := ep.srv.Query(tg)
		want, err := snapshotEntries(snap, tg)
		if err != nil {
			return bad, err
		}
		var got struct {
			Version uint64          `json:"version"`
			Entries json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return bad, fmt.Errorf("decoding %s: %w", tg, err)
		}
		if status != http.StatusOK || !bytes.Equal(body, inproc) || got.Version != snap.Version() ||
			!bytes.Equal(got.Entries, want) {
			bad++
		}
	}
	return bad, nil
}

// snapshotEntries answers a target by walking the snapshot directly and
// encodes the entry list, independently of the server's cache.
func snapshotEntries(snap *catserve.Snapshot, target string) ([]byte, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	q := u.Query()
	f := func(k string) float64 {
		v, _ := strconv.ParseFloat(q.Get(k), 64) // targets are generated here: always numbers
		return v
	}
	var ents []model.CatalogEntry
	switch u.Path {
	case "/cone":
		ents = snap.Cone(geom.Pt2{RA: f("ra"), Dec: f("dec")}, f("r"))
	case "/box":
		ents = snap.Box(geom.Box{MinRA: f("ramin"), MinDec: f("decmin"), MaxRA: f("ramax"), MaxDec: f("decmax")})
	case "/brightest":
		ents = snap.BrightestN(int(f("n")), model.RefBand)
	default:
		return nil, fmt.Errorf("unexpected target %s", target)
	}
	if lim := int(f("limit")); lim > 0 && len(ents) > lim {
		ents = ents[:lim]
	}
	if ents == nil {
		ents = []model.CatalogEntry{}
	}
	return json.Marshal(ents)
}

// queryTimes measures in-process Server.Query on targets against a fresh
// snapshot: the first pass misses the cache, the second hits it. It returns
// the per-query microseconds of each pass.
func queryTimes(srv *catserve.Server, targets []string) (cold, hit []float64) {
	for pass := 0; pass < 2; pass++ {
		for _, tg := range targets {
			t0 := time.Now()
			srv.Query(tg)
			us := float64(time.Since(t0)) / 1e3
			if pass == 0 {
				cold = append(cold, us)
			} else {
				hit = append(hit, us)
			}
		}
	}
	return cold, hit
}
