package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a layer boundary crossed by the benchmark's
// own code. Parent is the index of the enclosing span, or -1 for a root.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration // offsets from the tracer's epoch
}

// tracer keeps spans in memory; they are written out once, when the traced
// run ends, so recording costs a lock and an append.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.add(name, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.epoch)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as tab-separated lines: index, parent, name, start
// and end in nanoseconds from the epoch.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.Parent, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Children are clipped
// to the parent, and overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ a, b time.Duration }
	for i, s := range spans {
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]time.Duration {
	st := selfTimes(spans)
	m := make(map[string]time.Duration)
	for i, s := range spans {
		m[s.Name] += st[i]
	}
	return m
}

// subtree returns the spans under root (inclusive), re-indexed so the
// result is a self-contained tree with root at index 0.
func subtree(spans []span, root int) []span {
	keep := map[int]int{root: 0}
	out := []span{spans[root]}
	out[0].Parent = -1
	for i := root + 1; i < len(spans); i++ {
		if p, ok := keep[spans[i].Parent]; ok {
			keep[i] = len(out)
			s := spans[i]
			s.Parent = p
			out = append(out, s)
		}
	}
	return out
}
