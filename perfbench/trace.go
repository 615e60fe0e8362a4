package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"nexus/internal/obs"
)

// Span is one call the benchmark made into a layer of the program, timed
// from outside. Spans of one request (one query of a pass, one HTTP
// request) share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

type spanKey struct{}

type spanRef struct {
	id  int64
	req string
}

// Start opens a span named name under the span ctx carries. req names the
// request the span belongs to; "" inherits the parent's. The returned
// function ends the span.
func (t *Tracer) Start(ctx context.Context, name, req string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	if req == "" {
		req = parent.req
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent.id, Name: name, Req: req, Start: int64(time.Since(t.origin))})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req}), func() {
		end := int64(time.Since(t.origin))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// Do runs f inside a span named name under the span ctx carries.
func (t *Tracer) Do(ctx context.Context, name string, f func(context.Context) error) error {
	c, end := t.Start(ctx, name, "")
	defer end()
	return f(c)
}

// graft copies spans the program recorded in its own obs trace into the
// tracer, under the span ctx carries. A span of tree is copied when its
// base name (up to the first space: "ned Country" → "ned") is in stages;
// its parent is the nearest copied ancestor, else the span ctx carries.
// origin is the obs trace's start. Spans the benchmark recorded directly
// under the ctx span that lie inside a copied span — the RPCs a stage
// sent — move under the innermost copied span that covers them.
func (t *Tracer) graft(ctx context.Context, origin time.Time, tree *obs.SpanData, stages map[string]bool) {
	if t == nil || tree == nil {
		return
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	off := int64(origin.Sub(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	first := len(t.spans)
	var walk func(d *obs.SpanData, pid int64)
	walk = func(d *obs.SpanData, pid int64) {
		for _, c := range d.Children {
			id := pid
			name, _, _ := strings.Cut(c.Name, " ")
			if stages[name] {
				id = int64(len(t.spans) + 1)
				start := off + c.StartNS
				t.spans = append(t.spans, Span{ID: id, Parent: pid, Name: name, Req: parent.req, Start: start, End: start + c.DurNS})
			}
			walk(c, id)
		}
	}
	walk(tree, parent.id)
	// origin is read just before the obs trace starts, so copied spans
	// may sit up to a microsecond early; allow that much when matching.
	const slack = int64(time.Microsecond)
	for i := range t.spans[:first] {
		s := &t.spans[i]
		if s.Parent != parent.id || s.End == 0 {
			continue
		}
		best := int64(-1)
		for _, g := range t.spans[first:] {
			if g.Start-slack <= s.Start && s.End <= g.End+slack && (best < 0 || g.dur() < t.spans[best-1].dur()) {
				best = g.ID
			}
		}
		if best > 0 {
			s.Parent = best
		}
	}
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Flush writes the spans as JSON lines to path.
func (t *Tracer) Flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribute splits the wall time of every span tree among its spans: each
// instant goes to the innermost spans open at that instant, shared equally
// when several run at once (parallel RPCs). A span's share is therefore
// its self time — its duration minus the time its children cover,
// overlapping children counted once — plus, for children that overlap
// their siblings, an equal part of the overlap. The shares of one tree sum
// to its root's duration, so a pass's layer times plus its unspanned
// remainder (the root's own share) add up to its wall time.
func attribute(spans []Span) map[int64]float64 {
	byID := make(map[int64]Span, len(spans))
	kids := map[int64][]int64{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	share := make(map[int64]float64, len(spans))
	for _, root := range spans {
		if _, ok := byID[root.Parent]; ok {
			continue
		}
		// Clip every span to its parent so a late-closing child cannot
		// stretch the tree past its root.
		clip := map[int64]Span{root.ID: root}
		bounds := []int64{root.Start, root.End}
		stack := []int64{root.ID}
		for len(stack) > 0 {
			p := clip[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			for _, cid := range kids[p.ID] {
				c := byID[cid]
				c.Start, c.End = max(c.Start, p.Start), min(c.End, p.End)
				if c.End < c.Start {
					c.End = c.Start
				}
				clip[cid] = c
				bounds = append(bounds, c.Start, c.End)
				stack = append(stack, cid)
			}
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		var frontier func(id int64, a, b int64, out []int64) []int64
		frontier = func(id int64, a, b int64, out []int64) []int64 {
			found := false
			for _, cid := range kids[id] {
				c := clip[cid]
				if c.Start <= a && b <= c.End {
					found = true
					out = frontier(cid, a, b, out)
				}
			}
			if !found {
				out = append(out, id)
			}
			return out
		}
		var buf []int64
		for i := 1; i < len(bounds); i++ {
			a, b := bounds[i-1], bounds[i]
			if b <= a {
				continue
			}
			buf = frontier(root.ID, a, b, buf[:0])
			d := float64(b-a) / float64(len(buf))
			for _, id := range buf {
				share[id] += d
			}
		}
		if _, ok := share[root.ID]; !ok {
			share[root.ID] = 0
		}
	}
	return share
}

// layerTimes sums the attributed time per span name over the trees rooted
// at spans named rootName, in milliseconds.
func layerTimes(spans []Span, rootName string) map[string]float64 {
	share := attribute(spans)
	rootOf := map[int64]int64{}
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var find func(id int64) int64
	find = func(id int64) int64 {
		if r, ok := rootOf[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if _, ok := byID[s.Parent]; ok {
			r = find(s.Parent)
		}
		rootOf[id] = r
		return r
	}
	out := map[string]float64{}
	for _, s := range spans {
		if byID[find(s.ID)].Name == rootName {
			out[s.Name] += share[s.ID] / 1e6
		}
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs
// together with the number of samples it was taken from. An empty sample
// gives NaN.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// gmean is the geometric mean of positive samples.
func gmean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkAccounting verifies that each tree's shares sum to its root's
// duration within 1µs per span, the invariant the layer table rests on.
func checkAccounting(spans []Span) error {
	share := attribute(spans)
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	sum := map[int64]float64{}
	count := map[int64]int{}
	for _, s := range spans {
		r := s
		for {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = p
		}
		sum[r.ID] += share[s.ID]
		count[r.ID]++
	}
	for id, got := range sum {
		want := float64(byID[id].dur())
		if math.Abs(got-want) > 1e3*float64(count[id]) {
			return fmt.Errorf("span tree %q: layer shares sum to %.0fns, wall is %.0fns", byID[id].Name, got, want)
		}
	}
	return nil
}
