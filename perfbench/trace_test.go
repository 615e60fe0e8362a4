package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"nexus/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	}
	for _, c := range cases {
		got, n := percentile(xs, c.p)
		if got != c.want || n != 5 {
			t.Errorf("p%v = %v (n=%d), want %v (n=5)", c.p, got, n, c.want)
		}
	}
	if got, n := percentile([]float64{7}, 99); got != 7 || n != 1 {
		t.Errorf("single sample p99 = %v (n=%d)", got, n)
	}
	if got, n := percentile(nil, 50); !math.IsNaN(got) || n != 0 {
		t.Errorf("empty p50 = %v (n=%d), want NaN (n=0)", got, n)
	}
	// The input must not be reordered.
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile sorted its input: %v", in)
	}
	// p99 of 200 samples is the 198th value: two samples lie beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(200 - i)
	}
	if got, _ := percentile(big, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2 by 10
		{ID: 4, Parent: 1, Start: 50, End: 55},  // inside 3
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	share := attribute(spans)
	// Children cover [10,60) ∪ [90,100) = 60, so the parent's self time is
	// 100 - 60 whatever their overlaps.
	if share[1] != 40 {
		t.Errorf("parent self time = %v, want 40", share[1])
	}
	// The overlaps are split: [10,30) 2 alone, [30,40) 2|3, [40,50) 3,
	// [50,55) 3|4, [55,60) 3, [90,100) 5 clipped to the parent.
	want := map[int64]float64{2: 25, 3: 22.5, 4: 2.5, 5: 10}
	for id, w := range want {
		if share[id] != w {
			t.Errorf("share[%d] = %v, want %v", id, share[id], w)
		}
	}
	if got := attribute(spans[:1]); got[1] != 100 {
		t.Errorf("self time without children = %v, want 100", got[1])
	}
}

func TestAttributionSumsToWall(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mcimr", Start: 10, End: 70},
		{ID: 3, Parent: 2, Name: "rpc", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "rpc", Start: 30, End: 50},
		{ID: 5, Parent: 1, Name: "parse", Start: 80, End: 90},
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	share := attribute(spans)
	// rpc: [20,30) alone, [30,40) shared, [40,50) alone → 10+5 and 5+10.
	want := map[int64]float64{1: 30, 2: 30, 3: 15, 4: 15, 5: 10, 6: 5}
	for id, w := range want {
		if share[id] != w {
			t.Errorf("share[%d] = %v, want %v", id, share[id], w)
		}
	}
	if err := checkAccounting(spans); err != nil {
		t.Fatal(err)
	}
	layers := layerTimes(spans, "pass")
	if math.Abs(layers["rpc"]-30e-6) > 1e-12 || layers["pass"] != 30e-6 || layers["other"] != 0 {
		t.Errorf("layerTimes = %v", layers)
	}
}

func TestTracerNestingAndRequestIDs(t *testing.T) {
	tr := newTracer()
	ctx, endRoot := tr.Start(context.Background(), "pass", "p1")
	cctx, endChild := tr.Start(ctx, "parse", "")
	_, endGrand := tr.Start(cctx, "rpc", "")
	endGrand()
	endChild()
	endRoot()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Errorf("parents: %+v", spans)
	}
	for _, s := range spans {
		if s.Req != "p1" || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	var nilTracer *Tracer
	if c, end := nilTracer.Start(ctx, "x", ""); c != ctx {
		t.Error("nil tracer changed the context")
	} else {
		end()
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	ctx, endRoot := tr.Start(context.Background(), "mcimr", "q1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, end := tr.Start(ctx, "dist-rpc", "")
				end()
			}
		}()
	}
	wg.Wait()
	endRoot()
	spans := tr.Spans()
	if len(spans) != 801 {
		t.Fatalf("got %d spans, want 801", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Parent != spans[0].ID || s.Req != "q1" || s.End < s.Start {
			t.Fatalf("span %+v", s)
		}
	}
	if err := checkAccounting(spans); err != nil {
		t.Fatal(err)
	}
}

func TestGraftProgramStages(t *testing.T) {
	t0 := time.Now()
	tr := &Tracer{origin: t0, spans: []Span{
		{ID: 1, Name: "prepare", Req: "q", Start: 1000, End: 100000},
		{ID: 2, Parent: 1, Name: "kg-rpc", Req: "q", Start: 30000, End: 35000}, // sent while linking
		{ID: 3, Parent: 1, Name: "kg-rpc", Req: "q", Start: 90000, End: 95000}, // outside every stage
	}}
	ctx := context.WithValue(context.Background(), spanKey{}, spanRef{id: 1, req: "q"})
	// The obs trace starts 1µs after the tracer; its times are relative
	// to its own start.
	tree := &obs.SpanData{Name: "perfbench", Children: []*obs.SpanData{{
		Name: "prepare", DurNS: 99000, Children: []*obs.SpanData{
			{Name: "execute-query", StartNS: 1000, DurNS: 9000},
			{Name: "encode-exposure-outcome", StartNS: 10000, DurNS: 5000},
			{Name: "kg-extract", StartNS: 20000, DurNS: 60000, Children: []*obs.SpanData{
				{Name: "ned Country", StartNS: 21000, DurNS: 20000},
				{Name: "kg-walk Country", StartNS: 45000, DurNS: 30000},
			}},
		},
	}}}
	tr.graft(ctx, t0.Add(1000), tree, prepareStages)
	spans := tr.Spans()
	byName := map[string]Span{}
	for _, s := range spans[3:] {
		byName[s.Name] = s
	}
	if len(spans) != 6 || len(byName) != 3 {
		t.Fatalf("grafted %+v", spans[3:])
	}
	eq, kx, ned := byName["execute-query"], byName["kg-extract"], byName["ned"]
	if eq.Parent != 1 || eq.Start != 2000 || eq.End != 11000 || eq.Req != "q" {
		t.Errorf("execute-query %+v", eq)
	}
	if kx.Parent != 1 || ned.Parent != kx.ID || ned.Start != 22000 || ned.End != 42000 {
		t.Errorf("kg-extract %+v, ned %+v", kx, ned)
	}
	if spans[1].Parent != ned.ID || spans[2].Parent != 1 {
		t.Errorf("RPC parents %d and %d, want %d and 1", spans[1].Parent, spans[2].Parent, ned.ID)
	}
	if err := checkAccounting(spans); err != nil {
		t.Fatal(err)
	}
	// Stages the benchmark does not name (encode-exposure-outcome, kg-walk)
	// stay in their nearest named ancestor's self time.
	layers := layerTimes(spans, "prepare")
	want := map[string]float64{"prepare": 0.025, "execute-query": 0.009, "kg-extract": 0.040, "ned": 0.015, "kg-rpc": 0.010}
	for name, w := range want {
		if math.Abs(layers[name]-w) > 1e-9 {
			t.Errorf("%s = %vms, want %vms", name, layers[name], w)
		}
	}
}
