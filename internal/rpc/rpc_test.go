package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/obs"
)

// TestPostClassifiesReplies pins the reply classes every retry loop keys
// on: 200 decodes, 4xx and undecodable bodies are permanent, 5xx is
// retryable, and every non-200 carries its status and body.
func TestPostClassifiesReplies(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			io.WriteString(w, `{"n":7}`)
		case "/garbled":
			io.WriteString(w, `{"n":`)
		case "/missing":
			http.Error(w, "unknown dataset abc", http.StatusNotFound)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer hs.Close()
	ctr := obs.NewCounters()
	c := NewClient(ClientConfig{MaxInflight: 1, HTTPClient: hs.Client(), Counters: ctr, RequestCounter: "reqs"})
	ctx := context.Background()

	var out struct{ N int }
	if err := c.Post(ctx, hs.URL+"/ok", struct{}{}, &out); err != nil || out.N != 7 {
		t.Fatalf("ok: err %v, out %+v", err, out)
	}
	if err := c.Post(ctx, hs.URL+"/garbled", struct{}{}, &out); !IsPermanent(err) {
		t.Fatalf("undecodable reply: err %v, want permanent", err)
	}
	err := c.Post(ctx, hs.URL+"/missing", struct{}{}, &out)
	var se *StatusError
	if !IsPermanent(err) || !errors.As(err, &se) || se.Code != http.StatusNotFound || se.Body != "unknown dataset abc" {
		t.Fatalf("404: err %v, want permanent StatusError carrying the body", err)
	}
	err = c.Post(ctx, hs.URL+"/fail", struct{}{}, &out)
	if IsPermanent(err) || !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("500: err %v, want retryable StatusError", err)
	}
	if err := c.Post(ctx, hs.URL+"/ok", func() {}, &out); !IsPermanent(err) {
		t.Fatalf("unencodable request: err %v, want permanent", err)
	}
	if got := ctr.Get("reqs"); got != 4 {
		t.Fatalf("request counter = %d, want 4 (the unencodable request never reaches the wire)", got)
	}
}

// TestPostInflightBound pins the per-client semaphore: concurrent Posts
// never exceed MaxInflight attempts on the wire.
func TestPostInflightBound(t *testing.T) {
	var cur, peak atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		io.WriteString(w, `{}`)
	}))
	defer hs.Close()
	c := NewClient(ClientConfig{MaxInflight: 2, HTTPClient: hs.Client()})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out struct{}
			if err := c.Post(context.Background(), hs.URL, struct{}{}, &out); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < 1 || p > 2 {
		t.Fatalf("peak in-flight attempts = %d, want 1..2", p)
	}
}

// TestBackoffSchedule pins the jittered delay: doubling from RetryBase,
// capped at RetryMax, uniform over [d/2, d], and repeatable for a seed.
func TestBackoffSchedule(t *testing.T) {
	cfg := ClientConfig{RetryBase: 10 * time.Millisecond, RetryMax: 40 * time.Millisecond, Seed: 5}
	a, b := NewClient(cfg), NewClient(cfg)
	for attempt := 1; attempt <= 6; attempt++ {
		d := min(cfg.RetryBase<<(attempt-1), cfg.RetryMax)
		da, db := a.delay(attempt), b.delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed drew %v and %v", attempt, da, db)
		}
		if da < d/2 || da > d {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, da, d/2, d)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := NewClient(ClientConfig{RetryBase: time.Hour}).Backoff(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Backoff on a cancelled context = %v", err)
	}
}

// TestForEachChunk pins the fan-out: chunk bounds and ordinals cover [0,n)
// exactly, and the first error cancels the rest and is returned.
func TestForEachChunk(t *testing.T) {
	var mu sync.Mutex
	seen := map[int][2]int{}
	err := ForEachChunk(context.Background(), 10, 3, 0, func(_ context.Context, lo, hi, seq int) error {
		mu.Lock()
		seen[seq] = [2]int{lo, hi}
		mu.Unlock()
		return nil
	})
	want := map[int][2]int{0: {0, 3}, 1: {3, 6}, 2: {6, 9}, 3: {9, 10}}
	if err != nil || fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("chunks = %v (err %v), want %v", seen, err, want)
	}
	if err := ForEachChunk(context.Background(), 0, 3, 0, func(context.Context, int, int, int) error {
		t.Fatal("fn called for an empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err = ForEachChunk(context.Background(), 4, 1, 0, func(ctx context.Context, lo, _, _ int) error {
		if lo == 0 {
			return boom
		}
		<-ctx.Done() // the others wait for the cancellation the error triggers
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the first chunk error", err)
	}
}

// TestForEachChunkLimit pins the per-call bound: with limit > 0 no more
// than limit chunks of one call run at once, and every chunk still runs.
func TestForEachChunkLimit(t *testing.T) {
	var cur, peak, ran atomic.Int64
	err := ForEachChunk(context.Background(), 20, 2, 3, func(context.Context, int, int, int) error {
		n := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		ran.Add(1)
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil || ran.Load() != 10 {
		t.Fatalf("ran %d chunks (err %v), want 10", ran.Load(), err)
	}
	if p := peak.Load(); p < 1 || p > 3 {
		t.Fatalf("peak concurrent chunks = %d, want 1..3", p)
	}
}

func get(t *testing.T, hs *httptest.Server, path string) int {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServerFaultsAndCounts pins the middleware: protocol routes are
// counted per path and fail in a seed-determined pattern, while the
// operational and non-protocol routes are never faulted or counted.
func TestServerFaultsAndCounts(t *testing.T) {
	pattern := func(seed uint64) (string, *Server) {
		s := NewServer(ServerConfig{Name: "test", FailRate: 0.5, Seed: seed})
		hs := httptest.NewServer(s.Mux(
			Route{Pattern: "GET /p", Label: "p", Handler: func(http.ResponseWriter, *http.Request) {}, Protocol: true},
			Route{Pattern: "GET /stats", Label: "stats", Handler: func(http.ResponseWriter, *http.Request) {}},
		))
		defer hs.Close()
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			if get(t, hs, "/p") == http.StatusInternalServerError {
				sb.WriteByte('x')
			} else {
				sb.WriteByte('.')
			}
		}
		for _, path := range []string{"/stats", "/healthz", "/metrics", "/debug/slow"} {
			if code := get(t, hs, path); code != http.StatusOK {
				t.Fatalf("%s = %d", path, code)
			}
		}
		return sb.String(), s
	}
	a, s := pattern(9)
	if b, _ := pattern(9); a != b {
		t.Fatalf("same seed, different fault patterns:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "x") || !strings.Contains(a, ".") {
		t.Fatalf("fail-rate 0.5 produced degenerate pattern %s", a)
	}
	if c, _ := pattern(10); c == a {
		t.Fatal("different seeds produced identical fault patterns")
	}
	fails := int64(strings.Count(a, "x"))
	if s.Injected() != fails || s.Registry().Counters().Get(CtrInjected) != fails {
		t.Fatalf("injected = %d (counter %d), observed %d", s.Injected(), s.Registry().Counters().Get(CtrInjected), fails)
	}
	if got := s.RequestCounts(); len(got) != 1 || got["/p"] != 40 || s.Requests("/p") != 40 {
		t.Fatalf("request counts = %v, want only /p = 40", got)
	}
}

type failingWriter struct{ h http.Header }

func (w *failingWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }
func (w *failingWriter) WriteHeader(int)           {}

// TestWriteJSONEncodeErrorCountedAndLogged is the regression test for the
// silently dropped encode error on kgd and nexusw: a failing writer must
// bump encode_errors and reach the error log, not vanish.
func TestWriteJSONEncodeErrorCountedAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)
	s := NewServer(ServerConfig{Name: "test"})
	ctr := s.Registry().Counters()
	s.WriteJSON(&failingWriter{}, map[string]string{"k": "v"})
	if got := ctr.Get(CtrEncodeErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrEncodeErrors, got)
	}
	if !strings.Contains(logBuf.String(), "client gone") {
		t.Fatalf("encode error not logged; log = %q", logBuf.String())
	}

	logBuf.Reset()
	s.WriteJSON(httptest.NewRecorder(), map[string]string{"k": "v"})
	if got := ctr.Get(CtrEncodeErrors); got != 1 || logBuf.Len() != 0 {
		t.Fatalf("successful write counted (%d) or logged (%q)", got, logBuf.String())
	}
}

// TestParseEndpoints pins the -kg / -dist-workers validation: a stray
// comma, a missing scheme or host, or a non-http scheme is an error.
func TestParseEndpoints(t *testing.T) {
	cases := []struct {
		in   string
		want []string // nil with ok=false: an error
		ok   bool
	}{
		{"", nil, true},
		{"http://a:7080", []string{"http://a:7080"}, true},
		{" http://a:7080 , https://b ", []string{"http://a:7080", "https://b"}, true},
		{"http://a:7080,", nil, false},
		{",http://a:7080", nil, false},
		{"http://a,,http://b", nil, false},
		{"localhost:7080", nil, false},
		{"a:7080", nil, false},
		{"ftp://a", nil, false},
		{"http://", nil, false},
		{"http://a b", nil, false},
	}
	for _, tc := range cases {
		got, err := ParseEndpoints(tc.in)
		if (err == nil) != tc.ok || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("ParseEndpoints(%q) = %v, %v; want %v (ok %v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if u, err := ParseEndpoint("http://kg:7070"); err != nil || u != "http://kg:7070" {
		t.Errorf("ParseEndpoint = %q, %v", u, err)
	}
	if u, err := ParseEndpoint(""); err != nil || u != "" {
		t.Errorf("ParseEndpoint(\"\") = %q, %v", u, err)
	}
	if _, err := ParseEndpoint("http://a,http://b"); err == nil {
		t.Error("ParseEndpoint accepted two URLs")
	}
}
