// Package rpc is the one transport kit behind the repository's two HTTP
// protocols, the remote knowledge graph (kgremote → kgserve) and the
// scoring fleet (distremote → distworker). The client half is one JSON
// POST per attempt (Client.Post) with an optional per-client in-flight
// bound, a per-attempt timeout and typed reply classes, a seeded jittered
// backoff and a chunked fan-out; the retry loops stay with the protocols. The
// server half is one middleware (latency histogram, in-flight gauge, slow
// log, per-path counts, seeded fault injection) with the operational
// routes, the body codecs and a drain-on-cancel Serve. docs/ARCHITECTURE.md
// ("RPC kit") describes both halves.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"nexus/internal/obs"
	"nexus/internal/stats"
)

// ClientConfig configures a Client. Zero durations, seed and HTTP client
// select the defaults both protocols document.
type ClientConfig struct {
	// MaxInflight bounds concurrent attempts across every call on the
	// client. Zero or negative leaves them unbounded.
	MaxInflight int
	// Timeout bounds each attempt. Default 10s.
	Timeout time.Duration
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// RetryMax. Defaults 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed seeds the backoff jitter, making retry schedules reproducible.
	// Default 1.
	Seed uint64
	// HTTPClient is the transport. Default http.DefaultClient.
	HTTPClient *http.Client
	// Counters gets RequestCounter bumped once per attempt put on the
	// wire. Nil disables recording.
	Counters       *obs.Counters
	RequestCounter string
	// AttemptSeconds, when non-nil, records each attempt's latency.
	AttemptSeconds *obs.Histogram
}

// Client is the JSON-over-HTTP transport of one protocol client. Safe for
// concurrent use.
type Client struct {
	cfg ClientConfig
	sem chan struct{} // nil: attempts unbounded

	mu  sync.Mutex // guards rng
	rng *stats.RNG
}

// NewClient returns a transport for cfg.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	c := &Client{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
	if cfg.MaxInflight > 0 {
		c.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return c
}

// StatusError is a non-200 reply: its status and the start of its body,
// where both servers put the reason (e.g. "unknown dataset").
type StatusError struct {
	Code   int
	Status string
	Body   string
}

func (e *StatusError) Error() string { return fmt.Sprintf("server returned %s: %s", e.Status, e.Body) }

// permanentError marks a failure that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as not worth retrying (4xx, malformed reply shape).
func Permanent(err error) error { return &permanentError{err: err} }

// IsPermanent reports whether err, or an error it wraps, is Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Post issues one JSON POST of in to url and decodes the 200 reply into
// out. It retries nothing: the caller owns the attempt loop. Transport
// errors, timeouts and 5xx replies are returned as-is (retryable); 4xx
// replies (as a *StatusError) and undecodable bodies are Permanent.
func (c *Client) Post(ctx context.Context, url string, in, out any) error {
	if c.sem != nil {
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-c.sem }()
	}
	body, err := json.Marshal(in)
	if err != nil {
		return Permanent(fmt.Errorf("encode request: %w", err))
	}
	c.cfg.Counters.Add(c.cfg.RequestCounter, 1)
	defer c.cfg.AttemptSeconds.RecordSince(time.Now())
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err // transport error or timeout: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := &StatusError{Code: resp.StatusCode, Status: resp.Status, Body: strings.TrimSpace(string(msg))}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return Permanent(err)
		}
		return err // 5xx: retryable
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return Permanent(fmt.Errorf("decode response: %w", err))
	}
	return nil
}

// Backoff sleeps before retry number attempt (1-based), honoring ctx. The
// delay is RetryBase doubled per attempt and capped at RetryMax, drawn
// uniformly from [d/2, d] — one draw from the client's seeded RNG per call,
// so a seeded schedule repeats — which keeps retries from synchronizing
// without collapsing the delay to zero.
func (c *Client) Backoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(c.delay(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// delay draws the jittered backoff delay for attempt.
func (c *Client) delay(attempt int) time.Duration {
	d := c.cfg.RetryBase << (attempt - 1)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// ForEachChunk runs fn over [0,n) in chunks of size, each chunk on its own
// goroutine (a lone chunk runs inline); seq is the chunk ordinal. limit > 0
// bounds the chunks of this call running at once; otherwise concurrency is
// bounded where the chunks meet the wire, by the Client's in-flight
// semaphore. The first error cancels the other chunks and is returned; with
// no chunk error, a cancelled ctx is reported as ctx.Err().
func ForEachChunk(ctx context.Context, n, size, limit int, fn func(ctx context.Context, lo, hi, seq int) error) error {
	if n == 0 {
		return nil
	}
	if n <= size {
		return fn(ctx, 0, n, 0)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var sem chan struct{}
	if limit > 0 {
		sem = make(chan struct{}, limit)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
launch:
	for lo, seq := 0, 0; lo < n; lo, seq = lo+size, seq+1 {
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-cctx.Done():
				break launch
			}
		}
		wg.Add(1)
		go func(lo, hi, seq int) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			if err := fn(cctx, lo, hi, seq); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		}(lo, min(lo+size, n), seq)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// ParseEndpoints splits a comma-separated list of server base URLs (the
// -dist-workers flag), trimming spaces around each entry. Every entry must
// be an http(s) URL with a host: a stray comma is an error, not a worker
// with an empty address. An empty list (flag unset) yields nil.
func ParseEndpoints(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []string
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		u, err := url.Parse(s)
		switch {
		case s == "":
			return nil, fmt.Errorf("empty endpoint in %q", list)
		case err != nil:
			return nil, fmt.Errorf("endpoint %q: %w", s, err)
		case u.Scheme != "http" && u.Scheme != "https", u.Host == "":
			return nil, fmt.Errorf("endpoint %q: want an http(s)://host[:port] URL", s)
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseEndpoint is ParseEndpoints for a flag that takes at most one URL
// (-kg); an empty value (flag unset) yields "".
func ParseEndpoint(s string) (string, error) {
	eps, err := ParseEndpoints(s)
	if err != nil || eps == nil {
		return "", err
	}
	if len(eps) != 1 {
		return "", fmt.Errorf("want one endpoint, got %d in %q", len(eps), s)
	}
	return eps[0], nil
}
