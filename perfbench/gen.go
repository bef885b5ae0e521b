package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathsel/internal/loadgen"
)

// generator is an open-loop request source: request i of a phase is due
// at i/rate after the phase starts, whether or not earlier requests
// have completed. It sends over at most two connections (the box has
// two cores), so when the fleet falls behind, due requests queue in the
// generator; timing each request from when it was due charges that
// wait to the fleet.
type generator struct {
	base   string
	client *http.Client

	mu     sync.Mutex
	bodies map[string][]byte // first body seen per path
	differ map[string]bool   // paths answered with two different bodies
}

// senders is the number of connections, and of goroutines sending.
const senders = 2

func newGenerator(base string) *generator {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	return &generator{
		base:   base,
		client: &http.Client{Transport: tr},
		bodies: map[string][]byte{},
		differ: map[string]bool{},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// sample is one request's outcome; times are offsets from phase start.
type sample struct {
	due, sent, done time.Duration
	status          int
}

// unsent marks a request the generator gave up on.
const unsent = -1

// run sends reqs at rate per second and returns one sample per request.
// With abortLag > 0 it stops sending once a request leaves later than
// that after it was due: the backlog is growing, and the rest would
// only take longer to tell the same.
func (g *generator) run(ctx context.Context, reqs []loadgen.Request, rate float64, abortLag time.Duration) []sample {
	out := make([]sample, len(reqs))
	for i := range out {
		out[i].status = unsent
	}
	var next atomic.Int64
	var abort atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil || abort.Load() {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{due: due, sent: time.Since(start)}
				if abortLag > 0 && s.sent-due > abortLag {
					abort.Store(true)
				}
				s.status = g.fetch(ctx, reqs[i].Path)
				s.done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// fetch sends one request and records its body; it returns the status,
// or 0 on a transport error.
func (g *generator) fetch(ctx context.Context, path string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+path, nil)
	if err != nil {
		return 0
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0
	}
	if resp.StatusCode == http.StatusOK {
		g.mu.Lock()
		if first, ok := g.bodies[path]; !ok {
			g.bodies[path] = body
		} else if !bytes.Equal(first, body) {
			g.differ[path] = true
		}
		g.mu.Unlock()
	}
	return resp.StatusCode
}

// phaseStats are a phase's figures in milliseconds.
type phaseStats struct {
	n, failed       int
	p50, p99        float64 // latency from due
	lagP99, lastLag float64 // how late requests were sent
	serviceP50      float64 // sent to done, as the client saw it
}

// summarize reduces the requests that were sent to their figures.
func summarize(samples []sample) phaseStats {
	var st phaseStats
	lat := make([]float64, 0, len(samples))
	lag := make([]float64, 0, len(samples))
	svc := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.status == unsent {
			continue
		}
		st.n++
		if s.status != http.StatusOK {
			st.failed++
		}
		lat = append(lat, millis(s.done-s.due))
		lag = append(lag, millis(s.sent-s.due))
		svc = append(svc, millis(s.done-s.sent))
		st.lastLag = millis(s.sent - s.due)
	}
	sortFloats(lat)
	sortFloats(lag)
	sortFloats(svc)
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lagP99 = quantile(lag, 0.99)
	st.serviceP50 = quantile(svc, 0.5)
	return st
}

func sortFloats(v []float64) { sort.Float64s(v) }
