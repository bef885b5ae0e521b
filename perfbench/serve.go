package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pathsel/internal/experiments"
	"pathsel/internal/loadgen"
	"pathsel/internal/obs"
	"pathsel/internal/server"
	"pathsel/internal/snapshot"
)

const (
	// workerCache is each worker's -cache: room for every suite of the
	// mix, so nothing is evicted.
	workerCache = 4
	// fixedRate is the offered rate of the fixed-rate phase, requests
	// per second: about a quarter of max_rps on the two-core box.
	fixedRate = 150.0
	// latencyLimit is the p99 a rate must meet to count toward max_rps.
	latencyLimit = 100.0 // ms
	// setupRounds is how many times a run launches the fleet; set-up is
	// reported as the median, and the last fleet is measured.
	setupRounds = 3
	// stepRounds is the number of mix rounds one max_rps step sends:
	// 1600 requests, about three seconds near max_rps, so a step's p99
	// has sixteen beyond it and a stall of the host shorter than a
	// second does not decide the step alone.
	stepRounds = 8
	// searchSteps bounds the steps spent finding a max_rps bracket,
	// and searchFactor is the ratio between the rates of two steps.
	searchSteps  = 6
	searchFactor = 1.2
)

// runServe is the serve-hot workload: loadgen.DefaultMix against a
// router and two workers with every suite resident and every figure
// memoized before timing, so it exercises the HTTP path, router hop,
// handler, JSON encoding and the per-request core work of the verdict
// tables, with no simulator work. It launches and warms the fleet,
// then sends the mix at the fixed rate for the run length. Traced (t
// non-nil), it launches once, then also searches for the highest rate
// that keeps p99 within latencyLimit, and returns the server.* and
// loadgen.* per-layer metrics instead.
func runServe(ctx context.Context, e *env, t *tracer) (result, error) {
	mix := loadgen.DefaultMix()
	if err := prepareSuites(ctx, e, mix); err != nil {
		return result{}, err
	}
	// Return the suites prepareSuites may have built to the OS, so the
	// generator sharing this process is not slowed by their collection.
	debug.FreeOSMemory()
	rounds := setupRounds
	if t != nil {
		rounds = 1
	}
	var setups []float64
	var f *fleet
	var launched time.Time
	for r := 0; r < rounds; r++ {
		launched = time.Now()
		err := traced(t, "serve.setup", func() (err error) {
			if f, err = startFleet(ctx, e, fmt.Sprintf("setup%d", r)); err != nil {
				return err
			}
			return warmUp(ctx, f.base, mix)
		})
		if err != nil {
			if f != nil {
				f.stop()
			}
			return result{}, err
		}
		setups = append(setups, seconds(time.Since(launched)))
		if r < rounds-1 {
			if err := f.stop(); err != nil {
				return result{}, err
			}
		}
	}
	res, err := measureFleet(ctx, e, mix, f, t, launched)
	rss := 0.0
	for _, c := range f.procs() {
		if err == nil {
			var mb float64
			mb, err = c.livePeakRSSMB()
			rss += mb
		}
	}
	if serr := f.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}
	if t == nil {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	return res, nil
}

// traced runs fn inside a span when t is non-nil.
func traced(t *tracer, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	return t.do(name, fn)
}

// measureFleet runs the fixed-rate phase and checks every answer.
// launched is when the measured fleet was started. Traced, it also
// searches for max_rps and reports the latencies the generator saw as
// per-layer metrics: on a shared two-core VM they move with the time
// the hypervisor takes from the VM (1-25% of its CPU during a run,
// which doubled the p50 and halved max_rps), far past any bound that
// could tell a regression from that, so they are not end-to-end
// metrics.
func measureFleet(ctx context.Context, e *env, mix loadgen.Mix, f *fleet, t *tracer, launched time.Time) (result, error) {
	rng := rand.New(rand.NewSource(e.seed))
	perWindow := windowRounds(fixedRate, float64(e.seconds)) * roundSize
	reqs := requests(mix, rng, windows*perWindow/roundSize)
	g := newGenerator(f.base)
	defer g.close()

	var before scrape
	var err error
	if t != nil {
		if before, err = scrapeFleet(ctx, f); err != nil {
			return result{}, err
		}
	}
	cpu0, err := fleetCPU(f)
	if err != nil {
		return result{}, err
	}
	var fixed []sample
	traced(t, "serve.fixed_rate", func() error {
		start := time.Now()
		fixed = g.run(ctx, reqs, fixedRate, 0)
		if t != nil {
			for i, s := range fixed {
				t.add("request "+endpointOf(reqs[i].Path), start.Add(s.sent), start.Add(s.done))
			}
		}
		return nil
	})
	cpu1, err := fleetCPU(f)
	if err != nil {
		return result{}, err
	}
	phaseEnd := time.Now()
	st := summarize(fixed)
	var p50s, p99s []float64
	for w := 0; w < windows; w++ {
		ws := summarize(fixed[w*perWindow : (w+1)*perWindow])
		p50s, p99s = append(p50s, ws.p50), append(p99s, ws.p99)
		fmt.Fprintf(os.Stderr, "perfbench: window %d: %d sent, p50 %.2f ms, p99 %.1f ms, lag p99 %.1f ms\n",
			w, ws.n, ws.p50, ws.p99, ws.lagP99)
	}
	cpuPerReq := 1000 * (cpu1 - cpu0) / float64(st.n-st.failed)
	res := result{Correct: true, Attempted: st.n, Failed: st.failed, Metrics: map[string]metric{}}
	if st.failed > 0 {
		complain("%d of %d fixed-rate requests were not answered with 200", st.failed, st.n)
	}
	if t != nil {
		var after scrape
		if err := t.do("serve.scrape", func() (err error) { after, err = scrapeFleet(ctx, f); return err }); err != nil {
			return result{}, err
		}
		for k, v := range serverLayers(before, after, st) {
			res.Metrics[k] = v
		}
		var maxRPS float64
		err := t.do("serve.max_rps", func() (err error) {
			maxRPS, err = searchMaxRPS(ctx, g, mix, rng, cpuPerReq)
			return err
		})
		if err != nil {
			return result{}, err
		}
		res.Metrics["loadgen.lag_p99_ms"] = metric{st.lagP99, "ms"}
		res.Metrics["loadgen.latency_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["loadgen.latency_p99_ms"] = metric{median(p99s), "ms"}
		res.Metrics["loadgen.max_rps"] = metric{maxRPS, "1/s"}
	} else {
		res.Metrics["wall_s"] = metric{seconds(phaseEnd.Sub(launched)), "s"}
		res.Metrics["cpu_s"] = metric{cpu1, "s"}
		res.Metrics["cpu_ms_per_req"] = metric{cpuPerReq, "ms"}
	}
	if fails := checkServe(ctx, e, mix, g); len(fails) > 0 {
		for _, m := range fails {
			complain("%s", m)
		}
		res.Correct = false
	}
	return res, nil
}

// fleetCPU is the user+system CPU the fleet has used since launch.
func fleetCPU(f *fleet) (float64, error) {
	total := 0.0
	for _, c := range f.procs() {
		s, err := c.liveCPUSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// warmUp requests every endpoint of every suite once through the
// router, which loads each suite from its snapshot and memoizes each
// figure.
func warmUp(ctx context.Context, base string, m loadgen.Mix) error {
	for _, q := range m.SuiteConfigs() {
		for _, ep := range m.Endpoints {
			code, body, err := get(ctx, http.DefaultClient, base+ep+"?"+q)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if code != http.StatusOK {
				return fmt.Errorf("warm-up %s?%s: status %d: %s", ep, q, code, body)
			}
		}
	}
	return nil
}

// searchMaxRPS finds the highest offered rate whose p99 latency from
// due stays within latencyLimit and whose generator keeps up (the last
// request of a step leaves within the limit of when it was due, so no
// backlog grew). Every step sends stepRounds whole rounds. The search
// starts at 80% of the rate the fleet's CPU could sustain at the fixed
// phase's CPU cost per request and moves by factors of searchFactor
// until a step passes and the next fails. One more step then tries the
// rate where the step's worse of p99 and last lag, relative to the
// limit, crosses 1 on a log scale between the two, and the answer is
// interpolated the same way inside the narrower bracket, so it does
// not snap to the grid.
func searchMaxRPS(ctx context.Context, g *generator, mix loadgen.Mix, rng *rand.Rand, cpuMsPerReq float64) (float64, error) {
	score := func(rate float64) float64 {
		abort := time.Duration(10 * latencyLimit * float64(time.Millisecond))
		st := summarize(g.run(ctx, requests(mix, rng, stepRounds), rate, abort))
		time.Sleep(100 * time.Millisecond) // let the fleet settle between steps
		fmt.Fprintf(os.Stderr, "perfbench: max_rps step %.0f/s: %d sent, %d failed, p99 %.1f ms, last lag %.1f ms\n",
			rate, st.n, st.failed, st.p99, st.lastLag)
		if st.failed > 0 {
			return math.Inf(1)
		}
		return math.Max(st.p99, st.lastLag) / latencyLimit
	}
	rate := math.Max(fixedRate, 0.8*float64(runtime.NumCPU())*1000/cpuMsPerReq)
	var lo, sLo, hi, sHi float64
	for i := 0; i < searchSteps && (lo == 0 || hi == 0); i++ {
		if s := score(rate); s <= 1 {
			lo, sLo = rate, s
			rate *= searchFactor
		} else {
			hi, sHi = rate, s
			rate /= searchFactor
		}
	}
	switch {
	case lo == 0:
		return 0, fmt.Errorf("no offered rate down to %.1f/s kept p99 within %.0f ms", hi, latencyLimit)
	case hi == 0:
		return lo, nil
	}
	cross := func() float64 {
		if math.IsInf(sHi, 1) {
			return lo
		}
		return lo + (hi-lo)*(-math.Log(sLo))/(math.Log(sHi)-math.Log(sLo))
	}
	// Refine inside the bracket, away from its ends.
	mid := math.Min(math.Max(cross(), lo+0.1*(hi-lo)), hi-0.1*(hi-lo))
	if s := score(mid); s <= 1 {
		lo, sLo = mid, s
	} else {
		hi, sHi = mid, s
	}
	return cross(), nil
}

// prepareSuites makes, once per build, what serve-hot starts from: a
// snapshot of every suite of the mix, for the workers to warm-start
// from, and the reference body of every endpoint, computed by an
// in-process server.NewHandler over a suite freshly built with
// experiments.BuildContext.
func prepareSuites(ctx context.Context, e *env, m loadgen.Mix) error {
	snapDir := filepath.Join(e.cache, "snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return err
	}
	for _, seed := range m.Seeds {
		refDir := filepath.Join(e.cache, "ref", fmt.Sprint(seed))
		if _, err := os.Stat(filepath.Join(refDir, "complete")); err == nil {
			continue
		}
		cfg := experiments.Config{Seed: seed, Preset: experiments.Quick}
		s, err := experiments.BuildContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("build reference suite %d: %w", seed, err)
		}
		if _, err := snapshot.Write(snapDir, s); err != nil {
			return err
		}
		bodies, err := referenceBodies(s, m.Endpoints, suiteQuery(seed))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(refDir, 0o755); err != nil {
			return err
		}
		for ep, body := range bodies {
			if err := os.WriteFile(filepath.Join(refDir, slug(ep)), body, 0o644); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(refDir, "complete"), nil, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func suiteQuery(seed int64) string { return fmt.Sprintf("seed=%d&preset=quick", seed) }

// referenceBodies answers each endpoint from an in-process handler over
// s, keyed by endpoint.
func referenceBodies(s *experiments.Suite, endpoints []string, query string) (map[string][]byte, error) {
	reg := obs.NewRegistry()
	build := func(context.Context, experiments.Config) (*experiments.Suite, error) { return s, nil }
	h := server.NewHandler(server.NewSuiteCache(1, 1, 0, build, server.NewMetrics(reg)), s.Config, reg)
	out := map[string][]byte{}
	for _, ep := range endpoints {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep+"?"+query, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %s?%s: status %d", ep, query, rec.Code)
		}
		out[ep] = rec.Body.Bytes()
	}
	return out, nil
}

// checkServe checks the answers of a serve run: every distinct routed
// body equals the in-process reference, each suite's Figure 1
// better-alternate fractions equal the oracle's, and every verdict
// table row sums to 100%.
func checkServe(ctx context.Context, e *env, mix loadgen.Mix, g *generator) []string {
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	g.mu.Lock()
	bodies, differ := g.bodies, g.differ
	g.mu.Unlock()
	for path := range differ {
		fail("%s was answered with two different bodies", path)
	}
	for path, body := range bodies {
		ep, seed, err := splitPath(path)
		if err != nil {
			fail("%v", err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(e.cache, "ref", fmt.Sprint(seed), slug(ep)))
		if err != nil {
			fail("no reference for %s: %v", path, err)
			continue
		}
		if !bytes.Equal(body, want) {
			fail("%s differs from the in-process reference body", path)
		}
		if ep == "/api/table/2" || ep == "/api/table/3" {
			var rows []map[string]any
			if err := json.Unmarshal(body, &rows); err != nil {
				fail("%s: %v", path, err)
				continue
			}
			for _, r := range rows {
				sum := 0.0
				for _, k := range []string{"betterPct", "indeterminatePct", "worsePct", "bothZeroPct"} {
					v, _ := r[k].(float64)
					sum += v
				}
				if math.Abs(sum-100) > 1e-6 {
					fail("%s row %v sums to %g%%", path, r["dataset"], sum)
				}
			}
		}
	}
	if len(bodies) == 0 {
		fail("no request was answered")
	}

	for _, seed := range mix.Seeds {
		q := suiteQuery(seed)
		code, body, err := get(ctx, g.client, g.base+"/api/figure/1?"+q)
		if err != nil || code != http.StatusOK {
			fail("/api/figure/1?%s: status %d, %v", q, code, err)
			continue
		}
		var series []struct {
			Name string  `json:"name"`
			Frac float64 `json:"fracAboveZero"`
		}
		if err := json.Unmarshal(body, &series); err != nil {
			fail("/api/figure/1?%s: %v", q, err)
			continue
		}
		s, err := snapshot.Load(ctx, filepath.Join(e.cache, "snap"), experiments.Config{Seed: seed, Preset: experiments.Quick})
		if err != nil {
			fail("oracle: decode suite %d: %v", seed, err)
			continue
		}
		dss := figure1Datasets(s)
		if len(series) != len(dss) {
			fail("/api/figure/1?%s has %d series, want %d", q, len(series), len(dss))
			continue
		}
		for i, ds := range dss {
			want := fracAbove(improvements(bestAlternates(ds)))
			if series[i].Name != ds.Name || series[i].Frac != want {
				fail("/api/figure/1?%s %s fracAboveZero %v, the oracle says %s %v",
					q, series[i].Name, series[i].Frac, ds.Name, want)
			}
		}
	}
	return fails
}

// splitPath returns a request path's endpoint and suite seed.
func splitPath(p string) (string, int64, error) {
	u, err := url.Parse(p)
	if err != nil {
		return "", 0, err
	}
	seed, err := strconv.ParseInt(u.Query().Get("seed"), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("request %s has no suite seed", p)
	}
	return u.Path, seed, nil
}

// endpointOf strips the query from a request path.
func endpointOf(p string) string {
	ep, _, _ := strings.Cut(p, "?")
	return ep
}
