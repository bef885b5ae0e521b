package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"pathsel/internal/loadgen"
)

// roundSize is the number of requests in one round of a mix.
const roundSize = 200

// round returns one round of a mix: every (suite, endpoint) request in
// its zipf share (P(rank k) proportional to (1+k)^-s, suites and
// endpoints drawn independently, as loadgen.Mix.Requests draws them),
// rounded to whole requests by largest remainder. Every round is the
// same multiset, so every run and every search step sends the same
// work in a seeded order, and the run-to-run spread measures the
// program rather than how many expensive requests a seed happened to
// draw.
func round(m loadgen.Mix) []loadgen.Request {
	s := m.ZipfS
	if s == 0 {
		s = loadgen.DefaultZipfS
	}
	ps, pe := zipfShares(len(m.Seeds), s), zipfShares(len(m.Endpoints), s)
	type cell struct {
		path  string
		whole int
		rest  float64
	}
	var cells []cell
	total := 0
	for i, seed := range m.Seeds {
		for j, ep := range m.Endpoints {
			x := roundSize * ps[i] * pe[j]
			c := cell{path: ep + "?" + suiteQuery(seed), whole: int(x), rest: x - math.Floor(x)}
			total += c.whole
			cells = append(cells, c)
		}
	}
	sort.SliceStable(cells, func(a, b int) bool { return cells[a].rest > cells[b].rest })
	for k := 0; total < roundSize; k++ {
		cells[k].whole++
		total++
	}
	out := make([]loadgen.Request, 0, roundSize)
	for _, c := range cells {
		for i := 0; i < c.whole; i++ {
			out = append(out, loadgen.Request{Path: c.path})
		}
	}
	return out
}

func zipfShares(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(1+float64(k), -s)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// requests returns whole rounds of the mix. In each round the verdict
// tables, the only requests that compute (~30 ms of both cores each),
// sit at evenly spaced places, and rng shuffles which of them goes
// where and the order of the rest. At the fixed rate two verdict
// tables are then never due within 70 ms of each other, so the p99
// measures their own latency, not how often a shuffle happened to put
// two of them together; near max_rps they overlap as the rate makes
// them.
func requests(m loadgen.Mix, rng *rand.Rand, rounds int) []loadgen.Request {
	var heavy, light []loadgen.Request
	for _, q := range round(m) {
		if computes(q.Path) {
			heavy = append(heavy, q)
		} else {
			light = append(light, q)
		}
	}
	n := len(heavy) + len(light)
	slot := make([]bool, n) // where the verdict tables go
	for h := range heavy {
		slot[(2*h+1)*n/(2*len(heavy))] = true
	}
	out := make([]loadgen.Request, 0, rounds*n)
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(heavy), func(i, j int) { heavy[i], heavy[j] = heavy[j], heavy[i] })
		rng.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
		h, l := 0, 0
		for i := 0; i < n; i++ {
			if slot[i] {
				out = append(out, heavy[h])
				h++
			} else {
				out = append(out, light[l])
				l++
			}
		}
	}
	return out
}

// computes reports whether a request is a verdict table, which the
// server computes afresh on every request; every other endpoint of
// the mix is memoized.
func computes(path string) bool {
	ep, _, _ := strings.Cut(path, "?")
	return ep == "/api/table/2" || ep == "/api/table/3"
}

// The fixed-rate phase is cut into windows consecutive windows of at
// least windowRequests requests each. Latency percentiles are reported
// as the median over the windows: each window's p99 has at least ten
// requests beyond it, and a burst of load from outside the program
// moves one window's figures, not the run's.
const (
	windows        = 3
	windowRequests = 1000
)

// windowRounds is the number of whole rounds in each window: enough for
// the phase to fill d seconds at rate, and at least windowRequests.
func windowRounds(rate, d float64) int {
	n := math.Max(rate*d/windows, windowRequests)
	return int(math.Ceil(n / roundSize))
}
