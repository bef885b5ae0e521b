package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/loadgen"
	"pathsel/internal/report"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// handDataset builds a dataset whose every listed directed pair has one
// RTT sample of the given value; a negative value records a pair whose
// probes were all lost (no RTT samples).
func handDataset(hosts []topology.HostID, rtts map[[2]int]float64) *dataset.Dataset {
	ds := &dataset.Dataset{Name: "hand", Hosts: hosts, Paths: map[dataset.PairKey]*dataset.PathData{}}
	for k, v := range rtts {
		key := dataset.PairKey{Src: topology.HostID(k[0]), Dst: topology.HostID(k[1])}
		p := &dataset.PathData{Key: key, Measurements: 1}
		if v >= 0 {
			p.RTT = []dataset.RTTSample{{RTTMs: v}}
		}
		ds.Paths[key] = p
	}
	return ds
}

func byKey(pairs []oraclePair) map[[2]int]oraclePair {
	out := map[[2]int]oraclePair{}
	for _, p := range pairs {
		out[[2]int{int(p.Key.Src), int(p.Key.Dst)}] = p
	}
	return out
}

// Three hosts, all six directions measured. Worked by hand: every
// alternate is the single relay through the third host.
func TestBestAlternatesTriangle(t *testing.T) {
	ds := handDataset([]topology.HostID{1, 2, 3}, map[[2]int]float64{
		{1, 2}: 100, {1, 3}: 30, {3, 2}: 40, {2, 3}: 50, {3, 1}: 35, {2, 1}: 90,
	})
	got := byKey(bestAlternates(ds))
	want := map[[2]int][2]float64{ // direct, alternate
		{1, 2}: {100, 70}, // 1-3-2 = 30+40
		{1, 3}: {30, 150}, // 1-2-3 = 100+50
		{3, 2}: {40, 135}, // 3-1-2 = 35+100
		{2, 3}: {50, 120}, // 2-1-3 = 90+30
		{3, 1}: {35, 130}, // 3-2-1 = 40+90
		{2, 1}: {90, 85},  // 2-3-1 = 50+35
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for k, w := range want {
		if p := got[k]; p.Direct != w[0] || p.Alt != w[1] {
			t.Errorf("pair %v: direct %g alt %g, want %g %g", k, p.Direct, p.Alt, w[0], w[1])
		}
	}
	imp := improvements(bestAlternates(ds))
	if f := fracAbove(imp); f != 1-float64(4)/6 {
		t.Errorf("better-alternate fraction %g, want 2/6", f)
	}
}

// Four hosts: the best alternate of 1->4 takes two relays, beating a
// one-relay path; 4 has no out-edges, so pairs from it do not exist,
// and 2->1 has no alternate at all and is left out.
func TestBestAlternatesMultiHop(t *testing.T) {
	ds := handDataset([]topology.HostID{1, 2, 3, 4}, map[[2]int]float64{
		{1, 4}: 100, {1, 2}: 10, {2, 3}: 10, {3, 4}: 10, {1, 3}: 50, {2, 1}: 5,
	})
	got := byKey(bestAlternates(ds))
	if p, ok := got[[2]int{1, 4}]; !ok || p.Alt != 30 || p.Improvement() != 70 {
		t.Errorf("1->4: %+v, want alternate 30 via 2 and 3", p)
	}
	if p := got[[2]int{1, 3}]; p.Alt != 20 {
		t.Errorf("1->3 alternate %g, want 20 via 2", p.Alt)
	}
	if _, ok := got[[2]int{2, 1}]; ok {
		t.Error("2->1 has no alternate path and must be left out")
	}
	if _, ok := got[[2]int{1, 2}]; ok {
		t.Error("1->2 has no alternate path (nothing re-enters 2 except from 1) and must be left out")
	}
}

// A pair whose probes were all lost is neither a pair nor an edge.
func TestBestAlternatesSkipsLostPairs(t *testing.T) {
	ds := handDataset([]topology.HostID{1, 2, 3}, map[[2]int]float64{
		{1, 2}: 100, {1, 3}: -1, {3, 2}: 40, {3, 1}: 20, {2, 1}: 80,
	})
	got := byKey(bestAlternates(ds))
	if _, ok := got[[2]int{1, 3}]; ok {
		t.Error("1->3 has no RTT samples and must be left out")
	}
	if p, ok := got[[2]int{1, 2}]; ok {
		t.Errorf("1->2 has no alternate once 1->3 is unmeasured, got %+v", p)
	}
	if p := got[[2]int{3, 2}]; p.Alt != 120 {
		t.Errorf("3->2 alternate %g, want 3-1-2 = 120", p.Alt)
	}
}

// cdfRows must print exactly what report.DumpCDF prints, at sizes on
// both sides of the 500-point cap.
func TestCDFRowsMatchDumpCDF(t *testing.T) {
	for _, n := range []int{1, 3, 500, 501, 1001, 1469} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i*7919)%n) - float64(n)/3
		}
		var buf bytes.Buffer
		if err := report.DumpCDF(&buf, stats.NewCDF(vals), 500); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, r := range cdfRows(stats.NewCDF(vals).Values(), 500) {
			fmt.Fprintf(&b, "%g\t%s\n", r.X, r.Frac)
		}
		if b.String() != buf.String() {
			t.Errorf("n=%d: rows differ from report.DumpCDF", n)
		}
	}
}

func TestCheckCDFColumn(t *testing.T) {
	for _, tc := range []struct {
		rows [][]string
		ok   bool
	}{
		{[][]string{{"1", "0.5"}, {"2", "1.0000"}}, true},
		{[][]string{{"1", "0.6"}, {"2", "0.5"}, {"3", "1"}}, false},
		{[][]string{{"1", "0.5"}, {"2", "0.9"}}, false},
	} {
		if got := checkCDFColumn(tc.rows) == ""; got != tc.ok {
			t.Errorf("%v: ok=%v, want %v", tc.rows, got, tc.ok)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP http_request_duration_seconds HTTP request latency.
# TYPE http_request_duration_seconds histogram
http_request_duration_seconds_bucket{route="GET /api/table/{n}",le="0.001"} 3
http_request_duration_seconds_sum{route="GET /api/table/{n}"} 0.25
http_request_duration_seconds_count{route="GET /api/table/{n}"} 10
http_request_duration_seconds_sum{route="GET /api/table1"} 0.5
http_request_duration_seconds_count{route="GET /api/table1"} 5
suite_cache_hits_total 42
`
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("suite_cache_hits_total"); got != 42 {
		t.Errorf("hits %g, want 42", got)
	}
	if got := meanMs(promSeries{}, p, "http_request_duration_seconds", `route="GET /api/table/{n}"`); got != 25 {
		t.Errorf("table mean %g ms, want 25", got)
	}
	if got := p.sum("http_request_duration_seconds_count"); got != 15 {
		t.Errorf("all-route count %g, want 15", got)
	}
	if _, err := parseProm("novalue\n"); err == nil {
		t.Error("a line without a value must be an error")
	}
}

func TestRequestsSpreadVerdictTables(t *testing.T) {
	m := loadgen.DefaultMix()
	base := round(m)
	want := map[string]int{}
	heavy := 0
	for _, q := range base {
		want[q.Path]++
		if computes(q.Path) {
			heavy++
		}
	}
	if heavy == 0 || heavy == len(base) {
		t.Fatalf("a round has %d verdict tables of %d requests", heavy, len(base))
	}
	reqs := requests(m, rand.New(rand.NewSource(7)), 3)
	if len(reqs) != 3*len(base) {
		t.Fatalf("%d requests, want %d", len(reqs), 3*len(base))
	}
	last := -len(base)
	for r := 0; r < 3; r++ {
		got := map[string]int{}
		for i, q := range reqs[r*len(base) : (r+1)*len(base)] {
			got[q.Path]++
			if computes(q.Path) {
				at := r*len(base) + i
				if gap := at - last; gap < len(base)/heavy {
					t.Errorf("verdict tables at %d and %d, %d apart; want at least %d", last, at, gap, len(base)/heavy)
				}
				last = at
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d holds another multiset of requests than round()", r)
		}
	}
}
