package main

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"pathsel/internal/dataset"
	"pathsel/internal/topology"
)

// The oracle recomputes the paper's headline analysis apart from the
// program: for every measured pair it finds the best alternate path's
// mean RTT with a plain Dijkstra over Dataset.MeanRTT, the direct edge
// removed. It shares no code with internal/core, so a fault in the
// engine's CSR graphs, shared source trees or ALT pruning shows up as a
// disagreement instead of being reproduced.

// oraclePair is one pair's direct mean RTT and best-alternate mean RTT.
type oraclePair struct {
	Key         dataset.PairKey
	Direct, Alt float64
}

// Improvement is direct minus alternate, as Figure 1 plots it.
func (p oraclePair) Improvement() float64 { return p.Direct - p.Alt }

type oracleEdge struct {
	to int
	w  float64
}

// bestAlternates returns every measured pair of ds that has an
// alternate path, in ascending (src, dst) order. Pairs with no
// alternate are left out, as the analysis engine leaves them out.
func bestAlternates(ds *dataset.Dataset) []oraclePair {
	index := make(map[dataset.PairKey]float64, len(ds.Paths))
	hostIdx := make(map[topology.HostID]int, len(ds.Hosts))
	for i, h := range ds.Hosts {
		hostIdx[h] = i
	}
	adj := make([][]oracleEdge, len(ds.Hosts))
	keys := make([]dataset.PairKey, 0, len(ds.Paths))
	for k := range ds.Paths {
		s, ok := ds.MeanRTT(k)
		if !ok {
			continue
		}
		index[k] = s.Mean
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	for _, k := range keys {
		si, di := hostIdx[k.Src], hostIdx[k.Dst]
		adj[si] = append(adj[si], oracleEdge{to: di, w: index[k]})
	}
	out := make([]oraclePair, 0, len(keys))
	for _, k := range keys {
		alt := shortestAvoiding(adj, hostIdx[k.Src], hostIdx[k.Dst])
		if math.IsInf(alt, 1) {
			continue
		}
		out = append(out, oraclePair{Key: k, Direct: index[k], Alt: alt})
	}
	return out
}

// shortestAvoiding is Dijkstra from src to dst that never uses the
// edge src->dst itself.
func shortestAvoiding(adj [][]oracleEdge, src, dst int) float64 {
	dist := make([]float64, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	done := make([]bool, len(adj))
	q := &distHeap{{v: src, d: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(distItem)
		if done[it.v] {
			continue
		}
		if it.v == dst {
			return it.d
		}
		done[it.v] = true
		for _, e := range adj[it.v] {
			if it.v == src && e.to == dst {
				continue
			}
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(q, distItem{v: e.to, d: nd})
			}
		}
	}
	return math.Inf(1)
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// improvements returns the sorted Figure 1 improvements of pairs.
func improvements(pairs []oraclePair) []float64 {
	v := make([]float64, len(pairs))
	for i, p := range pairs {
		v[i] = p.Improvement()
	}
	sort.Float64s(v)
	return v
}

// fracAbove returns the share of sorted values above zero, computed as
// one minus the share at or below zero.
func fracAbove(sorted []float64) float64 {
	le := sort.SearchFloat64s(sorted, math.Nextafter(0, 1))
	return 1 - float64(le)/float64(len(sorted))
}

// cdfRow is one printed row of a CDF data file.
type cdfRow struct {
	X    float64
	Frac string
}

// cdfRows returns the rows a CDF data file holds for sorted values when
// at most maxPoints are kept: every step-th point from the first, and
// the last point always, with the fraction printed to four places.
func cdfRows(sorted []float64, maxPoints int) []cdfRow {
	n := len(sorted)
	step := 1
	if n > maxPoints {
		step = (n + maxPoints - 1) / maxPoints
	}
	var rows []cdfRow
	add := func(i int) {
		rows = append(rows, cdfRow{X: sorted[i], Frac: fmt.Sprintf("%.4f", float64(i+1)/float64(n))})
	}
	for i := 0; i < n; i += step {
		add(i)
	}
	if n > 0 && (n-1)%step != 0 {
		add(n - 1)
	}
	return rows
}

// closeEnough compares a printed value with the oracle's. The engine
// and the oracle add the same edge means in the same order, so they
// agree exactly; the tolerance only absorbs a tie between two equally
// short paths whose sums differ in the last bit.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
