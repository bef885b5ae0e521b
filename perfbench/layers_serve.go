package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strings"
	"time"

	"pathsel/internal/shard"
)

// serverLayers turns two scrapes around the fixed-rate phase into the
// server.* per-layer metrics. Handler and forward times are per-route
// means over the phase. Cache counters and decode time cover the
// fleet's whole life, warm-up included, since the suites are loaded
// during warm-up and the phase itself only hits.
func serverLayers(before, after scrape, st phaseStats) map[string]metric {
	b, a, none := before.workers, after.workers, promSeries{}
	m := map[string]metric{
		"server.cache_hits":        {delta(none, a, "suite_cache_hits_total"), "count"},
		"server.cache_misses":      {delta(none, a, "suite_cache_misses_total"), "count"},
		"server.cache_evictions":   {delta(none, a, "suite_cache_evictions_total"), "count"},
		"server.snapshot_loads":    {delta(none, a, "suite_snapshot_loads_total"), "count"},
		"server.decode_ms":         {meanMs(none, a, "suite_decode_duration_seconds"), "ms"},
		"server.figure_ms":         {meanMs(b, a, "http_request_duration_seconds", `route="GET /api/figure/{n}"`), "ms"},
		"server.verdict_table_ms":  {meanMs(b, a, "http_request_duration_seconds", `route="GET /api/table/{n}"`), "ms"},
		"server.table1_ms":         {meanMs(b, a, "http_request_duration_seconds", `route="GET /api/table1"`), "ms"},
		"server.router_forward_ms": {meanMs(before.router, after.router, "router_forward_duration_seconds"), "ms"},
		"server.router_retries":    {delta(before.router, after.router, "router_retries_total"), "count"},
	}
	hop := 0.0
	if worker := workerMedianMs(before, after); worker > 0 {
		hop = st.serviceP50 - worker
	}
	m["server.router_hop_ms"] = metric{hop, "ms"}
	m["shard.lookup_ns"] = metric{shardLookupNs(), "ns"}
	return m
}

// workerMedianMs is the median handling time the workers logged for
// the API requests of the phase, read from their access logs.
func workerMedianMs(before, after scrape) float64 {
	var durs []float64
	for i := range before.logOffsets {
		f, err := os.Open(after.logPaths[i])
		if err != nil {
			continue
		}
		sec := io.NewSectionReader(f, before.logOffsets[i], after.logOffsets[i]-before.logOffsets[i])
		sc := bufio.NewScanner(sec)
		for sc.Scan() {
			var rec struct {
				Msg  string  `json:"msg"`
				Path string  `json:"path"`
				Dur  float64 `json:"duration_ms"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Msg != "request" || !strings.HasPrefix(rec.Path, "/api/") {
				continue
			}
			durs = append(durs, rec.Dur)
		}
		f.Close()
	}
	if len(durs) == 0 {
		return 0
	}
	return median(durs)
}

// shardLookupNs times the router's ring lookup: owner plus retry
// successors for a suite key, over the two-worker ring the fleet uses.
func shardLookupNs() float64 {
	r := shard.New(0)
	r.Add("http://127.0.0.1:1")
	r.Add("http://127.0.0.1:2")
	const n = 200000
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = shard.Key(int64(i+1), "quick")
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = r.Lookup(keys[i%len(keys)], 3)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
