package main

import (
	"context"
	"fmt"
	"time"

	"pathsel/internal/bgp"
	"pathsel/internal/core"
	"pathsel/internal/dataset"
	"pathsel/internal/experiments"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/snapshot"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/topology"
)

// replayLayers replays cmd/figures' exhibit sequence in-process, one
// span around each call, then times the layers under the exhibits
// (snapshot codec, substrate generation, core queries, the netsim link
// model and the prober) on the built suite. It returns the per-layer
// metrics and the failed checks of the in-process Figure 1 against the
// oracle.
func replayLayers(ctx context.Context, t *tracer, cfg experiments.Config) (map[string]metric, []string, error) {
	m := map[string]metric{}
	spanS := func(key, name string) { m[key] = metric{seconds(t.last(name).dur()), "s"} }
	spanMs := func(key, name string) { m[key] = metric{millis(t.last(name).dur()), "ms"} }
	allocMB := func(key, name string) { m[key] = metric{t.last(name).allocMB, "MB"} }

	var s *experiments.Suite
	if err := t.do("experiments.build", func() (err error) {
		s, err = experiments.BuildContext(ctx, cfg)
		return err
	}); err != nil {
		return nil, nil, err
	}
	spanS("experiments.build_s", "experiments.build")
	allocMB("experiments.build_alloc_mb", "experiments.build")
	measurements := 0
	for _, ds := range []*dataset.Dataset{s.UW1, s.UW3, s.UW4A, s.UW4B, s.D2, s.N2} {
		measurements += ds.Characteristics().Measurements
	}
	m["measure.measurements"] = metric{float64(measurements), "count"}
	m["measure.measurements_per_s"] = metric{float64(measurements) / m["experiments.build_s"].Value, "1/s"}

	var fig1 []experiments.Series
	paper := []struct {
		name string
		fn   func() error
	}{
		{"experiments.table1", func() error { experiments.Table1(s); return nil }},
		{"experiments.figure1", func() (err error) { fig1, err = experiments.Figure1(s); return err }},
		{"experiments.figure2", discard(s, experiments.Figure2)},
		{"experiments.figure3", discard(s, experiments.Figure3)},
		{"experiments.figure4", discard(s, experiments.Figure4)},
		{"experiments.figure5", discard(s, experiments.Figure5)},
		{"experiments.figure6", discard(s, experiments.Figure6)},
		{"experiments.figure9", discard(s, experiments.Figure9)},
		{"experiments.figure10", discard(s, experiments.Figure10)},
		{"experiments.figure11", discard(s, experiments.Figure11)},
		{"experiments.figure15", discard(s, experiments.Figure15)},
		{"experiments.figure7", discard(s, experiments.Figure7)},
		{"experiments.figure8", discard(s, experiments.Figure8)},
		{"experiments.table2", discard(s, experiments.Table2)},
		{"experiments.table3", discard(s, experiments.Table3)},
		{"experiments.figure12", discard(s, experiments.Figure12)},
		{"experiments.figure13", discard(s, experiments.Figure13)},
		{"experiments.figure14", discard(s, experiments.Figure14)},
		{"experiments.figure16", discard(s, experiments.Figure16)},
	}
	if err := t.do("experiments.paper_exhibits", func() error {
		for _, ex := range paper {
			if err := t.do(ex.name, ex.fn); err != nil {
				return fmt.Errorf("%s: %w", ex.name, err)
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	spanS("experiments.paper_exhibits_s", "experiments.paper_exhibits")
	allocMB("experiments.paper_exhibits_alloc_mb", "experiments.paper_exhibits")
	for _, n := range []string{"figure6", "figure11", "figure12", "table2", "table3"} {
		spanMs("experiments."+n+"_ms", "experiments."+n)
	}

	var ov experiments.OverlayResult
	extensions := []struct {
		name string
		fn   func() error
	}{
		{"experiments.conservativity", discard(s, experiments.ValidateConservativity)},
		{"experiments.triangulation", discard(s, experiments.Triangulation)},
		{"experiments.route_dynamics", func() error { _, err := experiments.RouteDynamics(s, cfg.Seed); return err }},
		{"experiments.path_inflation", func() error { _, _, err := experiments.PathInflation(s); return err }},
		{"experiments.episodes", func() error {
			_, err := core.NewAnalyzer(s.UW4A).WithConcurrency(cfg.Concurrency).AnalyzeEpisodes()
			return err
		}},
		{"experiments.tcp_validation", func() error { _, err := experiments.ValidateTCPModel(s, cfg.Seed); return err }},
		{"experiments.packet_level", discard(s, experiments.ValidatePacketLevel)},
		{"experiments.cross_metrics", discard(s, experiments.CrossMetrics)},
		{"experiments.cause_ablation", func() error {
			_, err := experiments.CauseAblation(experiments.Config{Seed: cfg.Seed})
			return err
		}},
		{"experiments.overlay", func() (err error) { ov, err = experiments.Overlay(s, cfg.Seed); return err }},
		{"experiments.multipath", discard(s, experiments.Multipath)},
		{"experiments.seed_sensitivity", func() error { _, err := experiments.SeedSensitivity(cfg.Seed, 5); return err }},
	}
	for _, ex := range extensions {
		if err := t.do(ex.name, ex.fn); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ex.name, err)
		}
	}
	for _, n := range []string{"conservativity", "route_dynamics", "episodes", "tcp_validation",
		"packet_level", "cause_ablation", "seed_sensitivity", "multipath", "overlay"} {
		spanS("experiments."+n+"_s", "experiments."+n)
	}
	allocMB("experiments.overlay_alloc_mb", "experiments.overlay")
	probes := 0
	for _, b := range ov.Budgets {
		probes += b.ProbesSent
	}
	m["overlay.probes_sent"] = metric{float64(probes), "count"}
	m["overlay.probes_per_s"] = metric{float64(probes) / m["experiments.overlay_s"].Value, "1/s"}

	fails := checkFigure1(s, fig1)

	if err := codecLayers(ctx, t, s, m); err != nil {
		return nil, nil, err
	}
	if err := substrateLayers(t, s, m); err != nil {
		return nil, nil, err
	}
	if err := queryLayers(t, s, m); err != nil {
		return nil, nil, err
	}
	if err := simulatorLayers(t, s, m); err != nil {
		return nil, nil, err
	}
	return m, fails, nil
}

// discard adapts an exhibit driver to a span body.
func discard[T any](s *experiments.Suite, fn func(*experiments.Suite) (T, error)) func() error {
	return func() error { _, err := fn(s); return err }
}

// checkFigure1 compares the in-process Figure 1 with the oracle.
func checkFigure1(s *experiments.Suite, fig1 []experiments.Series) []string {
	var fails []string
	dss := figure1Datasets(s)
	if len(fig1) != len(dss) {
		return []string{fmt.Sprintf("Figure 1 has %d series, want %d", len(fig1), len(dss))}
	}
	for i, ds := range dss {
		want := improvements(bestAlternates(ds))
		got := fig1[i].CDF.Values()
		if len(got) != len(want) {
			fails = append(fails, fmt.Sprintf("Figure 1 %s has %d pairs, the oracle %d", ds.Name, len(got), len(want)))
			continue
		}
		for j := range got {
			if !closeEnough(got[j], want[j]) {
				fails = append(fails, fmt.Sprintf("Figure 1 %s point %d is %g, the oracle says %g", ds.Name, j, got[j], want[j]))
				break
			}
		}
	}
	return fails
}

// codecLayers times the snapshot codec on the suite, and the substrate
// regeneration a restore runs after decoding.
func codecLayers(ctx context.Context, t *tracer, s *experiments.Suite, m map[string]metric) error {
	var data []byte
	if err := t.do("snapshot.encode", func() (err error) { data, err = snapshot.Encode(s); return err }); err != nil {
		return err
	}
	var cfg experiments.Config
	var primary map[string]*dataset.Dataset
	if err := t.do("snapshot.decode", func() (err error) { cfg, primary, err = snapshot.Decode(data); return err }); err != nil {
		return err
	}
	cfg.Concurrency = s.Config.Concurrency
	if err := t.do("experiments.reassemble", func() error {
		_, err := experiments.Reassemble(ctx, cfg, primary)
		return err
	}); err != nil {
		return err
	}
	m["snapshot.encode_ms"] = metric{millis(t.last("snapshot.encode").dur()), "ms"}
	m["snapshot.bytes"] = metric{float64(len(data)), "B"}
	m["snapshot.decode_ms"] = metric{millis(t.last("snapshot.decode").dur()), "ms"}
	m["experiments.reassemble_ms"] = metric{millis(t.last("experiments.reassemble").dur()), "ms"}
	return nil
}

// substrateRounds is how many times each substrate stage is timed; the
// median is reported.
const substrateRounds = 3

// substrateLayers regenerates the UW plane's topology, IGP and BGP
// tables from the suite's own topology configuration.
func substrateLayers(t *tracer, s *experiments.Suite, m map[string]metric) error {
	var gen, ig, bg []float64
	for r := 0; r < substrateRounds; r++ {
		var top *topology.Topology
		if err := t.do("topology.generate", func() (err error) { top, err = topology.Generate(s.TopoUW.Config); return err }); err != nil {
			return err
		}
		gen = append(gen, millis(t.last("topology.generate").dur()))
		t.do("igp.new", func() error { igp.New(top, igp.DefaultConfig()); return nil })
		ig = append(ig, millis(t.last("igp.new").dur()))
		if err := t.do("bgp.compute", func() error { _, err := bgp.Compute(top); return err }); err != nil {
			return err
		}
		bg = append(bg, millis(t.last("bgp.compute").dur()))
	}
	m["topology.generate_ms"] = metric{median(gen), "ms"}
	m["igp.new_ms"] = metric{median(ig), "ms"}
	m["bgp.compute_ms"] = metric{median(bg), "ms"}
	return nil
}

// queryLayers times core.Query on UW3 (N2 for bandwidth, which needs
// transfers), each on a fresh analyzer so the graph build is included.
func queryLayers(t *tracer, s *experiments.Suite, m map[string]metric) error {
	queries := []struct {
		key  string
		ds   *dataset.Dataset
		spec core.QuerySpec
	}{
		{"core.query_rtt_ms", s.UW3, core.QuerySpec{Metric: core.MetricRTT}},
		{"core.query_loss_ms", s.UW3, core.QuerySpec{Metric: core.MetricLoss}},
		{"core.query_bandwidth_ms", s.N2, core.QuerySpec{Bandwidth: &core.BandwidthQuery{Model: tcpmodel.Default(), Mode: core.Pessimistic}}},
		{"core.query_k4_ms", s.UW3, core.QuerySpec{Metric: core.MetricRTT, K: 4}},
	}
	for _, q := range queries {
		name := q.key[:len(q.key)-3]
		if err := t.do(name, func() error {
			_, err := core.NewAnalyzer(q.ds).WithConcurrency(s.Config.Concurrency).Query(q.spec)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[q.key] = metric{millis(t.last(name).dur()), "ms"}
	}
	return nil
}

// samplePairs is how many UW3 pairs the simulator layers sample.
const samplePairs = 50

// simulatorLayers times netsim link evaluation over UW3 default paths
// at hourly times across a simulated week, and probe traceroutes over
// the same pairs. It runs after every exhibit: traceroutes draw from
// the suite prober's random state.
func simulatorLayers(t *tracer, s *experiments.Suite, m map[string]metric) error {
	fwd, net := s.UWForwarding()
	keys := s.UW3.PairKeys()
	if len(keys) > samplePairs {
		keys = keys[:samplePairs]
	}
	var paths [][]topology.LinkID
	for _, k := range keys {
		p, err := fwd.HostPath(k.Src, k.Dst)
		if err != nil {
			return fmt.Errorf("netsim sample: %w", err)
		}
		paths = append(paths, p.Links)
	}
	const hours, rounds = 7 * 24, 10
	evals := 0
	var sink float64
	t.do("netsim.eval_links", func() error {
		for r := 0; r < rounds; r++ {
			for h := 0; h < hours; h++ {
				at := netsim.Time(h * 3600)
				for _, links := range paths {
					sink += net.EvalLinks(links, at).DelayMs
					evals += len(links)
				}
			}
		}
		return nil
	})
	_ = sink
	m["netsim.link_evals"] = metric{float64(evals), "count"}
	m["netsim.eval_links_ns_per_link"] = metric{float64(t.last("netsim.eval_links").dur().Nanoseconds()) / float64(evals), "ns"}

	_, prb := s.UWPlane()
	var per []float64
	if err := t.do("probe.traceroute", func() error {
		for _, k := range keys {
			for h := 0; h < 4; h++ {
				start := time.Now()
				if _, err := prb.Traceroute(k.Src, k.Dst, netsim.Time(h*6*3600)); err != nil {
					return fmt.Errorf("traceroute %v: %w", k, err)
				}
				per = append(per, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["probe.traceroute_us"] = metric{median(per), "us"}
	return nil
}
