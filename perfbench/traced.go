package main

import (
	"context"
	"fmt"
	"path/filepath"

	"pathsel/internal/experiments"
)

// runTraced is the per-layer run of a workload, separate from the timed
// runs: it replays the figures exhibit sequence in-process at preset
// with a span around each call into the program's packages, then runs
// the serve-hot fleet once, taking the serving layers from the load
// generator and the processes' /metrics. reproduce-full replays at the
// full preset, serve-hot at the quick preset it serves. The spans are
// written as a Chrome trace.
func runTraced(ctx context.Context, e *env, name string, preset experiments.Preset) (result, error) {
	t := newTracer()
	var layers map[string]metric
	var fails []string
	err := t.do("replay", func() (err error) {
		layers, fails, err = replayLayers(ctx, t, experiments.Config{Seed: paperSeed, Preset: preset})
		return err
	})
	if err != nil {
		return result{}, err
	}
	var res result
	if err := t.do("serve", func() (err error) { res, err = runServe(ctx, e, t); return err }); err != nil {
		return result{}, err
	}
	for k, v := range layers {
		res.Metrics[k] = v
	}
	for _, f := range fails {
		complain("%s", f)
		res.Correct = false
	}
	path := filepath.Join(filepath.Dir(e.work), "trace", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := t.write(path); err != nil {
		return result{}, err
	}
	return res, nil
}
