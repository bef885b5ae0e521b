// Command perfbench is the repository's benchmark. It runs one workload
// against the real binaries (cmd/figures, cmd/serve) as child processes,
// checks their outputs against computations made apart from the
// program, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 they are the per-layer ones, measured by spans the
// benchmark opens around calls into the program's packages, and a
// Chrome trace-event file of those spans is written as well.
//
// Run it through perfbench/run.sh from the repository root, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pathsel/internal/experiments"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs: where the binaries and the run's
// scratch space are, and the run parameters.
type env struct {
	bin     string // directory holding the figures and serve binaries
	work    string // this run's temporary directory
	cache   string // inputs reused across runs of the same build
	seed    int64
	seconds int
	trace   bool
}

func main() {
	workload := flag.String("workload", "", "reproduce-full or serve-hot")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "least length of serve-hot's fixed-rate phase (it always sends three windows of at least 1000 requests)")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	build := flag.String("build", ".bench_build", "build directory holding bin/ and the input cache")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	e := &env{
		bin: filepath.Join(root, *build, "bin"), seed: *seed,
		seconds: *seconds, trace: *trace == 1,
	}
	if e.cache, err = inputCacheDir(filepath.Join(root, *build, "cache"), e.bin); err != nil {
		fatal(err)
	}
	if e.work, err = os.MkdirTemp(filepath.Join(root, *build), "run-"); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(e.work)

	before, err := treeDigest(root, *build)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	var res result
	switch {
	case *workload == "reproduce-full" && e.trace:
		res, err = runTraced(ctx, e, *workload, experiments.Full)
	case *workload == "reproduce-full":
		res, err = runReproduce(ctx, e)
	case *workload == "serve-hot" && e.trace:
		res, err = runTraced(ctx, e, *workload, experiments.Quick)
	case *workload == "serve-hot":
		res, err = runServe(ctx, e, nil)
	default:
		err = fmt.Errorf("unknown -workload %q (want reproduce-full or serve-hot)", *workload)
	}
	if err != nil {
		os.RemoveAll(e.work)
		fatal(err)
	}
	after, err := treeDigest(root, *build)
	if err != nil {
		fatal(err)
	}
	if changed := diffDigests(before, after); len(changed) > 0 {
		res.Correct = false
		complain("files of the checkout changed during the run: %v", changed)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// complain reports a failed correctness check on stderr; the caller
// records the failure in the result.
func complain(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// quantile is the nearest-rank q-quantile of sorted values: a real
// observation, never an interpolation.
func quantile(sorted []float64, q float64) float64 {
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median sorts a copy of vs and returns its nearest-rank median.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
